import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdens import from_raw, load_csv, make_folds, make_grid, recode_missingness
from cfdens.data import MISSING_LEVEL, EvalGrid, ObservationTable
from cfdens.errors import (
    DataError,
    DegenerateOutcomeError,
    FoldError,
    GridError,
    ParseError,
    SchemaError,
)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


class TestLoadCsv:
    def test_minmax_rescaling(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"],
                         [[0.1, 0, 10], [0.2, 1, 20], [0.3, 1, 30]])
        table = load_csv(path, ["x1"], "a", "y")
        assert np.allclose(table.y, [0.0, 0.5, 1.0])
        assert table.rescale_params == (10.0, 30.0)
        assert np.allclose(table.to_original(table.y), [10, 20, 30])

    def test_constant_outcome_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"],
                         [[0.1, 0, 5], [0.2, 1, 5], [0.3, 1, 5]])
        with pytest.raises(DegenerateOutcomeError):
            load_csv(path, ["x1"], "a", "y")

    def test_missing_outcomes_recoded_not_dropped(self, tmp_path):
        # 5-row fixture: rows 1 and 3 unobserved -> label -1, outcome 0, kept
        path = write_csv(tmp_path / "d.csv", ["x1", "x2", "a", "y"],
                         [[0.1, 0.5, 1, 4.0],
                          [0.2, 0.4, 1, "NA"],
                          [0.3, 0.3, 0, 8.0],
                          [0.4, 0.2, 0, -999],
                          [0.5, 0.1, 1, 6.0]])
        table = load_csv(path, ["x1", "x2"], "a", "y", missing_code=-999)
        assert table.n == 5
        assert list(table.a) == [1, MISSING_LEVEL, 0, MISSING_LEVEL, 1]
        assert table.rescale_params == (4.0, 8.0)
        assert np.allclose(table.y, [0.0, 0.0, 1.0, 0.0, 0.5])

    @pytest.mark.parametrize("code,near", [(-999, -999.005), (0, 1e-9)])
    def test_missing_code_matches_one_value_exactly(self, tmp_path, code, near):
        # "-999.0" is the code -999 written another way; a value next to the
        # code is a real outcome
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"],
                         [[0.1, 1, 4.0], [0.2, 0, near], [0.3, 1, 8.0],
                          [0.4, 0, f"{float(code)}"]])
        table = load_csv(path, ["x1"], "a", "y", missing_code=code)
        assert list(table.a) == [1, 0, 1, MISSING_LEVEL]
        assert table.rescale_params == (near, 8.0)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"], [[1, 0, 2], [2, 1, 3]])
        with pytest.raises(SchemaError, match="x9"):
            load_csv(path, ["x9"], "a", "y")

    @pytest.mark.parametrize("x_cols", [["x1", "y"], ["x1", "a"]])
    def test_covariate_naming_treatment_or_outcome_is_schema_error(self, tmp_path, x_cols):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"], [[1, 0, 2], [2, 1, 3]])
        with pytest.raises(SchemaError, match=f"covariate columns \\['{x_cols[1]}'\\]"):
            load_csv(path, x_cols, "a", "y")

    def test_outcome_naming_the_treatment_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"], [[1, 0, 2], [2, 1, 3]])
        with pytest.raises(SchemaError, match="outcome column 'a' is the treatment column"):
            load_csv(path, ["x1"], "a", "a")

    def test_bad_covariate_reports_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"],
                         [[1.0, 0, 2], ["oops", 1, 3]])
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path, ["x1"], "a", "y")

    @pytest.mark.parametrize("cell", ["1.5", "inf", "nan"])
    def test_treatment_label_must_be_an_integer(self, tmp_path, cell):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"],
                         [[0.1, 0, 2], [0.2, cell, 3], [0.3, 1, 4]])
        with pytest.raises(DataError, match="treatment label .* at row 1"):
            load_csv(path, ["x1"], "a", "y")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x1", "a", "y"], [])
        with pytest.raises(DataError):
            load_csv(path, ["x1"], "a", "y")


class TestRecode:
    def test_observed_row_keeps_label(self):
        t = from_raw(np.ones((3, 1)), [1, 1, 0], [1.0, 2.0, 3.0])
        out = recode_missingness(t, [True, False, False])
        assert list(out.a) == [1, MISSING_LEVEL, MISSING_LEVEL]
        assert out.y[1] == 0.0 and out.y[2] == 0.0
        assert out.y[0] == t.y[0]

    def test_length_mismatch(self):
        t = from_raw(np.ones((3, 1)), [1, 1, 0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            recode_missingness(t, [True, False])


class TestGrid:
    def test_too_coarse_rejected(self):
        with pytest.raises(GridError):
            make_grid(2)
        grid = make_grid(8)
        assert abs(grid.weights.sum() - 1.0) < 1e-12

    def test_trapezoid_linear_integral(self):
        grid = make_grid(512, "trapezoid")
        assert abs(grid.integrate(grid.points) - 0.5) < 1e-6

    def test_gauss_legendre_cosine_squared(self):
        grid = make_grid(64, "gauss_legendre")
        val = grid.integrate(2.0 * np.cos(np.pi * grid.points) ** 2)
        assert abs(val - 1.0) < 1e-10

    @pytest.mark.parametrize("rule,degree", [("trapezoid", 1), ("gauss_legendre", 2 * 16 - 1)])
    def test_polynomial_exactness(self, rule, degree):
        grid = make_grid(16, rule)
        for k in range(degree + 1):
            exact = 1.0 / (k + 1)
            assert abs(grid.integrate(grid.points**k) - exact) < 1e-10

    @pytest.mark.parametrize("points", [[-0.1, 0.5, 1.0], [0.0, 0.5, 1.2], [0.0, np.nan, 1.0]])
    def test_points_outside_unit_interval_rejected(self, points):
        with pytest.raises(GridError, match=r"\[0, 1\]"):
            EvalGrid(np.array(points), np.full(3, 1.0 / 3.0))

    def test_interp_matrix_columns(self):
        grid = make_grid(64)
        vals = np.column_stack([grid.points, grid.points**2])
        at = np.array([0.25, 0.5, 0.75])
        out = grid.interp(vals, at)
        assert out.shape == (3, 2)
        assert np.allclose(out[:, 0], at, atol=1e-12)

    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("width", [None, 3])
    def test_interp_weights_integrate_the_interpolant(self, rule, width):
        # r @ v == c @ interp(v, at), at on nodes, between them, at 0 and 1
        # (beyond the end nodes of a Gauss-Legendre grid) and outside [0, 1]
        grid = make_grid(33, rule)
        rng = np.random.default_rng(5)
        at = np.concatenate([grid.points[[0, 1, 16, 31, 32]], [0.0, 1.0, -0.05, 1.05],
                             rng.uniform(size=40)])
        coef = rng.normal(size=at.size)
        v = rng.normal(size=(grid.size,) if width is None else (grid.size, width))
        lhs = grid.interp_weights(at, coef) @ v
        rhs = coef @ grid.interp(v, at)
        assert lhs.shape == rhs.shape == (() if width is None else (width,))
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    def test_interp_is_piecewise_linear_and_flat_beyond_the_ends(self, rule):
        grid = make_grid(33, rule)
        rng = np.random.default_rng(6)
        at = np.concatenate([grid.points, [-0.05, 0.0, 1.0, 1.05], rng.uniform(size=40)])
        v = rng.normal(size=(grid.size, 2))
        out = grid.interp(v, at)
        for j in range(2):
            assert np.allclose(out[:, j], np.interp(at, grid.points, v[:, j]),
                               rtol=0.0, atol=1e-15)
        assert np.array_equal(out[:grid.size], v)


class TestFolds:
    def test_even_split(self):
        plan = make_folds(4, 2, seed=7)
        sizes = np.bincount(plan.assignment)
        assert sorted(sizes) == [2, 2]

    def test_odd_split(self):
        plan = make_folds(5, 2, seed=7)
        assert sorted(np.bincount(plan.assignment)) == [2, 3]

    def test_deterministic(self):
        a = make_folds(101, 5, seed=13).assignment
        b = make_folds(101, 5, seed=13).assignment
        assert np.array_equal(a, b)

    def test_infeasible(self):
        with pytest.raises(FoldError):
            make_folds(3, 4, seed=0)
        with pytest.raises(FoldError):
            make_folds(10, 1, seed=0)

    def test_negative_seed_is_fold_error(self):
        with pytest.raises(FoldError, match="seed must be >= 0, got -1"):
            make_folds(10, 2, seed=-1)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 400), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_balance_and_determinism(self, n, k, seed):
        if n < k:
            return
        plan = make_folds(n, k, seed)
        sizes = np.bincount(plan.assignment, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        assert np.array_equal(plan.assignment, make_folds(n, k, seed).assignment)
        for j, train, ev in plan.splits():
            assert len(np.intersect1d(train, ev)) == 0
            assert len(train) + len(ev) == n


class TestRescaleRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40))
    def test_round_trip(self, ys):
        ys = np.asarray(ys)
        if ys.max() - ys.min() <= 1e-9:
            return
        t = from_raw(np.zeros((len(ys), 1)), np.zeros(len(ys), dtype=int), ys)
        back = t.to_original(t.y)
        # relative to the magnitude of the data, the natural float scale
        scale = max(abs(t.rescale_params[0]), abs(t.rescale_params[1]))
        assert np.all(np.abs(back - ys) <= 1e-12 * scale)


class TestTableInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            ObservationTable(np.array([[np.nan]]), np.array([0]), np.array([0.5]), (0, 1))

    @pytest.mark.parametrize("label", [1.5, np.inf, np.nan, -0.25, 1e300])
    def test_rejects_label_that_is_not_an_integer(self, label):
        with pytest.raises(DataError, match=re.escape(f"treatment label {float(label)!r} at row 1")):
            from_raw(np.ones((3, 1)), [0, label, 1], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="at row 0"):
            ObservationTable(np.ones((1, 1)), np.array([label]), np.array([0.5]), (0, 1))

    def test_integral_float_labels_accepted(self):
        t = from_raw(np.ones((3, 1)), [0.0, 1.0, -1.0], [1.0, 2.0, 3.0])
        assert t.a.dtype.kind == "i" and list(t.a) == [0, 1, -1]

    def test_rows_subset(self):
        t = from_raw(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
        sub = t.rows([1, 3])
        assert sub.n == 2
        assert list(sub.a) == [1, 1]
        assert sub.rescale_params == t.rescale_params

    def test_immutable_arrays(self):
        t = from_raw(np.ones((2, 1)), [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            t.y[0] = 0.3

    def test_density_to_original_jacobian(self):
        t = from_raw(np.ones((2, 1)), [0, 1], [10.0, 30.0])
        grid = make_grid(64)
        dens = np.ones(grid.size)
        orig = t.density_to_original(dens)
        # mass is preserved after mapping to the 20-unit-wide original scale
        assert np.allclose(orig * 20.0, dens)
