import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import load_csv_reference

from cfdens import from_raw, load_csv, make_folds, make_grid
from cfdens.data import MISSING_LEVEL, EvalGrid, FoldPlan, ObservationTable, check_candidate
from cfdens.errors import (
    CfdensError,
    DataError,
    DegenerateOutcomeError,
    EmptyDataError,
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


# clean cells by column role, and the messy mix some rows draw from instead:
# NA spellings, missing codes (as numbers and as text), padding and text that
# fails to parse
_CLEAN = {"x": ["0", "1", "0.25", "-3.5", "7", "1e3", " 2 ", "4.5 "],
          "a": ["0", "1", " 1 ", "1.0", "0"],
          "y": ["0", "1", "0.25", "-3.5", "7", "1e3", " 2 ", "4.5 ", "-999", "-999.0"]}
_CLEAN["z"] = _CLEAN["x"]
_MESSY = ["", "NA", " na ", "nan", "null", "n/a", "abc", "-999x", "MISS", " ", "inf", "-999"]


@st.composite
def csv_files(draw):
    """(text, x_cols, missing_code): a headered CSV whose header may repeat a
    name or add one, with blank lines, and messy rows with one or two odd
    cells, some of them short or long."""
    header = ["x1", "x2", "a", "y"] + draw(st.lists(st.sampled_from(["x1", "y", "a", "z"]),
                                                    max_size=2))
    header = draw(st.permutations(header))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["blank"] + ["clean"] * 8 + ["messy"] * 2))
        if kind == "blank":
            lines.append("")
            continue
        row = [draw(st.sampled_from(_CLEAN[name[0]])) for name in header]
        if kind == "messy":   # one or two odd cells
            for j in draw(st.lists(st.integers(0, len(header) - 1), min_size=1, max_size=2)):
                row[j] = draw(st.sampled_from(_MESSY))
        cut = draw(st.sampled_from([0, 0, -2, -1, 1, 2] if kind == "messy" else [0]))
        row = row[:len(row) + cut] if cut < 0 else row + ["5"] * cut
        lines.append(",".join(row))
    x_cols = draw(st.sampled_from([["x1", "x2"], ["x2", "x1"], ["x1"]]))
    code = draw(st.sampled_from([None, -999, "-999", "NA", "miss", 0]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), x_cols, code


def _load(loader, path, x_cols, code):
    try:
        return loader(path, x_cols, "a", "y", missing_code=code)
    except CfdensError as exc:
        return type(exc), str(exc)


class TestLoadCsvMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=csv_files())
    def test_tables_and_errors_match_the_row_loop(self, case, tmp_path_factory):
        text, x_cols, code = case
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text)
        got, want = (_load(f, str(path), x_cols, code) for f in (load_csv, load_csv_reference))
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, ObservationTable)
        for attr in ("x", "a", "y"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
        assert got.x.shape == want.x.shape
        assert got.rescale_params == want.rescale_params


class TestRecode:
    def test_observed_row_keeps_label(self):
        t = from_raw(np.ones((4, 1)), [1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0],
                     observed=[True, False, False, True])
        assert list(t.a) == [1, MISSING_LEVEL, MISSING_LEVEL, 0]
        assert t.y[1] == 0.0 and t.y[2] == 0.0
        assert t.y[0] == 0.0 and t.y[3] == 1.0
        assert t.rescale_params == (1.0, 4.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="observed flag length"):
            from_raw(np.ones((3, 1)), [1, 1, 0], [1.0, 2.0, 3.0], observed=[True, False])

    def test_unobserved_row_label_is_still_validated(self):
        # the table is validated on every row before the recode overwrites
        # the unobserved rows' labels
        with pytest.raises(DataError, match="treatment label 1.5 at row 1"):
            from_raw(np.ones((3, 1)), [1, 1.5, 0], [1.0, 2.0, 3.0],
                     observed=[True, False, True])


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

    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("trailing", [(), (8,), (5, 3)])
    def test_integrate_matches_tensordot(self, rule, trailing):
        # bit for bit, in value and shape: a 1-d input gives a 0-d array
        rng = np.random.default_rng(len(trailing))
        for size in (8, 64, 513, 1100):
            grid = make_grid(size, rule)
            for _ in range(10):
                values = rng.normal(size=(size, *trailing)) * 10.0 ** rng.uniform(-3, 3)
                got = grid.integrate(values)
                want = np.tensordot(grid.weights, values, axes=(0, 0))
                assert isinstance(got, np.ndarray) and got.shape == trailing
                assert np.array_equal(got, want)

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

    @settings(max_examples=40, deadline=None, derandomize=True)
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
    @settings(max_examples=40, deadline=None, derandomize=True)
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
        assert sub.n == 2 and sub.d == 2
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


def _empty_file(path):
    path.write_text("")
    return str(path)


def _table(x=((0.1,), (0.2,)), a=(0, 1), y=(0.3, 0.4), rescale=(0.0, 1.0)):
    return ObservationTable(np.array(x, dtype=float), np.array(a), np.array(y, dtype=float),
                            rescale)


# (error type, message fragment, a call that breaks one input contract)
DATA_CONTRACTS = {
    "x not 2-d": (DataError, "covariates must be a 2-d matrix",
                  lambda tmp: _table(x=(0.1, 0.2))),
    "no rows": (EmptyDataError, "need n >= 1 rows",
                lambda tmp: ObservationTable(np.empty((0, 1)), np.empty(0, dtype=int),
                                             np.empty(0), (0.0, 1.0))),
    "length mismatch": (DataError, "length must match covariate rows",
                        lambda tmp: _table(y=(0.3, 0.4, 0.5))),
    "non-finite outcome": (DataError, "non-finite outcome value",
                           lambda tmp: _table(y=(0.3, np.nan))),
    "outcome off [0, 1]": (DataError, "outcomes must lie in [0,1]",
                           lambda tmp: _table(y=(0.3, 1.5))),
    "degenerate range": (DegenerateOutcomeError, "degenerate outcome range",
                         lambda tmp: _table(rescale=(1.0, 1.0))),
    "no observed outcome": (DegenerateOutcomeError, "no observed outcomes",
                            lambda tmp: from_raw(np.ones((2, 1)), [0, 1], [1.0, 2.0],
                                                 observed=[False, False])),
    "non-finite observed outcome": (DataError, "non-finite outcome among observed rows",
                                    lambda tmp: from_raw(np.ones((3, 1)), [0, 1, 1],
                                                         [1.0, np.inf, 2.0])),
    "empty csv": (EmptyDataError, "no header row",
                  lambda tmp: load_csv(_empty_file(tmp / "e.csv"), ["x"], "a", "y")),
    "grid shapes": (GridError, "must be 1-d and matched",
                    lambda tmp: EvalGrid(np.array([0.0, 1.0]), np.array([1.0]))),
    "grid order": (GridError, "strictly increasing",
                   lambda tmp: EvalGrid(np.array([0.5, 0.2]), np.array([0.5, 0.5]))),
    "grid off [0, 1]": (GridError, "must lie in [0, 1]",
                        lambda tmp: EvalGrid(np.array([0.5, 1.5]), np.array([0.5, 0.5]))),
    "grid weights": (GridError, "strictly positive",
                     lambda tmp: EvalGrid(np.array([0.2, 0.5]), np.array([1.5, -0.5]))),
    "grid mass": (GridError, "integrate the constant 1 to 1",
                  lambda tmp: EvalGrid(np.array([0.2, 0.5]), np.array([0.5, 0.4]))),
    "grid rule": (GridError, "unknown grid rule: 'simpson'",
                  lambda tmp: make_grid(16, "simpson")),
    "fold assignment": (FoldError, "assignment length must equal n",
                        lambda tmp: FoldPlan(n=4, k_folds=2, assignment=np.array([0, 1, 0]),
                                             seed=0)),
}


@pytest.mark.parametrize("case", sorted(DATA_CONTRACTS))
def test_data_input_contracts(case, tmp_path):
    error, fragment, call = DATA_CONTRACTS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)


class TestCheckCandidate:
    """One check of a fixed candidate density, shared by effects and selection."""

    def test_passes_a_finite_density_through_as_floats(self, grid128):
        g = np.arange(grid128.size)
        out = check_candidate(g, grid128)
        assert out.dtype == float and np.array_equal(out, g)

    @pytest.mark.parametrize("size,bad,message", [
        (127, None, "candidate density must be tabulated on the grid"),
        (128, 7, "candidate density is non-finite at grid index 7")])
    def test_rejects_shape_and_non_finite_entries(self, grid128, size, bad, message):
        g = np.ones(size)
        if bad is not None:
            g[bad] = np.nan
            g[bad + 3] = np.inf
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            check_candidate(g, grid128)
