import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdens import (
    CosineBasis,
    ExponentialFamily,
    GaussianMixture,
    TruncatedSeries,
    clip_to_density,
    log_partition,
    make_grid,
    parse_model,
)
from cfdens.errors import MagnitudeError, ModelDomainError
from cfdens.models import mixture_params, tabulate
from cfdens.projection import _kl_expfam_jacobian


def inv_softplus(v):
    return float(np.log(np.expm1(v)))


class TestBasis:
    def test_orthonormality_on_default_grid(self, grid):
        basis = CosineBasis(6)
        tab = basis.eval(grid.points)
        means = grid.integrate(tab)
        assert np.all(np.abs(means) < 1e-8)
        gram = grid.integrate(tab[:, :, None] * tab[:, None, :])
        assert np.allclose(gram, np.eye(6), atol=1e-8)


class TestBasisTable:
    def test_built_once_per_grid_and_dimension(self, monkeypatch):
        builds = []
        build = CosineBasis.eval

        def counted(basis, y):
            builds.append(basis.dim)
            return build(basis, y)

        monkeypatch.setattr(CosineBasis, "eval", counted)
        grid = make_grid(64)
        for model in (TruncatedSeries(CosineBasis(3)), ExponentialFamily(CosineBasis(3)),
                      TruncatedSeries(CosineBasis(4))):
            for beta in (np.zeros(model.beta_dim), np.full(model.beta_dim, 0.1)):
                tabulate(model, beta, grid)
        assert builds == [3, 4]
        table = CosineBasis(3).on_grid(grid)
        assert table is CosineBasis(3).on_grid(grid) and not table.flags.writeable
        assert np.array_equal(table, build(CosineBasis(3), grid.points))
        assert "_basis_tables" not in repr(grid)
        CosineBasis(3).on_grid(make_grid(64))     # an equal grid keeps its own table
        assert builds == [3, 4, 3]


class TestSeries:
    def test_zero_beta_is_uniform(self, grid):
        model = TruncatedSeries(CosineBasis(4))
        assert np.allclose(tabulate(model, np.zeros(4), grid)[0], 1.0)

    def test_mass_one_for_any_beta(self, grid, rng):
        model = TruncatedSeries(CosineBasis(5))
        for _ in range(10):
            beta = rng.normal(0, 0.8, 5)
            vals, _ = tabulate(model, beta, grid)
            assert abs(grid.integrate(vals) - 1.0) < 1e-8


class TestExponentialFamily:
    def test_zero_beta_is_uniform(self, grid):
        model = ExponentialFamily(CosineBasis(4))
        c, dc = log_partition(model, np.zeros(4), grid)
        assert abs(c) < 1e-12
        assert np.all(np.abs(dc) < 1e-10)
        assert np.allclose(tabulate(model, np.zeros(4), grid)[0], 1.0)

    def test_log_partition_gradient_matches_fd(self, grid):
        model = ExponentialFamily(CosineBasis(1))
        beta = np.array([0.3])
        _, dc = log_partition(model, beta, grid)
        h = 1e-6
        fd = (log_partition(model, beta + h, grid)[0]
              - log_partition(model, beta - h, grid)[0]) / (2 * h)
        assert abs(dc[0] - fd) < 1e-6

    def test_kl_jacobian_matches_fd_of_log_partition_gradient(self, grid, rng):
        model = ExponentialFamily(CosineBasis(3))
        beta = rng.normal(0, 0.5, 3)
        got = _kl_expfam_jacobian(model, beta, grid)
        fd = np.empty((3, 3))
        for k in range(3):
            h = 1e-6 * (1 + abs(beta[k]))
            bp, bm = beta.copy(), beta.copy()
            bp[k] += h
            bm[k] -= h
            fd[:, k] = (log_partition(model, bp, grid)[1]
                        - log_partition(model, bm, grid)[1]) / (2 * h)
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)
        assert np.allclose(got, got.T, rtol=0, atol=1e-14)

    def test_gradient_identity_basis_mean(self, grid, rng):
        model = ExponentialFamily(CosineBasis(4))
        beta = rng.normal(0, 0.5, 4)
        _, dc = log_partition(model, beta, grid)
        tab = model.basis.eval(grid.points)
        gv, _ = tabulate(model, beta, grid)
        assert np.allclose(dc, grid.integrate(tab * gv[:, None]), atol=1e-8)

    def test_reflection_symmetry(self, grid, rng):
        # flipping odd-index coefficients corresponds to y -> 1 - y
        model = ExponentialFamily(CosineBasis(4))
        beta = rng.normal(0, 0.6, 4)
        flipped = beta * np.array([-1.0, 1.0, -1.0, 1.0])
        c1, _ = log_partition(model, beta, grid)
        c2, _ = log_partition(model, flipped, grid)
        assert abs(c1 - c2) < 1e-10

    def test_mass_one(self, grid, rng):
        model = ExponentialFamily(CosineBasis(3))
        for _ in range(10):
            beta = rng.normal(0, 0.7, 3)
            vals, _ = tabulate(model, beta, grid)
            assert abs(grid.integrate(vals) - 1.0) < 1e-8

    def test_overflowing_beta_raises_magnitude_error(self, grid):
        # the first overflows b . beta itself; the second keeps b . beta finite
        # but not its range on the grid. Neither may warn on the way (the
        # suite turns a RuntimeWarning into a failure)
        model = ExponentialFamily(CosineBasis(3))
        for beta in (np.full(3, 1e308), np.array([1e308, 0.0, 0.0])):
            with pytest.raises(MagnitudeError, match="log-partition overflowed"):
                log_partition(model, beta, grid)
            with pytest.raises(MagnitudeError, match=r"max \|beta_j\|=1e\+308"):
                tabulate(model, beta, grid)


class TestGaussianMixture:
    def test_single_component_mode_value(self):
        grid = make_grid(65)
        assert grid.points[32] == 0.5
        model = GaussianMixture(1)
        beta = np.array([0.5, inv_softplus(0.1 - model.sigma_min)])
        val, _ = tabulate(model, beta, grid)
        assert val[32] == pytest.approx(1.0 / np.sqrt(2 * np.pi * 0.01), rel=1e-10)

    def test_param_mapping(self, rng):
        model = GaussianMixture(3)
        beta = rng.normal(0, 1.0, model.beta_dim)
        w, mu, sig = mixture_params(model, beta)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)
        assert np.all(sig >= model.sigma_min)
        assert np.array_equal(mu, beta[model.k - 1:2 * model.k - 1])   # component order

    def test_one_component_is_the_general_layout_at_k_1(self, rng):
        # (no free logit, mean, raw scale): the layout of every k, read at k = 1
        model = GaussianMixture(1)
        assert model.beta_dim == 3 * model.k - 1 == 2
        for beta in rng.normal(0.0, 3.0, size=(200, 2)):
            w, mu, sig = mixture_params(model, beta)
            assert np.array_equal(w, [1.0]) and np.array_equal(mu, beta[:1])
            assert np.array_equal(sig, model.sigma_min + np.logaddexp(0.0, beta[1:]))

    def test_nonnegative_density(self, grid, rng):
        model = GaussianMixture(2)
        beta = rng.normal(0, 1.0, model.beta_dim)
        assert np.all(tabulate(model, beta, grid)[0] >= 0)


FAMILIES = [
    TruncatedSeries(CosineBasis(3)),
    ExponentialFamily(CosineBasis(3)),
    GaussianMixture(1),
    GaussianMixture(2),
]


class TestGradients:
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.label)
    def test_matches_finite_differences(self, model, grid128, rng):
        for _ in range(10):
            beta = rng.normal(0, 0.6, model.beta_dim)
            gv, got = tabulate(model, beta, grid128)
            assert gv.shape == (grid128.size,)
            assert got.shape == (grid128.size, model.beta_dim)
            fd = np.empty_like(got)
            for k in range(model.beta_dim):
                h = 1e-6 * (1 + abs(beta[k]))
                bp, bm = beta.copy(), beta.copy()
                bp[k] += h
                bm[k] -= h
                fd[:, k] = (tabulate(model, bp, grid128)[0]
                            - tabulate(model, bm, grid128)[0]) / (2 * h)
            assert np.all(np.abs(got - fd) <= 1e-6 * (1 + np.abs(got)))

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.label)
    def test_nonfinite_beta_rejected(self, model, grid):
        for bad in (np.inf, np.nan):
            beta = np.zeros(model.beta_dim)
            beta[-1] = bad
            with pytest.raises(ModelDomainError, match="non-finite beta"):
                tabulate(model, beta, grid)


class TestClipToDensity:
    def test_valid_density_unchanged(self, grid):
        dens = 1.0 + 0.3 * np.sqrt(2) * np.cos(np.pi * grid.points)
        out = clip_to_density(dens, grid)
        assert np.allclose(out, dens, atol=1e-12)

    def test_negative_tail_repaired(self, grid):
        vals = 1.0 + 1.5 * np.sqrt(2) * np.cos(np.pi * grid.points)
        out = clip_to_density(vals, grid)
        assert np.all(out >= 0)
        assert abs(grid.integrate(out) - 1.0) < 1e-10

    def test_all_nonpositive_rejected(self, grid):
        with pytest.raises(ModelDomainError):
            clip_to_density(np.zeros(grid.size), grid)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=5))
    def test_output_is_density(self, coefs):
        grid = make_grid(128)
        basis = CosineBasis(len(coefs))
        vals = 1.0 + basis.eval(grid.points) @ np.asarray(coefs)
        if vals.max() <= 0:
            return
        out = clip_to_density(vals, grid)
        assert np.all(out >= 0)
        assert abs(grid.integrate(out) - 1.0) < 1e-10


class TestParseModel:
    def test_round_trips(self):
        assert parse_model("series:d=4").label == "series:d=4"
        assert parse_model("expfam:d=2").label == "expfam:d=2"
        assert parse_model("gmm:k=2").label == "gmm:k=2"

    def test_bad_strings(self):
        for text in ("series", "series:d=x", "poly:d=3", "gmm:k="):
            with pytest.raises(ModelDomainError):
                parse_model(text)


MODEL_CONTRACTS = {
    "empty basis": ("basis dimension must be >= 1", lambda: CosineBasis(0)),
    "empty mixture": ("mixture needs at least one component", lambda: GaussianMixture(0)),
    "beta length": ("gmm:k=2: beta has length 4, expected 5",
                    lambda: mixture_params(GaussianMixture(2), np.zeros(4))),
}


@pytest.mark.parametrize("case", sorted(MODEL_CONTRACTS))
def test_model_input_contracts(case):
    fragment, call = MODEL_CONTRACTS[case]
    with pytest.raises(ModelDomainError, match=fragment):
        call()
