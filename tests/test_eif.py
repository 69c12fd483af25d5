import numpy as np
import pytest

from helpers import f1, f2, f_eval, true_fold

from cfdens import DistanceSpec, make_grid
from cfdens.data import ObservationTable
from cfdens.distances import moment_integrand_factor
from cfdens.eif import dr_scores, effect_curves
from cfdens.errors import DistanceDomainError
from cfdens.models import CosineBasis, ExponentialFamily, TruncatedSeries, g_grad_on_grid, g_on_grid
from cfdens.nuisance import single_split, tabulate_nuisances
from cfdens.oracle import get_dgp, tensor_uniform_quad
from cfdens.projection import _moment_condition, onestep_influence


def correction_transform(distance, model, beta, p_a, grid):
    """The projection's correction transform at beta against the marginal p_a."""
    return _moment_condition(distance, model, beta, grid)[1](p_a)


def arm_terms(level, h):
    """``onestep`` terms of the plain counterfactual mean of h: no plug-in, one arm."""
    return lambda fold: (0.0, [(level, h, 0.0)])


class TestDrScores:
    def test_constant_transform_gives_zero(self, rng, grid128):
        # every raw summand of a constant is that constant, so its influence
        # values vanish
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(200, rng)
        fold = true_fold(dgp, table, (1,), grid128)[0]
        h = np.full(grid128.size, 3.7)
        out = dr_scores(table, fold, 1, h, grid128)
        assert np.all(np.abs(out - 3.7) < 1e-12)
        influence = onestep_influence(table, [fold], grid128, arm_terms(1, h))
        assert np.all(np.abs(influence) < 1e-12)

    def test_full_treatment_reduces_to_centered_transform(self, rng, grid128):
        n = 150
        x = rng.uniform(size=(n, 2))
        y = rng.uniform(size=n)
        table = ObservationTable(x, np.ones(n, dtype=int), y, (0.0, 1.0))
        # any valid conditional density works: the indicator/propensity pair
        # cancels the regression term row by row
        fold = tabulate_nuisances(
            table, np.arange(n), (1,), grid128,
            lambda xq, lev: np.ones(len(xq)),
            lambda xq, lev, pts: np.tile(1.0 + 0.5 * np.sin(2 * np.pi * pts),
                                         (len(xq), 1)))
        h = grid128.points**2
        out = dr_scores(table, fold, 1, h, grid128)
        # interpolation of the tabulated transform is the only slack
        assert np.allclose(out, y**2, atol=1e-3)
        centred = onestep_influence(table, [fold], grid128, arm_terms(1, h))
        assert np.allclose(centred, y**2 - np.mean(y**2), atol=1e-3)
        assert abs(centred.mean()) < 1e-12

    def test_sample_centering_is_exact(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(500, rng)
        fold = true_fold(dgp, table, (0, 1), grid128)[0]
        h = np.column_stack([grid128.points, np.cos(3 * grid128.points)])
        out = onestep_influence(table, [fold], grid128, arm_terms(1, h))
        assert out.shape == (table.n, 2)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-10)

    def test_population_mean_zero_monte_carlo(self, grid128):
        # with true nuisances and the population centering constant, the mean
        # over fresh draws is zero up to Monte-Carlo error
        dgp = get_dgp("confounded_shift")
        n = 100_000
        rng = np.random.default_rng(31)
        table = dgp.sample(n, rng)
        fold = true_fold(dgp, table, (1,), grid128)[0]
        h = CosineBasis(2).eval(grid128.points)
        xq, wx = tensor_uniform_quad(24, 2)
        eta_q = dgp.eta_fn(xq, 1, grid128.points)
        center = wx @ (eta_q @ (grid128.weights[:, None] * h))
        out = dr_scores(table, fold, 1, h, grid128) - center
        mean = out.mean(axis=0)
        se = out.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) <= 3 * se)

    def test_nonfinite_transform_rejected(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(50, rng)
        fold = true_fold(dgp, table, (1,), grid128)[0]
        h = np.ones(grid128.size)
        h[3] = np.inf
        with pytest.raises(DistanceDomainError):
            dr_scores(table, fold, 1, h, grid128)

    def test_variance_stabilizes_with_n(self, grid128):
        dgp = get_dgp("confounded_shift")
        model = TruncatedSeries(CosineBasis(2))
        variances = []
        for n in (10_000, 40_000):
            rng = np.random.default_rng([41, n])
            table = dgp.sample(n, rng)
            fold = true_fold(dgp, table, (1,), grid128)[0]
            curve = correction_transform(DistanceSpec("l2"), model,
                                         np.zeros(2), fold.p_hat[1], grid128)
            out = dr_scores(table, fold, 1, curve, grid128)
            variances.append(out.var(axis=0, ddof=1))
        rel = np.abs(variances[1] - variances[0]) / variances[0]
        assert np.all(rel < 0.10)


class TestDHat:
    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    def test_d_hat_is_mean_of_raw_summands(self, rule, rng):
        # d_hat @ h is the mean of the raw doubly-robust summands, for fitted
        # (factored) and closed-form (dense) nuisances alike; outcomes at 0 and
        # 1 lie outside the Gauss-Legendre end points, where h is constant
        grid = make_grid(64, rule)
        dgp = get_dgp("confounded_shift")
        sample = dgp.sample(800, rng)
        a, y = sample.a.copy(), sample.y.copy()
        a[:6] = [0, 0, 1, 1, 0, 1]
        y[:6] = [0.0, 1.0, 0.0, 1.0, grid.points[0], grid.points[-1]]
        table = ObservationTable(sample.x, a, y, (0.0, 1.0))
        eval_idx = np.concatenate([np.arange(6), np.arange(400, 800)])
        folds = [single_split(table, np.arange(6, 400), eval_idx, (0, 1), grid),
                 true_fold(dgp, table, (0, 1), grid)[0]]
        h = np.column_stack([np.sin(7 * grid.points), 1.0 + grid.points**3])
        for fold in folds:
            for lev in (0, 1):
                want = dr_scores(table, fold, lev, h, grid).mean(axis=0)
                assert np.allclose(fold.d_hat[lev] @ h, want, rtol=1e-12, atol=0.0)


class TestMomentCorrectionCurve:
    def test_l2_is_minus_two_gradient_and_ignores_marginal(self, grid, rng):
        model = TruncatedSeries(CosineBasis(3))
        beta = rng.normal(0, 0.4, 3)
        p_a = np.ones(grid.size)
        curve = correction_transform(DistanceSpec("l2"), model, beta, p_a, grid)
        assert np.allclose(curve, -2.0 * g_grad_on_grid(model, beta, grid))
        p_b = 1.0 + 0.5 * np.sin(2 * np.pi * grid.points)
        curve_b = correction_transform(DistanceSpec("l2"), model, beta, p_b, grid)
        assert np.array_equal(curve, curve_b)  # bit-identical

    def test_kl_expfam_is_minus_score_and_ignores_marginal(self, grid, rng):
        model = ExponentialFamily(CosineBasis(3))
        beta = rng.normal(0, 0.4, 3)
        p_a = np.ones(grid.size)
        curve = correction_transform(DistanceSpec("kl"), model, beta, p_a, grid)
        gv = g_on_grid(model, beta, grid)
        gg = g_grad_on_grid(model, beta, grid)
        assert np.allclose(curve, -gg / gv[:, None], atol=1e-12)
        p_b = 1.0 + 0.4 * np.cos(2 * np.pi * grid.points)
        curve_b = correction_transform(DistanceSpec("kl"), model, beta, p_b, grid)
        assert np.array_equal(curve, curve_b)

    @pytest.mark.parametrize("kind", ["chisq", "hellinger", "tv"])
    def test_is_marginal_derivative_of_moment_integrand(self, kind, grid, rng):
        # the correction transform is the p-derivative of the moment integrand
        spec = DistanceSpec(kind, tv_t=50.0)
        model = TruncatedSeries(CosineBasis(2))
        beta = np.array([0.2, -0.1])
        p_a = 1.0 + 0.4 * np.sqrt(2) * np.cos(np.pi * grid.points) * 0.5
        gv = g_on_grid(model, beta, grid)
        gg = g_grad_on_grid(model, beta, grid)
        curve = correction_transform(spec, model, beta, p_a, grid)
        h = 2e-6
        fd = (moment_integrand_factor(spec, p_a + h, gv)
              - moment_integrand_factor(spec, p_a - h, gv)) / (2 * h)
        assert np.allclose(curve, gg * fd[:, None], atol=1e-4)


class TestEffectCurves:
    def test_l2_antisymmetric_pair(self, grid):
        p1 = 1.0 + 0.3 * np.sin(2 * np.pi * grid.points)
        p0 = np.ones(grid.size)
        lam1, lam0 = effect_curves(DistanceSpec("l2"), p1, p0)
        assert np.allclose(lam1, 2.0 * (p1 - p0))
        assert np.allclose(lam0, -lam1)

    def test_kl_pair(self, grid):
        p1 = 1.0 + 0.3 * np.sin(2 * np.pi * grid.points)
        p0 = np.full(grid.size, 1.0)
        lam1, lam0 = effect_curves(DistanceSpec("kl"), p1, p0)
        assert np.allclose(lam1, np.log(p1 / p0) + 1.0)
        assert np.allclose(lam0, -p1 / p0)

    def test_null_case_vanishes_for_l2(self, grid):
        p = 1.0 + 0.2 * np.cos(2 * np.pi * grid.points)
        lam1, lam0 = effect_curves(DistanceSpec("l2"), p, p)
        assert np.all(lam1 == 0) and np.all(lam0 == 0)

    @pytest.mark.parametrize("kind", ["l2", "kl", "chisq", "hellinger", "tv"])
    def test_matches_raw_table_composition(self, kind, grid):
        spec = DistanceSpec(kind, tv_t=50.0)
        p1 = 1.0 + 0.4 * np.sin(2 * np.pi * grid.points)
        p0 = 1.0 + 0.3 * np.cos(2 * np.pi * grid.points)
        lam1, lam0 = effect_curves(spec, p1, p0)
        assert np.allclose(lam1, p0 * f1(spec, p1, p0), atol=1e-12)
        assert np.allclose(lam0, f_eval(spec, p1, p0) + p0 * f2(spec, p1, p0), atol=1e-12)


class TestFixedCandidateCurve:
    """lam1 of ``effect_curves(spec, p_a, g)`` is the fixed-candidate transform."""

    def test_l2_cases(self, grid):
        g = 1.0 + 0.5 * np.sqrt(2) * np.cos(np.pi * grid.points)
        assert np.allclose(effect_curves(DistanceSpec("l2"), g, g)[0], 0.0)
        lam = effect_curves(DistanceSpec("l2"), np.ones(grid.size), g)[0]
        assert np.allclose(lam, -np.sqrt(2) * np.cos(np.pi * grid.points))
        assert lam[0] == pytest.approx(-np.sqrt(2))

    def test_kl_identity_at_equal_densities(self, grid):
        g = 1.0 + 0.2 * np.sin(2 * np.pi * grid.points)
        lam = effect_curves(DistanceSpec("kl"), g, g)[0]
        assert np.allclose(lam, 1.0)

    @pytest.mark.parametrize("kind", ["chisq", "hellinger", "tv"])
    def test_matches_raw_composition(self, kind, grid):
        spec = DistanceSpec(kind, tv_t=50.0)
        p = 1.0 + 0.4 * np.sin(2 * np.pi * grid.points)
        g = 1.0 + 0.3 * np.cos(2 * np.pi * grid.points)
        assert np.allclose(effect_curves(spec, p, g)[0],
                           g * f1(spec, p, g), atol=1e-12)

