import numpy as np
import pytest

from helpers import effect_l2_direct, onestep_distance_by_hand, random_density, true_fold

from cfdens import DistanceSpec, cross_fit, divergence, make_folds, parse_distance
from cfdens.data import ObservationTable
from cfdens.effects import effect_fixed_candidate, effect_onestep
from cfdens.errors import DataError
from cfdens.models import CosineBasis, TruncatedSeries
from cfdens.nuisance import tabulate_nuisances
from cfdens.oracle import get_dgp, oracle_effect
from cfdens.projection import solve_onestep
from cfdens.selection import pseudo_l2_risk

L2 = DistanceSpec("l2")


def shared_fit_fold(table, grid, rng):
    """Both levels share one fitted curve object, so the marginals coincide."""
    curve = 1.0 + 0.3 * np.sin(2 * np.pi * grid.points)

    def eta_fn(xq, lev, pts):
        return np.tile(1.0 + 0.3 * np.sin(2 * np.pi * pts), (len(xq), 1))

    return [tabulate_nuisances(table, np.arange(table.n), (0, 1), grid,
                               lambda xq, lev: np.full(len(xq), 0.5), eta_fn)]


class TestEffectOnestep:
    def test_identical_fits_give_exact_zero(self, rng, grid128):
        dgp = get_dgp("null_equal")
        table = dgp.sample(400, rng)
        fn = shared_fit_fold(table, grid128, rng)
        est = effect_onestep(L2, table, fn, grid128)
        assert est.psi_hat == 0.0
        assert est.se == 0.0
        assert est.near_null

    def test_bump_effect_recovered(self, grid128):
        dgp = get_dgp("cosine_bump")
        oracle = oracle_effect(dgp, L2, grid128)
        assert oracle == pytest.approx(0.25, abs=1e-9)
        rng = np.random.default_rng(7)
        table = dgp.sample(8000, rng)
        folds = make_folds(8000, 2, seed=5)
        fn = cross_fit(table, folds, (0, 1), grid128)
        est = effect_onestep(L2, table, fn, grid128)
        assert abs(est.psi_hat - 0.25) < 0.05
        assert est.ci_wald[0] <= 0.25 <= est.ci_wald[1]

    def test_kl_population_limit_matches_quadrature(self, rng, grid128):
        # exact nuisances on an x-free design: the plug-in piece equals the
        # quadrature oracle and the correction piece is mean-zero noise
        dgp = get_dgp("cosine_bump")
        spec = DistanceSpec("kl")
        table = dgp.sample(4000, rng)
        fn = true_fold(dgp, table, (0, 1), grid128)
        p1, p0 = fn[0].p_hat[1], fn[0].p_hat[0]
        oracle = divergence(spec, dgp.marginal(1, grid128), dgp.marginal(0, grid128), grid128)
        assert divergence(spec, p1, p0, grid128) == pytest.approx(oracle, abs=1e-6)
        est = effect_onestep(spec, table, fn, grid128)
        noise = est.psi_hat - divergence(spec, np.maximum(p1, 1e-8),
                                         np.maximum(p0, 1e-8), grid128)
        assert abs(noise) <= 4 * est.se + 1e-12

    def test_conservative_interval_contains_wald(self, rng, grid128):
        dgp = get_dgp("null_equal")
        table = dgp.sample(1000, rng)
        folds = make_folds(1000, 2, seed=3)
        fn = cross_fit(table, folds, (0, 1), grid128)
        est = effect_onestep(L2, table, fn, grid128)
        assert est.ci_conservative[0] <= est.ci_wald[0]
        assert est.ci_conservative[1] >= est.ci_wald[1]
        assert est.se >= 0
        # near the null the conservative width is driven by 1/sqrt(n)
        width = est.ci_conservative[1] - est.ci_conservative[0]
        assert width >= 2 * 1.96 / np.sqrt(table.n) - 1e-12


class TestDirectFormIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_onestep_on_fitted_nuisances(self, seed, grid128):
        dgp = get_dgp("confounded_shift")
        rng = np.random.default_rng(seed)
        table = dgp.sample(700, rng)
        folds = make_folds(700, 2, seed=seed)
        fn = cross_fit(table, folds, (0, 1), grid128)
        a = effect_onestep(L2, table, fn, grid128)
        b = effect_l2_direct(table, fn, grid128)
        assert abs(a.psi_hat - b.psi_hat) < 1e-10
        assert a.se == pytest.approx(b.se, abs=1e-12)

    def test_null_gives_zero(self, rng, grid128):
        dgp = get_dgp("null_equal")
        table = dgp.sample(300, rng)
        fn = shared_fit_fold(table, grid128, rng)
        est = effect_l2_direct(table, fn, grid128)
        assert est.psi_hat == 0.0

    def test_hand_computed_four_row_fixture(self, grid128):
        # pi = 1/2 both arms; two fixed conditional curves; done by hand
        n = 4
        x = np.array([[0.2, 0.2], [0.4, 0.4], [0.6, 0.6], [0.8, 0.8]])
        a = np.array([1, 0, 1, 0])
        y = np.array([0.3, 0.6, 0.8, 0.1])
        table = ObservationTable(x, a, y, (0.0, 1.0))
        curve1 = 1.0 + 0.4 * np.sqrt(2) * np.cos(np.pi * grid128.points)
        curve0 = np.ones(grid128.size)

        def eta_fn(xq, lev, pts):
            c = curve1 if lev == 1 else curve0
            return np.tile(c, (len(xq), 1))

        fn = [tabulate_nuisances(table, np.arange(n), (0, 1), grid128,
                                 lambda xq, lev: np.full(len(xq), 0.5), eta_fn)]
        est = effect_l2_direct(table, fn, grid128)

        w = grid128.weights
        c1 = curve1 / (curve1 @ w)
        c0 = curve0 / (curve0 @ w)
        delta = c1 - c0                       # p1_hat - p0_hat (x-free curves)
        int_d_eta1 = float(delta @ (w * c1))
        int_d_eta0 = float(delta @ (w * c0))
        terms = []
        for i in range(n):
            d_at_y = float(grid128.interp(delta, np.array([y[i]]))[0])
            if a[i] == 1:
                terms.append((d_at_y - int_d_eta1) / 0.5 + (int_d_eta1 - int_d_eta0))
            else:
                terms.append(-(d_at_y - int_d_eta0) / 0.5 + (int_d_eta1 - int_d_eta0))
        by_hand = 2.0 * float(np.mean(terms)) - float((delta**2) @ w)
        assert est.psi_hat == pytest.approx(by_hand, abs=1e-12)


class TestFixedCandidate:
    def test_candidate_equal_to_marginal_is_noise_only(self, rng, grid128):
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(3000, rng)
        fn = true_fold(dgp, table, (1,), grid128)
        g = fn[0].p_hat[1]
        est = effect_fixed_candidate(L2, table, fn, 1, g, grid128)
        # plug-in part vanishes; what remains is mean-zero sampling noise
        assert abs(est.psi_hat) <= 4 * est.se + 1e-12

    def test_oracle_distance_recovered(self, grid128):
        # true marginal uniform (arm 0); candidate is the clipped bump
        dgp = get_dgp("cosine_bump")
        g = np.maximum(1.0 + 0.5 * np.sqrt(2) * np.cos(np.pi * grid128.points), 0.0)
        g = g / grid128.integrate(g)
        oracle = grid128.integrate((g - 1.0) ** 2)
        rng = np.random.default_rng(13)
        table = dgp.sample(8000, rng)
        fn = true_fold(dgp, table, (0,), grid128)
        est = effect_fixed_candidate(L2, table, fn, 0, g, grid128)
        assert abs(est.psi_hat - oracle) <= 3 * est.se

    def test_kl_population_limit(self, rng, grid128):
        dgp = get_dgp("cosine_bump")
        spec = DistanceSpec("kl")
        g = np.maximum(1.0 + 0.3 * np.sqrt(2) * np.cos(np.pi * grid128.points), 1e-8)
        g = g / grid128.integrate(g)
        table = dgp.sample(4000, rng)
        fn = true_fold(dgp, table, (1,), grid128)
        p1 = np.maximum(fn[0].p_hat[1], 1e-8)
        oracle_plug = divergence(spec, p1, g, grid128)
        est = effect_fixed_candidate(spec, table, fn, 1, g, grid128)
        assert abs(est.psi_hat - oracle_plug) <= 4 * est.se + 1e-12
        assert est.density_floor == 1e-8


class TestOnestepByHand:
    """Both entry points against the one-step assembled from ``dr_scores``."""

    @pytest.fixture(scope="class")
    def fitted(self, grid128):
        table = get_dgp("confounded_shift").sample(701, np.random.default_rng(3))
        fn = cross_fit(table, make_folds(701, 3, seed=2), (0, 1), grid128)
        g = random_density(grid128, np.random.default_rng(4))
        g[:6] = 0.0                       # the ratio-based distances floor it
        return table, fn, g

    @pytest.mark.parametrize("dist", ["l2", "kl", "chisq", "hellinger", "tv:t=50"])
    @pytest.mark.parametrize("entry", ["effect_onestep", "effect_fixed_candidate"])
    def test_psi_and_se(self, fitted, entry, dist, grid128):
        table, fn, g = fitted
        spec = parse_distance(dist)
        if entry == "effect_onestep":
            est = effect_onestep(spec, table, fn, grid128, (1, 0))
            psi, se = onestep_distance_by_hand(spec, table, fn, grid128, (1, 0))
        else:
            est = effect_fixed_candidate(spec, table, fn, 1, g, grid128)
            psi, se = onestep_distance_by_hand(spec, table, fn, grid128, (1,), g)
        assert est.psi_hat == pytest.approx(psi, rel=1e-12, abs=0.0)
        assert est.se == pytest.approx(se, rel=1e-12, abs=0.0)
        assert est.density_floor == (None if dist in ("l2", "tv:t=50") else 1e-8)


def test_effect_between_a_level_and_itself_is_data_error(grid128):
    dgp = get_dgp("confounded_shift")
    table = dgp.sample(200, np.random.default_rng(0))
    fn = true_fold(dgp, table, (1, 0), grid128)
    with pytest.raises(DataError, match=r"two distinct levels, got \(1, 1\)"):
        effect_onestep(L2, table, fn, grid128, (1, 1))


class TestAbsentLevel:
    @pytest.mark.parametrize("entry", ["effect_onestep", "solve_onestep",
                                       "effect_fixed_candidate", "pseudo_l2_risk"])
    def test_every_entry_point_raises_data_error(self, entry, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(200, np.random.default_rng(0))
        fn = true_fold(dgp, table, (1,), grid128)
        flat = np.ones(grid128.size)
        calls = {
            "effect_onestep": lambda: effect_onestep(L2, table, fn, grid128, (1, 0)),
            "solve_onestep": lambda: solve_onestep(
                L2, TruncatedSeries(CosineBasis(2)), table, fn, 0, grid128),
            "effect_fixed_candidate": lambda: effect_fixed_candidate(
                L2, table, fn, 0, flat, grid128),
            "pseudo_l2_risk": lambda: pseudo_l2_risk(table, fn, 0, flat, grid128),
        }
        with pytest.raises(DataError, match="level 0 missing from nuisance tabulations"):
            calls[entry]()
