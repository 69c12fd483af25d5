import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from cfdens import DistanceSpec, divergence, effect_onestep, fit_cond_density, make_folds, make_grid
from cfdens.errors import DataError, SolverError
from cfdens.models import CosineBasis, ExponentialFamily, TruncatedSeries, g_on_grid
from cfdens.nuisance import FactoredEta, cross_fit, fold_nuisance
from cfdens.oracle import (
    Experiment,
    _fold_nuisances,
    SyntheticDGP,
    dgp_library,
    effect_population_bias,
    get_dgp,
    loglog_slope,
    mc_run,
    oracle_effect,
    oracle_projection,
    tensor_uniform_quad,
    truncnorm_pdf,
    vonmises_remainder,
)

L2 = DistanceSpec("l2")


class TestDgpLibrary:
    def test_all_shipped_designs_present(self):
        lib = dgp_library()
        assert {"randomized_shift", "confounded_shift", "null_equal",
                "bimodal_mixture", "cosine_bump"} <= set(lib)

    @pytest.mark.parametrize("name", sorted(dgp_library()))
    def test_conditional_density_unit_mass(self, name, rng):
        dgp = get_dgp(name)
        grid = make_grid(2048, "gauss_legendre")
        x = rng.uniform(size=(20, dgp.d))
        for lev in dgp.levels:
            eta = dgp.eta_fn(x, lev, grid.points)
            mass = eta @ grid.weights
            assert np.all(np.abs(mass - 1.0) < 1e-9), name

    @pytest.mark.parametrize("name", sorted(dgp_library()))
    def test_positivity_floor(self, name, rng):
        dgp = get_dgp(name)
        x = rng.uniform(size=(100_000, dgp.d))
        for lev in dgp.levels:
            assert dgp.pi_fn(x, lev).min() >= 0.05, name

    def test_null_design_has_zero_effect(self, grid128):
        dgp = get_dgp("null_equal")
        assert oracle_effect(dgp, L2, grid128) == pytest.approx(0.0, abs=1e-12)

    def test_bump_effect_is_quarter(self, grid128):
        dgp = get_dgp("cosine_bump")
        assert oracle_effect(dgp, L2, grid128) == pytest.approx(0.25, abs=1e-9)

    def test_sample_matches_declared_law(self, grid128):
        # empirical histogram of simulated outcomes vs the declared marginal
        dgp = get_dgp("confounded_shift")
        rng = np.random.default_rng(3)
        table = dgp.sample(200_000, rng)
        truth = dgp.marginal(1, grid128)
        mask = table.a == 1
        hist, edges = np.histogram(table.y[mask], bins=24, range=(0, 1), density=False)
        # reweight by inverse propensity to undo confounded arm assignment
        w = 1.0 / dgp.pi_fn(table.x[mask], 1)
        hist_w, _ = np.histogram(table.y[mask], bins=24, range=(0, 1),
                                 weights=w, density=False)
        dens = hist_w / table.n / (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        truth_at_centers = np.interp(centers, grid128.points, truth)
        assert np.max(np.abs(dens - truth_at_centers)) < 0.05

    def test_exact_marginal_agrees_with_sample_tabulation(self, grid128):
        # the independent reference: eta averaged over 100 000 covariate draws
        dgp = get_dgp("randomized_shift")
        exact = dgp.marginal(1, grid128)
        x = np.random.default_rng(0).uniform(size=(100_000, dgp.d))
        sampled = sum(dgp.eta_fn(x[i:i + 20_000], 1, grid128.points).sum(axis=0)
                      for i in range(0, len(x), 20_000)) / len(x)
        l2gap = np.sqrt(grid128.integrate((exact - sampled) ** 2))
        assert l2gap < 0.02

    @pytest.mark.parametrize("size", [128, 512])
    def test_marginal_averages_every_covariate(self, size):
        # eta depends on x_1 and x_2; a finer tensor rule is the reference
        grid = make_grid(size)
        base = get_dgp("confounded_shift")

        def eta_fn(x, level, points):
            mean = 0.40 + 0.18 * (level == 1) + 0.12 * (x[:, 0] - 0.5) + 0.3 * (x[:, 1] - 0.5)
            return truncnorm_pdf(points, mean, 0.27)

        dgp = dataclasses.replace(base, eta_fn=eta_fn)
        x, w = tensor_uniform_quad(64, 2)
        for level in dgp.levels:
            np.testing.assert_allclose(dgp.marginal(level, grid),
                                       w @ eta_fn(x, level, grid.points), rtol=1e-12)

    def test_marginal_vs_brute_force_kde(self, grid128):
        # two independent computations of the same truth: covariate-averaged
        # tabulation vs a kernel estimate from a million simulated outcomes
        dgp = get_dgp("randomized_shift")
        truth = dgp.marginal(1, grid128)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(1_000_000, 2))
        y = dgp.sampler(x, np.ones(len(x), dtype=int), rng)
        h = 0.01
        edges = np.linspace(0, 1, 401)
        hist, _ = np.histogram(y, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        kde = np.array([
            np.sum(hist * np.exp(-0.5 * ((c - centers) / h) ** 2))
            / np.sum(np.exp(-0.5 * ((c - centers) / h) ** 2))
            for c in grid128.points
        ])
        interior = (grid128.points > 0.05) & (grid128.points < 0.95)
        l2gap = np.sqrt(np.mean((kde[interior] - truth[interior]) ** 2))
        assert l2gap < 0.02


class TestOracleProjection:
    def test_closed_form_matches_nelder_mead_l2_series(self, grid):
        dgp = get_dgp("randomized_shift")
        model = TruncatedSeries(CosineBasis(3))
        p_a = dgp.marginal(1, grid)
        orc = oracle_projection(dgp, 1, model, L2, grid, p_a=p_a)
        assert orc.method == "closed_form"

        def objective(beta):
            return divergence(L2, p_a, g_on_grid(model, beta, grid), grid)

        res = minimize(objective, np.zeros(3), method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000})
        assert np.max(np.abs(res.x - orc.beta_star)) < 1e-4

    def test_expfam_recovers_generating_coefficients(self, grid):
        # build a design whose marginal is itself in the exponential family
        model = ExponentialFamily(CosineBasis(2))
        beta_gen = np.array([0.4, -0.2])
        curve = g_on_grid(model, beta_gen, grid)

        dgp = SyntheticDGP(
            name="expfam_truth", d=2, levels=(0, 1),
            pi_fn=lambda x, lev: np.full(len(x), 0.5),
            eta_fn=lambda x, lev, pts: np.tile(
                np.interp(pts, grid.points, curve), (len(x), 1)),
            sampler=None)
        orc = oracle_projection(dgp, 1, model, DistanceSpec("kl"), grid)
        assert np.max(np.abs(orc.beta_star - beta_gen)) < 1e-5
        assert orc.moment_norm < 1e-6

    def test_base_density_truth_gives_zero_coefficients(self, grid):
        dgp = get_dgp("cosine_bump")  # arm 0 is exactly uniform
        for model in (TruncatedSeries(CosineBasis(3)), ExponentialFamily(CosineBasis(3))):
            orc = oracle_projection(dgp, 0, model, L2 if isinstance(model, TruncatedSeries)
                                    else DistanceSpec("kl"), grid)
            assert np.max(np.abs(orc.beta_star)) < 1e-6


class TestMcRun:
    def test_shape_and_failure_free_smoke(self):
        exp = Experiment(name="smoke", dgp="cosine_bump", estimator="projection",
                         n_values=(300,), reps=2, seed=1, model="series:d=2",
                         grid_size=64)
        out = mc_run(exp)
        assert len(out.records) == 2
        assert all(not r["failed"] for r in out.records)
        assert out.summary[300]["reps"] == 2

    def test_only_package_errors_count_as_failed_reps(self, monkeypatch):
        exp = Experiment(name="smoke", dgp="cosine_bump", estimator="projection",
                         n_values=(300,), reps=2, seed=1, model="series:d=2",
                         grid_size=64)
        raised = {}

        def failing_solve(*args):
            raise raised["exc"]

        monkeypatch.setattr("cfdens.oracle.solve_onestep", failing_solve)
        raised["exc"] = SolverError("no root")
        assert mc_run(exp).summary[300]["failures"] == 2
        raised["exc"] = ValueError("a bug, not a data-dependent failure")
        with pytest.raises(ValueError, match="a bug"):
            mc_run(exp)

    def test_negative_seed_is_data_error(self):
        exp = Experiment(name="neg", dgp="cosine_bump", estimator="effect",
                         n_values=(300,), reps=2, seed=-1, grid_size=64)
        with pytest.raises(DataError, match="seed >= 0, got -1"):
            mc_run(exp)

    def test_determinism_modulo_runtime(self):
        exp = Experiment(name="det", dgp="randomized_shift", estimator="effect",
                         n_values=(300,), reps=3, seed=9, grid_size=64)
        a = mc_run(exp)
        b = mc_run(exp)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "runtime"}
                              for r in recs]
        assert strip(a.records) == strip(b.records)
        assert a.summary == b.summary

    def test_true_pi_mode_matches_direct_build(self, grid128):
        # fitted eta with the true propensity: the same estimate as folds
        # assembled directly from the true pi, not the fitted one
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(1200, np.random.default_rng(8))
        folds = make_folds(table.n, 2, seed=3)
        levels = (1, 0)
        exp = Experiment(name="tp", estimator="effect", nuisance_mode="true_pi_fitted_eta")
        got = _fold_nuisances(exp, dgp, table, folds, grid128, levels)
        want = []
        for _, train_idx, eval_idx in folds.splits():
            x = table.x[eval_idx]
            pi = {lev: dgp.pi_fn(x, lev) for lev in levels}
            models = {lev: fit_cond_density(table.rows(train_idx), lev, grid128,
                                            train_row_ids=train_idx) for lev in levels}
            want.append(fold_nuisance(
                table, eval_idx, grid128, pi,
                lambda lev, v: FactoredEta(models[lev], x, grid128, v)))
        est = effect_onestep(L2, table, got, grid128)
        ref = effect_onestep(L2, table, want, grid128)
        assert est.psi_hat == pytest.approx(ref.psi_hat, rel=1e-12)
        assert est.se == pytest.approx(ref.se, rel=1e-12)
        fitted = effect_onestep(L2, table, cross_fit(table, folds, levels, grid128), grid128)
        assert abs(fitted.psi_hat - ref.psi_hat) > 1e-6

    def test_rmse_shrinks_at_root_n_rate(self):
        exp = Experiment(name="rate", dgp="confounded_shift", estimator="projection",
                         n_values=(1000, 4000, 16000), reps=12, seed=4,
                         model="series:d=3", grid_size=96,
                         nuisance_mode="true")
        out = mc_run(exp)
        rmse = {n: np.linalg.norm(out.summary[n]["rmse"]) for n in (1000, 4000, 16000)}
        assert rmse[1000] > rmse[4000] > rmse[16000]
        ratio = rmse[1000] / rmse[16000]
        assert 2.0 < ratio < 8.0  # root-n predicts 4, allow factor-two slack


class TestRemainderHarness:
    def test_density_functional_remainder_is_second_order(self, grid):
        dgp = get_dgp("confounded_shift")
        eps = np.geomspace(0.02, 0.2, 6)
        mags = [np.linalg.norm(vonmises_remainder(
            dgp, 1, lambda p: (p**2)[:, None], lambda p: (2 * p)[:, None], e, grid))
            for e in eps]
        slope = loglog_slope(eps, mags)
        assert abs(slope - 2.0) <= 0.1

    def test_effect_bias_is_second_order(self, grid):
        dgp = get_dgp("confounded_shift")
        eps = np.geomspace(0.02, 0.2, 6)
        for kind in ("l2", "kl"):
            mags = [abs(effect_population_bias(dgp, DistanceSpec(kind), e, grid))
                    for e in eps]
            assert abs(loglog_slope(eps, mags) - 2.0) <= 0.15

    def test_quadrature_rule_integrates_polynomials(self):
        x, w = tensor_uniform_quad(8, 2)
        assert w.sum() == pytest.approx(1.0)
        assert (w @ (x[:, 0] ** 3 * x[:, 1])) == pytest.approx(0.25 * 0.5, abs=1e-12)
