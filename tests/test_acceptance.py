"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the measured
quantity before asserting, so `pytest -s tests/test_acceptance.py` doubles as
an acceptance report. Monte-Carlo pieces run at fixed seeds and are fully
deterministic.
"""

import time

import numpy as np
import pytest

from helpers import effect_l2_direct, fd_table_check, generic_root

from cfdens import DistanceSpec, cross_fit, make_folds, make_grid
from cfdens.effects import effect_onestep
from cfdens.eif import effect_curves
from cfdens.models import (
    CosineBasis,
    ExponentialFamily,
    TruncatedSeries,
    g_grad_on_grid,
    g_on_grid,
)
from cfdens.nuisance import NuisanceConfig
from cfdens.oracle import (
    Experiment,
    effect_population_bias,
    get_dgp,
    loglog_slope,
    mc_run,
    oracle_projection,
    tensor_uniform_quad,
    vonmises_remainder,
)
from cfdens.projection import onestep_influence, solve_onestep
from cfdens.selection import select_model

GRID = make_grid(128)
ALL_DISTANCES = [DistanceSpec("l2"), DistanceSpec("kl"), DistanceSpec("chisq"),
                 DistanceSpec("hellinger"), DistanceSpec("tv", tv_t=50.0)]


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_01_derivative_table_fidelity(self):
        t0 = time.time()
        worst = 0.0
        for spec in ALL_DISTANCES:
            worst = max(worst, fd_table_check(spec, tol=1e-6))
        elapsed = time.time() - t0
        report(1, "derivative-table fidelity", worst <= 1e-6 and elapsed < 1.0,
               f"worst rel err {worst:.2e} <= 1e-6, {elapsed:.2f}s < 1s")

    def test_02_moment_minimizer_duality(self):
        t0 = time.time()
        grid = make_grid(512)
        worst = 0.0
        cells = 0
        for dgp_name in ("randomized_shift", "confounded_shift"):
            dgp = get_dgp(dgp_name)
            p_a = dgp.marginal(1, grid)
            for spec in ALL_DISTANCES:
                for model in (TruncatedSeries(CosineBasis(3)),
                              ExponentialFamily(CosineBasis(3))):
                    orc = oracle_projection(dgp, 1, model, spec, grid, p_a=p_a)
                    assert orc.moment_norm < 1e-6
                    if orc.nm_beta is not None:
                        worst = max(worst, float(np.max(np.abs(orc.beta_star - orc.nm_beta))))
                    cells += 1
        elapsed = time.time() - t0
        report(2, "moment root vs minimizer", worst <= 1e-4 and elapsed < 120,
               f"{cells} cells, worst gap {worst:.2e} <= 1e-4, {elapsed:.1f}s < 120s")

    def test_03_closed_form_equivalences(self):
        t0 = time.time()
        dgp = get_dgp("confounded_shift")
        worst_beta, worst_psi = 0.0, 0.0
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            table = dgp.sample(700, rng)
            folds = make_folds(700, 2, seed=seed)
            fn = cross_fit(table, folds, (0, 1), GRID)
            model = TruncatedSeries(CosineBasis(3))
            closed = solve_onestep(DistanceSpec("l2"), model, table, fn, 1, GRID)
            generic = generic_root(DistanceSpec("l2"), model, fn, 1, GRID)
            worst_beta = max(worst_beta, float(np.max(np.abs(closed.beta_hat - generic))))
            onestep = effect_onestep(DistanceSpec("l2"), table, fn, GRID)
            direct = effect_l2_direct(table, fn, GRID)
            worst_psi = max(worst_psi, abs(onestep.psi_hat - direct.psi_hat))
        elapsed = time.time() - t0
        report(3, "closed-form equivalences",
               worst_beta <= 1e-8 and worst_psi <= 1e-10 and elapsed < 30,
               f"beta gap {worst_beta:.2e} <= 1e-8, effect gap {worst_psi:.2e} <= 1e-10, "
               f"{elapsed:.1f}s < 30s")

    def test_04_root_n_consistency_and_normality(self):
        t0 = time.time()
        cov_run = mc_run(Experiment(
            name="a4cov", dgp="confounded_shift", estimator="projection",
            n_values=(2000,), reps=500, seed=11, model="series:d=3",
            grid_size=128, k_folds=2))
        coverage = np.array(cov_run.summary[2000]["coverage"])
        rmse2000 = np.linalg.norm(cov_run.summary[2000]["rmse"])
        rate_run = mc_run(Experiment(
            name="a4rate", dgp="confounded_shift", estimator="projection",
            n_values=(8000,), reps=200, seed=11, model="series:d=3",
            grid_size=128, k_folds=2))
        rmse8000 = np.linalg.norm(rate_run.summary[8000]["rmse"])
        ratio = rmse2000 / rmse8000
        failures = (cov_run.summary[2000]["failures"], rate_run.summary[8000]["failures"])
        ok = (np.all(coverage >= 0.92) and np.all(coverage <= 0.98)
              and 1.7 <= ratio <= 2.4 and failures == (0, 0))
        report(4, "root-n consistency and normality", ok,
               f"coverage {np.round(coverage, 3)} in [0.92,0.98], "
               f"rmse ratio {ratio:.2f} in [1.7,2.4], failed reps {failures} == (0, 0), "
               f"{time.time()-t0:.0f}s")

    def test_05_double_robustness(self):
        t0 = time.time()
        base = mc_run(Experiment(
            name="a5base", dgp="confounded_shift", estimator="projection",
            n_values=(4000,), reps=300, seed=21, model="series:d=3",
            grid_size=128, k_folds=2, nuisance=NuisanceConfig(propensity="knn")))
        b0 = np.linalg.norm(base.summary[4000]["bias"])
        arm_a = mc_run(Experiment(
            name="a5a", dgp="confounded_shift", estimator="projection",
            n_values=(16000,), reps=400, seed=22, model="series:d=3",
            grid_size=128, nuisance_mode="wrong_pi_true_eta"))
        ba = np.linalg.norm(arm_a.summary[16000]["bias"])
        arm_b = mc_run(Experiment(
            name="a5b", dgp="confounded_shift", estimator="projection",
            n_values=(16000,), reps=400, seed=23, model="series:d=3",
            grid_size=128, k_folds=2, nuisance_mode="true_pi_fitted_eta",
            nuisance=NuisanceConfig(density="marginal")))
        bb = np.linalg.norm(arm_b.summary[16000]["bias"])
        failures = (base.summary[4000]["failures"], arm_a.summary[16000]["failures"],
                    arm_b.summary[16000]["failures"])
        ok = ba <= 2.0 * b0 and bb <= 2.0 * b0 and failures == (0, 0, 0)
        report(5, "double robustness", ok,
               f"both-correct bias {b0:.5f}; wrong-propensity arm {ba:.5f}, "
               f"marginal-density arm {bb:.5f}, both <= {2*b0:.5f}, "
               f"failed reps {failures} == (0, 0, 0), {time.time()-t0:.0f}s")

    def test_06_second_order_remainders(self):
        t0 = time.time()
        grid = make_grid(512)
        dgp = get_dgp("confounded_shift")
        eps = np.geomspace(0.02, 0.2, 6)
        slopes = {}
        # generic density functional (integral of p^2)
        mags = [np.linalg.norm(vonmises_remainder(
            dgp, 1, lambda p: (p**2)[:, None], lambda p: (2 * p)[:, None], e, grid))
            for e in eps]
        slopes["density-functional"] = loglog_slope(eps, mags)
        # the projection moment functional at a fixed coefficient value
        from cfdens.distances import influence_integrand_factor, moment_integrand_factor

        model = TruncatedSeries(CosineBasis(2))
        beta_bar = np.array([0.2, -0.1])
        gv = g_on_grid(model, beta_bar, grid)
        gg = g_grad_on_grid(model, beta_bar, grid)
        for spec in (DistanceSpec("kl"), DistanceSpec("hellinger")):
            mags = [np.linalg.norm(vonmises_remainder(
                dgp, 1,
                lambda p: gg * moment_integrand_factor(spec, p, gv)[:, None],
                lambda p: gg * influence_integrand_factor(spec, p, gv)[:, None],
                e, grid)) for e in eps]
            slopes[f"moment-{spec.kind}"] = loglog_slope(eps, mags)
        for kind in ("l2", "kl"):
            mags = [abs(effect_population_bias(dgp, DistanceSpec(kind), e, grid))
                    for e in eps]
            slopes[f"effect-{kind}"] = loglog_slope(eps, mags)
        ok = all(abs(s - 2.0) <= 0.15 for s in slopes.values())
        detail = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
        report(6, "second-order remainder scaling", ok and time.time() - t0 < 60,
               f"slopes within 2 +/- 0.15: {detail}, {time.time()-t0:.1f}s")

    def test_07_effect_inference(self):
        t0 = time.time()
        eff = mc_run(Experiment(
            name="a7", dgp="cosine_bump", estimator="effect",
            n_values=(4000,), reps=500, seed=31, grid_size=128, k_folds=5))
        cov = float(np.ravel(eff.summary[4000]["coverage"])[0])
        null = mc_run(Experiment(
            name="a7n", dgp="null_equal", estimator="effect",
            n_values=(2000,), reps=500, seed=32, grid_size=128, k_folds=5))
        rows = [r for r in null.records if not r["failed"]]
        cons_cover = np.mean([
            r["estimate"] - 1.96 * max(r["se"], 1 / np.sqrt(2000)) <= 0.0
            <= r["estimate"] + 1.96 * max(r["se"], 1 / np.sqrt(2000))
            for r in rows])
        failures = (eff.summary[4000]["failures"], null.summary[2000]["failures"])
        ok = 0.92 <= cov <= 0.98 and cons_cover >= 0.95 and failures == (0, 0)
        report(7, "effect inference", ok,
               f"wald coverage {cov:.3f} in [0.92,0.98] at psi=0.25; "
               f"null conservative coverage {cons_cover:.3f} >= 0.95, "
               f"failed reps {failures} == (0, 0), {time.time()-t0:.0f}s")

    def test_08_mean_zero_and_null_degeneracy(self):
        t0 = time.time()
        # exact centering: pooled influence means vanish to machine precision
        dgp = get_dgp("confounded_shift")
        rng = np.random.default_rng(3)
        table = dgp.sample(1500, rng)
        folds = make_folds(1500, 3, seed=5)
        fn = cross_fit(table, folds, (0, 1), GRID)
        worst_mean = 0.0
        basis_tab = CosineBasis(3).eval(GRID.points)
        for fold in fn:
            for lev in (0, 1):
                scores = onestep_influence(table, [fold], GRID,
                                           lambda f, lev=lev: (0.0, [(lev, basis_tab, 0.0)]))
                worst_mean = max(worst_mean, float(np.max(np.abs(scores.mean(axis=0)))))
        # null design: influence variance of the squared-L2 effect shrinks
        # as the fitted marginals merge (true propensity, fitted density)
        dgp_null = get_dgp("null_equal")
        variances = {}
        for n in (2000, 8000):
            vs = []
            for rep in range(12):
                rng = np.random.default_rng([77, n, rep])
                tab = dgp_null.sample(n, rng)
                plan = make_folds(n, 2, seed=500 + rep)
                nuis = cross_fit(tab, plan, (0, 1), GRID, pi_fn=dgp_null.pi_fn)

                def terms(fold):
                    lam1, lam0 = effect_curves(DistanceSpec("l2"),
                                               fold.p_hat[1], fold.p_hat[0])
                    return 0.0, [(1, lam1, fold.p_hat[1]), (0, lam0, fold.p_hat[0])]

                vals = onestep_influence(tab, nuis, GRID, terms)
                vs.append(float(vals.var(ddof=1)))
            variances[n] = float(np.median(vs))
        ok = worst_mean <= 1e-10 and variances[8000] < variances[2000]
        report(8, "mean-zero scores and null degeneracy", ok,
               f"max |mean| {worst_mean:.1e} <= 1e-10; null influence variance "
               f"{variances[2000]:.3f} -> {variances[8000]:.3f} decreasing, "
               f"{time.time()-t0:.0f}s")

    def test_09_selection_sanity(self):
        t0 = time.time()
        dgp = get_dgp("cosine_bump")
        cands = [TruncatedSeries(CosineBasis(d)) for d in range(1, 9)]
        chosen, curves = [], []
        for rep in range(50):
            rng = np.random.default_rng([41, rep])
            table = dgp.sample(4000, rng)
            folds = make_folds(4000, 2, seed=900 + rep)
            rt = select_model(table, folds, 1, cands, GRID)
            chosen.append(rt.chosen + 1)
            curves.append(rt.risks)
        chosen = np.array(chosen)
        frac_small = float((chosen <= 3).mean())
        med = np.median(np.array(curves), axis=0)
        d_star = int(np.argmin(med)) + 1
        # the median risk curve dips at a small dimension and rises toward
        # the largest one (left arm degenerate when the dip is at d=1)
        shape_ok = (d_star <= 3 and med[-1] > med[d_star - 1]
                    and (d_star == 1 or med[0] > med[d_star - 1]))
        ok = frac_small >= 0.60 and shape_ok
        report(9, "model-selection sanity", ok,
               f"picked d<=3 in {frac_small:.2f} >= 0.60 of reps; median risk dips "
               f"at d={d_star} and rises to d=8 ({med[d_star-1]:.4f} -> {med[-1]:.4f}), "
               f"{time.time()-t0:.0f}s")

    def test_10_plugin_mse_bound(self):
        t0 = time.time()
        from cfdens.nuisance import fit_cond_density, plugin_marginal

        dgp = get_dgp("randomized_shift")
        n, reps = 2000, 200
        xq, wx = tensor_uniform_quad(16, 2)
        eta_true = dgp.eta_fn(xq, 1, GRID.points)
        truth = wx @ eta_true
        c_const = wx @ (eta_true**2)
        idx = np.searchsorted(GRID.points, [0.15, 0.35, 0.55, 0.75, 0.9])
        sq_err = np.zeros((reps, len(idx)))
        int_mse = np.zeros((reps, len(idx)))
        for rep in range(reps):
            rng = np.random.default_rng([53, rep])
            table = dgp.sample(2 * n, rng)
            train_idx = np.arange(n)
            model = fit_cond_density(table.rows(train_idx), 1, GRID,
                                     train_row_ids=train_idx)
            p_hat = plugin_marginal(model, table, np.arange(n, 2 * n), GRID)
            sq_err[rep] = (p_hat[idx] - truth[idx]) ** 2
            eta_hat_q = model.predict(xq, GRID)
            int_mse[rep] = wx @ ((eta_hat_q[:, idx] - eta_true[:, idx]) ** 2)
        lhs = sq_err.mean(axis=0)
        rhs = (1 + 2.0 / n) * int_mse.mean(axis=0) + 2.0 * c_const[idx] / n
        margin = float(np.max(lhs / rhs))
        ok = bool(np.all(lhs <= 1.10 * rhs))
        report(10, "plug-in marginal MSE bound", ok,
               f"max LHS/RHS {margin:.3f} <= 1.10 at 5 grid points, "
               f"{time.time()-t0:.0f}s")
