import re
import sys

import numpy as np
import pytest

from helpers import generic_root, true_fold

from cfdens import DistanceSpec, cross_fit, make_folds, models
from cfdens.data import ObservationTable
from cfdens.eif import dr_scores
from cfdens.errors import InfeasibleMomentError, SolverError
from cfdens.models import CosineBasis, ExponentialFamily, TruncatedSeries, g_on_grid
from cfdens.nuisance import tabulate_nuisances
from cfdens.oracle import get_dgp, oracle_projection
from cfdens.projection import (
    certified_root,
    moment,
    one_step_equation,
    sandwich_cov,
    solve_onestep,
)

L2 = DistanceSpec("l2")
KL = DistanceSpec("kl")


def bump(grid, coef=0.5):
    return 1.0 + coef * np.sqrt(2) * np.cos(np.pi * grid.points)


class TestMoment:
    def test_l2_series_uniform_target_at_zero(self, grid):
        model = TruncatedSeries(CosineBasis(4))
        m = moment(L2, model, np.zeros(4), np.ones(grid.size), grid)
        assert np.all(np.abs(m) < 1e-12)

    def test_l2_series_single_active_coefficient(self, grid):
        model = TruncatedSeries(CosineBasis(3))
        m = moment(L2, model, np.zeros(3), bump(grid), grid)
        assert np.allclose(m, [-1.0, 0.0, 0.0], atol=1e-8)

    def test_kl_expfam_self_consistency(self, grid):
        model = ExponentialFamily(CosineBasis(3))
        beta_star = np.array([0.3, 0.0, 0.0])
        p_a = g_on_grid(model, beta_star, grid)
        m = moment(KL, model, beta_star, p_a, grid)
        assert np.all(np.abs(m) < 1e-8)


class TestSolveOnestep:
    def test_closed_form_equals_generic_l2_series(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(1200, rng)
        folds = make_folds(1200, 2, seed=3)
        fn = cross_fit(table, folds, (1,), grid128)
        model = TruncatedSeries(CosineBasis(3))
        a = solve_onestep(L2, model, table, fn, 1, grid128)
        b = generic_root(L2, model, fn, 1, grid128)
        assert np.max(np.abs(a.beta_hat - b)) < 1e-8
        assert a.solver_report.method == "closed_form_l2_series"

    def test_moment_matching_equals_generic_kl_expfam(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(1200, rng)
        folds = make_folds(1200, 2, seed=3)
        fn = cross_fit(table, folds, (1,), grid128)
        model = ExponentialFamily(CosineBasis(3))
        a = solve_onestep(KL, model, table, fn, 1, grid128)
        b = generic_root(KL, model, fn, 1, grid128)
        assert np.max(np.abs(a.beta_hat - b)) < 1e-8
        assert a.solver_report.method == "moment_matching_kl_expfam"

    def test_residual_certificate(self, rng, grid128):
        dgp = get_dgp("randomized_shift")
        table = dgp.sample(800, rng)
        fn = true_fold(dgp, table, (1,), grid128)
        for spec, model in ((L2, TruncatedSeries(CosineBasis(3))),
                            (KL, ExponentialFamily(CosineBasis(3))),
                            (DistanceSpec("hellinger"), ExponentialFamily(CosineBasis(2)))):
            est = solve_onestep(spec, model, table, fn, 1, grid128)
            resid = one_step_equation(spec, model, est.beta_hat, fn, 1, grid128)
            scale = est.solver_report.residual_scale
            assert np.linalg.norm(resid) < 1e-8 * scale

    def test_fit_is_the_certified_root_plus_inference(self, rng, grid128):
        # one route per family: the fit reports the root and solver trace of
        # certified_root unchanged and adds the sandwich's warning
        dgp = get_dgp("randomized_shift")
        table = dgp.sample(800, rng)
        fn = true_fold(dgp, table, (1,), grid128)
        for spec, model in ((L2, TruncatedSeries(CosineBasis(3))),
                            (KL, ExponentialFamily(CosineBasis(3))),
                            (DistanceSpec("hellinger"), ExponentialFamily(CosineBasis(2)))):
            beta, report = certified_root(spec, model, fn, 1, grid128)
            est = solve_onestep(spec, model, table, fn, 1, grid128)
            assert np.array_equal(est.beta_hat, beta)
            assert report.warn == ""
            assert {**vars(est.solver_report), "warn": ""} == vars(report)
            _, warn = sandwich_cov(spec, model, beta, table, fn, 1, grid128)
            assert est.solver_report.warn == warn

    def test_oracle_nuisances_recover_target(self, grid128):
        # with true nuisances supplied, the fit concentrates near the
        # population projection as n grows
        dgp = get_dgp("confounded_shift")
        model = TruncatedSeries(CosineBasis(3))
        orc = oracle_projection(dgp, 1, model, L2, grid128)
        errs = []
        for rep in range(11):
            rng = np.random.default_rng([57, rep])
            table = dgp.sample(8000, rng)
            fn = true_fold(dgp, table, (1,), grid128)
            est = solve_onestep(L2, model, table, fn, 1, grid128)
            errs.append(np.max(np.abs(est.beta_hat - orc.beta_star)))
        assert np.median(errs) < 0.03

    def test_ipw_fixture_hand_computed(self, grid128):
        # randomized arms, constant propensity, x-free conditional curve:
        # the fit equals the hand-rolled inverse-probability form
        n = 6
        x = np.linspace(0.1, 0.9, n).reshape(-1, 1)
        a = np.array([1, 0, 1, 1, 0, 1])
        y = np.array([0.9, 0.2, 0.45, 0.7, 0.5, 0.15])
        table = ObservationTable(np.column_stack([x, x]), a, y, (0.0, 1.0))
        pi_const = 2.0 / 3.0
        curve = 1.0 + 0.25 * np.sin(2 * np.pi * grid128.points)

        fold = tabulate_nuisances(
            table, np.arange(n), (1,), grid128,
            lambda xq, lev: np.full(len(xq), pi_const),
            lambda xq, lev, pts: np.tile(1.0 + 0.25 * np.sin(2 * np.pi * pts),
                                         (len(xq), 1)))
        model = TruncatedSeries(CosineBasis(2))
        est = solve_onestep(L2, model, table, [fold], 1, grid128)

        basis_tab = CosineBasis(2).eval(grid128.points)
        curve_n = curve / grid128.integrate(curve)
        mu = grid128.integrate(basis_tab * curve_n[:, None])
        contrib = np.zeros(2)
        for i in range(n):
            if a[i] == 1:
                b_at_y = grid128.interp(basis_tab, np.array([y[i]]))[0]
                contrib += (b_at_y - mu) / pi_const
        by_hand = mu + contrib / n
        assert np.allclose(est.beta_hat, by_hand, atol=1e-10)

    def test_infeasible_moment_detected(self, grid128):
        # a target outside the attainable basis means has no matching beta
        n = 60
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(n, 2))
        a = np.ones(n, dtype=int)
        y = np.full(n, 0.001)  # all outcomes at the basis maximum
        table = ObservationTable(x, a, y, (0.0, 1.0))
        fold = tabulate_nuisances(
            table, np.arange(n), (1,), grid128,
            lambda xq, lev: np.ones(len(xq)),
            lambda xq, lev, pts: np.tile(np.ones_like(pts), (len(xq), 1)))
        model = ExponentialFamily(CosineBasis(1))
        with pytest.raises((InfeasibleMomentError, SolverError)):
            solve_onestep(KL, model, table, [fold], 1, grid128)

    def test_runaway_keeps_its_residual_history(self, grid128):
        # chi-square onto a 20-term exponential family runs away on this
        # sample; the error carries the residual norm of every step it took
        table = get_dgp("confounded_shift").sample(600, np.random.default_rng(0))
        fn = cross_fit(table, make_folds(600, 2, seed=4), (1,), grid128)
        with pytest.raises(SolverError) as info:
            solve_onestep(DistanceSpec("chisq"), models.parse_model("expfam:d=20"),
                          table, fn, 1, grid128)
        found = re.search(r"\|beta_k\| > 60 at iteration (\d+)", str(info.value))
        history = info.value.residual_history
        assert found and len(history) == int(found.group(1)) + 1
        assert np.all(np.isfinite(history))


class TestGaussianMixtureFit:
    def test_single_component_recovers_oracle(self, grid128):
        from cfdens.models import GaussianMixture, mixture_params

        dgp = get_dgp("randomized_shift")
        rng = np.random.default_rng(5)
        table = dgp.sample(2000, rng)
        folds = make_folds(2000, 2, seed=1)
        fn = cross_fit(table, folds, (1,), grid128)
        model = GaussianMixture(1)
        est = solve_onestep(L2, model, table, fn, 1, grid128)
        orc = oracle_projection(dgp, 1, model, L2, grid128)
        _, mu, sig = mixture_params(model, est.beta_hat)
        _, mu_o, sig_o = mixture_params(model, orc.beta_star)
        assert abs(mu[0] - mu_o[0]) < 0.08
        assert abs(sig[0] - sig_o[0]) < 0.08

    def test_two_components_track_bimodal_design(self, grid128):
        from cfdens.models import GaussianMixture, mixture_params

        dgp = get_dgp("bimodal_mixture")
        table = dgp.sample(3000, np.random.default_rng(9))
        folds = make_folds(3000, 2, seed=2)
        fn = cross_fit(table, folds, (1,), grid128)
        model = GaussianMixture(2)
        est = solve_onestep(L2, model, table, fn, 1, grid128)
        w, mu, sig = mixture_params(model, est.beta_hat)
        mu = np.sort(mu)
        assert abs(mu[0] - 0.36) < 0.1 and abs(mu[1] - 0.72) < 0.1
        assert np.all(sig < 0.2)
        assert w.sum() == pytest.approx(1.0)


class TestSandwich:
    def test_l2_series_covariance_equals_basis_score_covariance(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(900, rng)
        folds = make_folds(900, 2, seed=9)
        fn = cross_fit(table, folds, (1,), grid128)
        model = TruncatedSeries(CosineBasis(3))
        est = solve_onestep(L2, model, table, fn, 1, grid128)
        raw = [dr_scores(table, fold, 1, model.basis.eval(grid128.points), grid128)
               for fold in fn]
        pooled = np.concatenate([r - r.mean(axis=0) for r in raw], axis=0)
        expected = np.cov(pooled, rowvar=False, ddof=1) / table.n
        assert np.allclose(est.covariance, expected, atol=1e-12)

    def test_ci_width_scales_with_root_n(self, rng, grid128):
        dgp = get_dgp("randomized_shift")
        table = dgp.sample(1000, rng)
        fn = true_fold(dgp, table, (1,), grid128)
        model = TruncatedSeries(CosineBasis(2))
        cov1 = sandwich_cov(L2, model, np.zeros(2), table, fn, 1, grid128)[0]
        # duplicate every row: same empirical covariance, doubled n
        table2 = ObservationTable(np.vstack([table.x, table.x]),
                                  np.concatenate([table.a, table.a]),
                                  np.concatenate([table.y, table.y]), (0.0, 1.0))
        fn2 = true_fold(dgp, table2, (1,), grid128)
        cov2 = sandwich_cov(L2, model, np.zeros(2), table2, fn2, 1, grid128)[0]
        width_ratio = np.sqrt(np.diag(cov1)) / np.sqrt(np.diag(cov2))
        assert np.allclose(width_ratio, np.sqrt(2.0), rtol=2e-3)

    def test_covariance_psd_and_symmetric(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(600, rng)
        folds = make_folds(600, 2, seed=1)
        fn = cross_fit(table, folds, (1,), grid128)
        model = ExponentialFamily(CosineBasis(3))
        est = solve_onestep(KL, model, table, fn, 1, grid128)
        cov = est.covariance
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10
        assert np.all(est.wald_ci[:, 0] <= est.beta_hat)
        assert np.all(est.wald_ci[:, 1] >= est.beta_hat)


class TestFittedDensity:
    def test_fitted_density_is_valid(self, rng, grid128):
        dgp = get_dgp("bimodal_mixture")
        table = dgp.sample(1500, rng)
        folds = make_folds(1500, 2, seed=2)
        fn = cross_fit(table, folds, (1,), grid128)
        model = TruncatedSeries(CosineBasis(5))
        est = solve_onestep(L2, model, table, fn, 1, grid128)
        assert np.all(est.fitted_density >= 0)
        assert abs(grid128.integrate(est.fitted_density) - 1.0) < 1e-10


class TestMomentTabulation:
    """The moment condition tabulates the model once per beta, not once per fold."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        # count through every module binding of the two tabulators
        calls = {}
        for name in ("g_on_grid", "g_grad_on_grid"):
            orig = getattr(models, name)
            calls[name] = 0

            def counted(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "cfdens" and getattr(module, name, None) is orig:
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture()
    def folds(self, rng, grid128):
        table = get_dgp("confounded_shift").sample(400, rng)
        return table, cross_fit(table, make_folds(400, 5, seed=3), (1,), grid128)

    def test_one_tabulation_per_equation(self, calls, folds, grid128):
        _, nuis = folds
        model = TruncatedSeries(CosineBasis(3))
        one_step_equation(DistanceSpec("hellinger"), model, np.array([0.1, -0.05, 0.02]),
                          nuis, 1, grid128)
        assert calls == {"g_on_grid": 1, "g_grad_on_grid": 1}

    def test_generic_sandwich_tabulates_two_p_plus_one_times(self, calls, folds, grid128):
        table, nuis = folds
        model = TruncatedSeries(CosineBasis(3))
        sandwich_cov(DistanceSpec("hellinger"), model, np.array([0.1, -0.05, 0.02]),
                     table, nuis, 1, grid128)
        # 2p for the central-difference plug-in Jacobian, 1 for the influence values
        assert calls == {"g_on_grid": 7, "g_grad_on_grid": 7}
