import re
import sys

import numpy as np
import pytest

from helpers import (forward_jacobian_reference, generic_root, plugin_jacobian_reference,
                     true_fold)

from cfdens import DistanceSpec, cross_fit, make_folds, make_grid, models
from cfdens.data import ObservationTable
from cfdens.errors import InfeasibleMomentError, SolverError
from cfdens.distances import KINDS
from cfdens.models import (CosineBasis, ExponentialFamily, GaussianMixture, TruncatedSeries,
                           tabulate)
from cfdens.nuisance import tabulate_nuisances
from cfdens.oracle import get_dgp, oracle_projection
from cfdens.projection import (
    _damped_newton,
    _forward_jacobian,
    _plugin_jacobian,
    _special_route,
    certified_root,
    dr_scores,
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
        p_a = tabulate(model, beta_star, grid)[0]
        m = moment(KL, model, beta_star, p_a, grid)
        assert np.all(np.abs(m) < 1e-8)


class TestSolveOnestep:
    @pytest.mark.parametrize("dist,model", [("l2", "series:d=3"), ("kl", "expfam:d=2"),
                                            ("l2", "gmm:k=1")])
    def test_only_the_sandwich_reads_rows(self, dist, model, monkeypatch, grid128):
        # every route finds its root from d_hat alone; the one pass that
        # builds the sandwich's influence values scores each fold once
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(9))
        fn = cross_fit(table, make_folds(400, 2, seed=4), (1,), grid128)
        calls = []

        def spy(*args):
            calls.append(args)
            return dr_scores(*args)

        monkeypatch.setattr("cfdens.projection.dr_scores", spy)
        spec, fam = DistanceSpec(dist), models.parse_model(model)
        certified_root(spec, fam, fn, 1, grid128)
        assert calls == []
        solve_onestep(spec, fam, table, fn, 1, grid128)
        assert len(calls) == len(fn) == 2

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
        # count through every module binding of the one model evaluation
        calls = {"tabulate": 0}
        orig = models.tabulate

        def counted(*args, **kwargs):
            calls["tabulate"] += 1
            return orig(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "cfdens" and getattr(module, "tabulate", None) is orig:
                monkeypatch.setattr(module, "tabulate", counted)
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
        assert calls == {"tabulate": 1}

    def test_generic_sandwich_tabulates_two_p_plus_one_times(self, calls, folds, grid128):
        table, nuis = folds
        model = TruncatedSeries(CosineBasis(3))
        sandwich_cov(DistanceSpec("hellinger"), model, np.array([0.1, -0.05, 0.02]),
                     table, nuis, 1, grid128)
        # 2p for the central-difference plug-in Jacobian, 1 for the influence values
        assert calls == {"tabulate": 7}


class TestStackedEvaluation:
    """A (k, p) stack of betas gives, row for row, the bits of k single calls,
    and every finite-difference Jacobian is one stacked call."""

    FAMILIES = {
        "series:d=3": (TruncatedSeries(CosineBasis(3)), [0.1, -0.05, 0.02]),
        "expfam:d=3": (ExponentialFamily(CosineBasis(3)), [0.3, -0.2, 0.1]),
        "gmm:k=2": (GaussianMixture(2), [0.2, 0.3, 0.7, -2.0, -2.5]),
    }

    @pytest.fixture(scope="class")
    def fitted(self):
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(5))
        folds = make_folds(400, 5, seed=3)
        return {size: (grid, cross_fit(table, folds, (1,), grid))
                for size, grid in ((128, make_grid(128)), (512, make_grid(512)))}

    def stack(self, family):
        model, beta = self.FAMILIES[family]
        rng = np.random.default_rng(1)
        return model, np.vstack([beta, beta + 0.05 * rng.normal(size=(3, len(beta)))])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("size", [128, 512])
    def test_stack_equals_its_row_calls(self, fitted, size, family, kind):
        grid, nuis = fitted[size]
        model, betas = self.stack(family)
        spec = DistanceSpec(kind)
        got = one_step_equation(spec, model, betas, nuis, 1, grid)
        rows = [one_step_equation(spec, model, b, nuis, 1, grid) for b in betas]
        assert got.shape == betas.shape and np.array_equal(got, np.stack(rows))
        p_a = nuis[0].p_hat[1]
        got = moment(spec, model, betas, p_a, grid)
        assert np.array_equal(got, np.stack([moment(spec, model, b, p_a, grid) for b in betas]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_jacobians_match_their_per_column_loops(self, fitted, family, kind):
        grid, nuis = fitted[128]
        model, betas = self.stack(family)
        spec = DistanceSpec(kind)

        def equation(beta):
            return one_step_equation(spec, model, beta, nuis, 1, grid)

        fval = equation(betas[1])
        assert np.array_equal(_forward_jacobian(equation, betas[1], fval),
                              forward_jacobian_reference(equation, betas[1], fval))
        if _special_route(spec, model) is None:
            assert np.array_equal(_plugin_jacobian(spec, model, betas[1], nuis, 1, grid),
                                  plugin_jacobian_reference(spec, model, betas[1], nuis, 1, grid))

    def test_one_newton_iteration_makes_two_equation_calls(self, fitted):
        # one stacked call for the Jacobian and one for the full step, which
        # the line search accepts: the l2 x series equation is linear in beta
        grid, nuis = fitted[128]
        model = TruncatedSeries(CosineBasis(3))
        shapes = []

        def equation(beta):
            shapes.append(np.shape(beta))
            return one_step_equation(L2, model, beta, nuis, 1, grid)

        _, _, iterations, history = _damped_newton(equation, np.zeros(3), tol=0.0, max_iter=1)
        assert iterations == 1 and history[1] < history[0]
        assert shapes == [(3,), (3, 3), (3,)]


class TestSolverExits:
    """Each way a solve ends short of a certified root, or warns, on real inputs."""

    def test_certificate_rejects_an_unsolved_closed_form(self):
        # 31 cosines on a 32-point grid are not orthonormal under its quadrature,
        # so the closed-form l2 coefficients leave the pooled equation unsolved
        grid = make_grid(32)
        table = get_dgp("confounded_shift").sample(1500, np.random.default_rng(0))
        fn = cross_fit(table, make_folds(1500, 2, 0), (1,), grid)
        with pytest.raises(SolverError) as info:
            certified_root(L2, TruncatedSeries(CosineBasis(31)), fn, 1, grid)
        assert type(info.value) is SolverError
        assert re.fullmatch(r"estimating equation not solved: residual 6\.960e-03 exceeds "
                            r"1\.0e-08 x 1\.941e\+00", str(info.value))
        assert info.value.residual_history == [pytest.approx(6.960e-03, rel=1e-3)]

    def test_moment_target_outside_the_attainable_means(self, grid128):
        # treated outcomes near 0, where b_1 = sqrt(2), against a conditional
        # density near 1 and a propensity of 0.1: the doubly-robust mean of b_1
        # is far above sqrt(2), which no exponential family attains
        rng = np.random.default_rng(0)
        n = 200
        table = ObservationTable(rng.uniform(size=(n, 1)), np.arange(n) % 2,
                                 0.05 * rng.uniform(size=n), (0.0, 1.0))
        fn = [tabulate_nuisances(
            table, np.arange(n), (1,), grid128, lambda x, lev: np.full(len(x), 0.1),
            lambda x, lev, pts: np.tile(np.exp(-0.5 * ((pts - 0.95) / 0.03) ** 2), (len(x), 1)))]
        with pytest.raises(InfeasibleMomentError,
                           match=r"^moment-matching target \[.*\] outside the attainable "
                                 r"mean set$"):
            certified_root(KL, ExponentialFamily(CosineBasis(2)), fn, 1, grid128)

    def test_newton_stops_when_no_halving_lowers_the_norm(self):
        # b^2 + 1 has no root: one step goes from b = 1 to near its minimum at
        # 0, and there every halving of the next, far too long step raises the
        # norm, so the search ends with the norm it had, well before max_iter
        beta, fval, iterations, history = _damped_newton(
            lambda b: np.array([b[0] ** 2 + 1.0]), [1.0], tol=1e-12)
        assert abs(beta[0]) < 1e-4 and fval[0] == pytest.approx(1.0, abs=1e-8)
        assert iterations == 2 and len(history) == 3 and history[-1] == history[-2]

    def test_sandwich_warns_of_an_ill_conditioned_derivative(self, grid128):
        # kl x expfam:d=3: V is the basis covariance under g(beta), analytic
        # in beta; at beta = (60, 0, 0) g sits near 0 and cond(V) is about 3e9
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(0))
        fn = cross_fit(table, make_folds(400, 2, 0), (1,), grid128)
        cov, warn = sandwich_cov(KL, ExponentialFamily(CosineBasis(3)), np.array([60.0, 0, 0]),
                                 table, fn, 1, grid128)
        match = re.fullmatch(r"ill-conditioned moment derivative \(cond=(.*)\)", warn)
        assert match and 1e8 < float(match.group(1)) < 1e12
        assert np.all(np.isfinite(cov))
