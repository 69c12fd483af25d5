"""Projection estimation: moment conditions, one-step solvers, Wald inference.

The estimating equation pools fold contributions: with per-fold plug-in
moments m_hat_j and fold-level bias corrections, the reported coefficient
solves

    sum_j w_j [ m_hat_j(beta) + correction_j(beta) ] = 0,

which for the squared-L2 cosine series reduces to the closed-form
doubly-robust mean of the basis, and for KL exponential families to moment
matching of a beta-free doubly-robust target. Anything else goes through a
damped Newton iteration with a finite-difference Jacobian, re-tabulating the
correction transform at every beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EvalGrid, ObservationTable
from .distances import DistanceSpec, moment_integrand_factor
from .eif import dr_scores, moment_correction_curve
from .errors import DataError, InfeasibleMomentError, RankError, SolverError
from .models import (
    ExponentialFamily,
    GaussianMixture,
    TruncatedSeries,
    clip_to_density,
    g_grad_on_grid,
    g_on_grid,
    log_partition,
)

Z95 = 1.96
BETA_RUNAWAY = 60.0


@dataclass
class SolverReport:
    method: str
    iterations: int
    residual_norm: float
    residual_scale: float           # 1 + ||equation at beta = 0||
    residual_history: list = field(default_factory=list)
    warn: str = ""


@dataclass
class ProjectionEstimate:
    """Fitted projection with sandwich covariance and Wald intervals."""

    beta_hat: np.ndarray
    covariance: np.ndarray          # already divided by n
    wald_ci: np.ndarray             # (p, 2)
    fitted_density: np.ndarray      # clipped g(. ; beta_hat) on the grid
    solver_report: SolverReport
    distance: DistanceSpec
    model_label: str
    level: int
    n: int

    @property
    def se(self):
        return np.sqrt(np.diag(self.covariance))


@dataclass(frozen=True)
class SolverOptions:
    start: object = None
    tol: float = 1e-11              # Newton target, relative to 1 + ||F(0)||
    accept: float = 1e-8            # certificate threshold, same scaling
    max_iter: int = 100
    max_halvings: int = 20
    fd_step: float = 1e-5
    method: str = "auto"            # auto | generic


def moment(distance: DistanceSpec, model, beta, p_a, grid: EvalGrid):
    """Population moment m(beta): quadrature of dg/dbeta (f + g f_dq)(p_a, g)."""
    gv = g_on_grid(model, beta, grid)
    gg = g_grad_on_grid(model, beta, grid)
    fac = moment_integrand_factor(distance, np.asarray(p_a, dtype=float), gv)
    return grid.integrate(gg * fac[:, None])


def onestep(table, folds_nuis, grid, terms):
    """Cross-fit one-step estimate and its pooled influence values.

    ``terms(fold)`` returns ``(plug_in, arms)`` with each arm a triple
    ``(level, h, p)``: an outcome transform h tabulated on the grid and the
    fold marginal p it is centred against. A fold's estimate is its plug-in
    plus the mean doubly-robust summand of every arm net of the plug-in
    counterpart int h p; folds are pooled with weights proportional to their
    sizes. The influence values stack, fold by fold, the arm sums of the
    exactly centred summands (None when there are no arms).
    """
    sizes = np.array([f.n_eval for f in folds_nuis], dtype=float)
    estimate, influence = 0.0, []
    for w, fold in zip(sizes / sizes.sum(), folds_nuis):
        plug_in, arms = terms(fold)
        scores = [dr_scores(table, fold, level, h, grid,
                            center=grid.integrate(h * (p[:, None] if h.ndim > 1 else p)))
                  for level, h, p in arms]
        if scores:
            plug_in = plug_in + sum(scores).mean(axis=0)
            influence.append(sum(s - s.mean(axis=0) for s in scores))
        estimate = estimate + w * plug_in
    return estimate, (np.concatenate(influence) if influence else None)


def _moment_terms(distance, model, beta, level, grid):
    """Per-fold plug-in moment at beta and the arm that corrects it."""
    def terms(fold):
        p_hat = fold.p_hat[level]
        curve = moment_correction_curve(distance, model, beta, p_hat, grid)
        return moment(distance, model, beta, p_hat, grid), [(level, curve, p_hat)]
    return terms


def one_step_equation(distance, model, beta, table, folds_nuis, level, grid):
    """Pooled one-step estimating equation value at beta.

    Per fold, the correction is the mean doubly-robust summand of the
    correction transform minus its plug-in counterpart (quadrature against
    that fold's marginal); the plug-in parts cancel the tabulated hbar means
    exactly, leaving the bias-correcting inverse-probability residual term.
    """
    return onestep(table, folds_nuis, grid,
                   _moment_terms(distance, model, beta, level, grid))[0]


def _dr_basis_target(table, folds_nuis, level, basis_tab, grid):
    """Pooled mean of the raw doubly-robust summands of tabulated basis functions."""
    chunks = [dr_scores(table, fold, level, basis_tab, grid, center=0.0)
              for fold in folds_nuis]
    return np.concatenate(chunks, axis=0).mean(axis=0)


def default_start(model, folds_nuis, level, grid):
    """Solver starting point: the base density, or matched moments for mixtures.

    Mixtures started at beta = 0 sit at the edge of the interval and the
    estimating equation has a spurious root at infinity (all gradients vanish
    as components flee the support), so their means/scales start from the
    moments and quantiles of the pooled plug-in marginal.
    """
    if not isinstance(model, GaussianMixture):
        return np.zeros(model.beta_dim)
    p_hat, _ = onestep(None, folds_nuis, grid, lambda fold: (fold.p_hat[level], []))
    p_hat = np.maximum(p_hat, 0.0)
    p_hat = p_hat / grid.integrate(p_hat)
    m1 = float(grid.integrate(grid.points * p_hat))
    var = max(float(grid.integrate(grid.points**2 * p_hat)) - m1**2, 1e-6)
    k = model.k

    def raw_scale(s):
        s = max(s - model.sigma_min, 1e-4)
        return float(np.log(np.expm1(s)))

    if k == 1:
        return np.array([m1, raw_scale(np.sqrt(var))])
    cdf = np.cumsum(p_hat * grid.weights)
    cdf /= cdf[-1]
    quantiles = np.interp((np.arange(k) + 0.5) / k, cdf, grid.points)
    scale = raw_scale(np.sqrt(var) / k + model.sigma_min)
    return np.concatenate([np.zeros(k - 1), quantiles, np.full(k, scale)])


def _damped_newton(func, beta0, scale, opts: SolverOptions, jac=None, guard=None):
    beta = np.array(beta0, dtype=float)
    fval = func(beta)
    history = [float(np.linalg.norm(fval))]
    tol = opts.tol * scale
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        norm = np.linalg.norm(fval)
        if norm <= tol:
            break
        if jac is not None:
            j = jac(beta)
        else:
            j = np.empty((len(fval), len(beta)))
            for k in range(len(beta)):
                h = opts.fd_step * (1.0 + abs(beta[k]))
                bp = beta.copy()
                bp[k] += h
                j[:, k] = (func(bp) - fval) / h
        try:
            step = np.linalg.solve(j, -fval)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(j, -fval, rcond=None)[0]
        accepted = False
        for _ in range(opts.max_halvings + 1):
            cand = beta + step
            cand_val = func(cand)
            if np.all(np.isfinite(cand_val)) and np.linalg.norm(cand_val) < norm:
                beta, fval = cand, cand_val
                accepted = True
                break
            step *= 0.5
        history.append(float(np.linalg.norm(fval)))
        if not accepted:
            break
        if guard is not None:
            guard(beta)
    else:
        norm = np.linalg.norm(fval)
    return beta, fval, iterations, history


def solve_onestep(distance: DistanceSpec, model, table: ObservationTable,
                  folds_nuis, level, grid: EvalGrid,
                  options: SolverOptions = SolverOptions()) -> ProjectionEstimate:
    """One-step bias-corrected projection fit with sandwich inference.

    Routes: closed form for l2 + truncated series; doubly-robust moment
    matching (Newton on the log-partition gradient) for KL + exponential
    family; damped Newton on the pooled estimating equation otherwise.
    """
    if level not in folds_nuis[0].pi:
        raise DataError(f"level {level} missing from nuisance tabulations")
    scale = 1.0 + float(np.linalg.norm(
        one_step_equation(distance, model, np.zeros(model.beta_dim),
                          table, folds_nuis, level, grid)))

    closed_l2 = distance.kind == "l2" and isinstance(model, TruncatedSeries)
    closed_kl = distance.kind == "kl" and isinstance(model, ExponentialFamily)

    if options.method == "auto" and closed_l2:
        basis_tab = model.basis.eval(grid.points)
        beta_hat = _dr_basis_target(table, folds_nuis, level, basis_tab, grid)
        resid = one_step_equation(distance, model, beta_hat, table, folds_nuis, level, grid)
        report = SolverReport(method="closed_form_l2_series", iterations=0,
                              residual_norm=float(np.linalg.norm(resid)),
                              residual_scale=scale,
                              residual_history=[float(np.linalg.norm(resid))])
    elif options.method == "auto" and closed_kl:
        basis_tab = model.basis.eval(grid.points)
        target = _dr_basis_target(table, folds_nuis, level, basis_tab, grid)
        limit = np.sqrt(2.0)  # attainable basis means lie strictly inside (-sqrt2, sqrt2)
        if np.any(np.abs(target) >= limit - 1e-12):
            raise InfeasibleMomentError(
                f"moment-matching target {target} outside the attainable mean set")

        def match(beta):
            return log_partition(model, beta, grid)[1] - target

        def guard(beta):
            if np.linalg.norm(beta) > BETA_RUNAWAY:
                raise InfeasibleMomentError(
                    "moment matching diverged; target appears unattainable")

        start = np.zeros(model.beta_dim) if options.start is None else np.asarray(options.start, float)
        beta_hat, resid, iters, history = _damped_newton(
            match, start, scale=1.0 + float(np.linalg.norm(match(start * 0))),
            opts=SolverOptions(tol=1e-12, max_iter=options.max_iter,
                               max_halvings=options.max_halvings),
            jac=lambda beta: _kl_expfam_jacobian(model, beta, grid), guard=guard)
        resid = one_step_equation(distance, model, beta_hat, table, folds_nuis, level, grid)
        report = SolverReport(method="moment_matching_kl_expfam", iterations=iters,
                              residual_norm=float(np.linalg.norm(resid)),
                              residual_scale=scale, residual_history=history)
    else:
        def func(beta):
            return one_step_equation(distance, model, beta, table, folds_nuis, level, grid)

        def guard(beta):
            if np.max(np.abs(beta)) > BETA_RUNAWAY:
                raise SolverError(
                    "solver ran away toward a degenerate root; "
                    "supply a start closer to the support", residual_history=[])

        if options.start is None:
            start = default_start(model, folds_nuis, level, grid)
        else:
            start = np.asarray(options.start, float)
        beta_hat, resid, iters, history = _damped_newton(func, start, scale, options,
                                                         guard=guard)
        report = SolverReport(method="generic_damped_newton", iterations=iters,
                              residual_norm=float(np.linalg.norm(resid)),
                              residual_scale=scale, residual_history=history)

    if report.residual_norm > options.accept * report.residual_scale:
        raise SolverError(
            f"estimating equation not solved: residual {report.residual_norm:.3e} "
            f"exceeds {options.accept:.1e} x {report.residual_scale:.3e}",
            residual_history=report.residual_history)

    covariance, warn = sandwich_cov(distance, model, beta_hat, table, folds_nuis,
                                    level, grid, return_warning=True)
    report.warn = warn
    se = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    wald = np.column_stack([beta_hat - Z95 * se, beta_hat + Z95 * se])
    fitted = clip_to_density(g_on_grid(model, beta_hat, grid), grid)
    n_total = sum(f.n_eval for f in folds_nuis)
    return ProjectionEstimate(
        beta_hat=beta_hat, covariance=covariance, wald_ci=wald,
        fitted_density=fitted, solver_report=report, distance=distance,
        model_label=model.label, level=int(level), n=n_total)


def _kl_expfam_jacobian(model, beta, grid):
    """Basis covariance under g(.; beta): the Jacobian of the log-partition gradient."""
    _, dc = log_partition(model, beta, grid)
    bt = model.basis.eval(grid.points)
    gv = g_on_grid(model, beta, grid)
    second = grid.integrate(bt[:, :, None] * bt[:, None, :] * gv[:, None, None])
    return second - np.outer(dc, dc)


def _plugin_jacobian(distance, model, beta, folds_nuis, level, grid, fd_step=1e-6):
    """Derivative of the pooled plug-in moment at beta.

    Analytic for the two special routes (2 I for l2 + orthonormal series;
    the basis covariance under g for KL + exponential family), central finite
    differences otherwise.
    """
    p = model.beta_dim
    if distance.kind == "l2" and isinstance(model, TruncatedSeries):
        return 2.0 * np.eye(p)
    if distance.kind == "kl" and isinstance(model, ExponentialFamily):
        return _kl_expfam_jacobian(model, beta, grid)

    def pooled_m(b):
        return onestep(None, folds_nuis, grid,
                       lambda fold: (moment(distance, model, b, fold.p_hat[level], grid), []))[0]

    jac = np.empty((p, p))
    for k in range(p):
        h = fd_step * (1.0 + abs(beta[k]))
        bp, bm = np.array(beta, float), np.array(beta, float)
        bp[k] += h
        bm[k] -= h
        jac[:, k] = (pooled_m(bp) - pooled_m(bm)) / (2.0 * h)
    return jac


def sandwich_cov(distance: DistanceSpec, model, beta_hat, table, folds_nuis,
                 level, grid: EvalGrid, return_warning=False):
    """Sandwich covariance of beta_hat, scaled by 1/n.

    V^-1 Cov(influence values at beta_hat) V^-T / n, with V the plug-in
    moment derivative and influence values pooled across folds (each fold
    centered exactly).
    """
    v = _plugin_jacobian(distance, model, np.asarray(beta_hat, float),
                         folds_nuis, level, grid)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankError(
            f"moment derivative is numerically singular (cond={cond:.2e}); "
            "reduce the model dimension")
    warn = ""
    if cond > 1e8:
        warn = f"ill-conditioned moment derivative (cond={cond:.2e})"
    _, influence = onestep(table, folds_nuis, grid,
                           _moment_terms(distance, model, beta_hat, level, grid))
    vinv = np.linalg.inv(v)
    cov = vinv @ np.atleast_2d(np.cov(influence, rowvar=False)) @ vinv.T / len(influence)
    cov = 0.5 * (cov + cov.T)
    if return_warning:
        return cov, warn
    return cov
