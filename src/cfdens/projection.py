"""One-step algebra, projection moment conditions, solvers and Wald inference.

Every target is a cross-fit one-step estimate whose correction is a
counterfactual mean of an outcome transform h tabulated on the grid. Per
row, the raw doubly-robust summand of h is

    1(A_i = a)/pi_hat(X_i) * (h(Y_i) - hbar(X_i)) + hbar(X_i),

hbar the quadrature of h against eta_hat(.|X_i). Its mean needs no per-row
work: it is d_hat @ h, with d_hat the fold's doubly-robust grid measure
(``nuisance.fold_nuisance``), and that is all the estimates use.
Per-row values, from ``dr_scores``, are the raw summands; influence values
centre them per fold and pseudo-risk summands add a constant per candidate.
They contract the fold's factored eta_hat, so no (n_ev, G) array is built
unless ``CondDensityModel.predict`` is called. ``onestep`` is the one fold
loop: a single pass returns an estimate and, given the table, its pooled
influence values; without the table it does no per-row work. It reads a
list or a stream of folds and holds none it has finished.

The projection's estimating equation pools fold contributions: with
per-fold plug-in moments m_hat_j and fold-level bias corrections, the
reported coefficient solves

    sum_j w_j [ m_hat_j(beta) + correction_j(beta) ] = 0,

which for the squared-L2 cosine series reduces to the closed-form
doubly-robust mean of the basis, and for KL exponential families to moment
matching of a beta-free doubly-robust target. Anything else goes through a
damped Newton iteration with a finite-difference Jacobian. The moment
condition (``_moment_condition``) makes one ``models.tabulate`` call per
beta for g and dg/dbeta; every fold's plug-in moment and correction
transform are read off that one tabulation and one ``reduced_factors`` call
at the fold's marginal, for the equation, its influence values and the
sandwich alike. It also takes a (k, p) stack of betas, tabulated row by row
and factored in one ``reduced_factors`` call per fold, so each
finite-difference Jacobian (forward in the Newton iteration, central in the
sandwich's plug-in derivative) is one pass over the folds for all its points,
bit-identical to evaluating them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EvalGrid, ObservationTable
from .distances import DistanceSpec, reduced_factors
from .errors import DistanceDomainError, InfeasibleMomentError, RankError, SolverError
from .models import (
    ExponentialFamily,
    GaussianMixture,
    TruncatedSeries,
    _exp_tilt,
    clip_to_density,
    log_partition,
    tabulate,
)
from .nuisance import FoldNuisance, require_levels

Z95 = 1.96
BETA_RUNAWAY = 60.0
ACCEPT = 1e-8           # certificate threshold, relative to 1 + ||F(0)||
MAX_HALVINGS = 20
FD_STEP = 1e-5          # forward-difference step of the generic Newton Jacobian


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
    n: int

    @property
    def se(self):
        return np.sqrt(np.diag(self.covariance))


def _moment_condition(distance: DistanceSpec, model, beta, grid: EvalGrid):
    """The moment condition at beta, from one ``tabulate`` of g and dg/dbeta.

    Returns one function of a marginal p on the grid. It returns
    ``(plug_in, correction)`` from a single ``reduced_factors`` call: the
    quadrature of dg/dbeta (f + g f_dq)(p, g), and the outcome transform
    dg/dbeta (f_dp + g f_dpdq)(p, g), shape (G, p), whose counterfactual mean
    corrects it (-2 dg/dbeta for l2, -dlog g/dbeta for KL; free of p in both).

    beta may be a stack (k, p): each row is tabulated on its own, the factors
    come from one call on the (k, G) stack of g, and both results gain a
    leading k axis, each row bit-identical to its own unstacked evaluation.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim == 1:
        gv, gg = tabulate(model, beta, grid)
    else:
        gv, gg = map(np.stack, zip(*(tabulate(model, b, grid) for b in beta)))

    def at(p):
        fac, _, influence = reduced_factors(distance, p, gv)
        return grid.weights @ (gg * fac[..., None]), gg * influence[..., None]
    return at


def moment(distance: DistanceSpec, model, beta, p_a, grid: EvalGrid):
    """Population moment m(beta): quadrature of dg/dbeta (f + g f_dq)(p_a, g).

    beta (p,) or a stack (k, p); returns (p,) or (k, p)."""
    return _moment_condition(distance, model, beta, grid)(p_a)[0]


def dr_scores(table: ObservationTable, fold: FoldNuisance, level, h_grid,
              grid: EvalGrid):
    """Raw doubly-robust summands for the counterfactual mean of an outcome transform h.

    Per evaluation row i the raw summand is
        1(A_i = level)/pi_hat(X_i) * (h(Y_i) - hbar(X_i)) + hbar(X_i)
    with hbar(x) the quadrature of h against eta_hat(.|x). h(Y_i) interpolates
    linearly between grid nodes and outcomes are only ever read on rows at the
    queried level. The summands are not centred; their mean is
    ``fold.d_hat[level] @ h``.

    h_grid: (G,) or (G, m); returns (n_ev,) or (n_ev, m).
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if not np.all(np.isfinite(h_grid)):
        raise DistanceDomainError("influence transform is non-finite on the grid")
    squeeze = h_grid.ndim == 1
    if squeeze:
        h_grid = h_grid[:, None]
    idx = fold.eval_idx
    a = table.a[idx]
    pi = fold.pi[level]
    out = fold.eta[level].contract(grid.weights[:, None] * h_grid)   # hbar, (n_ev, m)
    hit = a == level
    if hit.any():
        h_at_y = grid.interp(h_grid, table.y[idx[hit]])  # (n_hit, m)
        out[hit] += (h_at_y - out[hit]) / pi[hit][:, None]
    return out[:, 0] if squeeze else out


def onestep(folds_nuis, grid, terms, table=None):
    """Cross-fit one-step estimate and, given the table, its influence values.

    ``terms(fold)`` returns ``(plug_in, arms)`` with each arm a triple
    ``(level, h, p)``: an outcome transform h tabulated on the grid and the
    fold marginal p it is centred against. A fold's estimate is its plug-in
    plus, per arm, the mean doubly-robust summand of h net of its plug-in
    counterpart int h p, which is (d_hat - w p) @ h; folds are pooled with
    weights proportional to their sizes. One pass evaluates ``terms`` once
    per fold and returns ``(estimate, influence)``. Without the table no
    per-row work is done and influence is None; with it, influence stacks,
    fold by fold, the arm sum of the ``dr_scores``, each arm centred exactly
    at its fold mean.

    ``folds_nuis`` may be any iterable, such as ``nuisance.fold_stream``: the
    pass keeps each fold's size, plug-in and influence values, never the
    fold, and pools the plug-ins in fold order once the folds are done.
    """
    def fold_terms(fold):
        plug_in, arms = terms(fold)
        for level, h, p in arms:
            plug_in = plug_in + (fold.d_hat[level] - grid.weights * p) @ h
        if table is None:
            return fold.n_eval, plug_in, None
        raw = [dr_scores(table, fold, level, h, grid) for level, h, _ in arms]
        return fold.n_eval, plug_in, sum(r - r.mean(axis=0) for r in raw)

    # map releases each fold once its terms are in, before it asks for the next
    sizes, plug_ins, influence = zip(*map(fold_terms, folds_nuis))
    sizes = np.array(sizes, dtype=float)
    estimate = 0.0
    for w, plug_in in zip(sizes / sizes.sum(), plug_ins):
        estimate = estimate + w * plug_in
    return estimate, None if table is None else np.concatenate(influence)


def _moment_terms(distance, model, beta, level, grid):
    """Per-fold plug-in moment at beta and the arm that corrects it."""
    at = _moment_condition(distance, model, beta, grid)

    def terms(fold):
        p_hat = fold.p_hat[level]
        plug_in, correction = at(p_hat)
        return plug_in, [(level, correction, p_hat)]
    return terms


def one_step_equation(distance, model, beta, folds_nuis, level, grid):
    """Pooled one-step estimating equation value at beta.

    Per fold, the correction is the mean doubly-robust summand of the
    correction transform minus its plug-in counterpart (quadrature against
    that fold's marginal), read off the fold's grid measure d_hat. beta may be
    a stack (k, p), which returns the (k, p) values of its rows in one pass
    over the folds.
    """
    return onestep(folds_nuis, grid, _moment_terms(distance, model, beta, level, grid))[0]


def default_start(model, folds_nuis, level, grid):
    """Solver starting point: the base density, or matched moments for mixtures.

    Mixtures started at beta = 0 sit at the edge of the interval and the
    estimating equation has a spurious root at infinity (all gradients vanish
    as components flee the support), so their means/scales start from the
    moments and quantiles of the pooled plug-in marginal.
    """
    if not isinstance(model, GaussianMixture):
        return np.zeros(model.beta_dim)
    p_hat = onestep(folds_nuis, grid, lambda fold: (fold.p_hat[level], []))[0]
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


def _forward_jacobian(func, beta, fval):
    """Forward-difference Jacobian of func at beta, where func(beta) = fval.

    Column k is (func(beta + h_k e_k) - fval) / h_k with h_k = FD_STEP (1 + |beta_k|),
    and all p perturbed points go to func in one (p, p) stack, one per row.
    """
    steps = FD_STEP * (1.0 + np.abs(beta))
    return ((func(beta + np.diag(steps)) - fval) / steps[:, None]).T


def _damped_newton(func, beta0, tol, max_iter=100, jac=None, guard=None):
    """Step-halving Newton from beta0 until ||func|| <= tol (absolute), or until no
    halving lowers ||func||. Returns (beta, func(beta), iterations, norm history).
    ``guard(beta, iteration, history)`` sees every accepted step and may raise.
    Without ``jac`` the Jacobian is ``_forward_jacobian``'s, so func must accept
    a (k, p) stack of betas as well as one beta."""
    beta = np.array(beta0, dtype=float)
    fval = func(beta)
    history = [float(np.linalg.norm(fval))]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        norm = np.linalg.norm(fval)
        if norm <= tol:
            break
        j = jac(beta) if jac is not None else _forward_jacobian(func, beta, fval)
        try:
            step = np.linalg.solve(j, -fval)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(j, -fval, rcond=None)[0]
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
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
            guard(beta, iterations, history)
    return beta, fval, iterations, history


def _special_route(distance, model):
    """Name of the closed route for (distance, model); None means generic Newton."""
    if distance.kind == "l2" and isinstance(model, TruncatedSeries):
        return "closed_form_l2_series"
    if distance.kind == "kl" and isinstance(model, ExponentialFamily):
        return "moment_matching_kl_expfam"
    return None


def certified_root(distance: DistanceSpec, model, folds_nuis, level, grid: EvalGrid):
    """The certified root of the pooled one-step equation: (beta_hat, SolverReport).

    Routes: closed form for l2 + truncated series; doubly-robust moment
    matching (Newton on the log-partition gradient) for KL + exponential
    family; damped Newton on the pooled estimating equation otherwise.
    Whatever the route, the root is certified: its pooled equation residual
    must be within ACCEPT of 1 + ||equation at beta = 0||, or SolverError is
    raised. Nothing here builds the sandwich.
    """
    require_levels(folds_nuis[0], (level,))

    def equation(beta):
        return one_step_equation(distance, model, beta, folds_nuis, level, grid)

    scale = 1.0 + float(np.linalg.norm(equation(np.zeros(model.beta_dim))))

    route = _special_route(distance, model) or "generic_damped_newton"
    resid, iters, history = None, 0, None
    if route != "generic_damped_newton":
        # both closed routes reduce to the one-step mean of the basis
        basis_tab = model.basis.on_grid(grid)
        target = onestep(folds_nuis, grid, lambda fold: (0.0, [(level, basis_tab, 0.0)]))[0]
    if route == "closed_form_l2_series":
        beta_hat = target
    elif route == "moment_matching_kl_expfam":
        limit = np.sqrt(2.0)  # attainable basis means lie strictly inside (-sqrt2, sqrt2)
        if np.any(np.abs(target) >= limit - 1e-12):
            raise InfeasibleMomentError(
                f"moment-matching target {target} outside the attainable mean set")

        def match(beta):
            return log_partition(model, beta, grid)[1] - target

        def guard(beta, iteration, history):
            if np.linalg.norm(beta) > BETA_RUNAWAY:
                raise InfeasibleMomentError(
                    f"moment matching diverged: ||beta|| > {BETA_RUNAWAY:g} at iteration "
                    f"{iteration}; target appears unattainable", residual_history=history)

        start = np.zeros(model.beta_dim)
        beta_hat, _, iters, history = _damped_newton(
            match, start, tol=1e-12 * (1.0 + float(np.linalg.norm(match(start)))),
            jac=lambda beta: _kl_expfam_jacobian(model, beta, grid), guard=guard)
    else:
        def guard(beta, iteration, history):
            if np.max(np.abs(beta)) > BETA_RUNAWAY:
                raise SolverError(
                    f"solver ran away toward a degenerate root: |beta_k| > {BETA_RUNAWAY:g} "
                    f"at iteration {iteration}", residual_history=history)

        beta_hat, resid, iters, history = _damped_newton(
            equation, default_start(model, folds_nuis, level, grid), tol=1e-11 * scale,
            guard=guard)

    if resid is None:
        resid = equation(beta_hat)
    residual = float(np.linalg.norm(resid))
    history = history or [residual]
    if residual > ACCEPT * scale:
        raise SolverError(
            f"estimating equation not solved: residual {residual:.3e} "
            f"exceeds {ACCEPT:.1e} x {scale:.3e}", residual_history=history)
    return beta_hat, SolverReport(method=route, iterations=iters, residual_norm=residual,
                                  residual_scale=scale, residual_history=history)


def solve_onestep(distance: DistanceSpec, model, table: ObservationTable,
                  folds_nuis, level, grid: EvalGrid) -> ProjectionEstimate:
    """One-step bias-corrected projection fit with sandwich inference.

    ``certified_root`` finds and certifies beta_hat; the sandwich covariance
    at that root (``sandwich_cov``, which raises RankError for a singular
    moment derivative) gives the Wald intervals, and g(.; beta_hat) clipped
    to a density is the fitted density.
    """
    beta_hat, report = certified_root(distance, model, folds_nuis, level, grid)
    covariance, report.warn = sandwich_cov(distance, model, beta_hat, table, folds_nuis,
                                           level, grid)
    se = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    wald = np.column_stack([beta_hat - Z95 * se, beta_hat + Z95 * se])
    fitted = clip_to_density(tabulate(model, beta_hat, grid)[0], grid)
    return ProjectionEstimate(
        beta_hat=beta_hat, covariance=covariance, wald_ci=wald, fitted_density=fitted,
        solver_report=report, n=sum(f.n_eval for f in folds_nuis))


def _kl_expfam_jacobian(model, beta, grid):
    """Basis covariance under g(.; beta): the Jacobian of the log-partition gradient."""
    bt, _, dc, gv = _exp_tilt(model, beta, grid)
    second = grid.integrate(bt[:, :, None] * bt[:, None, :] * gv[:, None, None])
    return second - np.outer(dc, dc)


def _plugin_jacobian(distance, model, beta, folds_nuis, level, grid):
    """Derivative of the pooled plug-in moment at beta.

    Analytic for the two special routes (2 I for l2 + orthonormal series;
    the basis covariance under g for KL + exponential family), central finite
    differences otherwise, from one pooled-moment pass over the 2p points.
    """
    p = model.beta_dim
    route = _special_route(distance, model)
    if route == "closed_form_l2_series":
        return 2.0 * np.eye(p)
    if route == "moment_matching_kl_expfam":
        return _kl_expfam_jacobian(model, beta, grid)

    steps = 1e-6 * (1.0 + np.abs(beta))
    at = _moment_condition(distance, model, np.concatenate([beta + np.diag(steps),
                                                            beta - np.diag(steps)]), grid)
    m = onestep(folds_nuis, grid, lambda fold: (at(fold.p_hat[level])[0], []))[0]
    return ((m[:p] - m[p:]) / (2.0 * steps[:, None])).T


def sandwich_cov(distance: DistanceSpec, model, beta_hat, table, folds_nuis,
                 level, grid: EvalGrid):
    """Sandwich covariance of beta_hat, scaled by 1/n, and a conditioning warning.

    V^-1 Cov(influence values at beta_hat) V^-T / n, with V the plug-in
    moment derivative and influence values pooled across folds (each fold
    centered exactly). The warning is empty unless cond(V) exceeds 1e8.
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
    influence = onestep(folds_nuis, grid, _moment_terms(distance, model, beta_hat, level, grid),
                        table)[1]
    vinv = np.linalg.inv(v)
    cov = vinv @ np.atleast_2d(np.cov(influence, rowvar=False)) @ vinv.T / len(influence)
    return 0.5 * (cov + cov.T), warn
