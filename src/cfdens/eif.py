"""Influence-function algebra for counterfactual density functionals.

Every target is a cross-fit one-step estimate whose correction is a
counterfactual mean of an outcome transform h tabulated on the grid. Per
row, the raw doubly-robust summand of h is

    1(A_i = a)/pi_hat(X_i) * (h(Y_i) - hbar(X_i)) + hbar(X_i),

hbar the quadrature of h against eta_hat(.|X_i). Its mean needs no per-row
work: it is d_hat @ h, with d_hat the fold's doubly-robust grid measure
(``nuisance.fold_nuisance``), and that is all the estimates use. Per-row
values, from ``dr_scores``, are needed only for influence values
(covariances, standard errors) and per-row risk summands; they contract the
fold's factored eta_hat (per level: K in float32 (m, G), the eval rows'
covariates and 1/mass, next to p_hat and d_hat), so no (n_ev, G) array is
built unless ``CondDensityModel.predict`` is called. The transforms
themselves (projection moment corrections, density-effect curves,
fixed-candidate curves) are tabulated by the companion helpers.
"""

from __future__ import annotations

import numpy as np

from .data import EvalGrid, ObservationTable
from .distances import DistanceSpec, clamp_densities, influence_integrand_factor
from .errors import DistanceDomainError
from .models import g_grad_on_grid, g_on_grid
from .nuisance import FoldNuisance


def dr_scores(table: ObservationTable, fold: FoldNuisance, level, h_grid,
              grid: EvalGrid, center="sample"):
    """Doubly-robust scores for the counterfactual mean of an outcome transform h.

    Per evaluation row i the raw summand is
        1(A_i = level)/pi_hat(X_i) * (h(Y_i) - hbar(X_i)) + hbar(X_i)
    with hbar(x) the quadrature of h against eta_hat(.|x). h(Y_i) interpolates
    linearly between grid nodes and outcomes are only ever read on rows at the
    queried level.

    ``center`` picks the subtracted constant: the default "sample" subtracts
    the sample mean of the raw summands, so the output averages to zero
    exactly (the influence-value form used for covariances and diagnostics);
    a numeric value subtracts that instead (0.0 gives the raw doubly-robust
    summands, whose mean is ``fold.d_hat[level] @ h``).

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
    hbar = fold.eta[level].contract(grid.weights[:, None] * h_grid)   # (n_ev, m)
    out = hbar.copy()
    hit = a == level
    if hit.any():
        h_at_y = grid.interp(h_grid, table.y[idx[hit]])  # (n_hit, m)
        out[hit] += (h_at_y - hbar[hit]) / pi[hit][:, None]
    if isinstance(center, str):
        if center != "sample":
            raise ValueError(f"unknown centering {center!r}")
        out -= out.mean(axis=0)
    else:
        out -= np.asarray(center, dtype=float)
    return out[:, 0] if squeeze else out


def moment_correction_curve(distance: DistanceSpec, model, beta, p_a, grid: EvalGrid):
    """Outcome transform whose counterfactual mean corrects the plug-in moment.

    Tabulates dg/dbeta * (f_dp + g f_dpdq)(p_a, g) on the grid; shape (G, p).
    For l2 this is -2 dg/dbeta and for KL it is -dlog g/dbeta, with no p_a
    dependence in either case.
    """
    gv = g_on_grid(model, beta, grid)
    gg = g_grad_on_grid(model, beta, grid)
    fac = influence_integrand_factor(distance, np.asarray(p_a, dtype=float), gv)
    return gg * fac[:, None]


def effect_curves(distance: DistanceSpec, p1, p0):
    """The pair of outcome transforms behind the density-effect correction.

    lam1(y) = p0 f_dp(p1, p0);  lam0(y) = f(p1, p0) + p0 f_dq(p1, p0).
    Closed per-kind forms (all algebraically equal to the table composition):
      l2:        lam1 = 2 (p1 - p0) = -lam0
      kl:        lam1 = log(p1/p0) + 1,     lam0 = -p1/p0
      chisq:     lam1 = 2 (p1 - p0)/p0,     lam0 = (p1/p0 - 1)^2 - 2 p1 (p1 - p0)/p0^2
      hellinger: lam1 = 1 - sqrt(p0/p1),    lam0 = 1 - sqrt(p1/p0)
      tv:        lam1 = nu'(p1 - p0)/2 = -lam0
    With p1 a density p_a and p0 a fixed, known candidate g, lam1 alone is the
    transform behind the distance D(p_a, g).
    """
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if distance.kind == "l2":
        lam1 = 2.0 * (p1 - p0)
        return lam1, -lam1
    if distance.kind == "tv":
        from .distances import abs_smooth_d1

        lam1 = abs_smooth_d1(p1 - p0, distance.tv_t, distance.tv_kind) / 2.0
        return lam1, -lam1
    p1c, p0c = clamp_densities(distance, p1, p0)
    r = p1c / p0c
    if distance.kind == "kl":
        return np.log(r) + 1.0, -r
    if distance.kind == "chisq":
        return 2.0 * (p1c - p0c) / p0c, (r - 1.0) ** 2 - 2.0 * p1c * (p1c - p0c) / p0c**2
    return 1.0 - np.sqrt(1.0 / r), 1.0 - np.sqrt(r)
