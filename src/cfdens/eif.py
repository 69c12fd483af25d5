"""Influence-function algebra for counterfactual density functionals.

Every target is a cross-fit one-step estimate whose correction is a
counterfactual mean of an outcome transform h tabulated on the grid. Per
row, the raw doubly-robust summand of h is

    1(A_i = a)/pi_hat(X_i) * (h(Y_i) - hbar(X_i)) + hbar(X_i),

hbar the quadrature of h against eta_hat(.|X_i). Its mean needs no per-row
work: it is d_hat @ h, with d_hat the fold's doubly-robust grid measure
(``nuisance.fold_nuisance``), and that is all the estimates use. Per-row
values, from ``dr_scores``, are the raw summands; influence values centre
them per fold (``projection.onestep_influence``) and pseudo-risk summands
add a constant per candidate. They contract the fold's factored eta_hat
(per level: K in float32 (m, G), the eval rows' covariates and 1/mass, next
to p_hat and d_hat), so no (n_ev, G) array is built unless
``CondDensityModel.predict`` is called. The density-effect transforms
(``effect_curves``) are tabulated from the reduced factors in
``distances``; the projection's correction transform is part of its moment
condition, which lives in ``projection`` and is tabulated once per beta.
"""

from __future__ import annotations

import numpy as np

from .data import EvalGrid, ObservationTable
from .distances import DistanceSpec, effect_integrand_factor, moment_integrand_factor
from .errors import DistanceDomainError
from .nuisance import FoldNuisance


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


def effect_curves(distance: DistanceSpec, p1, p0):
    """The pair of outcome transforms behind the density-effect correction.

    lam1 = p0 f_dp(p1, p0) and lam0 = f(p1, p0) + p0 f_dq(p1, p0), the p- and
    q-derivatives of f(p, q) q at (p1, p0), in their reduced forms. With p1 a
    density p_a and p0 a fixed, known candidate g, lam1 alone is the
    transform behind the distance D(p_a, g).
    """
    return (effect_integrand_factor(distance, p1, p0),
            moment_integrand_factor(distance, p1, p0))
