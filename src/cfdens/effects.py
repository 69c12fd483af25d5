"""Density effects: one-step estimation of the distance between counterfactual densities.

The effect estimate is the plug-in distance between the two fold marginals
plus the averaged influence correction for both arms. Wald intervals use the
pooled influence variance; a conservative interval widens the standard error
to at least 1/sqrt(n), which stays valid when the two densities coincide and
the influence function degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EvalGrid, ObservationTable
from .distances import DistanceSpec, divergence
from .eif import dr_scores, effect_curves
from .errors import DataError
from .projection import onestep, onestep_influence

Z95 = 1.96
EFFECT_FLOOR = 1e-8  # density floor for the ratio-based divergences


@dataclass
class EffectEstimate:
    psi_hat: float
    se: float
    ci_wald: tuple
    ci_conservative: tuple
    near_null: bool
    levels: tuple
    n: int
    density_floor: float | None = None

    def __post_init__(self):
        # the conservative interval always contains the Wald interval
        assert self.ci_conservative[0] <= self.ci_wald[0] + 1e-12
        assert self.ci_conservative[1] >= self.ci_wald[1] - 1e-12


def _finalize(psi, influence_pooled, levels, floor):
    n = len(influence_pooled)
    se = float(np.std(influence_pooled, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    wald = (psi - Z95 * se, psi + Z95 * se)
    s_cons = max(se, 1.0 / np.sqrt(n))
    cons = (psi - Z95 * s_cons, psi + Z95 * s_cons)
    return EffectEstimate(
        psi_hat=float(psi), se=se, ci_wald=wald, ci_conservative=cons,
        near_null=bool(abs(psi) < 2.0 / np.sqrt(n)), levels=tuple(levels), n=n,
        density_floor=floor)


def _needs_floor(distance):
    return distance.kind in ("kl", "chisq", "hellinger")


def effect_onestep(distance: DistanceSpec, table: ObservationTable, folds_nuis,
                   grid: EvalGrid, levels=(1, 0)) -> EffectEstimate:
    """One-step estimate of D(p_level1, p_level0) with both corrections.

    Per fold: plug-in divergence between the fold marginals, plus the mean of
    the raw doubly-robust summands of the two effect transforms net of their
    plug-in counterparts. Influence values are pooled across folds for the
    standard error.
    """
    lev1, lev0 = levels
    for lev in levels:
        if lev not in folds_nuis[0].pi:
            raise DataError(f"level {lev} missing from nuisance tabulations")
    floor = EFFECT_FLOOR if _needs_floor(distance) else None

    def terms(fold):
        p1, p0 = fold.p_hat[lev1], fold.p_hat[lev0]
        if floor is not None:
            p1 = np.maximum(p1, floor)
            p0 = np.maximum(p0, floor)
        lam1, lam0 = effect_curves(distance, p1, p0)
        return divergence(distance, p1, p0, grid), [(lev1, lam1, p1), (lev0, lam0, p0)]

    psi = onestep(folds_nuis, grid, terms)
    influence = onestep_influence(table, folds_nuis, grid, terms)
    return _finalize(psi, influence, levels, floor)


def effect_l2_direct(table: ObservationTable, folds_nuis, grid: EvalGrid,
                     levels=(1, 0)) -> EffectEstimate:
    """Squared-L2 effect in its direct closed form.

    Per fold, writing delta = p_hat_1 - p_hat_0:
        2 P_n[ (2A-1)/pi_A {delta(Y) - int delta eta_A}
               + int delta (eta_1 - eta_0) ]  -  int delta^2.
    Algebraically identical to ``effect_onestep`` with the l2 distance
    because the fold marginal is the row average of eta over the same rows;
    the two paths agree to machine precision on identical inputs.
    """
    lev1, lev0 = levels
    distance = DistanceSpec("l2")
    sizes = np.array([f.n_eval for f in folds_nuis], dtype=float)
    weights = sizes / sizes.sum()
    psi = 0.0
    pooled = []
    for w, fold in zip(weights, folds_nuis):
        idx = fold.eval_idx
        a = table.a[idx]
        delta = fold.p_hat[lev1] - fold.p_hat[lev0]          # (G,)
        wdelta = grid.weights * delta
        int_d_eta1 = fold.eta[lev1].contract(wdelta)         # (n_ev,)
        int_d_eta0 = fold.eta[lev0].contract(wdelta)
        terms = int_d_eta1 - int_d_eta0                      # int delta (eta1 - eta0)
        hit1 = a == lev1
        hit0 = a == lev0
        if hit1.any():
            d_at_y = grid.interp(delta, table.y[idx[hit1]])
            terms[hit1] += (d_at_y - int_d_eta1[hit1]) / fold.pi[lev1][hit1]
        if hit0.any():
            d_at_y = grid.interp(delta, table.y[idx[hit0]])
            terms[hit0] -= (d_at_y - int_d_eta0[hit0]) / fold.pi[lev0][hit0]
        int_d2 = float(grid.integrate(delta**2))
        psi += w * (2.0 * float(terms.mean()) - int_d2)
        # influence values match the one-step path exactly
        lam1, lam0 = effect_curves(distance, fold.p_hat[lev1], fold.p_hat[lev0])
        s1 = dr_scores(table, fold, lev1, lam1, grid)
        s0 = dr_scores(table, fold, lev0, lam0, grid)
        pooled.append((s1 - s1.mean()) + (s0 - s0.mean()))
    influence = np.concatenate(pooled)
    return _finalize(psi, influence, levels, None)


def effect_fixed_candidate(distance: DistanceSpec, table: ObservationTable,
                           folds_nuis, level, g, grid: EvalGrid) -> EffectEstimate:
    """One-step distance between p_level and a fixed, known density g.

    Plug-in D(p_hat, g) plus the mean doubly-robust summand of the
    fixed-candidate transform net of its plug-in counterpart; for l2 this is
    the displayed closed form with transform 2 (p_hat - g).
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.points.shape:
        raise DataError("candidate density must be tabulated on the grid")
    floor = EFFECT_FLOOR if _needs_floor(distance) else None

    def terms(fold):
        p_hat, gf = fold.p_hat[level], g
        if floor is not None:
            p_hat = np.maximum(p_hat, floor)
            gf = np.maximum(g, floor)
        lam = effect_curves(distance, p_hat, gf)[0]
        return divergence(distance, p_hat, gf, grid), [(level, lam, p_hat)]

    psi = onestep(folds_nuis, grid, terms)
    influence = onestep_influence(table, folds_nuis, grid, terms)
    return _finalize(psi, influence, (level,), floor)
