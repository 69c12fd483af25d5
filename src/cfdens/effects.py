"""Density effects: one-step estimation of the distance between counterfactual densities.

Both entry points are one estimator (``_effect``): per fold, the plug-in
distance D(p, q) plus the averaged influence correction of each arm. For an
effect, p and q are the fold marginals at two levels and both are arms; for
the distance to a fixed, known candidate, q is that candidate and only p is
an arm. Wald intervals use the pooled influence variance; a conservative
interval widens the standard error to at least 1/sqrt(n), which stays valid
when the two densities coincide and the influence function degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EvalGrid, ObservationTable
from .distances import DistanceSpec, divergence
# dr_scores is not called here; perfbench/tracing.py wraps this module's binding of it
from .eif import dr_scores, effect_curves  # noqa: F401
from .errors import DataError
from .nuisance import require_levels
from .projection import Z95, onestep, onestep_influence

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


def effect_onestep(distance: DistanceSpec, table: ObservationTable, folds_nuis,
                   grid: EvalGrid, levels=(1, 0)) -> EffectEstimate:
    """One-step estimate of D(p_level1, p_level0) with both corrections.

    Per fold: plug-in divergence between the fold marginals, plus the mean of
    the raw doubly-robust summands of the two effect transforms net of their
    plug-in counterparts (``_effect``). The two levels must differ
    (``DataError``).
    """
    lev1, lev0 = levels
    if lev1 == lev0:
        raise DataError(f"an effect needs two distinct levels, got {tuple(levels)}")
    require_levels(folds_nuis, levels)
    return _effect(distance, table, folds_nuis, grid, (lev1, lev0))


def effect_fixed_candidate(distance: DistanceSpec, table: ObservationTable,
                           folds_nuis, level, g, grid: EvalGrid) -> EffectEstimate:
    """One-step distance between p_level and a fixed, known density g.

    Plug-in D(p_hat, g) plus the mean doubly-robust summand of the
    fixed-candidate transform net of its plug-in counterpart (``_effect``
    with no arm for g); for l2 this is the displayed closed form with
    transform 2 (p_hat - g).
    """
    require_levels(folds_nuis, (level,))
    g = np.asarray(g, dtype=float)
    if g.shape != grid.points.shape:
        raise DataError("candidate density must be tabulated on the grid")
    return _effect(distance, table, folds_nuis, grid, (level,), g)


def _effect(distance, table, folds_nuis, grid, levels, g=None):
    """The one-step distance D(p, q) behind both entry points.

    p is the fold marginal at ``levels[0]``; q is the fold marginal at
    ``levels[1]``, or, with one level, the fixed density g, which has no arm
    of its own. Per fold, for kl, chisq and hellinger, p and q are floored at
    ``EFFECT_FLOOR``; the fold's estimate is D(p, q) plus, per arm, the mean
    doubly-robust summand of its transform from ``effect_curves`` net of its
    plug-in counterpart. Influence values are pooled across folds for the
    standard error.
    """
    floor = EFFECT_FLOOR if distance.kind in ("kl", "chisq", "hellinger") else None

    def terms(fold):
        p = fold.p_hat[levels[0]]
        q = g if g is not None else fold.p_hat[levels[1]]
        if floor is not None:
            p, q = np.maximum(p, floor), np.maximum(q, floor)
        arms = zip(levels, effect_curves(distance, p, q), (p, q))   # as many as levels
        return divergence(distance, p, q, grid), list(arms)

    psi = onestep(folds_nuis, grid, terms)
    influence = onestep_influence(table, folds_nuis, grid, terms)
    return _finalize(psi, influence, levels, floor)
