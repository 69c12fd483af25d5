"""Shared test oracles: the raw discrepancy table, the full outcome-kernel
matrix, the row-max covariate weights, the dense conditional-density rows, the
generic-route projection root, the direct closed form of the squared-L2
effect, the one-step distance by hand, finite-difference checks and small
builders."""

import numpy as np

from cfdens.data import EvalGrid, ObservationTable
from cfdens.distances import (DistanceSpec, abs_smooth, abs_smooth_d1, abs_smooth_d2,
                              divergence)
from cfdens.effects import EffectEstimate, _finalize
from cfdens.eif import dr_scores, effect_curves
from cfdens.nuisance import _CHUNK, _normalize_rows_to_density, tabulate_nuisances
from cfdens.projection import ACCEPT, _damped_newton, default_start, one_step_equation

# ---------------------------------------------------------------------------
# raw discrepancy table: f(p, q) and its partials, composed from first
# principles. The package keeps only D and the reduced factors; these serve
# as the independent reference they are checked against. They assume q > 0
# and, for kl and hellinger, p > 0.


def f_eval(spec, p, q):
    """Discrepancy value f(p, q)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    k = spec.kind
    if k == "l2":
        return (p - q) ** 2 / q
    if k == "kl":
        r = p / q
        return r * np.log(r)
    if k == "chisq":
        return (p / q - 1.0) ** 2
    if k == "hellinger":
        return (np.sqrt(p / q) - 1.0) ** 2
    return abs_smooth(p - q, spec.tv_t) / (2.0 * q)


def f1(spec, p, q):
    """Partial derivative of f in its first argument."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    k = spec.kind
    if k == "l2":
        return 2.0 * (p / q - 1.0)
    if k == "kl":
        return (np.log(p / q) + 1.0) / q
    if k == "chisq":
        return 2.0 * (p - q) / q**2
    if k == "hellinger":
        return (1.0 / np.sqrt(q)) * (1.0 / np.sqrt(q) - 1.0 / np.sqrt(p))
    return abs_smooth_d1(p - q, spec.tv_t) / (2.0 * q)


def f2(spec, p, q):
    """Partial derivative of f in its second argument."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    k = spec.kind
    if k == "l2":
        return 1.0 - (p / q) ** 2
    if k == "kl":
        return -(p / q**2) * (np.log(p / q) + 1.0)
    if k == "chisq":
        return -(2.0 * p / q**3) * (p - q)
    if k == "hellinger":
        return (np.sqrt(p) / q**2) * (np.sqrt(q) - np.sqrt(p))
    nu = abs_smooth(p - q, spec.tv_t)
    nu1 = abs_smooth_d1(p - q, spec.tv_t)
    return -(nu / q + nu1) / (2.0 * q)


def f21(spec, p, q):
    """Mixed second partial of f (differentiate in q, then p)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    k = spec.kind
    if k == "l2":
        return -2.0 * p / q**2
    if k == "kl":
        return -(np.log(p / q) + 2.0) / q**2
    if k == "chisq":
        return 2.0 * (q - 2.0 * p) / q**3
    if k == "hellinger":
        return (np.sqrt(q / p) - 2.0) / (2.0 * q**2)
    nu1 = abs_smooth_d1(p - q, spec.tv_t)
    nu2 = abs_smooth_d2(p - q, spec.tv_t)
    return -(nu1 / q + nu2) / (2.0 * q)


def kernel_outcome_reference(y_train, points, h):
    """Reflected Gaussian outcome kernel with all three terms (y, -y, 2 - y)
    evaluated on the full (m, G) grid in float64: the reference the banded,
    row-blocked ``nuisance._kernel_outcome_matrix`` must match once rounded
    to float32."""
    out = np.zeros((len(y_train), len(points)))
    z = np.empty_like(out)
    for yy in (y_train, -y_train, 2.0 - y_train):
        np.subtract.outer(yy, points, out=z)
        z /= h
        np.clip(z, -38.0, 38.0, out=z)
        np.square(z, out=z)
        z *= -0.5
        out += np.exp(z, out=z)
    out /= h * np.sqrt(2.0 * np.pi)
    return out


def weight_blocks_reference(model, xa):
    """Nadaraya-Watson covariate weights of the augmented covariates xa, block
    by block: each block's empty Epanechnikov windows are found by a pass over
    its row maxima, and such a row gets weight 1 on its nearest training row.
    The reference the W blocks that ``FactoredEta`` feeds to ``contract``
    must match."""
    for lo in range(0, len(xa), _CHUNK):
        rows = slice(lo, min(lo + _CHUNK, len(xa)))
        w = xa[rows] @ model._train_aug.T
        empty = np.flatnonzero(w.max(axis=1) <= 0.0)
        nearest = w[empty].argmax(axis=1)
        np.maximum(w, 0.0, out=w)
        w[empty, nearest] = 1.0
        yield rows, w


def predict_reference(model, x, grid):
    """eta_hat on the rows of x, materialised block by block: each block's
    weights get their nearest-neighbour fallback from ``empty_rows``, its
    rows are W K in float64, and every row is then scaled to unit mass under
    the grid quadrature (a row with no mass raises ``DataError``). The
    reference ``FactoredEta`` and its dense view ``CondDensityModel.predict``
    are checked against."""
    kmat = model.kmat.astype(float)
    kw = kmat @ grid.weights
    xa = model.covariates(x)
    out = np.empty((len(xa), kmat.shape[1]))
    for rows, w in model.weight_blocks(xa):
        w[model.empty_rows(xa, rows, w @ kw)] = 1.0
        out[rows] = w @ kmat
    return _normalize_rows_to_density(out, grid)


def generic_root(distance, model, folds_nuis, level, grid):
    """Root of the pooled one-step estimating equation by the generic route:
    ``_damped_newton`` with a finite-difference Jacobian from ``default_start``,
    to ``certified_root``'s tolerance 1e-11 (1 + ||F(0)||). The reference the
    closed routes are checked against; the root must pass the certificate."""
    def equation(beta):
        return one_step_equation(distance, model, beta, folds_nuis, level, grid)

    scale = 1.0 + float(np.linalg.norm(equation(np.zeros(model.beta_dim))))
    beta, resid, _, _ = _damped_newton(
        equation, default_start(model, folds_nuis, level, grid), tol=1e-11 * scale)
    assert np.linalg.norm(resid) <= ACCEPT * scale
    return beta


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


def onestep_distance_by_hand(distance, table, folds_nuis, grid, levels, g=None):
    """(psi, se) of the one-step distance D(p, q), assembled from ``dr_scores``.

    p is the fold marginal at levels[0]; q the one at levels[1], or the fixed
    density g when one level is given. For kl, chisq and hellinger both are
    floored at 1e-8. Per fold: D(p, q) plus, per arm, the mean of its raw
    doubly-robust summands minus the quadrature of its transform against the
    arm's curve; folds pooled by size. se from the summands centred per fold
    and arm, summed over arms and stacked over folds."""
    floored = distance.kind in ("kl", "chisq", "hellinger")
    n = sum(fold.n_eval for fold in folds_nuis)
    psi, pooled = 0.0, []
    for fold in folds_nuis:
        p = fold.p_hat[levels[0]]
        q = g if len(levels) == 1 else fold.p_hat[levels[1]]
        if floored:
            p, q = np.maximum(p, 1e-8), np.maximum(q, 1e-8)
        est, centred = divergence(distance, p, q, grid), 0.0
        for level, h, curve in zip(levels, effect_curves(distance, p, q), (p, q)):
            scores = dr_scores(table, fold, level, h, grid)
            est += scores.mean() - grid.integrate(h * curve)
            centred = centred + (scores - scores.mean())
        psi += fold.n_eval / n * est
        pooled.append(centred)
    influence = np.concatenate(pooled)
    return psi, float(np.std(influence, ddof=1) / np.sqrt(n))


def fd_table_check(spec, p_vals=None, q_vals=None, tol=1e-6):
    """Verify the derivative table against central finite differences.

    Returns the worst mixed (absolute+relative) discrepancy over the lattice.
    First-derivative steps are multiplicative; the cross step is additionally
    capped by the curvature scale 1/t of the smoothed-absolute-value kinds.
    """
    if p_vals is None:
        p_vals = np.geomspace(0.01, 10.0, 7)
    if q_vals is None:
        q_vals = np.geomspace(0.01, 10.0, 7)
    worst = 0.0
    for p in p_vals:
        for q in q_vals:
            hp = 1e-6 * p
            hq = 1e-6 * q
            cp = 1e-4 * p
            cq = 1e-4 * q
            if spec.kind == "tv" and spec.tv_t * abs(p - q) <= 5.0:
                # near the smoothed kink the curvature scale is 1/t, not p,q
                cp = min(cp, 3e-4 / spec.tv_t)
                cq = min(cq, 3e-4 / spec.tv_t)
            fd1 = (f_eval(spec, p + hp, q) - f_eval(spec, p - hp, q)) / (2 * hp)
            fd2 = (f_eval(spec, p, q + hq) - f_eval(spec, p, q - hq)) / (2 * hq)
            fd21 = (f_eval(spec, p + cp, q + cq) - f_eval(spec, p - cp, q + cq)
                    - f_eval(spec, p + cp, q - cq)
                    + f_eval(spec, p - cp, q - cq)) / (4 * cp * cq)
            for got, ref in ((f1(spec, p, q), fd1),
                             (f2(spec, p, q), fd2),
                             (f21(spec, p, q), fd21)):
                err = abs(got - ref) / (1.0 + abs(got))
                worst = max(worst, err)
                assert err <= tol, (spec.label, p, q, got, ref)
    return worst


def true_fold(dgp, table, levels, grid):
    """Nuisances of every row of ``table`` from the design's closed forms, as a
    one-fold list."""
    return [tabulate_nuisances(table, np.arange(table.n), levels, grid,
                               dgp.pi_fn, dgp.eta_fn)]


def random_density(grid, rng, wiggle=0.6, floor=0.05):
    """A strictly positive random density on the grid."""
    vals = 1.0 + wiggle * np.sin(2 * np.pi * rng.integers(1, 4) * grid.points) \
        + 0.2 * rng.normal(size=grid.size)
    vals = np.maximum(vals, floor)
    return vals / grid.integrate(vals)
