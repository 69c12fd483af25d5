"""Shared test oracles: the raw discrepancy table, the exact float64 outcome
kernel, the dense form of a model's outcome-kernel operator, the full-width
row-max covariate weights, the axis-max logistic level probabilities, the
dense conditional-density rows, the generic-route projection root, the
one-point-at-a-time finite-difference Jacobians, the direct closed form of
the squared-L2 effect, the one-step distance by hand, finite-difference
checks, small builders, the row-by-row CSV loader and the quadrature harness
for second-order remainders."""

import csv

import numpy as np

from cfdens.data import _NA_STRINGS, EvalGrid, ObservationTable, _is_number, from_raw
from cfdens.distances import (DistanceSpec, abs_smooth, abs_smooth_d1, abs_smooth_d2,
                              divergence)
from cfdens.effects import EffectEstimate, _finalize, effect_curves
from cfdens.errors import DataError, EmptyDataError, ParseError, SchemaError
from cfdens.nuisance import _normalize_rows_to_density, tabulate_nuisances
from cfdens.oracle import X_NODES, SyntheticDGP, tensor_uniform_quad
from cfdens.projection import (ACCEPT, FD_STEP, _damped_newton, _moment_condition,
                               default_start, dr_scores, one_step_equation, onestep)

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
    """The exact reflected Gaussian outcome kernel, (m, G) float64: all three
    terms (y, -y, 2 - y) on every (y_i, t_j), in that order, with nothing
    clipped or skipped. The reference the operator B Phi of
    ``nuisance._outcome_operator`` approximates, and equals where its nodes
    are the outcomes themselves."""
    out = np.zeros((len(y_train), len(points)))
    z = np.empty_like(out)
    for yy in (y_train, -y_train, 2.0 - y_train):
        np.subtract.outer(yy, points, out=z)
        z /= h
        np.square(z, out=z)
        z *= -0.5
        out += np.exp(z, out=z)
    out /= h * np.sqrt(2.0 * np.pi)
    return out


def dense_kernel(phi, size):
    """The outcome kernel Phi of ``nuisance._outcome_kernel``, stored as
    (rows, cols, block) triples, as one dense (S, size) array: every entry
    outside the stored blocks is 0."""
    out = np.zeros((phi[-1][0].stop, size))
    for rows, cols, block in phi:
        out[rows, cols] = block
    return out


def dense_operator(model):
    """A fitted model's K = B Phi as one dense (m, G) matrix, K I, formed by
    the model's own ``k_dot``: the K that the banded products of
    ``FactoredEta`` must match to rounding."""
    return model.k_dot(np.eye(model._size))


def weight_blocks_reference(model, xa):
    """Nadaraya-Watson covariate weights of the augmented covariates xa, block
    by block and against every training row: yields (rows, cols, W) with
    cols all m columns, over the row blocks of ``CondDensityModel.weight_blocks``
    (min(256, max(32, 65536 // m)) rows). Each block's empty Epanechnikov
    windows are found by a pass over its row maxima, and such a row gets
    weight 1 on its nearest training row. The reference the banded blocks
    that ``FactoredEta`` feeds to ``contract`` must match."""
    m = model.m
    step = min(256, max(32, 65536 // m))
    for lo in range(0, len(xa), step):
        rows = slice(lo, min(lo + step, len(xa)))
        w = xa[rows] @ model._train_aug.T
        empty = np.flatnonzero(w.max(axis=1) <= 0.0)
        nearest = w[empty].argmax(axis=1)
        np.maximum(w, 0.0, out=w)
        w[empty, nearest] = 1.0
        yield rows, slice(0, m), w


def softmax_first_pinned_reference(z, coef):
    """Level probabilities (n, L) of the scores z @ coef.T with the first
    level's score pinned at 0, shifted by the row max taken along axis 1: the
    reference ``nuisance._softmax_first_pinned`` must match bit for bit."""
    full = np.column_stack([np.zeros(len(z)), z @ coef.T])
    full -= full.max(axis=1, keepdims=True)
    e = np.exp(full)
    return e / e.sum(axis=1, keepdims=True)


def weighted_kernel_rows(model, x, kmat, dtype=float):
    """W K on the rows of x in their given order, for a dense (m, G) K,
    block by block, multiplied and summed in ``dtype``: W from
    ``weight_blocks_reference`` for Nadaraya-Watson (full width, no band) and
    from the model's own unbanded ``weight_blocks`` for k-NN and marginal."""
    xa = model.covariates(x)
    blocks = (weight_blocks_reference(model, xa) if model.regressor == "nadaraya_watson"
              else model.weight_blocks(xa))
    kmat = kmat.astype(dtype)
    out = np.empty((len(xa), kmat.shape[1]), dtype=dtype)
    for rows, cols, w in blocks:
        out[rows] = w.astype(dtype) @ kmat[cols]
    return out


def predict_reference(model, x, grid):
    """eta_hat on the rows of x in their given order, materialised: the rows
    ``weighted_kernel_rows`` forms from the model's ``dense_operator``, each
    scaled to unit mass under the grid quadrature (a row with no mass raises
    ``DataError``). The reference ``FactoredEta`` and its dense view
    ``CondDensityModel.predict`` are checked against. Its sums run in
    ``np.longdouble`` (x87 extended precision on x86-64 Linux): a W K row
    sums some 700 positive terms, so a float64 reference would carry as
    much summation error as the float64 model it checks (1.8e-15 against
    1.4e-15 relative in ``test_predict_is_the_dense_view``)."""
    rows = weighted_kernel_rows(model, x, dense_operator(model), np.longdouble)
    return _normalize_rows_to_density(rows, grid)


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


def forward_jacobian_reference(func, beta, fval):
    """The generic Newton's forward-difference Jacobian, one column and one
    call of func per coefficient: the reference for the stacked
    ``projection._forward_jacobian``, which must match it bit for bit."""
    beta = np.asarray(beta, dtype=float)
    j = np.empty((len(fval), len(beta)))
    for k in range(len(beta)):
        h = FD_STEP * (1.0 + abs(beta[k]))
        bp = beta.copy()
        bp[k] += h
        j[:, k] = (func(bp) - fval) / h
    return j


def plugin_jacobian_reference(distance, model, beta, folds_nuis, level, grid):
    """Central differences of the pooled plug-in moment, two pooled passes per
    coefficient: the reference for the stacked generic branch of
    ``projection._plugin_jacobian``, which must match it bit for bit."""
    def pooled_m(b):
        at = _moment_condition(distance, model, b, grid)
        return onestep(folds_nuis, grid, lambda fold: (at(fold.p_hat[level])[0], []))[0]

    p = model.beta_dim
    jac = np.empty((p, p))
    for k in range(p):
        h = 1e-6 * (1.0 + abs(beta[k]))
        bp, bm = np.array(beta, float), np.array(beta, float)
        bp[k] += h
        bm[k] -= h
        jac[:, k] = (pooled_m(bp) - pooled_m(bm)) / (2.0 * h)
    return jac


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


def load_csv_reference(path, x_cols, a_col, y_col, missing_code=None) -> ObservationTable:
    """``data.load_csv`` row by row through ``csv.DictReader``: the reference its
    column-wise parse is checked against, tables and errors alike.

    ``missing_code`` (string or number) marks unobserved outcomes; when set,
    blank/NA outcome cells are also treated as unobserved. A cell matches the
    code as text, or, for a numeric code, when it parses to exactly the same
    float ("-999.0" matches "-999"; -999.005 stays observed). Covariates and
    treatment must parse everywhere, and no covariate column may be the
    treatment or outcome column, nor the outcome the treatment (``SchemaError``).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyDataError(f"{path}: no header row")
        header = list(reader.fieldnames)
        wanted = list(x_cols) + [a_col, y_col]
        overlap = [c for c in x_cols if c in (a_col, y_col)]
        if overlap:
            raise SchemaError(f"{path}: covariate columns {overlap} are the "
                              "treatment or outcome column")
        if y_col == a_col:
            raise SchemaError(f"{path}: outcome column {y_col!r} is the treatment column")
        missing_cols = [c for c in wanted if c not in header]
        if missing_cols:
            raise SchemaError(f"{path}: missing columns {missing_cols}")
        xs, as_, ys, obs = [], [], [], []
        code = None if missing_code is None else str(missing_code).strip().lower()
        for i, row in enumerate(reader):
            try:
                xs.append([float(row[c]) for c in x_cols])
            except (TypeError, ValueError):
                raise ParseError(f"{path}: non-numeric covariate at row {i}") from None
            try:
                as_.append(float(row[a_col]))
            except (TypeError, ValueError):
                raise ParseError(f"{path}: non-numeric treatment at row {i}") from None
            cell = (row[y_col] or "").strip()
            is_missing = False
            if code is not None:
                is_missing = cell.lower() in _NA_STRINGS or cell.lower() == code
            if is_missing:
                ys.append(0.0)
                obs.append(False)
                continue
            try:
                val = float(cell)
            except (TypeError, ValueError):
                raise ParseError(f"{path}: non-numeric outcome at row {i}") from None
            if code is not None and _is_number(code) and val == float(code):
                ys.append(0.0)
                obs.append(False)
            else:
                ys.append(val)
                obs.append(True)
    if not ys:
        raise EmptyDataError(f"{path}: no data rows")
    return from_raw(np.array(xs), np.array(as_), np.array(ys), np.array(obs))


# ---------------------------------------------------------------------------
# quadrature harness for second-order remainders. It tilts both nuisances of
# one arm along one fixed direction: pi + s*eps*u(x) and eta + s*eps*v(x, y),
# with u = 0.5 sin(3 x_1) cos(2 x_2) and v = 0.3 (0.5 + 0.5 x_1) cos(2 pi y).
# v is mean-zero in y, so the tilted eta still integrates to 1. The sign s is
# +1, and -1 for the second arm of a density effect. Every covariate mean is
# the designs' own rule, ``tensor_uniform_quad(X_NODES, d)``.


def _tilted(dgp: SyntheticDGP, level, sign, eps, x, grid: EvalGrid):
    """(pi, pi_bar, eta, eta_bar) of one arm at x: the true nuisances and
    their tilt by sign*eps along the fixed direction (u, v)."""
    pi = np.asarray(dgp.pi_fn(x, level), dtype=float)
    pi_bar = pi + sign * eps * (0.5 * np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1]))
    if np.any(pi_bar <= 0) or np.any(pi_bar >= 1):
        raise DataError("perturbed propensity left (0,1); shrink eps")
    eta = np.asarray(dgp.eta_fn(x, level, grid.points), dtype=float)
    v = 0.3 * (0.5 + 0.5 * x[:, 0])[:, None] * np.cos(2.0 * np.pi * grid.points)[None, :]
    eta_bar = eta + sign * eps * v
    if np.any(eta_bar < 0):
        raise DataError("perturbed conditional density went negative; shrink eps")
    return pi, pi_bar, eta, eta_bar


def vonmises_remainder(dgp: SyntheticDGP, level, h_tab, hp_tab, eps, grid: EvalGrid):
    """Second-order remainder of a density functional at a perturbed law.

    The functional is the integral over y of H(y, p(y)) with H supplied as
    tabulators: ``h_tab(p_curve) -> (G, m)`` and its p-derivative ``hp_tab``.
    Nuisances are tilted as pi + eps*u and eta + eps*v along the fixed
    direction above; with the covariate law fixed
    (``tensor_uniform_quad(X_NODES, d)``), the remainder is

        Psi(P_bar) - Psi(P) + E_X[ (pi/pi_bar) int Hp(y, p_bar)(eta - eta_bar) dy ]

    evaluated entirely by quadrature. Returns a vector of length m.
    """
    x, wx = tensor_uniform_quad(X_NODES, dgp.d)
    pi, pi_bar, eta, eta_bar = _tilted(dgp, level, 1.0, eps, x, grid)
    p = wx @ eta
    p_bar = wx @ eta_bar
    psi = grid.integrate(h_tab(p))
    psi_bar = grid.integrate(h_tab(p_bar))
    hp_bar = hp_tab(p_bar)                       # (G, m)
    inner = (eta - eta_bar) @ (grid.weights[:, None] * hp_bar)   # (nx, m)
    first_order_mean = (wx * (pi / pi_bar)) @ inner
    return np.atleast_1d(psi_bar - psi + first_order_mean)


def effect_population_bias(dgp: SyntheticDGP, distance: DistanceSpec, eps,
                           grid: EvalGrid):
    """Population bias of the one-step density effect under tilted nuisances.

    Evaluates plug-in distance at the tilted marginals plus the population
    mean of the estimated influence terms, minus the true effect; all terms
    by quadrature, so the value isolates the second-order remainder. The
    effect is between levels (1, 0); level 1 is tilted by +eps, level 0 by
    -eps, along the direction and over the covariate quadrature of
    ``vonmises_remainder``.
    """
    x, wx = tensor_uniform_quad(X_NODES, dgp.d)
    arms = [_tilted(dgp, lev, sign, eps, x, grid) for lev, sign in ((1, 1.0), (0, -1.0))]
    p1, p0 = (wx @ eta for _, _, eta, _ in arms)
    p1_bar, p0_bar = (wx @ eta_bar for _, _, _, eta_bar in arms)
    truth = divergence(distance, p1, p0, grid)
    plug = divergence(distance, p1_bar, p0_bar, grid)
    mean_terms = 0.0
    for lam, (pi, pi_bar, eta, eta_bar) in zip(effect_curves(distance, p1_bar, p0_bar), arms):
        inner = (eta - eta_bar) @ (grid.weights * lam)
        mean_terms += float((wx * (pi / pi_bar)) @ inner)
    return plug + mean_terms - truth


def loglog_slope(eps_values, magnitudes):
    """Least-squares slope of log |magnitude| against log eps."""
    eps_values = np.asarray(eps_values, dtype=float)
    mags = np.abs(np.asarray(magnitudes, dtype=float))
    if np.any(mags <= 0):
        raise DataError("remainder vanished; slope undefined")
    return float(np.polyfit(np.log(eps_values), np.log(mags), 1)[0])
