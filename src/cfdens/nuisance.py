"""Nuisance estimation: propensities and conditional outcome densities, cross-fit.

The estimators downstream consume nuisances only through ``FoldNuisance``,
so the learners here are swappable. Per fold and level it holds the clipped
propensities, the conditional density on the eval rows as an operator whose
``contract(w * h)`` gives the quadrature of h against every row, the plug-in
marginal p_hat and the doubly-robust grid measure d_hat, with d_hat @ h the
mean of the raw doubly-robust summands of h (``fold_nuisance``). A fitted
density keeps its outcome-kernel matrix K in float32 (m, G), the eval rows'
covariates and their 1/mass (``FactoredEta``); no (n_ev, G) array is built
unless ``CondDensityModel.predict`` is called. Every product with K runs in
float64 on full-width row blocks of about 512 KB (``_k_blocks``), so no
float64 copy of K is ever made. K is built ``_CHUNK`` rows at
a time straight into float32, skipping every entry whose value is already
known: the main term beyond a band of about 15 bandwidths (float32 0) and
each reflection beyond a staircase near its end of [0,1] (too small to move
a bit); it equals the full three-term float64 sum rounded to float32, bit for
bit. The covariate weights are clipped Epanechnikov windows, built in blocks of
about 512 KB of float64 (one core's L2). Nadaraya-Watson training rows are
sorted by their first covariate at fit and ``FactoredEta`` sorts its eval rows
the same way, so each block multiplies only the training rows whose first
coordinate lies within the window's reach of the block's; every entry skipped
is 0 after the clip. Only the rows of zero mass are searched for empty
windows, one GEMM against every training row for those rows alone, and such a
row falls back to its nearest training row. An eval row left with no kernel
mass raises ``DataError`` in ``FactoredEta``, and so in ``predict``, its dense
view;
``tabulate_nuisances`` raises one for an injected row without finite, positive
mass. Shipped learners are multinomial logistic
regression and k-NN for the propensity, and Nadaraya-Watson / k-NN /
marginal-only kernel regressions of a Gaussian-kernel-transformed outcome
for the conditional density. Analytic or deliberately misspecified
nuisances enter through ``tabulate_nuisances``, the dense special case.

``fold_stream`` yields the folds one at a time, as they are fit, for a
consumer that needs each fold only for its own terms (a density effect);
``cross_fit`` is its list, for the estimates that need every fold at once.
The stream builds each level's K in one ``KStorage``, which a fold reuses
once no array of the previous fold's K is alive, so a consumer that drops
each fold fits every fold in the same pages.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .data import EvalGrid, FoldPlan, ObservationTable
from .errors import DataError, InsufficientDataError

_CHUNK = 256           # rows per outcome-kernel block (``_kernel_outcome_matrix``)
_BLOCK = 65536         # float64 values per block, 512 KB: one core's L2
# Reach of a reflected outcome-kernel term, in bandwidths from its end of [0,1].
# A term skipped beyond it is below exp(-18^2 / 2) = e^-162 ~ 6e-71 (before the
# division by h sqrt(2 pi)). The smallest float64 sum that survives the cast of
# K to float32 is 2^-150 h sqrt(2 pi), and half an ulp of any sum at least that
# large is at least 2^-204 h sqrt(2 pi) ~ 1e-67 for h >= 1e-6: adding a skipped
# term leaves such a sum unchanged, and a smaller sum casts to 0 either way. So
# K is bit-identical to the one with both reflections evaluated everywhere.
#
# Inside that reach the reflections form a staircase. For y, t in [0, 1] the
# -y term over the main term is exp(-((y+t)^2 - (y-t)^2) / 2h^2) = exp(-2yt/h^2).
# Where yt >= _STAIR h^2 (= 20 h^2) that ratio is below e^-40 < 2^-54, under
# half an ulp of the float64 main term (e^-37.4 leaves room for the rounding of
# both exponents), so adding the term leaves the sum as it is; the 2 - y term
# is the same with (1-y)(1-t). The builder stops each step of _STEP sorted rows
# at the column where t reaches min(R, _STAIR h^2 / y_min) (``_staircase``).
#
# The main term is banded. Both reflections are at most the main term on
# [0, 1]^2, so where the main term is below e^-2 2^-150 min(1, h sqrt(2 pi))
# the three-term sum divided by h sqrt(2 pi) is below 0.41 * 2^-150 and casts
# to float32 0, as the zeros K starts from. That holds at |y - t| >= B with
#   B = h sqrt(2 (150 ln 2 + ln+(1 / (h sqrt(2 pi))) + 2))   (~14.6 h),
# so each row block is evaluated only on the columns within B of its y range.
# At small h that skips most of the entries with |y - t| > 37.6 h, whose exp is
# subnormal and on numpy's slow path.
_REACH = 18.0
_STAIR = 20.0           # the staircase's yt / h^2 bound
_STEP = 32              # sorted rows per staircase step
LOGIT_TOL = 1e-8        # gradient norm at which the logistic Newton fit stops
LOGIT_MAX_ITER = 100


@dataclass(frozen=True)
class NuisanceConfig:
    propensity: str = "logistic"        # logistic | knn
    density: str = "nadaraya_watson"    # nadaraya_watson | knn | marginal
    bandwidth: object = "silverman"     # "silverman" or a fixed float
    clip_eps: float = 0.01


def _block_rows(m):
    """Rows per block of float64 values against m training rows: about 512 KB,
    so a block stays in a core's L2 (covariate weights, k-NN distances)."""
    return min(256, max(32, _BLOCK // m))


def _k_blocks(kmat):
    """Yield (rows, K[rows]) over full-width row blocks of K of ``_BLOCK``
    float64 values (about 512 KB). numpy casts the float32 operand of a
    mixed-dtype product to a float64 temporary, so every product with K is
    taken one block at a time: the cast then stays a block's size and in L2,
    where a whole one would be twice K's size."""
    step = max(1, _BLOCK // kmat.shape[1])
    for lo in range(0, len(kmat), step):
        rows = slice(lo, lo + step)
        yield rows, kmat[rows]


# ---------------------------------------------------------------------------
# propensity

def floor_probs(probs, eps):
    """Project probability rows onto the simplex with floor eps.

    Values end in [eps, 1 - (L-1) eps] and each row sums to one: entries below
    the floor are raised to it and the remaining mass above the floor is
    rescaled proportionally.
    """
    probs = np.asarray(probs, dtype=float)
    n, L = probs.shape
    if not (0 < eps < 1.0 / L):
        raise DataError(f"clip_eps={eps} infeasible for {L} levels")
    excess = np.maximum(probs - eps, 0.0)
    total = excess.sum(axis=1, keepdims=True)
    total = np.where(total <= 0, 1.0, total)
    return eps + (1.0 - L * eps) * excess / total


class PropensityModel:
    """Joint propensity over all modeled levels, one column per level in ``levels``."""

    def __init__(self, levels, predict_raw, clip_eps, warn=False):
        self.levels = tuple(int(v) for v in levels)
        self._predict_raw = predict_raw
        self.clip_eps = float(clip_eps)
        self.warn = bool(warn)

    def predict(self, x):
        """Clipped probabilities, shape (n, L), rows summing to one."""
        raw = self._predict_raw(np.asarray(x, dtype=float))
        return floor_probs(raw, self.clip_eps)


def _softmax_first_pinned(z, coef):
    """Level probabilities (n, L) of the scores z @ coef.T, with the first
    level's score pinned at 0."""
    full = np.column_stack([np.zeros(len(z)), z @ coef.T])
    full -= full.max(axis=1, keepdims=True)
    e = np.exp(full)
    return e / e.sum(axis=1, keepdims=True)


def _fit_multinomial_logistic(x, a, levels):
    """Newton-IRLS multinomial fit; returns (predict_raw, converged)."""
    n, d = x.shape
    z = np.column_stack([np.ones(n), x])
    L = len(levels)
    onehot = np.stack([(a == lev).astype(float) for lev in levels[1:]], axis=1)  # (n, L-1)
    nb = (L - 1) * (d + 1)
    coef = np.zeros((L - 1, d + 1))
    lab = np.searchsorted(np.asarray(levels), a)        # each row's column

    def loglik(c):
        p = _softmax_first_pinned(z, c)
        return float(np.log(np.clip(p[np.arange(n), lab], 1e-300, None)).sum())

    converged = False
    ll = loglik(coef)
    for _ in range(LOGIT_MAX_ITER):
        p = _softmax_first_pinned(z, coef)[:, 1:]       # (n, L-1)
        grad = (z.T @ (onehot - p)).T.ravel()           # (L-1)(d+1)
        if np.linalg.norm(grad) < LOGIT_TOL:
            converged = True
            break
        hess = np.zeros((nb, nb))
        for l in range(L - 1):
            for m in range(L - 1):
                w = p[:, l] * ((l == m) - p[:, m])
                block = z.T @ (z * w[:, None])
                hess[l * (d + 1):(l + 1) * (d + 1), m * (d + 1):(m + 1) * (d + 1)] = block
        hess[np.diag_indices_from(hess)] += 1e-10
        try:
            step = np.linalg.solve(hess, grad).reshape(L - 1, d + 1)
        except np.linalg.LinAlgError:
            break
        # step-halving keeps the likelihood monotone under near-separation
        scale = 1.0
        for _ in range(30):
            cand = coef + scale * step
            ll_new = loglik(cand)
            if ll_new >= ll - 1e-12:
                coef, ll = cand, ll_new
                break
            scale *= 0.5
        else:
            break
        if np.abs(coef).max() > 40.0:
            break  # runaway coefficients: separation

    def predict_raw(x_new):
        return _softmax_first_pinned(np.column_stack([np.ones(len(x_new)), x_new]), coef)

    return predict_raw, converged


def _fit_knn_propensity(x, a, levels):
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xt = (x - mean) / sd
    m = len(a)
    k = min(m, max(10, int(np.ceil(m ** (2.0 / 3.0)))))
    step = _block_rows(m)
    onehot = np.stack([(a == lev).astype(float) for lev in levels], axis=1)

    def predict_raw(x_new):
        xn = (np.asarray(x_new, dtype=float) - mean) / sd
        out = np.empty((len(xn), len(levels)))
        for lo in range(0, len(xn), step):
            blk = xn[lo:lo + step]
            d2 = ((blk**2).sum(axis=1)[:, None] + (xt**2).sum(axis=1)[None, :]
                  - 2.0 * blk @ xt.T)
            nbr = np.argpartition(d2, k - 1, axis=1)[:, :k]
            out[lo:lo + len(blk)] = onehot[nbr].mean(axis=1)
        return out

    return predict_raw


def fit_propensity_all(train: ObservationTable, method="logistic",
                       clip_eps=0.01) -> PropensityModel:
    """Fit one joint propensity model over every level present in training rows."""
    levels = train.levels()
    if len(levels) < 2:
        raise DataError(f"propensity fit needs rows at two levels or more; have {list(levels)}")
    if method == "logistic":
        predict_raw, converged = _fit_multinomial_logistic(train.x, train.a, levels)
        return PropensityModel(levels, predict_raw, clip_eps, warn=not converged)
    if method == "knn":
        return PropensityModel(levels, _fit_knn_propensity(train.x, train.a, levels), clip_eps)
    raise DataError(f"unknown propensity method {method!r}")


# ---------------------------------------------------------------------------
# conditional outcome density

def silverman_bandwidth(y):
    """0.9 min(sd, IQR/1.34) m^(-1/5), with a small floor for degenerate samples."""
    y = np.asarray(y, dtype=float)
    m = len(y)
    sd = y.std(ddof=1) if m > 1 else 0.0
    q75, q25 = np.percentile(y, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0:
        spread = max(sd, 1e-3)
    return max(0.9 * spread * m ** (-0.2), 1e-3)


def _gauss(yy, points, h, buf):
    """exp(-z^2 / 2) for z = (yy_i - t_j) / h clipped at +-38, (len(yy), len(points)),
    written into the front of the flat float64 buffer ``buf``. Both yy and
    points are monotone, so the largest |yy_i - t_j| is at a corner; where it
    is at most 37 h the clip cannot change a bit and is skipped."""
    z = buf[:len(yy) * len(points)].reshape(len(yy), len(points))
    np.subtract.outer(yy, points, out=z)
    z /= h
    if z.size and max(abs(yy[0] - points[0]), abs(yy[0] - points[-1]),
                      abs(yy[-1] - points[0]), abs(yy[-1] - points[-1])) > 37.0 * h:
        np.clip(z, -38.0, 38.0, out=z)
    np.square(z, out=z)
    z *= -0.5
    return np.exp(z, out=z)


def _staircase(d, dt, reach, stair):
    """Yield (start, stop, cols) over the rows at sorted distances d < R from
    one end of [0, 1], in steps of ``_STEP`` rows: the reflection at that end
    is needed only on the grid points at sorted distances dt[:cols] < min(R,
    ``_STAIR`` h^2 / d_start) from it. A step whose stop is within ``_STEP``
    columns of the stop of the group before it joins that group, as a numpy
    call costs about as much as the few extra entries."""
    starts = np.arange(0, len(d), _STEP)
    near = d[starts]
    cut = np.full(len(starts), reach)
    far = near * reach > stair
    cut[far] = stair / near[far]
    cols = np.searchsorted(dt, cut)
    i = 0
    while i < len(starts):
        j = i + 1
        while j < len(starts) and cols[i] - cols[j] <= _STEP:
            j += 1
        yield starts[i], starts[j] if j < len(starts) else len(d), cols[i]
        i = j


class KStorage:
    """One level's K storage in a ``fold_stream``, reused by the next fold's
    fit once no array built in it is alive.

    ``take`` returns K as a view of the buffer through a memoryview. numpy
    makes the base of any view the first array down its chain that owns its
    data or whose base is not an array, so every view and sub-view of K keeps
    that one array alive, and a weak reference to it dies with the last of
    them. While it lives, ``take`` builds in a new buffer, so folds held at
    once (``cross_fit``'s list) never share storage.
    """

    def __init__(self, size):
        self._buffer = np.empty(size, dtype=np.float32)
        self._base = lambda: None       # weak reference to the base of the last K taken

    def take(self, m, G):
        """A float32 (m, G) array for K: in the buffer when it is free and
        large enough, else in a new buffer, which the storage then keeps."""
        if self._base() is not None or m * G > self._buffer.size:
            self._buffer = np.empty(max(m * G, self._buffer.size), dtype=np.float32)
        base = np.frombuffer(memoryview(self._buffer), dtype=np.float32, count=m * G)
        self._base = weakref.ref(base)
        return base.reshape(m, G)


def _kernel_outcome_matrix(y_train, points, h, out=None):
    """Gaussian kernel in the outcome, reflected at both ends of [0,1]: K, (m, G) float32.

    K[i, j] = phi_h(y_i - t_j) + phi_h(-y_i - t_j) + phi_h(2 - y_i - t_j), with
    phi_h the N(0, h^2) density, summed in that order in float64 and rounded
    once to float32. Reflection removes the first-order boundary deficit of
    the plain kernel; without it the fitted marginals lose mass near the
    endpoints and the quadratic term in the effect estimators picks up a
    visible bias.

    Rows are built ``_CHUNK`` at a time in the order of sorted y, so each
    float64 block stays in cache and is cast into its rows of K, which
    starts as zeros. Since y and t lie in [0, 1], three kinds of entry are
    known before they are computed (derivations at ``_REACH``):
    - the main term is evaluated only on the band of columns within B
      (~14.6 h) of the block's y range; beyond it every entry is float32 0;
    - the -y reflection only where y < R and t < min(R, 20 h^2 / y_min),
      with R = ``_REACH`` h and y_min the smallest y of each ``_STEP``-row
      step: a staircase, beyond which adding the term changes no bit;
    - the 2 - y reflection the same way with 1 - y and 1 - t.
    Every entry that is computed keeps the float64 operations and their
    order above, so K is bit-identical to the full three-term sum.

    K is written into ``out`` (a ``KStorage.take`` array) when given, else
    into a new array; either way it is zeroed first.
    """
    m, G = len(y_train), len(points)
    out = np.empty((m, G), dtype=np.float32) if out is None else out
    out.fill(0.0)
    norm = h * np.sqrt(2.0 * np.pi)
    reach = _REACH * h
    stair = _STAIR * h * h
    band = h * np.sqrt(2.0 * (150.0 * np.log(2.0) + max(0.0, -np.log(norm)) + 2.0))
    order = np.argsort(y_train)
    block = np.empty(min(m, _CHUNK) * G)
    scratch = np.empty_like(block)
    for lo in range(0, m, _CHUNK):
        rows = order[lo:lo + _CHUNK]
        y = y_train[rows]                                       # sorted
        c0 = np.searchsorted(points, y[0] - band)               # t[:c0] < y_0 - B
        c1 = np.searchsorted(points, y[-1] + band, side="right")  # t[c1:] > y_max + B
        t = points[c0:c1]
        k = _gauss(y, t, h, block)
        near0 = np.searchsorted(y, reach)                       # y[:near0] < R
        for s, e, c in _staircase(y[:near0], t, reach, stair):
            k[s:e, :c] += _gauss(-y[s:e], t[:c], h, scratch)
        top = np.searchsorted(y, 1.0 - reach, side="right")     # y[top:] > 1 - R
        for s, e, c in _staircase(1.0 - y[top:][::-1], 1.0 - t[::-1], reach, stair):
            r = slice(len(y) - e, len(y) - s)
            k[r, len(t) - c:] += _gauss(2.0 - y[r], t[len(t) - c:], h, scratch)
        k /= norm
        out[rows, c0:c1] = k
    return out


class CondDensityModel:
    """Conditional density eta_hat(. | x) on an EvalGrid, held in factored form.

    Regression of the Gaussian-kernel-transformed outcome on covariates among
    rows at one treatment level: eta_hat(. | x) = W(x) K / mass(x), with K
    (m, G) the training rows' outcome kernels on the grid, W(x) (m,) the
    covariate weights of x against the training rows and mass(x) = W(x) K w
    the unit-mass normaliser under the grid quadrature w (so the scale of W
    never matters). Nadaraya-Watson weights are Epanechnikov on standardized
    coordinates (compact support keeps them cheap) and a row with no
    in-window neighbor falls back to its nearest one (``nearest_rows``, the
    one fallback rule); k-NN weights mark the k nearest rows; marginal weights
    are uniform, so there K collapses to the (1, G) sum of its rows.

    Nadaraya-Watson training rows must come sorted by their first covariate
    (``fit_cond_density`` sorts them; unsorted rows raise ``DataError``): the
    weight blocks are banded on that coordinate.

    K is kept in float32 (``kmat``; the marginal's summed row in float64).
    Every product with it runs in float64, one full-width row block of about
    512 KB at a time (``_k_blocks``): numpy casts a block, never all of K.
    ``predict`` materialises (n, G) rows on request, as the dense view of
    ``FactoredEta``; the estimators only ever contract the factored form.
    """

    def __init__(self, level, x_train, k_matrix, regressor, h_y):
        self.level = int(level)
        self.h_y = float(h_y)
        self.regressor = regressor
        self._x_mean = x_train.mean(axis=0)
        sd = x_train.std(axis=0)
        self._x_sd = np.where(sd < 1e-12, np.inf, sd)  # inf: dim carries no distance
        m, d = x_train.shape
        x_bw = 1.0  # k-NN only ranks distances
        if regressor == "nadaraya_watson":
            # Scott-style rate; the constant is sized for regression, where
            # local sample size matters more than in density estimation
            x_bw = 3.5 * m ** (-1.0 / (d + 4))
        elif regressor == "knn":
            self._k = min(m, max(20, int(np.ceil(m ** 0.7))))
        self._inv_bw2 = 1.0 / x_bw**2
        xt = (x_train - self._x_mean) / self._x_sd
        # training half of [2x/b^2, 1 - |x|^2/b^2, 1] . [x_j, 1, -|x_j|^2/b^2]
        # = 1 - |x - x_j|^2 / b^2
        self._train_aug = np.column_stack(
            [xt, np.ones(m), -self._inv_bw2 * (xt**2).sum(axis=1)])
        # the band coordinate in the scale of covariates(x)[:, 0], and the
        # window's reach in it: b plus a margin for the GEMM's cancellation
        self._key = 2.0 * self._inv_bw2 * xt[:, 0]
        self._reach = 2.0 * self._inv_bw2 * (x_bw * (1.0 + 1e-6) + 1e-9)
        if regressor == "nadaraya_watson" and np.any(self._key[1:] < self._key[:-1]):
            raise DataError("Nadaraya-Watson training rows must be sorted by their "
                            "first covariate")
        self.kmat = k_matrix.astype(np.float32, copy=False)
        if regressor == "marginal":
            # uniform covariate weights: K collapses to the sum of its rows
            self.kmat = self.kmat.sum(axis=0, keepdims=True, dtype=float)

    def covariates(self, x):
        """Standardized covariates of the rows of x, augmented to [2x/b^2, 1 - |x|^2/b^2, 1]."""
        xn = (np.asarray(x, dtype=float) - self._x_mean) / self._x_sd
        return np.column_stack([2.0 * self._inv_bw2 * xn,
                                1.0 - self._inv_bw2 * (xn**2).sum(axis=1),
                                np.ones(len(xn))])

    def weight_blocks(self, xa):
        """Yield (rows, cols, W): unnormalised covariate weights of a block of
        rows of ``covariates(x)`` against the training rows ``cols``, each
        block from one GEMM.

        A block holds ``_block_rows(m)`` = min(256, max(32, 65536 // m)) rows,
        about 512 KB of float64, so it stays in a core's L2. Nadaraya-Watson
        blocks expect xa sorted by its first column (``FactoredEta`` sorts
        it): a block then spans only the training rows whose band key lies
        within the window's reach of the block's key range, as every other
        entry clips to 0. k-NN and marginal blocks span every training row.
        Nadaraya-Watson weights are only clipped at 0 here, in place, so a row
        with an empty window is all zero: it has zero mass, and the caller
        gives it its nearest-neighbour fallback from ``nearest_rows``.

        Every block is written into one buffer, allocated once per pass, so a
        block is valid only until the next one is yielded. A new array per
        block (up to ``_block_rows(m)`` x m float64) is one the allocator may
        return to the system on free and fault in afresh for the next block.
        """
        m = len(self.kmat)
        step = _block_rows(m)
        buf = np.empty(min(step, len(xa)) * m)
        for lo in range(0, len(xa), step):
            rows = slice(lo, min(lo + step, len(xa)))
            cols = slice(0, m)
            if self.regressor == "nadaraya_watson":
                cols = slice(np.searchsorted(self._key, xa[lo, 0] - self._reach),
                             np.searchsorted(self._key, xa[rows.stop - 1, 0] + self._reach,
                                             side="right"))
            shape = (rows.stop - lo, cols.stop - cols.start)
            w = buf[:shape[0] * shape[1]].reshape(shape)
            if self.regressor == "marginal":
                w.fill(1.0)
                yield rows, cols, w
                continue
            np.matmul(xa[rows], self._train_aug[cols].T, out=w)   # 1 - |x - x_j|^2 / b^2
            if self.regressor == "knn":
                nbr = np.argpartition(w, m - self._k, axis=1)[:, m - self._k:]
                w.fill(0.0)
                np.put_along_axis(w, nbr, 1.0, axis=1)
            else:
                np.maximum(w, 0.0, out=w)
            yield rows, cols, w

    def nearest_rows(self, xa):
        """(empty, nearest): the rows of ``covariates(x)`` xa whose
        Epanechnikov window holds no training row, and the nearest training
        row of each, their fallback.

        Called only with the rows of zero mass, so its GEMM against every
        training row (a nearest row may lie outside the band) runs for those
        rows alone; the nearest row is the argmax of the values the window
        clips. k-NN and marginal windows are never empty.
        """
        if self.regressor != "nadaraya_watson":
            return np.arange(0), np.arange(0)
        w = xa @ self._train_aug.T
        empty = np.flatnonzero(w.max(axis=1) <= 0.0)
        return empty, w[empty].argmax(axis=1)

    def predict(self, x, grid: EvalGrid):
        """Materialise eta_hat on the rows of x: (n, G), each row unit mass.

        The dense view of ``FactoredEta``, its rows contracted with the
        identity; a row with no kernel mass raises its ``DataError``."""
        return FactoredEta(self, x, grid, np.empty((len(x), 0))).contract(np.eye(grid.size))


class FactoredEta:
    """eta_hat on a fold's eval rows as diag(1/mass) W K, never materialised.

    Keeps the fitted model (K in float32 and the training covariates), the
    eval rows' augmented covariates and their 1/mass. For Nadaraya-Watson the
    eval rows are held sorted by their first covariate, so the
    ``CondDensityModel.weight_blocks`` are banded; ``inv_mass`` and the rows
    of ``contract`` come back in the caller's row order. ``contract``
    rebuilds W one block at a time. ``row_sums`` is v.T @ eta_hat for the row
    weights v (n_ev, k) given at construction, accumulated in the same pass
    that finds 1/mass.

    That pass also collects the rows of zero mass. Of these,
    ``CondDensityModel.nearest_rows`` names the rows with an empty window and
    the nearest training row of each: such a row is one-hot on it, so its
    mass is that training kernel's mass and its term of ``row_sums`` one
    scaled row of K. The (caller row, nearest training row) pairs are
    stored, and ``contract`` writes each such row from its nearest row's
    product after the banded blocks. An eval row still without mass (every
    training kernel it weights is 0 on the grid, as at a tiny h_y) raises
    ``DataError``.
    """

    def __init__(self, model: CondDensityModel, x, grid: EvalGrid, row_weights):
        self.model = model
        xa = model.covariates(x)
        self._order = (np.argsort(xa[:, 0], kind="stable")
                       if model.regressor == "nadaraya_watson" else np.arange(len(xa)))
        self._xa = xa[self._order]
        row_weights = row_weights[self._order]
        # (m,) mass of each training kernel
        kw = np.concatenate([k @ grid.weights for _, k in _k_blocks(model.kmat)])
        self.inv_mass = np.empty(len(xa))               # in the caller's row order
        acc = np.zeros((row_weights.shape[1], len(kw)))
        zero = np.zeros(len(xa), dtype=bool)            # zero mass, in the sorted order
        for rows, cols, w in model.weight_blocks(self._xa):
            mass = w @ kw[cols]
            zero[rows] = ~(mass > 0.0)
            mass[zero[rows]] = np.inf                   # 1/mass 0: no term until the fallback
            self.inv_mass[self._order[rows]] = inv = 1.0 / mass
            acc[:, cols] += (row_weights[rows] * inv[:, None]).T @ w
        zero = np.flatnonzero(zero)
        empty, nearest = model.nearest_rows(self._xa[zero])
        if len(empty) < len(zero) or not np.all(kw[nearest] > 0.0):
            raise DataError(
                f"level {model.level}: an evaluation row has no kernel mass on the "
                f"{grid.size}-point grid at outcome bandwidth h_y={model.h_y:g}; "
                f"use a larger bandwidth or a finer grid")
        idx = self._order[zero]
        self.inv_mass[idx] = inv = 1.0 / kw[nearest]
        np.add.at(acc.T, nearest, row_weights[zero] * inv[:, None])
        self._fallback = idx, nearest                   # (caller row, nearest training row)
        self.row_sums = sum(acc[:, rows] @ k for rows, k in _k_blocks(model.kmat))

    def contract(self, wh):
        """eta_hat @ wh for wh of shape (G,) or (G, k); with wh = w * h, the
        quadrature of h against each row, in the caller's row order."""
        wh = np.asarray(wh, dtype=float)
        kwh = np.concatenate([k @ wh for _, k in _k_blocks(self.model.kmat)])
        out = np.empty((len(self._xa),) + kwh.shape[1:])
        for rows, cols, w in self.model.weight_blocks(self._xa):
            idx = self._order[rows]
            out[idx] = ((w @ kwh[cols]).T * self.inv_mass[idx]).T
        idx, nearest = self._fallback
        out[idx] = (kwh[nearest].T * self.inv_mass[idx]).T
        return out


class DenseEta:
    """eta_hat tabulated on a fold's eval rows, (n_ev, G): closed-form nuisances.

    The dense special case of ``FactoredEta``, with the same ``contract`` and
    ``row_sums``.
    """

    def __init__(self, eta, row_weights):
        self.eta = eta
        self.row_sums = row_weights.T @ eta

    def contract(self, wh):
        return self.eta @ wh


def fit_cond_density(train: ObservationTable, level, grid: EvalGrid,
                     bandwidth="silverman", regressor="nadaraya_watson",
                     k_storage=None) -> CondDensityModel:
    """Fit eta_hat_level by kernel-outcome regression on the level's rows.

    K is built in ``k_storage`` (a ``KStorage``; ``fold_stream`` keeps one
    per level) when given, else in a new array."""
    mask = train.a == level
    m = int(mask.sum())
    if m < 20:
        raise InsufficientDataError(
            f"conditional density at level {level}: {m} training rows, need >= 20"
        )
    if regressor not in ("nadaraya_watson", "knn", "marginal"):
        raise DataError(f"unknown conditional-density regressor {regressor!r}")
    x, y = train.x[mask], train.y[mask]
    h = silverman_bandwidth(y) if bandwidth == "silverman" else float(bandwidth)
    if not (0.0 < h < np.inf):  # nan fails too
        raise DataError(f"bandwidth must be positive and finite, got {h}")
    if regressor == "nadaraya_watson":
        # sorted by the band coordinate; K is built for the rows in this order
        order = np.argsort(x[:, 0], kind="stable")
        x, y = x[order], y[order]
    out = None if k_storage is None else k_storage.take(m, grid.size)
    kmat = _kernel_outcome_matrix(y, grid.points, h, out)
    return CondDensityModel(level, x, kmat, regressor, h)


# ---------------------------------------------------------------------------
# per-fold nuisances consumed by every estimator

@dataclass
class FoldNuisance:
    """Nuisances evaluated on one fold's held-out rows.

    pi[level]:    (n_ev,) clipped propensities
    eta[level]:   conditional densities on the eval rows, each row unit mass:
                  ``FactoredEta`` (fitted: K in float32 (m, G), the eval rows'
                  covariates and 1/mass) or ``DenseEta`` (closed form);
                  ``eta[level].contract(w * h)`` is the quadrature of h
                  against every row. No (n_ev, G) array is built for fitted
                  nuisances.
    p_hat[level]: (G,) plug-in marginal, the mean of the eta rows
    d_hat[level]: (G,) doubly-robust grid measure: for any h on the grid,
                  d_hat @ h is the mean of the raw doubly-robust summands of h
                  (see ``fold_nuisance``)
    """

    eval_idx: np.ndarray
    pi: dict
    eta: dict
    p_hat: dict
    d_hat: dict
    warn_separation: bool = False

    @property
    def n_eval(self):
        return len(self.eval_idx)


def require_levels(fold, levels):
    """Raise ``DataError`` unless the fold's nuisances are tabulated at every level."""
    for lev in levels:
        if lev not in fold.pi:
            raise DataError(f"level {lev} missing from nuisance tabulations")


def fold_nuisance(table: ObservationTable, eval_idx, grid: EvalGrid, pi, tabulate,
                  warn_separation=False) -> FoldNuisance:
    """Assemble a FoldNuisance from per-level propensities and densities.

    ``tabulate(level, v)`` returns the level's eta with ``row_sums = v.T @ eta``
    for the row weights v = [1/n_ev, 1(A_i = level)/(n_ev pi_i)]. They give
    p_hat and q_hat = n_ev^-1 sum_{A_i = level} eta_i / pi_i, and

        d_hat = w (p_hat - q_hat) + r,

    with r the linear-interpolation weights of the level's observed Y_i on
    the grid nodes scaled by 1/(n_ev pi_i). For any h tabulated on the grid,
    d_hat @ h then equals the mean over the eval rows of the raw summand

        1(A_i = level)/pi_i (h(Y_i) - hbar_i) + hbar_i,   hbar_i = eta_i @ (w h).

    Every propensity must lie in (0, 1]: fitted ones always do, and an
    injected one (``pi_fn``) that is not finite or outside raises
    ``DataError`` naming the level and the first such table row.
    """
    eval_idx = np.asarray(eval_idx)
    n_ev = len(eval_idx)
    a, y = table.a[eval_idx], table.y[eval_idx]
    eta, p_hat, d_hat = {}, {}, {}
    for lev, pi_lev in pi.items():
        bad = np.flatnonzero(~((pi_lev > 0.0) & (pi_lev <= 1.0)))  # nan fails too
        if bad.size:
            raise DataError(f"propensity of level {lev} at row {eval_idx[bad[0]]} is "
                            f"{float(pi_lev[bad[0]])!r}, not in (0, 1]")
        hit = a == lev
        ipw = np.zeros(n_ev)
        ipw[hit] = 1.0 / (n_ev * pi_lev[hit])
        eta[lev] = tabulate(lev, np.column_stack([np.full(n_ev, 1.0 / n_ev), ipw]))
        p_hat[lev], q_hat = eta[lev].row_sums
        d_hat[lev] = (grid.weights * (p_hat[lev] - q_hat)
                      + grid.interp_weights(y[hit], ipw[hit]))
    return FoldNuisance(eval_idx=eval_idx, pi=pi, eta=eta, p_hat=p_hat, d_hat=d_hat,
                        warn_separation=warn_separation)


def single_split(table: ObservationTable, train_idx, eval_idx, levels,
                 grid: EvalGrid, config: NuisanceConfig = NuisanceConfig(),
                 pi_fn=None, k_storage=None) -> FoldNuisance:
    """Fit nuisances on the training rows and tabulate them on the eval rows.

    ``pi_fn(x, level) -> (n,)``, when given, replaces the fitted propensity
    with a closed-form one (the oracle's true-propensity mode).
    ``k_storage`` maps each level to the ``KStorage`` its K is built in
    (``fold_stream``'s); without it every K is a new array.
    """
    levels = tuple(levels)
    eval_idx = np.asarray(eval_idx)
    train = table.rows(train_idx)
    x = table.x[eval_idx]
    warn = False
    if pi_fn is None:
        prop = fit_propensity_all(train, method=config.propensity, clip_eps=config.clip_eps)
        absent = [lev for lev in levels if lev not in prop.levels]
        if absent:
            raise DataError(f"level {absent[0]} absent from the training rows; "
                            f"levels present: {list(prop.levels)}")
        probs = prop.predict(x)
        pi = {lev: probs[:, prop.levels.index(lev)] for lev in levels}
        warn = prop.warn
    else:
        pi = {lev: np.asarray(pi_fn(x, lev), dtype=float) for lev in levels}

    def tabulate(lev, row_weights):
        model = fit_cond_density(train, lev, grid, bandwidth=config.bandwidth,
                                 regressor=config.density,
                                 k_storage=None if k_storage is None else k_storage[lev])
        return FactoredEta(model, x, grid, row_weights)

    return fold_nuisance(table, eval_idx, grid, pi, tabulate, warn)


def fold_stream(table: ObservationTable, folds: FoldPlan, levels, grid: EvalGrid,
                config: NuisanceConfig = NuisanceConfig(), pi_fn=None):
    """Yield each fold's nuisances, fit on its complement, as ``single_split``
    builds them. The stream keeps no fold it has yielded, so a consumer that
    drops each fold before asking for the next holds one fold's K at a time.

    Each level's K is built in one ``KStorage``, sized for the level's
    largest training split, so such a consumer has every fold's K written
    into the same pages; a fold still alive when the next is fit keeps its
    own, and the next K goes to new storage.
    """
    levels = tuple(levels)
    storage = {lev: KStorage(grid.size * max(np.count_nonzero(table.a[train_idx] == lev)
                                             for _, train_idx, _ in folds.splits()))
               for lev in levels}
    for _, train_idx, eval_idx in folds.splits():
        yield single_split(table, train_idx, eval_idx, levels, grid, config, pi_fn, storage)


def cross_fit(table: ObservationTable, folds: FoldPlan, levels, grid: EvalGrid,
              config: NuisanceConfig = NuisanceConfig(), pi_fn=None) -> list:
    """Every fold's nuisances at once: the list of ``fold_stream``."""
    return list(fold_stream(table, folds, levels, grid, config, pi_fn))


def _normalize_rows_to_density(eta, grid):
    """Rows of an injected eta clipped at 0 and scaled to unit mass under the
    grid quadrature; a row whose mass is not finite and positive (a NaN or inf
    entry, or no mass) raises ``DataError``, as in ``FactoredEta``."""
    eta = np.maximum(eta, 0.0)
    mass = eta @ grid.weights
    bad = np.flatnonzero(~np.isfinite(mass) | (mass <= 1e-300))
    if bad.size:
        raise DataError(f"conditional density row {bad[0]} has non-finite or no mass on "
                        f"the {grid.size}-point grid ({bad.size} such rows)")
    return eta / mass[:, None]


def tabulate_nuisances(table: ObservationTable, eval_idx, levels, grid: EvalGrid,
                       pi_fn, eta_fn) -> FoldNuisance:
    """Build a FoldNuisance from closed-form nuisance functions.

    ``pi_fn(x, level) -> (n,)`` and ``eta_fn(x, level, points) -> (n, G)``.
    Used to inject true or deliberately misspecified nuisances; the dense
    special case (``DenseEta``) of the fitted ones. Tabulated conditional
    curves are renormalized to unit mass under the grid quadrature so the
    exact-centering identities hold on the working grid.
    """
    eval_idx = np.asarray(eval_idx)
    x = table.x[eval_idx]
    pi = {lev: np.asarray(pi_fn(x, lev), dtype=float) for lev in levels}

    def tabulate(lev, row_weights):
        eta = np.asarray(eta_fn(x, lev, grid.points), dtype=float)
        return DenseEta(_normalize_rows_to_density(eta, grid), row_weights)

    return fold_nuisance(table, eval_idx, grid, pi, tabulate)
