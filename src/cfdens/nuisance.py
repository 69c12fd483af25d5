"""Nuisance estimation: propensities and conditional outcome densities, cross-fit.

The estimators downstream consume nuisances only through ``FoldNuisance``,
so the learners here are swappable. Per fold and level it holds the clipped
propensities, the conditional density on the eval rows as an operator whose
``contract(w * h)`` gives the quadrature of h against every row, the plug-in
marginal p_hat and the doubly-robust grid measure d_hat, with d_hat @ h the
mean of the raw doubly-robust summands of h (``fold_nuisance``).

A fitted density is eta_hat(. | x) = W(x) K / mass(x), held as the model and
the eval rows' covariates and 1/mass (``FactoredEta``); no (n_ev, G) array is
built unless ``CondDensityModel.predict`` is called. K, the training outcomes'
reflected Gaussian kernels on the grid, is no (m, G) matrix either: it is the
operator K = B Phi. Phi (S, G) float64 is the kernel between S outcome nodes
and the grid points. B (m, S) holds, per training outcome, the 8-point
Lagrange weights of its place on a lattice of step h_y / 16: binning, as in
Silverman (1982) and Wand (1994), but of order 8 where linear binning is of
order 2, so each entry of B Phi is within about 3e-11 of the kernel's peak of
the exact kernel. S is about 16 range(y) / h_y + 8, a few hundred nodes
against thousands of training rows, so each product with K (each training
kernel's mass, ``contract``'s K (w h), the row sums acc K) costs O(m + S G)
instead of O(m G). Where the lattice would have at least m nodes (a tiny
h_y), the nodes are the training outcomes themselves and B only picks each
row's own node: K is then the exact kernel in float64. Phi is built, stored
and applied in row blocks of at most 512 KB (``_k_blocks``), each stored only
on the grid points its kernels reach. So Phi's size follows h_y, not n: S G
values at a large h_y, and for outcomes in [0, 1] never more than about
65536 + 1240 G of them (5.6 MB at G = 512), lattice or outcome nodes alike.

Both regressions on X, the propensity's (of the level indicators) and the
conditional density's (of the outcome kernels), read one covariate-weights
layer, ``CovariateWeights``, with two responses: its standardization, its
weight blocks and, for k-NN, its one neighbour search and tie rule. The
Nadaraya-Watson weights are clipped Epanechnikov windows, built in blocks of
about 512 KB of float64 (one core's L2). Nadaraya-Watson training rows are
sorted by their first covariate at fit and ``FactoredEta`` sorts its eval rows
the same way, so each block multiplies only the training rows whose first
coordinate lies within the window's reach of the block's; every entry skipped
is 0 after the clip. Only the rows without usable mass are searched for empty
windows, one GEMM against every training row for those rows alone, and such a
row falls back to its nearest training row. An eval row whose mass is 0, or so
small that 1/mass overflows, raises ``DataError`` in ``FactoredEta``, and so
in ``predict``, its dense view; ``tabulate_nuisances`` raises one for an
injected row without finite, positive mass. Shipped learners are multinomial
logistic regression and k-NN for the propensity (``PROPENSITY_METHODS``), and
Nadaraya-Watson / k-NN / marginal-only kernel regressions of a
Gaussian-kernel-transformed outcome for the conditional density
(``DENSITY_REGRESSORS``). Analytic or deliberately misspecified
nuisances enter through ``tabulate_nuisances``, the dense special case.

``fold_stream`` yields the folds one at a time, as they are fit, for a
consumer that needs each fold only for its own terms (a density effect);
``cross_fit`` is its list, for the estimates that need every fold at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import MISSING_LEVEL, EvalGrid, FoldPlan, ObservationTable
from .errors import DataError, InsufficientDataError

_BLOCK = 65536         # float64 values per block, 512 KB: one core's L2
_LATTICE = 16          # outcome lattice nodes per bandwidth h_y
_STENCIL = np.arange(-3, 5)     # a lattice cell's 8 Lagrange nodes, from its left node
# the Lagrange basis denominators prod_{b != a} (a - b) over the stencil offsets a
_DENOM = np.array([np.prod(a - _STENCIL[_STENCIL != a]) for a in _STENCIL], dtype=float)
# exp(-z^2 / 2) rounds to 0 in float64 beyond z = 38.61 (e^-745.1 is half the
# smallest subnormal), so a kernel term skipped at |z| >= _TAIL is an exact 0
_TAIL = 38.7
LOGIT_TOL = 1e-8        # gradient norm at which the logistic Newton fit stops
LOGIT_MAX_ITER = 100
PROPENSITY_METHODS = ("logistic", "knn")
DENSITY_REGRESSORS = ("nadaraya_watson", "knn", "marginal")


@dataclass(frozen=True)
class NuisanceConfig:
    propensity: str = "logistic"        # one of PROPENSITY_METHODS
    density: str = "nadaraya_watson"    # one of DENSITY_REGRESSORS
    bandwidth: object = "silverman"     # "silverman" or a fixed float
    clip_eps: float = 0.01


def _block_rows(m):
    """Rows per block of float64 values against m training rows: about 512 KB,
    so a block stays in a core's L2 (``CovariateWeights.weight_blocks``)."""
    return min(256, max(32, _BLOCK // m))


def _k_blocks(nodes, size):
    """Row slices of the outcome kernel Phi (nodes, size) in blocks of at
    most ``_BLOCK`` float64 values (about 512 KB), in which Phi is built,
    stored and applied. A block stays in L2 and its products stay on one
    thread. Taken with the whole Phi instead, they start OpenBLAS's threads:
    on a 2-core x86-64 Xeon (OpenBLAS 0.3.31) the sweep-2k benchmark then
    used 0.47 s of CPU time for 0.25 s of wall time, against 0.24 s of each
    in blocks."""
    step = max(1, _BLOCK // size)
    return [slice(lo, min(lo + step, nodes)) for lo in range(0, nodes, step)]


# ---------------------------------------------------------------------------
# covariate weights, shared by the propensity and the conditional density

class CovariateWeights:
    """Weights W(x) (m,) of covariate rows x against m training rows: the
    covariate half of both regressions on X, the propensity's (of the level
    indicators) and the conditional density's (of the outcome kernels).

    Covariates are standardized by the training rows' mean and sd (a column
    with sd below 1e-12 carries no distance). ``covariates(x)`` augments the
    rows so that one GEMM against the training half gives 1 - |x - x_j|^2 / b^2
    for every pair (``weight_blocks``). The ``regressor``:

    - ``nadaraya_watson``: Epanechnikov windows of bandwidth
      b = 3.5 m^(-1/(d+4)), clipped at 0 (compact support keeps them cheap).
      The training rows must come sorted by their first covariate (unsorted
      rows raise ``DataError``): the weight blocks are banded on it. A row
      with no in-window neighbour falls back to its nearest one
      (``nearest_rows``, the one fallback rule).
    - ``knn``: 1 on the k nearest training rows, 0 elsewhere (b = 1: k-NN only
      ranks distances). Among rows tied at the k-th distance the selection is
      ``np.argpartition``'s over the GEMM's values: deterministic for given
      inputs, but no row order decides it. Both k-NN learners share it.
    - ``marginal``: uniform weights on one column (m = 1), which the
      conditional density pairs with the sum of its outcome kernels.
    """

    def __init__(self, x_train, regressor, k):
        self.regressor = regressor
        self._k = k                 # read by the k-NN regressor only
        self._x_mean = x_train.mean(axis=0)
        sd = x_train.std(axis=0)
        self._x_sd = np.where(sd < 1e-12, np.inf, sd)  # inf: dim carries no distance
        m, d = x_train.shape
        self.m = 1 if regressor == "marginal" else m     # columns of W
        x_bw = 1.0  # k-NN only ranks distances
        if regressor == "nadaraya_watson":
            # Scott-style rate; the constant is sized for regression, where
            # local sample size matters more than in density estimation
            x_bw = 3.5 * m ** (-1.0 / (d + 4))
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
        m = self.m
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
    # the row max as np.maximum over the columns: exact, and on a short row far
    # cheaper than full.max(axis=1)
    full -= functools.reduce(np.maximum, full.T)[:, None]
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
    """The level shares among each row's k = min(m, max(10, ceil(m^(2/3))))
    nearest training rows: the one-hot level indicators regressed on the
    k-NN ``CovariateWeights``, block by block ``w @ onehot[cols] / k``."""
    m = len(a)
    k = min(m, max(10, int(np.ceil(m ** (2.0 / 3.0)))))
    weights = CovariateWeights(x, "knn", k)
    onehot = np.stack([(a == lev).astype(float) for lev in levels], axis=1)

    def predict_raw(x_new):
        xa = weights.covariates(x_new)
        out = np.empty((len(xa), len(levels)))
        for rows, cols, w in weights.weight_blocks(xa):
            out[rows] = w @ onehot[cols] / k
        return out

    return predict_raw


def fit_propensity_all(train: ObservationTable, method="logistic",
                       clip_eps=0.01) -> PropensityModel:
    """Fit one joint propensity model over every level present in training rows."""
    levels = train.levels()
    if len(levels) < 2:
        raise DataError(f"propensity fit needs rows at two levels or more; have {list(levels)}")
    if method not in PROPENSITY_METHODS:
        raise DataError(f"unknown propensity method {method!r}")
    if method == "knn":
        return PropensityModel(levels, _fit_knn_propensity(train.x, train.a, levels), clip_eps)
    predict_raw, converged = _fit_multinomial_logistic(train.x, train.a, levels)
    return PropensityModel(levels, predict_raw, clip_eps, warn=not converged)


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


def _lagrange_weights(frac):
    """(n, 8) weights of the 8-point Lagrange interpolant at the fractions
    ``frac`` in [0, 1) of a lattice cell, on the nodes at offsets ``_STENCIL``
    from the cell's left node: the products of (frac - b) over the other
    offsets b, as prefix times suffix products, over ``_DENOM``. Each row
    sums to 1 and reproduces every polynomial of degree up to 7."""
    d = frac[:, None] - _STENCIL
    pre = np.ones_like(d)
    suf = np.ones_like(d)
    np.cumprod(d[:, :-1], axis=1, out=pre[:, 1:])
    np.cumprod(d[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pre * suf / _DENOM


def _outcome_kernel(nodes, points, h):
    """Gaussian kernel in the outcome, reflected at both ends of [0,1], between
    sorted outcome nodes u and the grid points t: Phi (S, G) float64, held as
    a list of (rows, cols, block), block = Phi[rows, cols].

    Phi[s, j] = phi_h(u_s - t_j) + phi_h(-u_s - t_j) + phi_h(2 - u_s - t_j),
    with phi_h the N(0, h^2) density, summed in that order. Reflection removes
    the first-order boundary deficit of the plain kernel; without it the
    fitted marginals lose mass near the endpoints and the quadratic term in
    the effect estimators picks up a visible bias. Nothing is clipped, so an
    entry may be subnormal. Each term of a ``_k_blocks`` row block is
    evaluated only on the grid points within ``_TAIL`` h of its centres in
    the block, and the block is stored only on the columns cols some term
    reaches: every entry skipped is an exact 0. So at a small h, where a
    block's nodes reach a few grid points, Phi holds far fewer than S G
    values.
    """
    phi, blocks = [], _k_blocks(len(nodes), len(points))
    buf = np.empty((blocks[0].stop - blocks[0].start) * len(points))     # every term's z
    for rows in blocks:
        u = nodes[rows]
        terms = [(c, *np.searchsorted(points, [c.min() - _TAIL * h, c.max() + _TAIL * h]))
                 for c in (u, -u, 2.0 - u)]
        terms = [(c, lo, hi) for c, lo, hi in terms if hi > lo]
        first = min((lo for _, lo, _ in terms), default=0)
        block = np.zeros((len(u), max((hi for _, _, hi in terms), default=0) - first))
        for c, lo, hi in terms:
            z = buf[:len(c) * (hi - lo)].reshape(len(c), hi - lo)
            np.subtract.outer(c, points[lo:hi], out=z)
            with np.errstate(over="ignore"):   # |z| beyond 1e154 at a tiny h: exp(-inf) = 0
                z /= h
                np.square(z, out=z)
            z *= -0.5
            block[:, lo - first:hi - first] += np.exp(z, out=z)
        block /= h * np.sqrt(2.0 * np.pi)
        phi.append((rows, slice(first, first + block.shape[1]), block))
    return phi


def _outcome_operator(y, points, h):
    """The outcome kernel of the training outcomes y on the grid points as
    K = B Phi: (cell, weights, Phi), with row i of B the ``weights[i]`` on
    the nodes cell[i], cell[i] + 1, ... of Phi (``_outcome_kernel``).

    The nodes are a lattice of step h / ``_LATTICE`` from 3 steps below
    min(y) to at least 4 steps above max(y), and row i the 8-point Lagrange
    weights (``_lagrange_weights``) of y_i in its lattice cell. Where that
    lattice would have at least m = len(y) nodes, the nodes are the sorted
    outcomes themselves and row i of B is 1 on y_i's node: B Phi is then the
    exact kernel, in float64.
    """
    step = h / _LATTICE
    low = y.min()
    # ceil(range / step) + 8 >= m, without the quotient, which overflows at a
    # subnormal h
    if not y.max() - low <= (len(y) - len(_STENCIL) - 1) * step:
        order = np.argsort(y, kind="stable")
        cell = np.empty(len(y), dtype=np.intp)
        cell[order] = np.arange(len(y))
        return cell, np.ones((len(y), 1)), _outcome_kernel(y[order], points, h)
    cells = int(np.ceil((y.max() - low) / step))
    pos = (y - low) / step
    cell = np.floor(pos).astype(np.intp)
    nodes = low + step * np.arange(_STENCIL[0], cells + _STENCIL[-1] + 1)
    return cell, _lagrange_weights(pos - cell), _outcome_kernel(nodes, points, h)


class CondDensityModel(CovariateWeights):
    """Conditional density eta_hat(. | x) on an EvalGrid, held in factored form.

    Regression of the Gaussian-kernel-transformed outcome on covariates among
    rows at one treatment level: eta_hat(. | x) = W(x) K / mass(x), with K
    (m, G) the training rows' outcome kernels on the grid, W(x) (m,) the
    covariate weights of x against the training rows and mass(x) = W(x) K w
    the unit-mass normaliser under the grid quadrature w (so the scale of W
    never matters). W is the inherited ``CovariateWeights`` of the
    regressor, with k = min(m, max(20, ceil(m^0.7))) for k-NN; this class
    adds the outcome half. For the marginal regressor K collapses to the
    (1, G) sum of its rows, the partner of W's one uniform column.
    ``fit_cond_density`` sorts Nadaraya-Watson training rows by their first
    covariate, as the banded weight blocks need.

    K is held as the operator B Phi of ``_outcome_operator``, built from the
    training outcomes y_train on the grid points: ``phi``, the (rows, cols,
    block) row blocks of Phi (S, G) float64, and B's rows, and K enters only
    through ``k_dot`` (K v) and ``dot_k`` (acc K). ``predict`` materialises
    (n, G) rows on request, as the dense view of ``FactoredEta``; the
    estimators only ever contract the factored form.
    """

    def __init__(self, level, x_train, y_train, points, regressor, h_y):
        m = len(y_train)
        super().__init__(x_train, regressor, k=min(m, max(20, int(np.ceil(m ** 0.7)))))
        self.level = int(level)
        self.h_y = float(h_y)
        self._size = len(points)
        self._cell, self._weights, self.phi = _outcome_operator(y_train, points, h_y)
        if regressor == "marginal":
            # uniform covariate weights: K collapses to the sum of its rows,
            # one node with weight 1
            self.phi = [(slice(0, 1), slice(0, self._size), self.dot_k(np.ones((1, m))))]
            self._cell, self._weights = np.zeros(1, dtype=np.intp), np.ones((1, 1))

    def k_dot(self, v):
        """K v = B (Phi v) for v of shape (G,) or (G, k): (m,) or (m, k)."""
        pv = np.concatenate([p @ v[cols] for _, cols, p in self.phi])
        width = self._weights.shape[1]
        window = np.lib.stride_tricks.sliding_window_view(pv, width, axis=0)[self._cell]
        return np.einsum("iw,i...w->i...", self._weights, window)

    def dot_k(self, acc):
        """acc K = (acc B) Phi for acc of shape (k, m): (k, G), with acc B
        from one ``bincount`` over the (row of acc, node) pairs."""
        k, s = len(acc), self.phi[-1][0].stop           # s nodes
        nodes = self._cell[:, None] + np.arange(self._weights.shape[1])
        acc_b = np.bincount((s * np.arange(k)[:, None, None] + nodes).ravel(),
                            (acc[:, :, None] * self._weights).ravel(),
                            minlength=k * s).reshape(k, s)
        out = np.zeros((k, self._size))
        for rows, cols, p in self.phi:
            out[:, cols] += acc_b[:, rows] @ p
        return out

    def predict(self, x, grid: EvalGrid):
        """Materialise eta_hat on the rows of x: (n, G), each row unit mass.

        The dense view of ``FactoredEta``, its rows contracted with the
        identity; a row with no kernel mass raises its ``DataError``."""
        return FactoredEta(self, x, grid, np.empty((len(x), 0))).contract(np.eye(grid.size))


def _inverse_mass(mass):
    """(1/mass, bad) for an array of masses: ``bad`` marks a mass that is not
    positive or so small that its inverse overflows (a subnormal one), and
    1/mass is set to 0 there."""
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / mass
    bad = ~((inv > 0.0) & (inv < np.inf))
    inv[bad] = 0.0
    return inv, bad


class FactoredEta:
    """eta_hat on a fold's eval rows as diag(1/mass) W K, never materialised.

    Keeps the fitted model (K as B Phi and the training covariates), the
    eval rows' augmented covariates and their 1/mass. For Nadaraya-Watson the
    eval rows are held sorted by their first covariate, so the
    ``CondDensityModel.weight_blocks`` are banded; ``inv_mass`` and the rows
    of ``contract`` come back in the caller's row order. ``contract``
    rebuilds W one block at a time. ``row_sums`` is v.T @ eta_hat for the row
    weights v (n_ev, k) given at construction, accumulated in the same pass
    that finds 1/mass.

    That pass also collects the rows whose mass is 0 or whose 1/mass is not
    finite (``_inverse_mass``). Of these, ``CondDensityModel.nearest_rows``
    names the rows with an empty window and the nearest training row of each:
    such a row is one-hot on it, so its mass is that training kernel's mass
    and its term of ``row_sums`` one scaled row of K. The (caller row, nearest
    training row) pairs are stored, and ``contract`` writes each such row from
    its nearest row's product after the banded blocks. Any other such row, or
    a fallback to a training kernel without usable mass (as at a tiny h_y),
    raises ``DataError``.
    """

    def __init__(self, model: CondDensityModel, x, grid: EvalGrid, row_weights):
        self.model = model
        xa = model.covariates(x)
        self._order = (np.argsort(xa[:, 0], kind="stable")
                       if model.regressor == "nadaraya_watson" else np.arange(len(xa)))
        self._xa = xa[self._order]
        row_weights = row_weights[self._order]
        kw = model.k_dot(grid.weights)                  # (m,) mass of each training kernel
        self.inv_mass = np.empty(len(xa))               # in the caller's row order
        acc = np.zeros((row_weights.shape[1], len(kw)))
        bad = np.zeros(len(xa), dtype=bool)             # in the sorted order
        for rows, cols, w in model.weight_blocks(self._xa):
            inv, bad[rows] = _inverse_mass(w @ kw[cols])  # 1/mass 0: no term until the fallback
            self.inv_mass[self._order[rows]] = inv
            acc[:, cols] += (row_weights[rows] * inv[:, None]).T @ w
        bad = np.flatnonzero(bad)
        empty, nearest = model.nearest_rows(self._xa[bad])
        inv, unusable = _inverse_mass(kw[nearest])
        if len(empty) < len(bad) or unusable.any():
            raise DataError(
                f"level {model.level}: an evaluation row has no kernel mass on the "
                f"{grid.size}-point grid at outcome bandwidth h_y={model.h_y:g}, or one "
                f"too small to invert; use a larger bandwidth or a finer grid")
        idx = self._order[bad]
        self.inv_mass[idx] = inv
        np.add.at(acc.T, nearest, row_weights[bad] * inv[:, None])
        self._fallback = idx, nearest                   # (caller row, nearest training row)
        self.row_sums = model.dot_k(acc)

    def contract(self, wh):
        """eta_hat @ wh for wh of shape (G,) or (G, k); with wh = w * h, the
        quadrature of h against each row, in the caller's row order."""
        kwh = self.model.k_dot(np.asarray(wh, dtype=float))
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
                     bandwidth="silverman", regressor="nadaraya_watson") -> CondDensityModel:
    """Fit eta_hat_level by kernel-outcome regression on the level's rows."""
    mask = train.a == level
    m = int(mask.sum())
    if m < 20:
        raise InsufficientDataError(
            f"conditional density at level {level}: {m} training rows, need >= 20"
        )
    if regressor not in DENSITY_REGRESSORS:
        raise DataError(f"unknown conditional-density regressor {regressor!r}")
    x, y = train.x[mask], train.y[mask]
    h = silverman_bandwidth(y) if bandwidth == "silverman" else float(bandwidth)
    if not (0.0 < h < np.inf):  # nan fails too
        raise DataError(f"bandwidth must be positive and finite, got {h}")
    if h < 3.0 / np.sqrt(2.0 * np.pi) / np.finfo(float).max:
        # three terms at the kernel's peak 1 / (h sqrt(2 pi)) would overflow
        raise DataError(f"level {level}: h_y={h} leaves no kernel mass on the "
                        f"{grid.size}-point grid: the kernel's peak overflows float64")
    if regressor == "nadaraya_watson":
        # sorted by the band coordinate; B's rows follow this order
        order = np.argsort(x[:, 0], kind="stable")
        x, y = x[order], y[order]
    return CondDensityModel(level, x, y, grid.points, regressor, h)


# ---------------------------------------------------------------------------
# per-fold nuisances consumed by every estimator

@dataclass
class FoldNuisance:
    """Nuisances evaluated on one fold's held-out rows.

    pi[level]:    (n_ev,) clipped propensities
    eta[level]:   conditional densities on the eval rows, each row unit mass:
                  ``FactoredEta`` (fitted: K as the operator B Phi, the eval
                  rows' covariates and 1/mass) or ``DenseEta`` (closed form);
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
    ``MISSING_LEVEL`` labels the rows whose outcome is unobserved, so it is
    no target level: asking for it raises ``DataError`` before any level is
    tabulated. (A fitted propensity keeps it as a column, since the other
    levels' weights need it.)
    """
    if MISSING_LEVEL in pi:
        raise DataError(f"level {MISSING_LEVEL} marks rows with an unobserved outcome "
                        "and cannot be a target level")
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
                 pi_fn=None) -> FoldNuisance:
    """Fit nuisances on the training rows and tabulate them on the eval rows.

    ``pi_fn(x, level) -> (n,)``, when given, replaces the fitted propensity
    with a closed-form one (the oracle's true-propensity mode).
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
                                 regressor=config.density)
        return FactoredEta(model, x, grid, row_weights)

    return fold_nuisance(table, eval_idx, grid, pi, tabulate, warn)


def fold_stream(table: ObservationTable, folds: FoldPlan, levels, grid: EvalGrid,
                config: NuisanceConfig = NuisanceConfig(), pi_fn=None):
    """Yield each fold's nuisances, fit on its complement, as ``single_split``
    builds them. The stream keeps no fold it has yielded, so a consumer that
    drops each fold before asking for the next holds one fold's nuisances at
    a time."""
    for _, train_idx, eval_idx in folds.splits():
        yield single_split(table, train_idx, eval_idx, levels, grid, config, pi_fn)


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
