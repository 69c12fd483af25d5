"""Nuisance estimation: propensities, conditional outcome densities, plug-in marginals.

The estimators downstream consume nuisances only through per-row tabulations
(`FoldNuisance`), so the learners here are swappable: anything that can fill
those tables works. Shipped learners are multinomial logistic regression and
k-NN for the propensity, and Nadaraya-Watson / k-NN / marginal-only kernel
regressions of a Gaussian-kernel-transformed outcome for the conditional
density. Analytic or deliberately misspecified nuisances enter through
``tabulate_nuisances``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EvalGrid, FoldPlan, ObservationTable
from .errors import (
    CrossFitViolationError,
    DataError,
    InsufficientDataError,
)

_CHUNK = 2048  # eval rows per kernel-matrix block, bounds peak memory


@dataclass(frozen=True)
class NuisanceConfig:
    propensity: str = "logistic"        # logistic | knn
    density: str = "nadaraya_watson"    # nadaraya_watson | knn | marginal
    bandwidth: object = "silverman"     # "silverman" or a fixed float
    clip_eps: float = 0.01


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
    """Joint propensity over all modeled levels, queried per level."""

    def __init__(self, levels, predict_raw, clip_eps, warn=False):
        self.levels = tuple(int(v) for v in levels)
        self._predict_raw = predict_raw
        self.clip_eps = float(clip_eps)
        self.warn = bool(warn)

    def predict(self, x):
        """Clipped probabilities, shape (n, L), rows summing to one."""
        raw = self._predict_raw(np.asarray(x, dtype=float))
        return floor_probs(raw, self.clip_eps)

    def predict_level(self, x, level):
        if level not in self.levels:
            raise DataError(f"level {level} not among modeled levels {self.levels}")
        return self.predict(x)[:, self.levels.index(level)]


def _fit_multinomial_logistic(x, a, levels, tol=1e-8, max_iter=100):
    """Newton-IRLS multinomial fit; returns (predict_raw, converged)."""
    n, d = x.shape
    z = np.column_stack([np.ones(n), x])
    L = len(levels)
    onehot = np.stack([(a == lev).astype(float) for lev in levels[1:]], axis=1)  # (n, L-1)
    nb = (L - 1) * (d + 1)
    coef = np.zeros((L - 1, d + 1))

    def probs(c):
        scores = z @ c.T                                # (n, L-1)
        full = np.column_stack([np.zeros(n), scores])
        full -= full.max(axis=1, keepdims=True)
        e = np.exp(full)
        return e / e.sum(axis=1, keepdims=True)         # (n, L)

    def loglik(c):
        p = probs(c)
        lab = np.searchsorted(np.asarray(levels), a)
        return float(np.log(np.clip(p[np.arange(n), lab], 1e-300, None)).sum())

    converged = False
    ll = loglik(coef)
    for _ in range(max_iter):
        p = probs(coef)[:, 1:]                          # (n, L-1)
        grad = (z.T @ (onehot - p)).T.ravel()           # (L-1)(d+1)
        if np.linalg.norm(grad) < tol:
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
        z_new = np.column_stack([np.ones(len(x_new)), x_new])
        scores = z_new @ coef.T
        full = np.column_stack([np.zeros(len(x_new)), scores])
        full -= full.max(axis=1, keepdims=True)
        e = np.exp(full)
        return e / e.sum(axis=1, keepdims=True)

    return predict_raw, converged


def _fit_knn_propensity(x, a, levels):
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    xt = (x - mean) / sd
    m = len(a)
    k = min(m, max(10, int(np.ceil(m ** (2.0 / 3.0)))))
    onehot = np.stack([(a == lev).astype(float) for lev in levels], axis=1)

    def predict_raw(x_new):
        xn = (np.asarray(x_new, dtype=float) - mean) / sd
        out = np.empty((len(xn), len(levels)))
        for lo in range(0, len(xn), _CHUNK):
            blk = xn[lo:lo + _CHUNK]
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


def _kernel_outcome_matrix(y_train, points, h):
    """Gaussian kernel in the outcome, reflected at both ends of [0,1].

    Reflection removes the first-order boundary deficit of the plain kernel;
    without it the fitted marginals lose mass near the endpoints and the
    quadratic term in the effect estimators picks up a visible bias.
    """
    out = np.zeros((len(y_train), len(points)))
    for yy in (y_train, -y_train, 2.0 - y_train):
        z = (yy[:, None] - points[None, :]) / h
        np.clip(z, -38.0, 38.0, out=z)
        out += np.exp(-0.5 * z**2)
    return out / (h * np.sqrt(2.0 * np.pi))


def _normalize_rows_to_density(eta, grid):
    eta = np.maximum(eta, 0.0)
    mass = eta @ grid.weights
    bad = mass <= 1e-300
    if np.any(bad):
        eta[bad] = 1.0  # no kernel mass anywhere: fall back to uniform
        mass = eta @ grid.weights
    return eta / mass[:, None]


class CondDensityModel:
    """Conditional density eta_hat(. | x) tabulated on an EvalGrid.

    Regression of the Gaussian-kernel-transformed outcome on covariates among
    rows at one treatment level. The covariate weights use an Epanechnikov
    kernel on standardized coordinates (compact support keeps the weight
    matrix cheap); rows with no in-window neighbor fall back to their nearest
    one. Every predicted curve is floored at zero and renormalized to unit
    mass on the grid.
    """

    def __init__(self, level, x_train, k_matrix, regressor, h_y, train_row_ids=None):
        self.level = int(level)
        self.h_y = float(h_y)
        self.regressor = regressor
        self.train_row_ids = None if train_row_ids is None else np.asarray(train_row_ids)
        self._x_mean = x_train.mean(axis=0)
        sd = x_train.std(axis=0)
        self._x_sd = np.where(sd < 1e-12, np.inf, sd)  # inf: dim carries no distance
        m, d = x_train.shape
        if regressor == "nadaraya_watson":
            # Scott-style rate; the constant is sized for regression, where
            # local sample size matters more than in density estimation
            self._x_bw = 3.5 * m ** (-1.0 / (d + 4))
        elif regressor == "knn":
            self._k = min(m, max(20, int(np.ceil(m ** 0.7))))
        self._xt = (x_train - self._x_mean) / self._x_sd
        # (m, G); Nadaraya-Watson contracts it in float32 against float32 weights
        self._kmat = (k_matrix.astype(np.float32) if regressor == "nadaraya_watson"
                      else k_matrix)

    def predict(self, x, grid: EvalGrid):
        x = np.asarray(x, dtype=float)
        if self.regressor == "marginal":
            curve = self._kmat.mean(axis=0)
            eta = np.tile(curve, (len(x), 1))
            return _normalize_rows_to_density(eta, grid)
        xn = (x - self._x_mean) / self._x_sd
        out = np.empty((len(x), self._kmat.shape[1]))
        for lo in range(0, len(x), _CHUNK):
            blk = xn[lo:lo + _CHUNK]
            d2 = ((blk**2).sum(axis=1)[:, None] + (self._xt**2).sum(axis=1)[None, :]
                  - 2.0 * blk @ self._xt.T)
            np.maximum(d2, 0.0, out=d2)
            if self.regressor == "nadaraya_watson":
                w = (1.0 - d2 / self._x_bw**2).astype(np.float32)
                np.maximum(w, np.float32(0.0), out=w)
                rowsum = w.sum(axis=1, keepdims=True)
                empty = rowsum[:, 0] <= 0
                if empty.any():
                    nearest = d2[empty].argmin(axis=1)
                    w[empty] = 0.0
                    w[np.flatnonzero(empty), nearest] = 1.0
                    rowsum = w.sum(axis=1, keepdims=True)
                w /= rowsum
                out[lo:lo + len(blk)] = (w @ self._kmat).astype(np.float64)
            else:
                nbr = np.argpartition(d2, self._k - 1, axis=1)[:, :self._k]
                w = np.zeros_like(d2)
                np.put_along_axis(w, nbr, 1.0 / self._k, axis=1)
                out[lo:lo + len(blk)] = w @ self._kmat
        return _normalize_rows_to_density(out, grid)


def fit_cond_density(train: ObservationTable, level, grid: EvalGrid,
                     bandwidth="silverman", regressor="nadaraya_watson",
                     train_row_ids=None) -> CondDensityModel:
    """Fit eta_hat_level by kernel-outcome regression on the level's rows."""
    mask = train.a == level
    m = int(mask.sum())
    if m < 20:
        raise InsufficientDataError(
            f"conditional density at level {level}: {m} training rows, need >= 20"
        )
    if regressor not in ("nadaraya_watson", "knn", "marginal"):
        raise DataError(f"unknown conditional-density regressor {regressor!r}")
    y = train.y[mask]
    h = silverman_bandwidth(y) if bandwidth == "silverman" else float(bandwidth)
    if h <= 0:
        raise DataError("bandwidth must be positive")
    kmat = _kernel_outcome_matrix(y, grid.points, h)
    ids = None if train_row_ids is None else np.asarray(train_row_ids)[mask]
    return CondDensityModel(level, train.x[mask], kmat, regressor, h, train_row_ids=ids)


def plugin_marginal(model: CondDensityModel, table: ObservationTable, eval_idx,
                    grid: EvalGrid):
    """p_hat(y) = average of eta_hat(y | X_i) over the evaluation rows.

    Cross-fitting is enforced when the model knows its training row ids.
    """
    eval_idx = np.asarray(eval_idx)
    if model.train_row_ids is not None:
        overlap = np.intersect1d(model.train_row_ids, eval_idx)
        if overlap.size:
            raise CrossFitViolationError(
                f"evaluation rows overlap training rows (e.g. row {int(overlap[0])})"
            )
    eta = model.predict(table.x[eval_idx], grid)
    return eta.mean(axis=0)


# ---------------------------------------------------------------------------
# per-fold tabulations consumed by every estimator

@dataclass
class FoldNuisance:
    """Nuisances evaluated on one fold's held-out rows.

    pi[level]:    (n_ev,) clipped propensities
    eta[level]:   (n_ev, G) conditional densities, each row unit mass
    p_hat[level]: (G,) plug-in marginal = column mean of eta, derived here
    """

    eval_idx: np.ndarray
    pi: dict
    eta: dict
    warn_separation: bool = False
    p_hat: dict = field(init=False)

    def __post_init__(self):
        self.p_hat = {lev: tab.mean(axis=0) for lev, tab in self.eta.items()}

    @property
    def n_eval(self):
        return len(self.eval_idx)


def single_split(table: ObservationTable, train_idx, eval_idx, levels,
                 grid: EvalGrid, config: NuisanceConfig = NuisanceConfig()) -> FoldNuisance:
    """Fit nuisances on the training rows and tabulate them on the eval rows."""
    levels = tuple(levels)
    train_idx = np.asarray(train_idx)
    eval_idx = np.asarray(eval_idx)
    train = table.rows(train_idx)
    prop = fit_propensity_all(train, method=config.propensity, clip_eps=config.clip_eps)
    absent = [lev for lev in levels if lev not in prop.levels]
    if absent:
        raise DataError(f"level {absent[0]} absent from the training rows; "
                        f"levels present: {list(prop.levels)}")
    probs = prop.predict(table.x[eval_idx])
    pi = {lev: probs[:, prop.levels.index(lev)] for lev in levels}
    eta = {lev: fit_cond_density(train, lev, grid, bandwidth=config.bandwidth,
                                 regressor=config.density,
                                 train_row_ids=train_idx).predict(table.x[eval_idx], grid)
           for lev in levels}
    return FoldNuisance(eval_idx=eval_idx, pi=pi, eta=eta, warn_separation=prop.warn)


def cross_fit(table: ObservationTable, folds: FoldPlan, levels, grid: EvalGrid,
              config: NuisanceConfig = NuisanceConfig()) -> list:
    """Fit nuisances per fold on the complement, tabulate on the held-out rows."""
    return [single_split(table, train_idx, eval_idx, levels, grid, config)
            for _, train_idx, eval_idx in folds.splits()]


def tabulate_nuisances(table: ObservationTable, eval_idx, levels, grid: EvalGrid,
                       pi_fn, eta_fn) -> FoldNuisance:
    """Build a FoldNuisance from closed-form nuisance functions.

    ``pi_fn(x, level) -> (n,)`` and ``eta_fn(x, level, points) -> (n, G)``.
    Used to inject true or deliberately misspecified nuisances. Tabulated
    conditional curves are renormalized to unit mass under the grid
    quadrature so the exact-centering identities hold on the working grid.
    """
    eval_idx = np.asarray(eval_idx)
    x = table.x[eval_idx]
    pi = {lev: np.asarray(pi_fn(x, lev), dtype=float) for lev in levels}
    eta = {lev: _normalize_rows_to_density(
               np.asarray(eta_fn(x, lev, grid.points), dtype=float), grid)
           for lev in levels}
    return FoldNuisance(eval_idx=eval_idx, pi=pi, eta=eta)
