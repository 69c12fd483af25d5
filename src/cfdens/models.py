"""Approximating families g(y; beta) on the unit interval.

Three families share one beta-parameterized interface: a truncated cosine
series with uniform base (identity link), an exponential family over the same
basis (log link, normalized through its log-partition), and a Gaussian
mixture with an unconstrained reparameterization so generic root finders can
work on all of R^p.

``tabulate`` is the one evaluation of a family: it gives g(.; beta) and its
gradient in beta on the evaluation grid, from one basis table (and, for the
exponential family, one log-partition), so callers make one call per beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import EvalGrid
from .errors import MagnitudeError, ModelDomainError

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class CosineBasis:
    """Orthonormal cosine basis on [0,1]: b_j(y) = sqrt(2) cos(pi j y), j>=1.

    Each b_j integrates to 0 and the family is orthonormal, so adding
    coefficients to a base density preserves total mass.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ModelDomainError("basis dimension must be >= 1")

    def eval(self, y):
        """Tabulate the basis: returns shape y.shape + (dim,)."""
        y = np.asarray(y, dtype=float)
        j = np.arange(1, self.dim + 1)
        return SQRT2 * np.cos(np.pi * np.multiply.outer(y, j))


@dataclass(frozen=True)
class TruncatedSeries:
    """g(y; beta) = 1 + beta . b(y). Mass 1 for every beta; can go negative."""

    basis: CosineBasis

    @property
    def beta_dim(self):
        return self.basis.dim

    @property
    def label(self):
        return f"series:d={self.basis.dim}"


@dataclass(frozen=True)
class ExponentialFamily:
    """g(y; beta) = exp(beta . b(y) - C(beta)) with C the log-partition."""

    basis: CosineBasis

    @property
    def beta_dim(self):
        return self.basis.dim

    @property
    def label(self):
        return f"expfam:d={self.basis.dim}"


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of k normals restricted to [0,1].

    Unconstrained parameterization: for k >= 2 the first mixing logit is
    pinned at 0 (softmax over [0, l_2..l_k]), means are free, and scales go
    through a shifted softplus with floor ``sigma_min``. For k = 1 there is
    no mixing degree of freedom, so beta = (mean, raw_scale). Component mass
    outside [0,1] is not renormalized here; fitted densities pass through
    ``clip_to_density`` downstream.
    """

    k: int
    sigma_min: ClassVar[float] = 1e-3

    def __post_init__(self):
        if self.k < 1:
            raise ModelDomainError("mixture needs at least one component")

    @property
    def beta_dim(self):
        return 2 if self.k == 1 else 3 * self.k - 1

    @property
    def label(self):
        return f"gmm:k={self.k}"


def parse_model(text):
    """Parse CLI model strings: series:d=4 | expfam:d=4 | gmm:k=2."""
    text = text.strip().lower()
    name, _, arg = text.partition(":")
    key, _, val = arg.partition("=")
    try:
        if name == "series" and key == "d":
            return TruncatedSeries(CosineBasis(int(val)))
        if name == "expfam" and key == "d":
            return ExponentialFamily(CosineBasis(int(val)))
        if name == "gmm" and key == "k":
            return GaussianMixture(int(val))
    except ValueError:
        pass
    raise ModelDomainError(f"cannot parse model string {text!r}")


def _check_beta(model, beta):
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.shape != (model.beta_dim,):
        raise ModelDomainError(
            f"{model.label}: beta has length {beta.size}, expected {model.beta_dim}"
        )
    if not np.all(np.isfinite(beta)):
        raise ModelDomainError(f"{model.label}: non-finite beta")
    return beta


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def mixture_params(model: GaussianMixture, beta):
    """Map unconstrained beta to (weights, means, scales), in component order.

    Solutions are only unique up to component relabeling.
    """
    beta = _check_beta(model, beta)
    k = model.k
    if k == 1:
        w = np.array([1.0])
        mu = beta[:1]
        sig = model.sigma_min + _softplus(beta[1:2])
    else:
        logits = np.concatenate([[0.0], beta[: k - 1]])
        shifted = logits - logits.max()
        w = np.exp(shifted)
        w = w / w.sum()
        mu = beta[k - 1 : 2 * k - 1]
        sig = model.sigma_min + _softplus(beta[2 * k - 1 :])
    return w, mu, sig


def _exp_tilt(model: ExponentialFamily, beta, grid: EvalGrid):
    """Basis table, log-partition C(beta), its gradient and g(.; beta) on the grid.

    C comes by stabilized quadrature, and its gradient is the basis mean under
    g from the same quadrature, so the normalization identity holds exactly on
    the grid. The exponent s = b . beta must have a finite range on the grid
    (its spread is taken in Python floats, which overflow to inf without a
    warning), else ``MagnitudeError``: then s - max(s) is finite and
    exp(s - max(s)) is 1 at the max, so the quadrature is finite and
    positive.
    """
    beta = _check_beta(model, beta)
    bt = model.basis.eval(grid.points)          # (G, p)
    with np.errstate(over="ignore", invalid="ignore"):     # checked just below
        s = bt @ beta                                      # (G,)
    m = s.max()
    if not np.isfinite(float(m) - float(s.min())):
        raise _overflow(model, beta)
    z = grid.integrate(np.exp(s - m))
    c = m + np.log(z)
    g = np.exp(s - c)
    dc = grid.integrate(bt * g[:, None])
    if not np.all(np.isfinite(dc)):
        raise _overflow(model, beta)
    return bt, c, dc, g


def log_partition(model: ExponentialFamily, beta, grid: EvalGrid):
    """Log-partition C(beta) and its gradient, the basis mean under g(.; beta)."""
    _, c, dc, _ = _exp_tilt(model, beta, grid)
    return float(c), dc


def _overflow(model, beta):
    return MagnitudeError(
        f"{model.label}: log-partition overflowed at max |beta_j|={np.abs(beta).max():.3g}; "
        "try a smaller coefficient magnitude"
    )


def tabulate(model, beta, grid: EvalGrid):
    """g(.; beta) and its gradient in beta on the grid: shapes (G,) and (G, beta_dim).

    One evaluation of the family gives both: the series and the exponential
    family read one basis table, the exponential family one log-partition, and
    the mixture one set of component kernels. TruncatedSeries values may be
    negative (see ``clip_to_density``).
    """
    beta = _check_beta(model, beta)
    if isinstance(model, TruncatedSeries):
        bt = model.basis.eval(grid.points)
        return 1.0 + bt @ beta, bt
    if isinstance(model, ExponentialFamily):
        bt, _, dc, g = _exp_tilt(model, beta, grid)
        return g, g[:, None] * (bt - dc)
    k = model.k
    w, mu, sig = mixture_params(model, beta)
    z = (grid.points[:, None] - mu) / sig
    e = np.exp(-0.5 * z**2)
    g = (w / (np.sqrt(2 * np.pi) * sig) * e).sum(axis=-1)
    comp = e / (np.sqrt(2 * np.pi) * sig)       # (G, k)
    grad = np.empty((grid.size, model.beta_dim))
    # free logits l_2..l_k with the first pinned at zero (none for k = 1)
    gval = (w * comp).sum(axis=-1)
    for j in range(1, k):
        grad[:, j - 1] = w[j] * (comp[:, j] - gval)
    # means and scales via the chain rule through softplus
    grad[:, k - 1 : 2 * k - 1] = w * comp * z / sig
    raw = beta[2 * k - 1 :]
    grad[:, 2 * k - 1 :] = w * comp * ((z**2 - 1.0) / sig) * _sigmoid(raw)
    return g, grad


def clip_to_density(values, grid: EvalGrid):
    """Project grid-tabulated values onto valid densities: floor at 0, renormalize."""
    values = np.maximum(np.asarray(values, dtype=float), 0.0)
    mass = float(grid.integrate(values))
    if mass <= 1e-300:
        raise ModelDomainError("cannot renormalize: no positive mass on the grid")
    return values / mass
