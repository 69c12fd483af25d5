"""Generalized distances D(p,q) = integral of f(p,q) q dy and their derivatives.

The discrepancy f takes two arguments (density value p of the target, density
value q of the approximant), which covers squared-L2 alongside the classical
density-ratio divergences. Each distance exposes f together with the partial
derivatives the estimators need: f_dp = df/dp, f_dq = df/dq, and the mixed
second derivative f_dpdq.

Floors: ratio/sqrt/log evaluations clamp q at ``Q_FLOOR`` and (for KL and
Hellinger) p at ``P_FLOOR`` so behavior on vanishing densities is defined.
The scalar entry points reject q at or below the floor outright; the
density-level helpers clamp silently, which is what every estimator uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DistanceDomainError

Q_FLOOR = 1e-8
P_FLOOR = 1e-12

KINDS = ("l2", "kl", "chisq", "hellinger", "tv")


@dataclass(frozen=True)
class DistanceSpec:
    """One of {l2, kl, chisq, hellinger, tv}; tv carries its smoothing knobs."""

    kind: str
    tv_t: float = 50.0
    tv_kind: str = "tanh"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DistanceDomainError(f"unknown distance kind {self.kind!r}")
        if self.kind == "tv":
            if not (self.tv_t > 0):
                raise DistanceDomainError("tv smoothing parameter t must be positive")
            if self.tv_kind not in ("tanh", "erf"):
                raise DistanceDomainError(f"unknown tv smoothing kind {self.tv_kind!r}")

    @property
    def label(self):
        if self.kind == "tv":
            return f"tv:t={self.tv_t:g}"
        return self.kind


def parse_distance(text) -> DistanceSpec:
    """Parse CLI distance strings: l2 | kl | chisq | hellinger | tv[:t=50]."""
    text = text.strip().lower()
    if text.startswith("tv"):
        t, kind = 50.0, "tanh"
        if ":" in text:
            for part in text.split(":", 1)[1].split(","):
                key, _, val = part.partition("=")
                if key == "t":
                    try:
                        t = float(val)
                    except ValueError:
                        raise DistanceDomainError(f"tv option t={val!r} is not a number") from None
                elif key == "kind":
                    kind = val
                else:
                    raise DistanceDomainError(f"unknown tv option {part!r}")
        return DistanceSpec("tv", tv_t=t, tv_kind=kind)
    if text in KINDS:
        return DistanceSpec(text)
    raise DistanceDomainError(f"unknown distance {text!r}")


# ---------------------------------------------------------------------------
# smooth absolute-value surrogate used by the smoothed total variation

def abs_smooth(y, t, kind="tanh"):
    """Odd, smooth approximation of |y|; sharpness grows with t."""
    y = np.asarray(y, dtype=float)
    u = t * y
    if kind == "tanh":
        return y * np.tanh(u)
    if kind == "erf":
        return y * erf(u)
    raise DistanceDomainError(f"unknown tv smoothing kind {kind!r}")


def _sech2(u):
    # 1/cosh^2 with overflow guard; exactly 0 in the saturated tail.
    u = np.clip(np.abs(u), 0.0, 300.0)
    return 1.0 / np.cosh(u) ** 2


def abs_smooth_d1(y, t, kind="tanh"):
    y = np.asarray(y, dtype=float)
    u = t * y
    if kind == "tanh":
        return np.tanh(u) + u * _sech2(u)
    if kind == "erf":
        return erf(u) + (2.0 / np.sqrt(np.pi)) * u * np.exp(-np.clip(u * u, 0, 700))
    raise DistanceDomainError(f"unknown tv smoothing kind {kind!r}")


def abs_smooth_d2(y, t, kind="tanh"):
    y = np.asarray(y, dtype=float)
    u = t * y
    if kind == "tanh":
        return 2.0 * t * _sech2(u) * (1.0 - u * np.tanh(u))
    if kind == "erf":
        return (2.0 * t / np.sqrt(np.pi)) * np.exp(-np.clip(u * u, 0, 700)) * (2.0 - 2.0 * u * u)
    raise DistanceDomainError(f"unknown tv smoothing kind {kind!r}")


# ---------------------------------------------------------------------------
# discrepancy table (raw evaluators assume q > 0 and, where needed, p > 0)

def _clamp_p(spec, p):
    p = np.maximum(p, 0.0)
    if spec.kind in ("kl", "hellinger"):
        return np.maximum(p, P_FLOOR)
    return p


def _f_raw(spec, p, q):
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
    return abs_smooth(p - q, spec.tv_t, spec.tv_kind) / (2.0 * q)


def _f_dp_raw(spec, p, q):
    k = spec.kind
    if k == "l2":
        return 2.0 * (p / q - 1.0)
    if k == "kl":
        return (np.log(p / q) + 1.0) / q
    if k == "chisq":
        return 2.0 * (p - q) / q**2
    if k == "hellinger":
        return (1.0 / np.sqrt(q)) * (1.0 / np.sqrt(q) - 1.0 / np.sqrt(p))
    return abs_smooth_d1(p - q, spec.tv_t, spec.tv_kind) / (2.0 * q)


def _f_dq_raw(spec, p, q):
    k = spec.kind
    if k == "l2":
        return 1.0 - (p / q) ** 2
    if k == "kl":
        return -(p / q**2) * (np.log(p / q) + 1.0)
    if k == "chisq":
        return -(2.0 * p / q**3) * (p - q)
    if k == "hellinger":
        return (np.sqrt(p) / q**2) * (np.sqrt(q) - np.sqrt(p))
    nu = abs_smooth(p - q, spec.tv_t, spec.tv_kind)
    nu1 = abs_smooth_d1(p - q, spec.tv_t, spec.tv_kind)
    return -(nu / q + nu1) / (2.0 * q)


def _f_dpdq_raw(spec, p, q):
    k = spec.kind
    if k == "l2":
        return -2.0 * p / q**2
    if k == "kl":
        return -(np.log(p / q) + 2.0) / q**2
    if k == "chisq":
        return 2.0 * (q - 2.0 * p) / q**3
    if k == "hellinger":
        return (np.sqrt(q / p) - 2.0) / (2.0 * q**2)
    nu1 = abs_smooth_d1(p - q, spec.tv_t, spec.tv_kind)
    nu2 = abs_smooth_d2(p - q, spec.tv_t, spec.tv_kind)
    return -(nu1 / q + nu2) / (2.0 * q)


def _validate_scalar(spec, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise DistanceDomainError(f"{spec.label}: non-finite input")
    if np.any(q <= Q_FLOOR):
        raise DistanceDomainError(f"{spec.label}: q must exceed the floor {Q_FLOOR:g}")
    if np.any(p < 0):
        raise DistanceDomainError(f"{spec.label}: p must be nonnegative")
    return _clamp_p(spec, p), q


def f_eval(spec, p, q):
    """Discrepancy value f(p, q)."""
    p, q = _validate_scalar(spec, p, q)
    return _f_raw(spec, p, q)


def f1(spec, p, q):
    """Partial derivative of f in its first argument."""
    p, q = _validate_scalar(spec, p, q)
    return _f_dp_raw(spec, p, q)


def f2(spec, p, q):
    """Partial derivative of f in its second argument."""
    p, q = _validate_scalar(spec, p, q)
    return _f_dq_raw(spec, p, q)


def f21(spec, p, q):
    """Mixed second partial of f (differentiate in q, then p)."""
    p, q = _validate_scalar(spec, p, q)
    return _f_dpdq_raw(spec, p, q)


# ---------------------------------------------------------------------------
# density-level helpers: clamp, then evaluate

def clamp_densities(spec, p, q):
    """Validate and clamp a (target, approximant) density pair to the floors.

    The target p must be a genuine density: negative values raise. The
    approximant q may come from a signed model family (the identity-link
    series goes negative for some coefficients), so anything below the floor
    is treated as the floor; the ratio-based discrepancies then act as a
    smooth barrier against the invalid region.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, arr in (("p", p), ("q", q)):
        if not np.all(np.isfinite(arr)):
            idx = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DistanceDomainError(f"{spec.label}: non-finite {name} at grid index {idx}")
    if np.any(p < -1e-12):
        idx = int(np.flatnonzero(p < -1e-12)[0])
        raise DistanceDomainError(f"{spec.label}: negative p at grid index {idx}")
    return _clamp_p(spec, p), np.maximum(q, Q_FLOOR)


def divergence(spec, p, q, grid):
    """D(p,q): quadrature of f(p,q) q over the grid.

    For l2 the integrand is evaluated as (p-q)^2 directly, so no floor is
    involved and the value is exact for clipped densities with zeros.
    """
    if spec.kind == "l2":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return float(grid.integrate((p - q) ** 2))
    p, q = clamp_densities(spec, p, q)
    if spec.kind == "tv":
        return float(grid.integrate(abs_smooth(p - q, spec.tv_t, spec.tv_kind) / 2.0))
    return float(grid.integrate(_f_raw(spec, p, q) * q))


def moment_integrand_factor(spec, p, q):
    """The scalar factor f(p,q) + q * f_dq(p,q), i.e. d/dq of f(p,q) q.

    Evaluated in per-kind reduced form, algebraically identical to composing
    the table but avoiding 0/0 at clipped densities:
      l2: 2(q - p); kl: -p/q; chisq: 1 - (p/q)^2;
      hellinger: 1 - sqrt(p/q); tv: -nu'(p - q)/2.
    The kl entry keeps the exact q-derivative of f(p,q) q; it differs from
    the familiar 1 - p/q by a constant that integrates to zero against the
    coefficient gradient of any family with mass one for every beta.
    """
    if spec.kind == "l2":
        return 2.0 * (np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
    if spec.kind == "tv":
        diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        return -abs_smooth_d1(diff, spec.tv_t, spec.tv_kind) / 2.0
    p, q = clamp_densities(spec, p, q)
    r = p / q
    if spec.kind == "kl":
        return -r
    if spec.kind == "chisq":
        return 1.0 - r**2
    return 1.0 - np.sqrt(r)


def effect_integrand_factor(spec, p, q):
    """The scalar factor q * f_dp(p,q), i.e. d/dp of f(p,q) q, reduced per kind:
      l2: 2(p - q); kl: log(p/q) + 1; chisq: 2(p - q)/q;
      hellinger: 1 - sqrt(q/p); tv: nu'(p - q)/2.
    For l2 and tv, f(p,q) q depends on p - q alone: the negated moment factor.
    """
    if spec.kind in ("l2", "tv"):
        return -moment_integrand_factor(spec, p, q)
    p, q = clamp_densities(spec, p, q)
    r = p / q
    if spec.kind == "kl":
        return np.log(r) + 1.0
    if spec.kind == "chisq":
        return 2.0 * (p - q) / q
    return 1.0 - np.sqrt(1.0 / r)


def influence_integrand_factor(spec, p, q):
    """The scalar factor f_dp(p,q) + q * f_dpdq(p,q), reduced per kind.

    This is the p-derivative of ``moment_integrand_factor``; the one-step
    correction weights the model gradient with it. Reduced forms:
      l2: -2 (no p dependence at all); kl: -1/q; chisq: -2p/q^2;
      hellinger: -1/(2 sqrt(p q)); tv: -nu''(p - q)/2.
    """
    if spec.kind == "l2":
        return np.broadcast_to(-2.0, np.broadcast_shapes(np.shape(p), np.shape(q))).copy()
    if spec.kind == "tv":
        diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        return -abs_smooth_d2(diff, spec.tv_t, spec.tv_kind) / 2.0
    p, q = clamp_densities(spec, p, q)
    if spec.kind == "kl":
        return -1.0 / q
    if spec.kind == "chisq":
        return -2.0 * p / q**2
    return -0.5 / np.sqrt(p * q)
