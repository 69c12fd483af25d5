"""Generalized distances D(p,q) = integral of f(p,q) q dy in reduced form.

The discrepancy f takes two arguments (density value p of the target, density
value q of the approximant), which covers squared-L2 alongside the classical
density-ratio divergences. The estimators never need f itself, only D and
three reduced factors, all from one call per (p, q): ``reduced_factors``
returns d/dq (f q) for the projection's moment, d/dp (f q) for the effect
transforms and the p-derivative of the first for the projection's
influence. This module holds that one representation, one branch per kind.
The full table of f and its partials lives in ``tests/helpers.py`` as the
independent reference it is checked against.

Floors: ratio/sqrt/log evaluations clamp q at ``Q_FLOOR`` and (for KL and
Hellinger) p at ``P_FLOOR`` so behavior on vanishing densities is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DistanceDomainError

Q_FLOOR = 1e-8
P_FLOOR = 1e-12

KINDS = ("l2", "kl", "chisq", "hellinger", "tv")


@dataclass(frozen=True)
class DistanceSpec:
    """One of {l2, kl, chisq, hellinger, tv}; tv carries its smoothing sharpness t."""

    kind: str
    tv_t: float = 50.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DistanceDomainError(f"unknown distance kind {self.kind!r}")
        if self.kind == "tv" and not (0.0 < self.tv_t < np.inf):  # nan fails too
            raise DistanceDomainError("tv smoothing parameter t must be positive and finite")

    @property
    def label(self):
        if self.kind == "tv":
            return f"tv:t={self.tv_t:g}"
        return self.kind


def parse_distance(text) -> DistanceSpec:
    """Parse CLI distance strings: l2 | kl | chisq | hellinger | tv[:t=50].

    Split as ``models.parse_model`` splits ``name:key=value``: the name is one
    of ``KINDS`` exactly, and only tv takes an option, its one ``t=<number>``.
    """
    text = text.strip().lower()
    name, colon, arg = text.partition(":")
    if name not in KINDS or (colon and name != "tv"):
        raise DistanceDomainError(f"unknown distance {text!r}")
    if not colon:
        return DistanceSpec(name)
    key, _, val = arg.partition("=")
    if key != "t":
        raise DistanceDomainError(f"unknown tv option {arg!r}")
    try:
        t = float(val)
    except ValueError:
        raise DistanceDomainError(f"tv option t={val!r} is not a number") from None
    return DistanceSpec("tv", tv_t=t)


# ---------------------------------------------------------------------------
# smooth absolute-value surrogate used by the smoothed total variation

def abs_smooth(y, t):
    """Even, smooth approximation nu(y) = y tanh(t y) of |y|; sharpness grows with t."""
    y = np.asarray(y, dtype=float)
    return y * np.tanh(t * y)


def _sech2(u):
    # 1/cosh^2 with overflow guard; exactly 0 in the saturated tail.
    u = np.clip(np.abs(u), 0.0, 300.0)
    return 1.0 / np.cosh(u) ** 2


def abs_smooth_d1(y, t):
    u = t * np.asarray(y, dtype=float)
    return np.tanh(u) + u * _sech2(u)


def abs_smooth_d2(y, t):
    u = t * np.asarray(y, dtype=float)
    return 2.0 * t * _sech2(u) * (1.0 - u * np.tanh(u))


# ---------------------------------------------------------------------------
# density-level helpers: clamp, then evaluate

def _grid_index(mask):
    """Last-axis (grid) index of the first set entry of mask, in C order."""
    return int(np.nonzero(np.atleast_1d(mask))[-1][0])


def clamp_densities(spec, p, q):
    """Validate and clamp a (target, approximant) density pair to the floors.

    The target p must be a genuine density: negative values raise. The
    approximant q may come from a signed model family (the identity-link
    series goes negative for some coefficients), so anything below the floor
    is treated as the floor; the ratio-based discrepancies then act as a
    smooth barrier against the invalid region. Either may be a stack of grid
    tabulations (..., G); an error names the grid index of the first bad
    entry, so a stack reports what its first bad row would alone.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, arr in (("p", p), ("q", q)):
        if not np.all(np.isfinite(arr)):
            idx = _grid_index(~np.isfinite(arr))
            raise DistanceDomainError(f"{spec.label}: non-finite {name} at grid index {idx}")
    if np.any(p < -1e-12):
        raise DistanceDomainError(f"{spec.label}: negative p at grid index "
                                  f"{_grid_index(p < -1e-12)}")
    p = np.maximum(p, P_FLOOR if spec.kind in ("kl", "hellinger") else 0.0)
    return p, np.maximum(q, Q_FLOOR)


def divergence(spec, p, q, grid):
    """D(p,q): quadrature of f(p,q) q over the grid.

    The integrand f(p,q) q is written per kind: (p-q)^2 for l2, so no floor
    is involved and the value is exact for clipped densities with zeros;
    (p/q) log(p/q) q for kl; (p/q - 1)^2 q for chisq; (sqrt(p/q) - 1)^2 q
    for hellinger; and nu(p - q)/2 for tv.
    """
    if spec.kind == "l2":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return float(grid.integrate((p - q) ** 2))
    p, q = clamp_densities(spec, p, q)
    if spec.kind == "tv":
        return float(grid.integrate(abs_smooth(p - q, spec.tv_t) / 2.0))
    if spec.kind == "kl":
        r = p / q
        return float(grid.integrate((r * np.log(r)) * q))
    if spec.kind == "chisq":
        return float(grid.integrate((p / q - 1.0) ** 2 * q))
    return float(grid.integrate((np.sqrt(p / q) - 1.0) ** 2 * q))


def reduced_factors(spec, p, q):
    """The three reduced factors of f(p,q) q at (p, q): (moment, effect, influence).

    moment is d/dq (f q) = f + q f_dq, the projection's moment integrand;
    effect is d/dp (f q) = q f_dp, the density-effect transform; influence is
    the p-derivative of moment, f_dp + q f_dpdq, which weights the model
    gradient in the projection's correction transform. Each is written in
    reduced form, algebraically identical to composing the table but free of
    0/0 at clipped densities:
      l2: 2(q - p), 2(p - q), -2 (no p dependence at all);
      kl: -p/q, log(p/q) + 1, -1/q;
      chisq: 1 - (p/q)^2, 2(p - q)/q, -2p/q^2;
      hellinger: 1 - sqrt(p/q), 1 - sqrt(q/p), -1/(2 sqrt(p q));
      tv: -nu'(p - q)/2, nu'(p - q)/2, -nu''(p - q)/2.
    For l2 and tv, f(p,q) q depends on p - q alone, so effect is -moment and
    no floor applies. The kl moment keeps the exact q-derivative of f(p,q) q;
    it differs from the familiar 1 - p/q by a constant that integrates to
    zero against the coefficient gradient of any family with mass one for
    every beta.
    """
    if spec.kind == "l2":
        moment = 2.0 * (np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
        return moment, -moment, np.full_like(moment, -2.0)
    if spec.kind == "tv":
        diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        moment = -abs_smooth_d1(diff, spec.tv_t) / 2.0
        return moment, -moment, -abs_smooth_d2(diff, spec.tv_t) / 2.0
    p, q = clamp_densities(spec, p, q)
    r = p / q
    if spec.kind == "kl":
        return -r, np.log(r) + 1.0, -1.0 / q
    if spec.kind == "chisq":
        return 1.0 - r**2, 2.0 * (p - q) / q, -2.0 * p / q**2
    return 1.0 - np.sqrt(r), 1.0 - np.sqrt(1.0 / r), -0.5 / np.sqrt(p * q)
