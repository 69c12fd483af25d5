"""Shared test oracles: the raw discrepancy table, the full outcome-kernel
matrix, finite-difference checks and small builders."""

import numpy as np

from cfdens.distances import abs_smooth, abs_smooth_d1, abs_smooth_d2

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


def random_density(grid, rng, wiggle=0.6, floor=0.05):
    """A strictly positive random density on the grid."""
    vals = 1.0 + wiggle * np.sin(2 * np.pi * rng.integers(1, 4) * grid.points) \
        + 0.2 * rng.normal(size=grid.size)
    vals = np.maximum(vals, floor)
    return vals / grid.integrate(vals)
