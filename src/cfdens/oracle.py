"""Synthetic data-generating processes, brute-force oracles, and the MC harness.

The DGPs carry closed-form propensities and conditional densities on [0,1],
so population targets (projection coefficients, density effects) can be
computed by quadrature and Nelder-Mead / root-finding, independently of the
estimation path they validate. The Monte-Carlo runner is a pure function of
its descriptor: per-rep RNG streams derive from (seed, n index, rep).

Two constants fix the oracles' effort. Every mean over the covariates
X ~ U([0,1]^d), a design's marginal E_X[eta(.|X)] and each term of the
remainder harness, is the tensor Gauss-Legendre rule of ``X_NODES`` points
per axis (``X_NODES**d`` nodes, 576 for the shipped d = 2 designs), exact to
rounding for their smooth eta. The Nelder-Mead projection oracle starts from
``NM_STARTS`` points (zero, then jittered from seed 0).

The remainder harness tilts both nuisances of one arm along one fixed
direction: pi + s*eps*u(x) and eta + s*eps*v(x, y), with
u = 0.5 sin(3 x_1) cos(2 x_2) and v = 0.3 (0.5 + 0.5 x_1) cos(2 pi y). v is
mean-zero in y, so the tilted eta still integrates to 1. The sign s is +1,
and -1 for the second arm of a density effect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, ndtr, ndtri

from .data import EvalGrid, ObservationTable, make_folds, make_grid
from .distances import DistanceSpec, divergence
from .effects import effect_onestep
from .eif import effect_curves
from .errors import CfdensError, DataError
from .models import CosineBasis, TruncatedSeries, g_on_grid, parse_model
from .nuisance import NuisanceConfig, cross_fit, tabulate_nuisances
from .projection import _damped_newton, moment, solve_onestep

X_NODES = 24
NM_STARTS = 5

# ---------------------------------------------------------------------------
# truncated-normal building blocks (support [0,1], vectorized in the mean)


def truncnorm_pdf(points, mu, sigma):
    """Density of N(mu, sigma^2) truncated to [0,1]; mu may be (n,), points (G,)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    z = (points[None, :] - mu[:, None]) / sigma
    mass = ndtr((1.0 - mu) / sigma) - ndtr((0.0 - mu) / sigma)
    dens = np.exp(-0.5 * z**2) / (sigma * np.sqrt(2.0 * np.pi))
    return dens / mass[:, None]


def truncnorm_sample(mu, sigma, rng):
    mu = np.asarray(mu, dtype=float)
    lo = ndtr((0.0 - mu) / sigma)
    hi = ndtr((1.0 - mu) / sigma)
    u = rng.uniform(size=mu.shape)
    return mu + sigma * ndtri(lo + u * (hi - lo))


def cosine_series_pdf(points, coefs):
    coefs = np.atleast_1d(np.asarray(coefs, dtype=float))
    return 1.0 + CosineBasis(len(coefs)).eval(points) @ coefs


def cosine_series_sample(n, rng, coefs):
    # rejection against the uniform envelope
    peak = 1.0 + np.sqrt(2.0) * np.sum(np.abs(coefs))
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = int((n - filled) * peak * 1.3) + 16
        y = rng.uniform(size=m)
        keep = rng.uniform(size=m) * peak <= cosine_series_pdf(y, coefs)
        take = min(n - filled, int(keep.sum()))
        out[filled:filled + take] = y[keep][:take]
        filled += take
    return out


def tensor_uniform_quad(m, d):
    """Tensor Gauss-Legendre rule (nodes, weights) for means over X ~ U([0,1]^d)."""
    rule = make_grid(m, "gauss_legendre")
    x = np.column_stack([g.ravel() for g in np.meshgrid(*([rule.points] * d), indexing="ij")])
    weight = np.ones(len(x))
    for w in np.meshgrid(*([rule.weights] * d), indexing="ij"):
        weight *= w.ravel()
    return x, weight


# ---------------------------------------------------------------------------
# DGP library


@dataclass(frozen=True)
class SyntheticDGP:
    """A synthetic observational design with analytic truth.

    ``pi_fn(x, level)`` and ``eta_fn(x, level, points)`` are the closed-form
    nuisances; ``sampler(x, a, rng)`` draws outcomes given covariates and
    treatment. Covariates are uniform on [0,1]^d.
    """

    name: str
    d: int
    levels: tuple
    pi_fn: object
    eta_fn: object
    sampler: object

    def sample(self, n, rng) -> ObservationTable:
        x = rng.uniform(size=(n, self.d))
        probs = np.column_stack([self.pi_fn(x, lev) for lev in self.levels])
        u = rng.uniform(size=n)
        cum = np.cumsum(probs, axis=1)
        a_idx = (u[:, None] > cum).sum(axis=1)
        a = np.asarray(self.levels, dtype=int)[a_idx]
        y = self.sampler(x, a, rng)
        return ObservationTable(x, a, np.clip(y, 0.0, 1.0), (0.0, 1.0))

    def marginal(self, level, grid: EvalGrid):
        """True counterfactual marginal p_level = E_X[eta(.|X, level)] on the grid.

        The mean over X ~ U([0,1]^d) is ``tensor_uniform_quad(X_NODES, d)``,
        whatever coordinates of x eta depends on.
        """
        x, w = tensor_uniform_quad(X_NODES, self.d)
        return w @ self.eta_fn(x, level, grid.points)


def _two_arm(p1, level):
    """Propensity of ``level`` in a two-arm design with P(A = 1 | x) = p1."""
    return p1 if level == 1 else 1.0 - p1


def _tn_dgp(name, base, shift, slope, sigma, pi1_fn):
    """Two-level design whose outcome given (x, a) is N(mean, sigma^2) truncated
    to [0, 1], with mean = base + shift 1(a = 1) + slope (x_1 - 1/2)."""

    def mean_fn(x, level):
        lvl = np.broadcast_to(level, (len(x),))
        return base + shift * (lvl == 1) + slope * (x[:, 0] - 0.5)

    def pi_fn(x, level):
        return _two_arm(pi1_fn(x), level)

    def eta_fn(x, level, points):
        return truncnorm_pdf(points, mean_fn(x, level), sigma)

    def sampler(x, a, rng):
        return truncnorm_sample(mean_fn(x, a), sigma, rng)

    return SyntheticDGP(name=name, d=2, levels=(0, 1), pi_fn=pi_fn,
                        eta_fn=eta_fn, sampler=sampler)


def _mixture_dgp():
    w_hi = {0: 0.55, 1: 0.45}
    m_lo = {0: 0.30, 1: 0.34}
    m_hi = {0: 0.68, 1: 0.72}
    s_lo, s_hi = 0.10, 0.11

    def comp_means(x, level):
        lvl = np.broadcast_to(level, (len(x),))
        lo = np.where(lvl == 1, m_lo[1], m_lo[0]) + 0.05 * (x[:, 0] - 0.5)
        hi = np.where(lvl == 1, m_hi[1], m_hi[0])
        w = np.where(lvl == 1, w_hi[1], w_hi[0])
        return w, lo, hi

    def pi_fn(x, level):
        return _two_arm(expit(0.4 * (x[:, 0] - 0.5)), level)

    def eta_fn(x, level, points):
        w, lo, hi = comp_means(x, level)
        return (w[:, None] * truncnorm_pdf(points, lo, s_lo)
                + (1.0 - w)[:, None] * truncnorm_pdf(points, hi, s_hi))

    def sampler(x, a, rng):
        w, lo, hi = comp_means(x, a)
        pick_lo = rng.uniform(size=len(x)) < w
        y = np.empty(len(x))
        if pick_lo.any():
            y[pick_lo] = truncnorm_sample(lo[pick_lo], s_lo, rng)
        if (~pick_lo).any():
            y[~pick_lo] = truncnorm_sample(hi[~pick_lo], s_hi, rng)
        return y

    return SyntheticDGP(name="bimodal_mixture", d=2, levels=(0, 1), pi_fn=pi_fn,
                        eta_fn=eta_fn, sampler=sampler)


def cosine_series_dgp(coefs, name="cosine_series") -> SyntheticDGP:
    """Randomized two-arm design: arm 1 draws from the cosine-series density
    with the given coefficients, arm 0 from the uniform; covariates are inert.
    """
    coefs = np.atleast_1d(np.asarray(coefs, dtype=float))
    if 1.0 - np.sqrt(2.0) * np.sum(np.abs(coefs)) <= 0:
        raise DataError("series coefficients too large for a positive density")

    def pi_fn(x, level):
        return np.full(len(x), 0.5)

    def eta_fn(x, level, points):
        lvl = np.broadcast_to(level, (len(x),))
        curve1 = cosine_series_pdf(points, coefs)
        out = np.ones((len(x), len(points)))
        out[lvl == 1] = curve1
        return out

    def sampler(x, a, rng):
        y = rng.uniform(size=len(x))
        hit = np.asarray(a) == 1
        if hit.any():
            y[hit] = cosine_series_sample(int(hit.sum()), rng, coefs)
        return y

    return SyntheticDGP(name=name, d=2, levels=(0, 1), pi_fn=pi_fn,
                        eta_fn=eta_fn, sampler=sampler)


def dgp_library():
    """The shipped synthetic designs, keyed by name.

    randomized_shift: randomized arms, mean-shifted truncated normals.
    confounded_shift: logistic confounding in both arms and the outcome mean.
    null_equal:       identical conditional densities in both arms (shift 0).
    bimodal_mixture:  two-component truncated mixtures, arm-dependent shape.
    cosine_bump:      randomized; arm 1 has one active cosine coefficient
                      (squared-L2 effect vs the uniform arm is exactly 0.25).

    The first three are ``_tn_dgp`` designs, one truncated-normal rule with
    their own (base, shift, slope, sigma) and propensity.
    """
    return {
        "randomized_shift": _tn_dgp("randomized_shift", 0.40, 0.15, 0.10, 0.25,
                                    lambda x: np.full(len(x), 0.5)),
        "confounded_shift": _tn_dgp("confounded_shift", 0.40, 0.18, 0.12, 0.27,
                                    lambda x: expit(x[:, 0] - x[:, 1] + 0.2)),
        "null_equal": _tn_dgp("null_equal", 0.45, 0.0, 0.12, 0.26,
                              lambda x: expit(0.5 * (x[:, 0] - x[:, 1]))),
        "bimodal_mixture": _mixture_dgp(),
        "cosine_bump": cosine_series_dgp([0.5], name="cosine_bump"),
    }


def get_dgp(name) -> SyntheticDGP:
    lib = dgp_library()
    if name not in lib:
        raise DataError(f"unknown DGP {name!r}; have {sorted(lib)}")
    return lib[name]


# ---------------------------------------------------------------------------
# population oracles


@dataclass
class OracleResult:
    beta_star: np.ndarray
    method: str
    moment_norm: float
    nm_beta: np.ndarray | None = None
    warnings: list = field(default_factory=list)


def oracle_projection(dgp: SyntheticDGP, level, model, distance: DistanceSpec,
                      grid: EvalGrid, p_a=None) -> OracleResult:
    """Population projection coefficients by two independent routes.

    Squared-L2 on the cosine series has the closed form beta_j = int b_j p.
    Otherwise: Nelder-Mead minimization of the divergence from ``NM_STARTS``
    starts (zero, then jittered from seed 0), cross-checked and polished by
    a Newton root of the population moment (reported when its residual is
    below 1e-6). Disagreement between starts beyond 1e-3 in their minimized
    divergence flags multimodality.
    """
    if p_a is None:
        p_a = dgp.marginal(level, grid)
    p_a = np.asarray(p_a, dtype=float)
    if distance.kind == "l2" and isinstance(model, TruncatedSeries):
        basis_tab = model.basis.eval(grid.points)
        beta = grid.integrate(basis_tab * p_a[:, None])
        return OracleResult(
            beta_star=beta, method="closed_form",
            moment_norm=float(np.linalg.norm(moment(distance, model, beta, p_a, grid))))

    def objective(beta):
        return divergence(distance, p_a, g_on_grid(model, beta, grid), grid)

    rng = np.random.default_rng(0)
    minima = []
    for s in range(NM_STARTS):
        start = np.zeros(model.beta_dim) if s == 0 else rng.normal(0.0, 0.25, model.beta_dim)
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000,
                                "maxfev": 10000})
        minima.append((float(res.fun), np.asarray(res.x)))
    minima.sort(key=lambda t: t[0])
    best_val, nm_beta = minima[0]
    warnings = []
    if minima[-1][0] - best_val > 1e-3:
        warnings.append("starts disagree beyond 1e-3 in achieved divergence; "
                        "possible multimodality")
    beta_root, resid, _, _ = _damped_newton(
        lambda b: moment(distance, model, b, p_a, grid), nm_beta, tol=1e-12, max_iter=200)
    moment_norm = float(np.linalg.norm(resid))
    beta_star = beta_root if moment_norm < 1e-6 else nm_beta
    method = "nelder_mead+moment_root" if moment_norm < 1e-6 else "nelder_mead"
    if moment_norm >= 1e-6:
        warnings.append(f"moment residual {moment_norm:.2e} above 1e-6 after polish")
    return OracleResult(beta_star=np.asarray(beta_star), method=method,
                        moment_norm=moment_norm, nm_beta=nm_beta, warnings=warnings)


def oracle_effect(dgp: SyntheticDGP, distance: DistanceSpec, grid: EvalGrid,
                  levels=(1, 0)) -> float:
    p1 = dgp.marginal(levels[0], grid)
    p0 = dgp.marginal(levels[1], grid)
    return divergence(distance, p1, p0, grid)


# ---------------------------------------------------------------------------
# Monte-Carlo harness


@dataclass(frozen=True)
class Experiment:
    """Descriptor for a deterministic Monte-Carlo run.

    Every experiment is squared-L2: a projection experiment estimates the
    projection of p_1, an effect experiment the effect between levels (1, 0).
    """

    name: str
    dgp: str = "confounded_shift"
    estimator: str = "projection"        # projection | effect
    n_values: tuple = (2000,)
    reps: int = 50
    seed: int = 0
    model: str = "series:d=3"
    k_folds: int = 2
    grid_size: int = 128
    nuisance: NuisanceConfig = NuisanceConfig()
    nuisance_mode: str = "fitted"        # fitted | true | wrong_pi_true_eta | true_pi_fitted_eta


@dataclass
class McResult:
    oracle: object
    records: list
    summary: dict


def _fold_nuisances(exp: Experiment, dgp: SyntheticDGP, table, folds, grid, levels):
    mode = exp.nuisance_mode
    if mode == "fitted":
        return cross_fit(table, folds, levels, grid, exp.nuisance)
    if mode == "true":
        return [tabulate_nuisances(table, np.arange(table.n), levels, grid,
                                   dgp.pi_fn, dgp.eta_fn)]
    if mode == "wrong_pi_true_eta":
        def pi_const(x, level):
            return _two_arm(np.full(len(x), 0.5), level)

        return [tabulate_nuisances(table, np.arange(table.n), levels, grid,
                                   pi_const, dgp.eta_fn)]
    if mode == "true_pi_fitted_eta":
        return cross_fit(table, folds, levels, grid, exp.nuisance, pi_fn=dgp.pi_fn)
    raise DataError(f"unknown nuisance mode {mode!r}")


def mc_run(exp: Experiment) -> McResult:
    """Run the experiment; bit-identical output for identical descriptors.

    Per (n, rep): draw data, estimate, record (estimate, se, CI coverage of
    the oracle target, runtime). A CfdensError or LinAlgError fails the rep;
    any other exception propagates. Summaries aggregate bias / RMSE /
    coverage per n.
    """
    if exp.reps < 2:
        raise DataError("need reps >= 2")
    if exp.seed < 0:
        raise DataError(f"need seed >= 0, got {exp.seed}")
    dgp = get_dgp(exp.dgp)
    grid = make_grid(exp.grid_size, "trapezoid")
    distance = DistanceSpec("l2")
    if exp.estimator == "projection":
        levels = (1,)
        model = parse_model(exp.model)
        oracle = oracle_projection(dgp, 1, model, distance, grid)
        target = oracle.beta_star
    elif exp.estimator == "effect":
        levels = (1, 0)
        oracle = oracle_effect(dgp, distance, grid, levels)
        target = oracle
    else:
        raise DataError(f"unknown estimator {exp.estimator!r}")

    records = []
    for i_n, n in enumerate(exp.n_values):
        for rep in range(exp.reps):
            rng = np.random.default_rng([exp.seed, i_n, rep])
            table = dgp.sample(n, rng)
            t0 = time.perf_counter()
            rec = {"n": int(n), "rep": int(rep), "failed": False}
            try:
                folds = make_folds(n, exp.k_folds, seed=exp.seed + 7919 * i_n + rep)
                folds_nuis = _fold_nuisances(exp, dgp, table, folds, grid, levels)
                if exp.estimator == "projection":
                    est = solve_onestep(distance, model, table, folds_nuis, 1, grid)
                    err = est.beta_hat - target
                    rec.update({
                        "estimate": est.beta_hat.tolist(),
                        "se": est.se.tolist(),
                        "error": err.tolist(),
                        "cover": [(lo <= t <= hi) for (lo, hi), t
                                  in zip(est.wald_ci, target)],
                    })
                else:
                    est = effect_onestep(distance, table, folds_nuis, grid, levels)
                    rec.update({
                        "estimate": est.psi_hat,
                        "se": est.se,
                        "error": est.psi_hat - target,
                        "cover": est.ci_wald[0] <= target <= est.ci_wald[1],
                        "cover_conservative": (est.ci_conservative[0] <= target
                                               <= est.ci_conservative[1]),
                        "near_null": est.near_null,
                    })
            except (CfdensError, np.linalg.LinAlgError) as exc:  # failures are data
                rec["failed"] = True
                rec["error_message"] = str(exc)
            rec["runtime"] = time.perf_counter() - t0
            records.append(rec)
    return McResult(oracle=oracle, records=records, summary=_summarize(exp, records))


def _summarize(exp, records):
    out = {}
    for n in exp.n_values:
        rows = [r for r in records if r["n"] == n and not r["failed"]]
        failures = sum(1 for r in records if r["n"] == n and r["failed"])
        entry = {"reps": len(rows), "failures": failures}
        if rows:
            err = np.array([r["error"] for r in rows], dtype=float).reshape(len(rows), -1)
            entry["bias"] = err.mean(axis=0).tolist()
            entry["rmse"] = np.sqrt((err**2).mean(axis=0)).tolist()
            cov = np.array([r["cover"] for r in rows], dtype=float).reshape(len(rows), -1)
            entry["coverage"] = cov.mean(axis=0).tolist()
            if "cover_conservative" in rows[0]:
                entry["coverage_conservative"] = float(
                    np.mean([r["cover_conservative"] for r in rows]))
        out[int(n)] = entry
    return out


EXPERIMENTS = {
    "projection-coverage": Experiment(
        name="projection-coverage", dgp="confounded_shift", estimator="projection",
        n_values=(2000,), reps=100, model="series:d=3"),
    "projection-rate": Experiment(
        name="projection-rate", dgp="confounded_shift", estimator="projection",
        n_values=(1000, 4000), reps=50, model="series:d=3"),
    "effect-coverage": Experiment(
        name="effect-coverage", dgp="cosine_bump", estimator="effect",
        n_values=(4000,), reps=100),
    "effect-null": Experiment(
        name="effect-null", dgp="null_equal", estimator="effect",
        n_values=(2000,), reps=100),
}


# ---------------------------------------------------------------------------
# quadrature harness for second-order remainders


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
    direction of the module docstring; with the covariate law fixed
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
