"""Model selection via pseudo squared-L2 risk and linear aggregation of candidates.

Selection scores each candidate density with an estimable risk that differs
from its true squared-L2 distance to the counterfactual density only by a
candidate-independent constant, so the argmin is unchanged. Aggregation
orthonormalizes the candidate span and runs the closed-form doubly-robust
series fit on a held-out split, then averages over every fold role.

Both run one candidate loop per fold role: the held-out fold's nuisances are
fit on the training rows first, so a level absent from them fails the run
with a DataError naming it; then every still-feasible candidate is fit on the
same training rows by `_fit_candidates`, which stops at the candidate's
certified root: only its density is read, so no sandwich is built. A
candidate whose fit raises a package error is infeasible and left out.
Fixed densities are labelled ``fixed[i]`` by their position among the
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import EvalGrid, FoldPlan, ObservationTable, check_candidate, make_folds
from .distances import DistanceSpec
from .errors import CfdensError, DataError
from .models import ExponentialFamily, clip_to_density, tabulate
# cross_fit is not called here; perfbench/tracing.py wraps this module's binding of it
from .nuisance import NuisanceConfig, cross_fit, fold_stream, single_split  # noqa: F401
# solve_onestep is not called here; perfbench/tracing.py wraps this module's binding of it
from .projection import certified_root, dr_scores, solve_onestep  # noqa: F401

INNER_FOLDS = 2         # inner cross-fit of candidate fits on each training split
DROP_TOL = 1e-8         # Gram-Schmidt: residual L2 norm below which a curve adds nothing


@dataclass
class RiskTable:
    labels: list
    risks: np.ndarray
    ses: np.ndarray
    chosen: int
    infeasible: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def chosen_label(self):
        return self.labels[self.chosen]


@dataclass
class AggregateEstimate:
    weights: np.ndarray          # per-candidate linear weights, 0 for infeasible ones
    density: np.ndarray          # clipped aggregate on the grid
    dropped: list                # candidate indices adding no new direction
    meta: dict
    infeasible: list             # labels of candidates whose fit failed
    warnings: list


def _labels(candidates):
    """Each candidate's label; ``DataError`` for an empty list."""
    if len(candidates) < 1:
        raise DataError("need at least one candidate")
    return [c.label if hasattr(c, "label") else f"fixed[{i}]"
            for i, c in enumerate(candidates)]


def _fit_candidates(train, grid, level, nuis_config, seed, candidates, labels, failed,
                    warnings):
    """{index: density} of the candidates not yet ``failed``, fit on ``train``.

    Model candidates of any dimension share one inner cross-fit of the
    nuisances, run when the first of them needs it. A root reads only each
    inner fold's p_hat, d_hat and size, so each fold's eta is dropped as the
    fold comes off ``fold_stream``. A model candidate's density is g at its
    ``certified_root``, clipped to a density, so it is feasible whenever its
    root is. Fixed densities pass through. Every density is checked by
    ``data.check_candidate``. A CfdensError or LinAlgError, a mis-shaped or
    non-finite density included, marks its candidate failed with a warning;
    other exceptions propagate. If no candidate is left, the DataError
    carries every candidate's reason.
    """
    folds_nuis = None
    dens = {}
    for i, cand in enumerate(candidates):
        if failed[i]:
            continue
        try:
            g = cand
            if not isinstance(cand, np.ndarray):
                if folds_nuis is None:
                    # map drops each fold before the stream fits the next
                    stream = fold_stream(train, make_folds(train.n, INNER_FOLDS, seed),
                                         (level,), grid, nuis_config)
                    folds_nuis = list(map(lambda fold: replace(fold, eta={}), stream))
                distance = DistanceSpec("kl" if isinstance(cand, ExponentialFamily) else "l2")
                beta_hat, _ = certified_root(distance, cand, folds_nuis, level, grid)
                g = clip_to_density(tabulate(cand, beta_hat, grid)[0], grid)
            dens[i] = check_candidate(g, grid)
        except (CfdensError, np.linalg.LinAlgError) as exc:  # data-dependent failure
            failed[i] = True
            warnings.append(f"candidate {labels[i]} infeasible: {exc}")
    if not dens:
        raise DataError("every candidate failed to fit: " + "; ".join(warnings))
    return dens


def select_model(table: ObservationTable, folds: FoldPlan, level, candidates,
                 grid: EvalGrid, nuis_config: NuisanceConfig = NuisanceConfig()
                 ) -> RiskTable:
    """Pick the pseudo-risk argmin over candidate models or fixed densities.

    For every fold role, nuisances are fit on the training folds, model
    candidates are fit on the same training folds (with their own inner
    cross-fitting) and clipped to densities, and all still-feasible candidates
    are scored on the held-out fold in one stacked call. A candidate g's
    per-row summand is
        -2 [ 1(A=a)/pi_hat {g(Y) - int g eta_hat} + int g eta_hat ] + int g^2,
    -2 x its raw doubly-robust summand (``dr_scores``) plus int g^2. The
    summands pool across roles: the risk is their mean and its standard
    error their standard deviation (ddof 1) over sqrt(n). The risk equals the
    one-step squared-L2 distance to g (``effect_fixed_candidate``) up to a
    term that does not involve g, so the two rank candidates alike. Ties
    break to the earlier (smaller-dimension) candidate. Infeasible
    candidates get risk inf.
    """
    labels = _labels(candidates)
    k = len(candidates)
    failed = [False] * k
    warnings = []
    scored = []     # per role: (n_ev, k) summands, NaN for candidates not fit
    for j, train_idx, eval_idx in folds.splits():
        fold = single_split(table, train_idx, eval_idx, (level,), grid, nuis_config)
        dens = _fit_candidates(table.rows(train_idx), grid, level, nuis_config,
                               folds.seed + 7 * j + 1, candidates, labels, failed, warnings)
        stack = np.column_stack(list(dens.values()))
        role = np.full((len(eval_idx), k), np.nan)
        role[:, list(dens)] = (-2.0 * dr_scores(table, fold, level, stack, grid)
                               + grid.integrate(stack**2))
        scored.append(role)
    summands = np.concatenate(scored)
    risks = summands.mean(axis=0)
    ses = summands.std(axis=0, ddof=1) / np.sqrt(len(summands))
    risks[failed] = np.inf
    return RiskTable(labels=labels, risks=risks, ses=ses, chosen=int(np.argmin(risks)),
                     infeasible=[labels[i] for i in range(k) if failed[i]],
                     warnings=warnings)


def _gram_schmidt(curves, grid):
    """Orthonormalize curves in L2([0,1]) under the grid inner product.

    Returns (ortho (R, G), coef (R, K), dropped) with
    ortho[r] = sum_k coef[r, k] * curves[k].
    """
    kcount = len(curves)
    ortho, coef, dropped = [], [], []
    for k_i, raw in enumerate(curves):
        v = np.asarray(raw, dtype=float).copy()
        c = np.zeros(kcount)
        c[k_i] = 1.0
        for e, ce in zip(ortho, coef):
            proj = float(grid.integrate(v * e))
            v -= proj * e
            c -= proj * ce
        norm = float(np.sqrt(max(grid.integrate(v * v), 0.0)))
        if norm < DROP_TOL:
            dropped.append(k_i)
            continue
        ortho.append(v / norm)
        coef.append(c / norm)
    if not ortho:
        raise DataError("candidate set spans no direction")
    return np.array(ortho), np.array(coef), dropped


def aggregate_linear(table: ObservationTable, folds: FoldPlan, level, candidates,
                     grid: EvalGrid, nuis_config: NuisanceConfig = NuisanceConfig()
                     ) -> AggregateEstimate:
    """Linear aggregation of candidate densities under squared-L2 distance.

    Per fold role: fit the held-out nuisances and then the model candidates on
    the training rows, orthonormalize the curves of the candidates feasible in
    every role on the grid, run the closed-form doubly-robust series fit (zero
    base density) on the held-out rows, and map the coefficients back to
    candidate weights (0 for an infeasible one). Every fold role is averaged
    in, and the averaged aggregate is clipped to a density. Ratio-based
    divergences are undefined for general linear combinations, so aggregation
    is squared-L2 only.
    """
    labels = _labels(candidates)
    kcount = len(candidates)
    failed = [False] * kcount
    warnings = []
    roles = []      # per role: (candidate curves by index, held-out d_hat)
    for j, train_idx, eval_idx in folds.splits():
        d_hat = single_split(table, train_idx, eval_idx, (level,), grid,
                             nuis_config).d_hat[level]
        curves = _fit_candidates(table.rows(train_idx), grid, level, nuis_config,
                                 folds.seed + 11 * j + 3, candidates, labels, failed, warnings)
        roles.append((curves, d_hat))
    feasible = [i for i in range(kcount) if not failed[i]]
    weight_acc = np.zeros(kcount)
    density_acc = np.zeros(grid.size)
    dropped_all = set()
    for curves, d_hat in roles:
        ortho, coef, dropped = _gram_schmidt([curves[i] for i in feasible], grid)
        dropped_all.update(feasible[k] for k in dropped)
        # closed-form doubly-robust coefficients on the orthonormalized span
        theta = d_hat @ ortho.T
        weight_acc[feasible] += theta @ coef
        density_acc += theta @ ortho
    nroles = folds.k_folds
    density = clip_to_density(density_acc / nroles, grid)
    return AggregateEstimate(
        weights=weight_acc / nroles, density=density, dropped=sorted(dropped_all),
        meta={"roles": nroles, "seed": folds.seed, "n": table.n,
              "level": int(level)},
        infeasible=[labels[i] for i in range(kcount) if failed[i]],
        warnings=warnings)
