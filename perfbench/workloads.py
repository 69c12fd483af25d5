"""The four benchmark workloads: inputs from a seed, operations, correctness checks.

Each workload runs in samples. Sample ``k`` of a run with seed ``s`` draws its
own input from ``(s, k)``, so a run sees several datasets and its median is not
set by one unlucky draw. Only the generated CSV files and command-line or
library arguments reach the program.

An operation's result is a dict ``{"op", "status", "out", "error"}`` with
status ``ok``, ``known_failure`` (a solver failure listed in KNOWN_FAILURES,
which fails at the seed commit) or ``error`` (anything else that raises or
exits non-zero). ``check`` turns results into verdicts.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DESIGN = "confounded_shift"
MC_TRUTH = 0.25                 # analytic squared-L2 effect of the cosine_bump design

# Tolerance against the outputs recorded at the seed commit (reference.json).
REF_RTOL = 1e-6
REF_ATOL = 1e-9
REF_SKIP = {"density_grid_unit"}
# Tolerance against the population oracle: |estimate - truth| <= Z * se + ABS.
ORACLE_Z = 6.0
ORACLE_ABS = 0.03

# (model, distance) pairs whose solve fails at the seed commit on this design:
# tv:t=50 on series:d=4 always; gmm:k=2 depending on the data (over-specified
# mixture on a unimodal density). A failure of one of these with a solver
# error is the recorded outcome, not a miss; any other failure is a miss.
KNOWN_FAILURES = {("series:d=4", "tv:t=50"), ("gmm:k=2", "l2"), ("gmm:k=2", "kl"),
                  ("gmm:k=2", "hellinger")}
KNOWN_FAILURE_TYPES = {"SolverError", "InfeasibleMomentError", "RankError"}

SWEEP_SOLVES = [
    ("series:d=4", "l2"), ("series:d=8", "l2"),
    ("expfam:d=4", "kl"), ("expfam:d=8", "kl"),
    ("expfam:d=4", "hellinger"), ("expfam:d=8", "hellinger"),
    ("expfam:d=4", "chisq"),
    ("series:d=4", "tv:t=50"),
    ("gmm:k=1", "l2"),
    ("gmm:k=2", "l2"), ("gmm:k=2", "kl"), ("gmm:k=2", "hellinger"),
]
SWEEP_EFFECTS = ["l2", "kl", "chisq", "hellinger", "tv:t=50"]
# projections with a cheap, unimodal population oracle
ORACLE_SOLVES = {("series:d=4", "l2"), ("series:d=8", "l2"), ("expfam:d=4", "kl"),
                 ("expfam:d=8", "kl"), ("expfam:d=4", "hellinger"), ("gmm:k=1", "l2")}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    grid: int
    folds: int
    reps: int = 0               # mc-effect only


WORKLOADS = {
    "effect-8k": Workload("effect-8k", n=8000, grid=512, folds=5),
    "sweep-2k": Workload("sweep-2k", n=2000, grid=512, folds=5),
    "select-4k": Workload("select-4k", n=4000, grid=512, folds=5),
    "mc-effect": Workload("mc-effect", n=4000, grid=128, folds=2, reps=16),
}
TINY = {
    "effect-8k": Workload("effect-8k", n=400, grid=64, folds=2),
    "sweep-2k": Workload("sweep-2k", n=1000, grid=64, folds=2),
    "select-4k": Workload("select-4k", n=400, grid=64, folds=2),
    "mc-effect": Workload("mc-effect", n=4000, grid=128, folds=2, reps=4),
}


def sample_key(seed, k):
    return f"{seed}:{k}"


def cli_seed(seed, k):
    """Fold / experiment seed handed to the program; never 0 (0 means 'default')."""
    return 1 + k + 1000 * seed


def write_csv(path, table):
    # repr(float(v)): under numpy 2, repr(np.float64) is 'np.float64(...)'
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "a", "y"])
        for (x1, x2), a, y in zip(table.x, table.a, table.y):
            w.writerow([repr(float(x1)), repr(float(x2)), int(a), repr(float(y))])


def make_input(wl: Workload, seed, k, workdir, stream=None):
    """Write sample k's CSV (none for mc-effect); same (seed, k), same bytes."""
    if wl.name == "mc-effect":
        return None
    from cfdens.oracle import get_dgp

    streams = sorted(WORKLOADS) + ["probe"]
    rng = np.random.default_rng([seed, k, streams.index(stream or wl.name)])
    path = os.path.join(workdir, f"{stream or wl.name}-{seed}-{k}.csv")
    write_csv(path, get_dgp(DESIGN).sample(wl.n, rng))
    return path


# ---------------------------------------------------------------------------
# operations

def _cli(argv, out_path):
    """Run one CLI command in-process; returns (exit code, report or None, error)."""
    from cfdens import cli

    if os.path.exists(out_path):
        os.remove(out_path)
    try:
        code = cli.main(argv + ["--out", out_path])
    except SystemExit as exc:          # argparse rejects the arguments
        return int(exc.code or 2), None, "SystemExit"
    except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
        return 5, None, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return code, None, f"exit {code}"
    with open(out_path) as fh:
        return 0, json.load(fh)["results"], ""


def _cli_result(op, argv, out_path, keep):
    code, res, err = _cli(argv, out_path)
    if code != 0:
        return {"op": op, "status": "error", "out": {}, "error": err}
    return {"op": op, "status": "ok", "out": {k: res[k] for k in keep}, "error": ""}


def _data_args(path, seed, k):
    return ["--data", path, "--x-cols", "x1,x2", "--seed", str(cli_seed(seed, k))]


def _grid_args(wl):
    return ["--grid", str(wl.grid), "--folds", str(wl.folds)]


def run_effect(wl, path, seed, k, workdir, ctx):
    argv = (["density-effect"] + _data_args(path, seed, k) + _grid_args(wl)
            + ["--distance", "l2"])
    return [_cli_result("density-effect:l2", argv, os.path.join(workdir, "effect.json"),
                        ["psi", "psi_original_units", "se", "ci_wald", "ci_conservative"])]


def run_select(wl, path, seed, k, workdir, ctx):
    base = _data_args(path, seed, k) + _grid_args(wl)
    sel = _cli_result("select-model:1..8",
                      ["select-model"] + base + ["--dims", "1..8"],
                      os.path.join(workdir, "select.json"),
                      ["risks", "ses", "chosen_dim", "infeasible"])
    agg = _cli_result("aggregate:readme",
                      ["aggregate"] + base
                      + ["--candidates", "series:d=2,series:d=4,expfam:d=3"],
                      os.path.join(workdir, "aggregate.json"),
                      ["weights", "dropped", "density_grid_unit"])
    return [sel, agg]


def run_mc(wl, path, seed, k, workdir, ctx):
    argv = ["simulate", "--experiment", "effect-coverage", "--reps", str(wl.reps),
            "--seed", str(cli_seed(seed, k))]
    code, res, err = _cli(argv, os.path.join(workdir, "mc.json"))
    op = "simulate:effect-coverage"
    if code != 0:
        return [{"op": op, "status": "error", "out": {}, "error": err}]
    (summary,) = res["summary"].values()
    out = {"oracle": res["oracle"], **summary}
    if summary["failures"]:
        return [{"op": op, "status": "error", "out": out,
                 "error": f"{summary['failures']} failed reps"}]
    return [{"op": op, "status": "ok", "out": out, "error": ""}]


def _solve(op, model, dist, table, nuis, level, grid):
    from cfdens import projection
    from cfdens.distances import parse_distance
    from cfdens.models import parse_model

    try:
        est = projection.solve_onestep(parse_distance(dist), parse_model(model),
                                       table, nuis, level, grid)
    except Exception as exc:  # noqa: BLE001 - classified below
        kind = type(exc).__name__
        known = (model, dist) in KNOWN_FAILURES and kind in KNOWN_FAILURE_TYPES
        return {"op": op, "status": "known_failure" if known else "error",
                "out": {"error_type": kind}, "error": f"{kind}: {exc}"}
    return {"op": op, "status": "ok", "error": "",
            "out": {"beta": est.beta_hat.tolist(), "se": est.se.tolist(),
                    "iterations": est.solver_report.iterations}}


def _sweep_nuisances(wl, path, fold_seed):
    from cfdens import data, nuisance

    table = data.load_csv(path, ["x1", "x2"], "a", "y")
    grid = data.make_grid(wl.grid)
    folds = data.make_folds(table.n, wl.folds, fold_seed)
    return table, nuisance.cross_fit(table, folds, (0, 1), grid), grid


def prepare(wl, workdir):
    """Per-process state a workload needs besides its per-sample input.

    For sweep-2k: the nuisances of the probe dataset (sample (0, 0) of a
    stream of its own), fit here, untimed. See ``run_probe``.
    """
    if wl.name != "sweep-2k":
        return {}
    path = make_input(wl, 0, 0, workdir, stream="probe")
    probe = _sweep_nuisances(wl, path, cli_seed(0, 0))
    os.remove(path)
    return {"probe": probe}


def run_sweep(wl, path, seed, k, workdir, ctx):
    """Library pattern: one cross-fit for both arms, many estimands from it."""
    from cfdens import effects
    from cfdens.distances import parse_distance

    table, nuis, grid = _sweep_nuisances(wl, path, cli_seed(seed, k))
    results = [_solve(f"solve:{model}:{dist}:{level}", model, dist, table, nuis, level, grid)
               for model, dist in SWEEP_SOLVES if (model, dist) not in KNOWN_FAILURES
               for level in (0, 1)]
    for dist in SWEEP_EFFECTS:
        op = f"effect:{dist}"
        try:
            est = effects.effect_onestep(parse_distance(dist), table, nuis, grid, (1, 0))
        except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
            results.append({"op": op, "status": "error", "out": {},
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"op": op, "status": "ok", "error": "",
                        "out": {"psi": est.psi_hat, "se": est.se}})
    return results


def run_probe(ctx):
    """The KNOWN_FAILURES solves, once per run on the probe dataset, untimed.

    Whether and how slowly they fail depends on the data: a failing gmm:k=2
    fit can take ten times as long as one that converges. Timed on per-sample
    data they set the run-to-run spread of sweep-2k, so they are checked and
    counted (they lower solved_frac) but kept out of wall_s.
    """
    table, nuis, grid = ctx["probe"]
    return [_solve(f"probe:{model}:{dist}:{level}", model, dist, table, nuis, level, grid)
            for model, dist in SWEEP_SOLVES if (model, dist) in KNOWN_FAILURES
            for level in (0, 1)]


RUNNERS = {"effect-8k": run_effect, "sweep-2k": run_sweep,
           "select-4k": run_select, "mc-effect": run_mc}


# ---------------------------------------------------------------------------
# population truth (seed-independent; cached per checkout)

def oracle_table(wl: Workload, cache_path):
    """Truths the checks compare against, keyed by op name."""
    key = f"{wl.name}:{wl.grid}"
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            cache = json.load(fh)
    if key in cache:
        return cache[key]
    from cfdens.data import make_grid
    from cfdens.distances import parse_distance
    from cfdens.models import parse_model
    from cfdens.oracle import get_dgp, oracle_effect, oracle_projection

    dgp = get_dgp(DESIGN)
    grid = make_grid(wl.grid)
    truth = {}
    if wl.name in ("effect-8k", "sweep-2k"):
        for dist in SWEEP_EFFECTS:
            truth[f"effect:{dist}"] = oracle_effect(dgp, parse_distance(dist), grid, (1, 0))
    if wl.name == "sweep-2k":
        for model, dist in sorted(ORACLE_SOLVES):
            for level in (0, 1):
                res = oracle_projection(dgp, level, parse_model(model),
                                        parse_distance(dist), grid)
                truth[f"solve:{model}:{dist}:{level}"] = res.beta_star.tolist()
    if wl.name == "select-4k":
        truth["marginal:1"] = dgp.marginal(1, grid).tolist()
        truth["weights"] = grid.weights.tolist()
    cache[key] = truth
    with open(cache_path, "w") as fh:
        json.dump(cache, fh)
    return truth


# ---------------------------------------------------------------------------
# checks

def _leaves(v):
    if isinstance(v, (list, tuple)):
        for item in v:
            yield from _leaves(item)
    elif isinstance(v, dict):
        for key in sorted(v):
            yield from _leaves(v[key])
    else:
        yield v


def ref_view(out):
    """The part of an output kept in reference.json (grids are checked by the oracle)."""
    return {k: v for k, v in out.items() if k not in REF_SKIP}


def matches_reference(out, ref):
    """Same keys, same non-numeric leaves, numbers within REF_RTOL / REF_ATOL."""
    if sorted(out) != sorted(ref):
        return False
    a, b = list(_leaves(out)), list(_leaves(ref))
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not (math.isclose(x, y, rel_tol=REF_RTOL, abs_tol=REF_ATOL) if numbers else x == y):
            return False
    return True


def _near(est, truth, se):
    return abs(est - truth) <= ORACLE_Z * se + ORACLE_ABS


def _finite(out):
    return all(math.isfinite(v) for v in _leaves(out) if isinstance(v, float))


def _truth_verdict(wl, res, truth):
    """None when no truth applies, else (ok, "oracle ..." or "invariant ...")."""
    op, out = res["op"], res["out"]
    if wl.name == "effect-8k":
        t = truth["effect:l2"]
        scale = out["psi_original_units"] / out["psi"] if out["psi"] else 1.0
        ok = _near(out["psi_original_units"], t, out["se"] * scale)
        inside = out["ci_wald"][0] <= out["psi"] <= out["ci_wald"][1]
        return ok and inside, f"oracle psi={out['psi_original_units']:.5f} truth={t:.5f}"
    if wl.name == "sweep-2k" and op in truth:
        t = truth[op]
        if op.startswith("effect:"):
            return _near(out["psi"], t, out["se"]), f"oracle psi={out['psi']:.5f} truth={t:.5f}"
        ok = all(_near(b, tb, s) for b, tb, s in zip(out["beta"], t, out["se"]))
        gap = max(abs(b - tb) for b, tb in zip(out["beta"], t))
        return ok, f"oracle max |beta-truth|={gap:.4f}"
    if wl.name == "mc-effect":
        bias_tol = ORACLE_Z * out["rmse"][0] / math.sqrt(out["reps"]) + 0.01
        ok = (abs(out["oracle"] - MC_TRUTH) < 1e-3 and abs(out["bias"][0]) <= bias_tol
              and out["rmse"][0] <= 0.1 and out["coverage"][0] >= 0.5)
        return ok, f"oracle {out['oracle']:.6f}, bias={out['bias'][0]:.4f}"
    if wl.name == "select-4k" and op.startswith("aggregate"):
        w = np.asarray(truth["weights"])
        dens = np.asarray(out["density_grid_unit"])[:, 1]
        p1 = np.asarray(truth["marginal:1"])
        l2 = float(np.sqrt(w @ (dens - p1) ** 2))
        return l2 <= 0.25 and abs(float(w @ dens) - 1.0) < 1e-6, f"oracle L2 to truth={l2:.4f}"
    if wl.name == "select-4k":
        risks = [r for r in out["risks"] if r is not None]
        ok = bool(risks) and out["chosen_dim"] in range(1, 9)
        return ok, f"invariant chosen_dim={out['chosen_dim']}"
    return None


def check(wl, key, results, truth, reference):
    """Verdicts for one sample (or the probe): list of {"op", "ok", "known", "how"}."""
    ref = reference.get(key) if reference is not None else None
    verdicts = []
    for res in results:
        op = res["op"]
        how = []
        if res["status"] == "error":
            verdicts.append({"op": op, "ok": False, "known": False,
                             "how": res["error"][:160]})
            continue
        ok = True
        if ref is not None and op in ref:
            r = ref[op]
            if r["status"] == res["status"]:
                same = matches_reference(ref_view(res["out"]), r["out"])
                ok &= same
                how.append("reference " + ("match" if same else "MISMATCH"))
            elif res["status"] == "known_failure":
                ok = False
                how.append("reference solved, now fails")
            else:
                how.append("reference failed, now solved")
        if res["status"] == "known_failure":
            how.append(f"known failure ({res['out']['error_type']})")
        else:
            fin = _finite(res["out"])
            ok &= fin
            if not fin:
                how.append("non-finite output")
            verdict = _truth_verdict(wl, res, truth)
            if verdict is not None:
                ok &= verdict[0]
                how.append(verdict[1] + ("" if verdict[0] else " MISS"))
        verdicts.append({"op": op, "ok": bool(ok), "how": "; ".join(how),
                         "known": res["status"] == "known_failure"})
    return verdicts
