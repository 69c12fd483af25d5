"""Command-line front end: fit-projection, density-effect, select-model, aggregate, simulate.

Every run writes a JSON report embedding its resolved configuration and seed,
so a report can be replayed exactly; grids and tables go to CSV. Exit codes:
0 ok, 2 configuration, 3 data, 4 solver, 5 internal.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .data import load_csv, make_folds, make_grid
from .distances import parse_distance
from .effects import effect_onestep
from .errors import CfdensError, ConfigError, DataError, SolverError
from .models import TruncatedSeries, CosineBasis, parse_model
from .nuisance import NuisanceConfig, cross_fit, fold_stream
from .oracle import EXPERIMENTS, mc_run
from .projection import solve_onestep
from .selection import aggregate_linear, select_model


@dataclass
class RunConfig:
    command: str
    data: str = ""
    x_cols: tuple = ()
    a_col: str = "a"
    y_col: str = "y"
    missing_code: str | None = None
    model: str = "series:d=4"
    distance: str = "l2"
    level: int = 1
    level1: int = 1
    level0: int = 0
    dims: tuple = ()                # --dims text until _validate parses it
    candidates: tuple = ()
    folds: int = 5
    seed: int = 0
    grid: int = 512
    grid_rule: str = "trapezoid"
    clip_eps: float = 0.01
    nuisance_propensity: str = "logistic"
    nuisance_density: str = "nadaraya_watson"
    bandwidth: str = "silverman"
    experiment: str = ""
    reps: int = 0                   # 0: the experiment's own count; --reps takes >= 2
    out: str = ""
    csv_out: str = ""
    quick: bool = False


QUICK_GRID = 128


def _validate(cfg: RunConfig):
    """Collect every violated field before rejecting the run.

    A model may have at most G - 2 coefficients, G the grid size after
    ``--quick``: the cosine basis is orthonormal on the grid up to that size.
    """
    bad = []
    grid = min(cfg.grid, QUICK_GRID) if cfg.quick else cfg.grid

    def check_size(field, model):
        if cfg.grid >= 8 and model.beta_dim > grid - 2:
            bad.append(f"{field}: {model.label} has {model.beta_dim} coefficients, more "
                       f"than G - 2 = {grid - 2} on a grid of G = {grid} points")
    if cfg.command != "simulate":
        if not cfg.data:
            bad.append("data: input CSV path required")
        elif not os.path.exists(cfg.data):
            bad.append(f"data: no such file {cfg.data!r}")
        if not cfg.x_cols:
            bad.append("x-cols: at least one covariate column required")
        overlap = [c for c in cfg.x_cols if c in (cfg.a_col, cfg.y_col)]
        if overlap:
            bad.append(f"x-cols: {overlap} name the treatment or outcome column")
        if cfg.y_col == cfg.a_col:
            bad.append(f"y-col: {cfg.y_col!r} names the treatment column")
    if cfg.seed < 0:
        bad.append(f"seed: need >= 0, got {cfg.seed}")
    if cfg.grid < 8:
        bad.append(f"grid: {cfg.grid} too coarse, need >= 8")
    if cfg.grid_rule not in ("trapezoid", "gauss_legendre"):
        bad.append(f"grid-rule: unknown rule {cfg.grid_rule!r}")
    if cfg.folds < 2:
        bad.append(f"folds: need >= 2, got {cfg.folds}")
    if not (0.0 < cfg.clip_eps < 0.5):
        bad.append(f"clip-eps: {cfg.clip_eps} outside (0, 0.5)")
    if cfg.nuisance_propensity not in ("logistic", "knn"):
        bad.append(f"nuisance-propensity: unknown method {cfg.nuisance_propensity!r}")
    if cfg.nuisance_density not in ("nadaraya_watson", "knn", "marginal"):
        bad.append(f"nuisance-density: unknown method {cfg.nuisance_density!r}")
    if cfg.bandwidth != "silverman":
        try:
            if not 0.0 < float(cfg.bandwidth) < float("inf"):  # nan fails too
                bad.append("bandwidth: fixed bandwidth must be positive and finite")
        except ValueError:
            bad.append(f"bandwidth: expected 'silverman' or a number, got {cfg.bandwidth!r}")
    if cfg.command in ("fit-projection", "aggregate"):
        for text in ([cfg.model] if cfg.command == "fit-projection" else cfg.candidates):
            try:
                check_size("model", parse_model(text))
            except CfdensError:
                bad.append(f"model: cannot parse {text!r}")
    if cfg.command in ("fit-projection", "density-effect"):
        try:
            parse_distance(cfg.distance)
        except CfdensError:
            bad.append(f"distance: cannot parse {cfg.distance!r}")
    if cfg.command == "density-effect" and cfg.level1 == cfg.level0:
        bad.append(f"level0: must differ from level1, both are {cfg.level1}")
    if cfg.command == "select-model":
        text = cfg.dims
        try:
            cfg.dims = _parse_dims(text) if isinstance(text, str) else tuple(text)
        except ValueError:
            bad.append(f"dims: cannot parse {text!r}, e.g. 1..8 or 2,4,6")
        else:
            if not cfg.dims:
                bad.append("dims: required, e.g. --dims 1..8")
            elif min(cfg.dims) < 1:
                bad.append(f"dims: series dimensions must be >= 1, got {text!r}")
            else:
                check_size("dims", TruncatedSeries(CosineBasis(max(cfg.dims))))
    if cfg.command == "aggregate" and not cfg.candidates:
        bad.append("candidates: required, e.g. --candidates series:d=2,series:d=4")
    if cfg.command == "simulate":
        if cfg.experiment not in EXPERIMENTS:
            bad.append(f"experiment: unknown {cfg.experiment!r}; "
                       f"have {sorted(EXPERIMENTS)}")
    if bad:
        raise ConfigError(bad)


def _nuisance_config(cfg: RunConfig) -> NuisanceConfig:
    return NuisanceConfig(propensity=cfg.nuisance_propensity,
                          density=cfg.nuisance_density,
                          bandwidth=(cfg.bandwidth if cfg.bandwidth == "silverman"
                                     else float(cfg.bandwidth)),
                          clip_eps=cfg.clip_eps)


def _apply_quick(cfg: RunConfig) -> RunConfig:
    if cfg.quick:
        cfg.grid = min(cfg.grid, QUICK_GRID)
        cfg.folds = 2
    return cfg


def _report(cfg: RunConfig, results: dict) -> dict:
    return {
        "version": __version__,
        "command": cfg.command,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": results,
    }


def _emit(report, cfg: RunConfig):
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_density_csv(path, table, grid, density_unit):
    dens_orig = table.density_to_original(density_unit)
    y_orig = table.to_original(grid.points)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y_unit", "y_original", "density_unit", "density_original"])
        for row in zip(grid.points, y_orig, density_unit, dens_orig):
            writer.writerow([f"{v:.12g}" for v in row])


def _load_data(cfg: RunConfig):
    """The table, grid and fold plan every data command starts from."""
    table = load_csv(cfg.data, cfg.x_cols, cfg.a_col, cfg.y_col,
                     missing_code=cfg.missing_code)
    return table, make_grid(cfg.grid, cfg.grid_rule), make_folds(table.n, cfg.folds, cfg.seed)


def _cmd_fit_projection(cfg: RunConfig):
    table, grid, folds = _load_data(cfg)
    model = parse_model(cfg.model)
    distance = parse_distance(cfg.distance)
    folds_nuis = cross_fit(table, folds, (cfg.level,), grid, _nuisance_config(cfg))
    est = solve_onestep(distance, model, table, folds_nuis, cfg.level, grid)
    if cfg.csv_out:
        _write_density_csv(cfg.csv_out, table, grid, est.fitted_density)
    lo, hi = table.rescale_params
    return {
        "beta": est.beta_hat.tolist(),
        "cov": est.covariance.tolist(),
        "ci": est.wald_ci.tolist(),
        "se": est.se.tolist(),
        "residual": est.solver_report.residual_norm,
        "solver": {
            "method": est.solver_report.method,
            "iterations": est.solver_report.iterations,
            "residual_history": est.solver_report.residual_history,
            "warn": est.solver_report.warn,
        },
        "level": cfg.level,
        "n": est.n,
        "rescale_params": [lo, hi],
        "density_grid": [
            [float(yo), float(go)]
            for yo, go in zip(table.to_original(grid.points),
                              table.density_to_original(est.fitted_density))
        ],
        "density_grid_unit": [
            [float(yu), float(gu)]
            for yu, gu in zip(grid.points, est.fitted_density)
        ],
    }


def _cmd_density_effect(cfg: RunConfig):
    table, grid, folds = _load_data(cfg)
    distance = parse_distance(cfg.distance)
    folds_nuis = fold_stream(table, folds, (cfg.level1, cfg.level0), grid,
                             _nuisance_config(cfg))
    est = effect_onestep(distance, table, folds_nuis, grid,
                         levels=(cfg.level1, cfg.level0))
    lo, hi = table.rescale_params
    # squared-L2 scales with the outcome; ratio-based divergences do not
    scale = 1.0 / (hi - lo) if distance.kind == "l2" else 1.0
    return {
        "psi": est.psi_hat,
        "psi_original_units": est.psi_hat * scale,
        "se": est.se,
        "ci_wald": list(est.ci_wald),
        "ci_conservative": list(est.ci_conservative),
        "near_null_flag": est.near_null,
        "levels": list(est.levels),
        "n": est.n,
        "density_floor": est.density_floor,
        "rescale_params": [lo, hi],
    }


def _cmd_select_model(cfg: RunConfig):
    table, grid, folds = _load_data(cfg)
    candidates = [TruncatedSeries(CosineBasis(d)) for d in cfg.dims]
    rt = select_model(table, folds, cfg.level, candidates, grid,
                      nuis_config=_nuisance_config(cfg))
    if cfg.csv_out:
        with open(cfg.csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "risk", "se"])
            for d, risk, se in zip(cfg.dims, rt.risks, rt.ses):
                writer.writerow([d, f"{risk:.12g}", f"{se:.12g}"])
    return {
        "dims": list(cfg.dims),
        "risks": [None if not np.isfinite(r) else float(r) for r in rt.risks],
        "ses": [None if not np.isfinite(s) else float(s) for s in rt.ses],
        "chosen_dim": int(cfg.dims[rt.chosen]),
        "chosen_label": rt.chosen_label,
        "infeasible": rt.infeasible,
        "warnings": rt.warnings,
    }


def _cmd_aggregate(cfg: RunConfig):
    table, grid, folds = _load_data(cfg)
    candidates = [parse_model(text) for text in cfg.candidates]
    agg = aggregate_linear(table, folds, cfg.level, candidates, grid,
                           nuis_config=_nuisance_config(cfg))
    if cfg.csv_out:
        _write_density_csv(cfg.csv_out, table, grid, agg.density)
    return {
        "candidates": list(cfg.candidates),
        "weights": agg.weights.tolist(),
        "dropped": agg.dropped,
        "infeasible": agg.infeasible,
        "warnings": agg.warnings,
        "meta": agg.meta,
        "density_grid_unit": [
            [float(yu), float(gu)] for yu, gu in zip(grid.points, agg.density)
        ],
    }


def _cmd_simulate(cfg: RunConfig):
    exp = EXPERIMENTS[cfg.experiment]
    exp = replace(exp, reps=cfg.reps or exp.reps, seed=cfg.seed or exp.seed)
    result = mc_run(exp)
    if cfg.csv_out:
        keys = sorted({k for rec in result.records for k in rec})
        with open(cfg.csv_out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for rec in result.records:
                writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict))
                                 else v for k, v in rec.items()})
    oracle = result.oracle
    oracle_json = (oracle if isinstance(oracle, float)
                   else {"beta_star": oracle.beta_star.tolist(),
                         "method": oracle.method,
                         "moment_norm": oracle.moment_norm,
                         "warnings": oracle.warnings})
    return {
        "experiment": exp.name,
        "reps": exp.reps,
        "n_values": list(exp.n_values),
        "oracle": oracle_json,
        "summary": result.summary,
    }


_COMMANDS = {
    "fit-projection": _cmd_fit_projection,
    "density-effect": _cmd_density_effect,
    "select-model": _cmd_select_model,
    "aggregate": _cmd_aggregate,
    "simulate": _cmd_simulate,
}


def _parse_dims(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(",") if part)


def _reps(text):
    """--reps: an integer >= 2, the fewest reps a Monte-Carlo summary takes."""
    try:
        reps = int(text)
    except ValueError:
        reps = 0
    if reps < 2:
        raise argparse.ArgumentTypeError(f"expected an integer >= 2, got {text!r}")
    return reps


def _flags(*specs):
    """A parent parser of flags; a flag left out keeps its RunConfig default."""
    parser = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag, kwargs in specs:
        parser.add_argument(flag, **kwargs)
    return parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the JSON configuration error, exit 2."""

    def error(self, message):
        sys.exit(_emit_error(ConfigError([f"{self.prog}: {message}"])))


def build_parser():
    parser = _Parser(
        prog="cfdens",
        description="Counterfactual density projections, density effects, "
                    "model selection, aggregation, and simulations.")
    shared = _flags(
        ("--seed", {"type": int}),
        ("--out", {"help": "JSON report path (default: stdout)"}),
        ("--csv-out", {"help": "CSV output path for grids/tables"}))
    data = _flags(
        ("--data", {}),
        ("--x-cols", {"help": "comma-separated covariate columns"}),
        ("--a-col", {}),
        ("--y-col", {}),
        ("--missing-code", {}),
        ("--folds", {"type": int}),
        ("--grid", {"type": int}),
        ("--grid-rule", {}),
        ("--clip-eps", {"type": float}),
        ("--nuisance-propensity", {}),
        ("--nuisance-density", {}),
        ("--bandwidth", {}),
        ("--quick", {"action": "store_true",
                     "help": "cap grid at 128 and folds at 2 for smoke tests"}))
    level = ("--level", {"type": int})
    own = {
        "fit-projection": [("--model", {}), ("--distance", {}), level],
        "density-effect": [("--distance", {}), ("--level1", {"type": int}),
                           ("--level0", {"type": int})],
        "select-model": [level, ("--dims", {"help": "e.g. 1..8 or 2,4,6"})],
        "aggregate": [level, ("--candidates",
                              {"help": "comma-separated model strings for aggregation"})],
        "simulate": [("--experiment", {}), ("--reps", {"type": _reps})],
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, specs in own.items():
        parents = [shared] if name == "simulate" else [shared, data]
        sub.add_parser(name, parents=parents + [_flags(*specs)])
    return parser


_EXIT_CODES = ((ConfigError, 2), (DataError, 3), (SolverError, 4), (Exception, 5))


def run(cfg: RunConfig) -> int:
    """Validate and execute one command; returns the process exit status."""
    try:
        _validate(cfg)
        cfg = _apply_quick(cfg)
        results = _COMMANDS[cfg.command](cfg)
        _emit(_report(cfg, results), cfg)
        return 0
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports every failure
        return _emit_error(exc)


def _emit_error(exc):
    """Print exc as the JSON error on stderr; returns its exit code."""
    code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    payload = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    if isinstance(exc, ConfigError):
        payload["error"]["violations"] = exc.violations
    elif isinstance(exc, SolverError):
        payload["error"]["residual_history"] = exc.residual_history
    elif not isinstance(exc, CfdensError):
        payload["error"]["traceback"] = traceback.format_exception(exc)
    print(json.dumps(payload, sort_keys=True, indent=2), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    for key in ("x_cols", "candidates"):
        if key in args:
            args[key] = tuple(c for c in args[key].split(",") if c)
    return run(RunConfig(**args))


if __name__ == "__main__":
    sys.exit(main())
