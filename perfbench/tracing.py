"""Spans and counts at cfdens's module boundaries, recorded from outside the package.

The modules import each other with ``from .x import f``, so a call from module
A into module B goes through A's own binding of ``f``. Each importing binding
is therefore wrapped (wrapping only the defining module would see nothing),
plus the two ``predict`` methods. A span is ``(name, start, end, parent)``;
a layer is the part of the name before the first dot. Self time is a span's
duration minus its child spans; calls are nested and single-threaded
(CFDENS_THREADS=1), so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref

# (module, attribute or "Class.method", span name); the module is the binding's owner
WRAPS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "data.load_csv"),
    ("data", "load_csv", "data.load_csv"),
    ("cli", "cross_fit", "nuisance.cross_fit"),
    ("selection", "cross_fit", "nuisance.cross_fit"),
    ("oracle", "cross_fit", "nuisance.cross_fit"),
    ("nuisance", "cross_fit", "nuisance.cross_fit"),
    ("nuisance", "single_split", "nuisance.single_split"),
    ("selection", "single_split", "nuisance.single_split"),
    ("nuisance", "fit_propensity_all", "nuisance.fit_propensity"),
    ("nuisance", "PropensityModel.predict", "nuisance.propensity_predict"),
    ("nuisance", "fit_cond_density", "nuisance.fit_cond_density"),
    ("nuisance", "CondDensityModel.predict", "nuisance.cond_predict"),
    ("projection", "dr_scores", "eif.dr_scores"),
    ("effects", "dr_scores", "eif.dr_scores"),
    ("selection", "dr_scores", "eif.dr_scores"),
    ("cli", "solve_onestep", "projection.solve"),
    ("selection", "solve_onestep", "projection.solve"),
    ("oracle", "solve_onestep", "projection.solve"),
    ("projection", "solve_onestep", "projection.solve"),
    ("projection", "one_step_equation", "projection.equation"),
    ("projection", "sandwich_cov", "projection.sandwich"),
    ("cli", "effect_onestep", "effects.effect"),
    ("oracle", "effect_onestep", "effects.effect"),
    ("effects", "effect_onestep", "effects.effect"),
    ("cli", "select_model", "selection.select"),
    ("cli", "aggregate_linear", "selection.aggregate"),
    ("cli", "mc_run", "oracle.mc_run"),
    ("oracle", "oracle_effect", "oracle.target"),
    ("oracle", "oracle_projection", "oracle.target"),
    ("oracle", "SyntheticDGP.sample", "oracle.sample"),
]

LAYERS = ("cli", "data", "nuisance", "eif", "projection", "effects", "selection", "oracle")

# per-layer metric name -> unit; every traced run reports all of them
PER_LAYER = {
    "nuisance.cond_predict_s": "s",
    "nuisance.cond_predict_calls": "count",
    "nuisance.cond_predict_rows": "count",
    "nuisance.weight_flops": "flop",
    "nuisance.eta_mb": "MB",
    "nuisance.outcome_kernel_s": "s",
    "nuisance.propensity_s": "s",
    "nuisance.cross_fit_s": "s",
    "nuisance.cross_fit_calls": "count",
    "nuisance.self_s": "s",
    "eif.dr_scores_s": "s",
    "eif.dr_scores_calls": "count",
    "projection.solve_s": "s",
    "projection.solve_calls": "count",
    "projection.solve_failures": "count",
    "projection.equation_s": "s",
    "projection.equation_evals": "count",
    "projection.newton_iters": "count",
    "projection.sandwich_s": "s",
    "projection.self_s": "s",
    "effects.effect_s": "s",
    "effects.effect_calls": "count",
    "effects.self_s": "s",
    "selection.select_s": "s",
    "selection.aggregate_s": "s",
    "selection.candidate_solves": "count",
    "selection.infeasible_candidates": "count",
    "selection.self_s": "s",
    "oracle.mc_run_self_s": "s",
    "oracle.target_s": "s",
    "oracle.rep_s_p50": "s",
    "oracle.rep_s_p90": "s",
    "oracle.failed_reps": "count",
    "oracle.self_s": "s",
    "data.load_csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("nuisance.weight_flops", "nuisance.eta_mb")   # from array shapes, not timed


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False
        self.info = {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """Installs the wrappers for one traced operation and keeps its spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._train_rows = weakref.WeakKeyDictionary()   # CondDensityModel -> m

    def install(self):
        import importlib

        for mod_name, attr, span in WRAPS:
            owner = importlib.import_module(f"cfdens.{mod_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(orig, span))
            self._patched.append((owner, attr, orig))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, name):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._count(span, args, kwargs, result)
            return result

        return wrapper

    def _count(self, span, args, kwargs, result):
        if span.name == "nuisance.fit_cond_density":
            train, level = args[0], args[1] if len(args) > 1 else kwargs["level"]
            self._train_rows[result] = int((train.a == level).sum())
        elif span.name == "nuisance.cond_predict":
            model, x = args[0], args[1]
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            n_ev, g = len(x), grid.size
            span.info = {"rows": n_ev, "flops": 2 * n_ev * self._train_rows.get(model, 0) * g,
                         "eta_bytes": 8 * n_ev * g}
        elif span.name == "projection.solve":
            span.info = {"iters": int(result.solver_report.iterations)}


def _in(span, prefix):
    p = span.parent
    while p is not None:
        if p.name.startswith(prefix):
            return True
        p = p.parent
    return False


def _self_times(spans):
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.dur
    return {id(s): s.dur - child.get(id(s), 0.0) for s in spans}


def _layer_selfs(spans):
    self_time = _self_times(spans)
    return {layer: sum(self_time[id(s)] for s in spans if s.layer == layer) for layer in LAYERS}


def layer_self(spans, wall):
    """Self seconds per layer, plus the part of the operation's wall outside every span."""
    outside = wall - sum(s.dur for s in spans if s.parent is None)
    return {**_layer_selfs(spans), "outside": outside}


def layer_metrics(spans, failed_reps=0):
    """Per-layer metrics of one traced operation (trace.overhead_s is added by the caller)."""
    self_time = _self_times(spans)

    def spans_of(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.dur for s in spans_of(name))

    def self_of(name):
        return sum(self_time[id(s)] for s in spans_of(name))

    layer = _layer_selfs(spans)

    fits = [s for s in spans if s.name in ("nuisance.cross_fit", "nuisance.single_split")
            and not (s.parent is not None and s.parent.name in
                     ("nuisance.cross_fit", "nuisance.single_split"))]
    predicts = spans_of("nuisance.cond_predict")
    solves = spans_of("projection.solve")
    cand = [s for s in solves if _in(s, "selection.")]
    reps = []
    for run in spans_of("oracle.mc_run"):
        starts = [s.start for s in spans if s.name == "oracle.sample" and _in(s, "oracle.mc_run")
                  and run.start <= s.start <= run.end]
        reps += [b - a for a, b in zip(starts, starts[1:] + [run.end])]

    return {
        "nuisance.cond_predict_s": total("nuisance.cond_predict"),
        "nuisance.cond_predict_calls": len(predicts),
        "nuisance.cond_predict_rows": sum(s.info.get("rows", 0) for s in predicts),
        "nuisance.weight_flops": sum(s.info.get("flops", 0) for s in predicts),
        "nuisance.eta_mb": sum(s.info.get("eta_bytes", 0) for s in predicts) / 2**20,
        "nuisance.outcome_kernel_s": self_of("nuisance.fit_cond_density"),
        "nuisance.propensity_s": total("nuisance.fit_propensity")
                                 + total("nuisance.propensity_predict"),
        "nuisance.cross_fit_s": sum(s.dur for s in fits),
        "nuisance.cross_fit_calls": len(fits),
        "nuisance.self_s": layer["nuisance"],
        "eif.dr_scores_s": total("eif.dr_scores"),
        "eif.dr_scores_calls": len(spans_of("eif.dr_scores")),
        "projection.solve_s": total("projection.solve"),
        "projection.solve_calls": len(solves),
        "projection.solve_failures": sum(s.failed for s in solves),
        "projection.equation_s": total("projection.equation"),
        "projection.equation_evals": len(spans_of("projection.equation")),
        "projection.newton_iters": sum(s.info.get("iters", 0) for s in solves),
        "projection.sandwich_s": total("projection.sandwich"),
        "projection.self_s": layer["projection"],
        "effects.effect_s": total("effects.effect"),
        "effects.effect_calls": len(spans_of("effects.effect")),
        "effects.self_s": layer["effects"],
        "selection.select_s": total("selection.select"),
        "selection.aggregate_s": total("selection.aggregate"),
        "selection.candidate_solves": len(cand),
        "selection.infeasible_candidates": sum(s.failed for s in cand),
        "selection.self_s": layer["selection"],
        "oracle.mc_run_self_s": self_of("oracle.mc_run"),
        "oracle.target_s": total("oracle.target"),
        "oracle.rep_s_p50": statistics.median(reps) if reps else 0.0,
        "oracle.rep_s_p90": _p90(reps),
        "oracle.failed_reps": failed_reps,
        "oracle.self_s": layer["oracle"],
        "data.load_csv_s": total("data.load_csv"),
        "cli.self_s": self_of("cli.main"),
    }


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]
