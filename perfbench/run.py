"""cfdens benchmark: one workload per run, end-to-end or per-layer metrics.

One run measures one workload for ``--seconds`` seconds and prints, as its last
stdout line, ``{"correct", "attempted", "failed", "metrics"}``:

    python3 perfbench/run.py --workload effect-8k --seed 0 --seconds 22 --trace 0

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb, solved_frac); ``--trace 1`` reports the per-layer metrics from a
run that alternates untraced and traced samples on the same inputs.

    python3 perfbench/run.py --report [--seed 0] [--seconds 22]

runs every workload in both modes and prints all metrics, verdicts and the
per-layer table. ``--record-reference --seeds 0-9 --keys 0-2`` records those
samples' outputs into ``reference.json`` from the code in this checkout; only
do that at a commit whose outputs are the agreed reference.

The program is imported from ``src/`` of the checkout this file sits in; the
load is generated in this one process, with BLAS at its default thread count
and CFDENS_THREADS unset (its default of 1).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 4          # fresh interpreters timed per run for setup_s
MIN_SAMPLES = 3         # untraced samples per run, even past --seconds
MAX_SECONDS = 120       # no new sample after this, whatever MIN_SAMPLES says

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
}


def environment():
    """Machine, library and settings record printed with every run."""
    import numpy as np
    import scipy

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: cfg.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "CFDENS_THREADS": "unset (default 1)",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown (not a git checkout)",
    }


def time_setup(reps):
    """Median wall time of a fresh interpreter that imports cfdens (numpy, scipy)."""
    cmd = [sys.executable, "-c", "import cfdens"]
    subprocess.run(cmd, check=True)            # compile bytecode, warm the file cache
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed(runner, wl, path, seed, k, ctx, tracer=None):
    """Run one sample's operations; returns (results, wall s, cpu s)."""
    if tracer is not None:
        tracer.install()
    try:
        c0, t0 = cpu_seconds(), time.perf_counter()
        results = runner(wl, path, seed, k, str(WORKDIR), ctx)
        t1, c1 = time.perf_counter(), cpu_seconds()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, t1 - t0, c1 - c0


@dataclass
class Samples:
    """What one run measured; trace lists hold one entry per traced sample."""

    wl: object
    verdicts: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    layers: list = field(default_factory=list)        # tracing.layer_metrics rows
    shares: list = field(default_factory=list)        # layer self time / traced wall
    traced_walls: list = field(default_factory=list)
    overheads: list = field(default_factory=list)     # traced minus untraced wall


def measure(name, seed, seconds, trace, tiny):
    import tracing
    import workloads

    wl = (workloads.TINY if tiny else workloads.WORKLOADS)[name]
    runner = workloads.RUNNERS[name]
    ctx = workloads.prepare(wl, str(WORKDIR))
    truth = workloads.oracle_table(wl, str(WORKDIR / "oracle_cache.json"))
    reference = None
    if not tiny and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(name, {})

    run = Samples(wl)
    start = time.perf_counter()
    k = 0
    while True:
        path = workloads.make_input(wl, seed, k, str(WORKDIR))
        results, wall, cpu = timed(runner, wl, path, seed, k, ctx)
        key = workloads.sample_key(seed, k)
        run.verdicts += workloads.check(wl, key, results, truth, reference)
        run.walls.append(wall)
        run.cpus.append(cpu)
        if trace:
            tracer = tracing.Tracer()
            results, t_wall, _ = timed(runner, wl, path, seed, k, ctx, tracer)
            run.verdicts += workloads.check(wl, key, results, truth, reference)
            failed_reps = sum(r["out"].get("failures", 0) for r in results)
            run.layers.append(tracing.layer_metrics(tracer.spans, failed_reps))
            run.shares.append({layer: t / t_wall for layer, t in
                               tracing.layer_self(tracer.spans, t_wall).items()})
            run.traced_walls.append(t_wall)
            run.overheads.append(t_wall - wall)
        if path:
            os.remove(path)
        k += 1
        elapsed = time.perf_counter() - start
        enough = k >= (1 if trace or tiny else MIN_SAMPLES)
        if (enough and elapsed + elapsed / k > seconds) or elapsed > MAX_SECONDS:
            break
    if "probe" in ctx:
        run.verdicts += workloads.check(wl, "probe", workloads.run_probe(ctx), truth, reference)
    return run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the harness self-test only")
    p.add_argument("--report", action="store_true",
                   help="run every workload in both modes and print everything")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--keys", default="0-2")
    p.add_argument("--workloads", default="",
                   help="for --record-reference: comma-separated names (default all)")
    args = p.parse_args(argv)

    if not (SRC / "cfdens" / "__init__.py").is_file():
        print(f"perfbench: no cfdens sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.pop("CFDENS_THREADS", None)
    import cfdens

    if Path(cfdens.__file__).resolve().parent != (SRC / "cfdens").resolve():
        print(f"perfbench: imported cfdens from {cfdens.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.report:
        return report(args)
    if args.record_reference:
        return record_reference(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    if not args.trace:
        setup_s, setup_times = time_setup(2 if args.tiny else SETUP_REPS)
    run = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    wl, verdicts = run.wl, run.verdicts
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(verdicts)
    failed = sum(not v["ok"] for v in verdicts)
    # ops that returned a result; known solver failures (workloads.KNOWN_FAILURES) lower it
    solved = sum(v["ok"] and not v["known"] for v in verdicts)
    print(f"workload {wl.name}: n={wl.n} G={wl.grid} folds={wl.folds}"
          + (f" reps={wl.reps}" if wl.reps else "") + f" seed={args.seed}"
          + f" trace={args.trace} samples={len(run.walls)}")
    notes = {}
    for v in verdicts:
        if not v["ok"] or v["known"]:
            line = f"{'ok  ' if v['ok'] else 'MISS'} {v['op']}: {v['how']}"
            notes[line] = notes.get(line, 0) + 1
    for line, count in notes.items():
        print(f"  verdict {line} (x{count})")
    print(f"  correctness: {attempted - failed}/{attempted} operations pass"
          f" ({sum('reference' in v['how'] for v in verdicts)} checked against the reference,"
          f" {sum('oracle' in v['how'] for v in verdicts)} against the oracle,"
          f" {sum(v['known'] for v in verdicts)} known solver failures)")

    if args.trace:
        import tracing

        metrics = {}
        for key, unit in tracing.PER_LAYER.items():
            rows = (run.overheads if key == "trace.overhead_s"
                    else [row[key] for row in run.layers])
            metrics[key] = {"value": statistics.median(rows), "unit": unit}
        print(f"  per-layer metrics (median of {len(run.layers)} traced samples;"
              f" {', '.join(tracing.COMPUTED)} computed from array shapes):")
        for key, m in metrics.items():
            print(f"    {key:34s} {m['value']:14.6g} {m['unit']}")
        shares = {layer: statistics.median(row[layer] for row in run.shares)
                  for layer in run.shares[0]}
        print(f"  layer self time, share of traced wall"
              f" {statistics.median(run.traced_walls):.3f} s: "
              + ", ".join(f"{layer} {100 * sh:.1f}%" for layer, sh in shares.items()))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(run.walls),
            "cpu_s": statistics.median(run.cpus),
            "peak_rss_mb": peak_mb,
            "solved_frac": solved / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        basis = {"setup_s": f"median of {len(setup_times)} fresh interpreters",
                 "wall_s": f"median of {len(run.walls)} samples",
                 "cpu_s": f"median of {len(run.cpus)} samples",
                 "peak_rss_mb": "process high-water mark",
                 "solved_frac": f"of {attempted} operations"}
        for key, m in metrics.items():
            print(f"  {key:12s} {m['value']:12.6g} {m['unit']:6s} ({basis[key]})")
        print(f"  wall_s samples: {' '.join(f'{w:.3f}' for w in run.walls)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(args):
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            print(f"== {name} trace={trace}", flush=True)
            code |= subprocess.run(cmd).returncode
    return code


def record_reference(args):
    import workloads

    def span(text):
        lo, hi = text.split("-") if "-" in text else (text, text)
        return range(int(lo), int(hi) + 1)

    WORKDIR.mkdir(exist_ok=True)
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref["meta"] = {"rtol": workloads.REF_RTOL, "atol": workloads.REF_ATOL,
                   "git_sha": environment()["git_sha"]}
    for name in (args.workloads.split(",") if args.workloads else workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        ctx = workloads.prepare(wl, str(WORKDIR))
        table = ref.setdefault(name, {})
        if "probe" in ctx:
            table["probe"] = {r["op"]: {"status": r["status"], "out": r["out"]}
                              for r in workloads.run_probe(ctx) if r["status"] != "error"}
        for seed in span(args.seeds):
            for k in span(args.keys):
                path = workloads.make_input(wl, seed, k, str(WORKDIR))
                results = workloads.RUNNERS[name](wl, path, seed, k, str(WORKDIR), ctx)
                table[workloads.sample_key(seed, k)] = {
                    r["op"]: {"status": r["status"], "out": workloads.ref_view(r["out"])}
                    for r in results if r["status"] != "error"}
                if path:
                    os.remove(path)
                print(f"recorded {name} {seed}:{k}", flush=True)
    REFERENCE.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
