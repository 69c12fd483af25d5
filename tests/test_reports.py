"""Golden CLI reports: every subcommand's JSON report on one small seeded CSV.

Each run's report is compared with ``tests/data/golden_reports.json``:
numeric leaves to a relative 1e-12, every other leaf exactly. The
timestamp and the output path are dropped. Regenerate the reference with

    PYTHONPATH=src python tests/test_reports.py

only when a change to the reported numbers is intended. It prints per
report the largest absolute and relative drift of the numeric leaves and
every other leaf that changed. A stored report that the fresh one matches
within the test's tolerance is kept as it was, so only the runs that changed
are re-recorded; the regenerator names the reports it kept. With

    PYTHONPATH=src python tests/test_reports.py --check

it prints the same drift lines, writes nothing, and exits 1 if any leaf of
any report differs from the stored one at all (not just beyond 1e-12).
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cfdens.cli import main
from cfdens.oracle import get_dgp

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
BASE = ["--x-cols", "x1,x2", "--quick", "--seed", "4"]

# name -> argv; "{data}" is replaced by the CSV path
RUNS = {
    "fit-projection:l2-series": ["fit-projection", "--data", "{data}", *BASE,
                                 "--model", "series:d=4", "--distance", "l2"],
    "fit-projection:kl-expfam": ["fit-projection", "--data", "{data}", *BASE,
                                 "--model", "expfam:d=2", "--distance", "kl"],
    "fit-projection:hellinger-series": ["fit-projection", "--data", "{data}", *BASE,
                                        "--model", "series:d=2", "--distance", "hellinger",
                                        "--level", "0"],
    "fit-projection:chisq-expfam": ["fit-projection", "--data", "{data}", *BASE,
                                    "--model", "expfam:d=2", "--distance", "chisq"],
    "fit-projection:l2-gmm1": ["fit-projection", "--data", "{data}", *BASE,
                               "--model", "gmm:k=1", "--distance", "l2"],
    "density-effect:l2": ["density-effect", "--data", "{data}", *BASE, "--distance", "l2"],
    "density-effect:kl": ["density-effect", "--data", "{data}", *BASE, "--distance", "kl"],
    "density-effect:chisq": ["density-effect", "--data", "{data}", *BASE, "--distance", "chisq"],
    "density-effect:hellinger": ["density-effect", "--data", "{data}", *BASE,
                                 "--distance", "hellinger"],
    "density-effect:tv": ["density-effect", "--data", "{data}", *BASE, "--distance", "tv"],
    "select-model": ["select-model", "--data", "{data}", *BASE, "--dims", "1..4"],
    "aggregate": ["aggregate", "--data", "{data}", *BASE,
                  "--candidates", "series:d=1,series:d=3"],
    "simulate": ["simulate", "--experiment", "effect-null", "--reps", "2", "--seed", "3"],
}


def write_csv(path):
    table = get_dgp("confounded_shift").sample(300, np.random.default_rng(2021))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "a", "y"])
        for i in range(table.n):
            writer.writerow([table.x[i, 0], table.x[i, 1], table.a[i], table.y[i]])


def run_report(argv, data, out):
    code = main([a.replace("{data}", str(data)) for a in argv] + ["--out", str(out)])
    assert code == 0
    report = json.loads(Path(out).read_text())
    report.pop("timestamp")
    report["config"].pop("out")
    report["config"].pop("data")
    return report


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def assert_same(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif _is_number(want):
        assert _is_number(got), path
        if math.isnan(want):
            assert math.isnan(got), path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


def leaves(obj, path="report"):
    """(path, value) for every leaf of a JSON report; an empty list or dict is
    a leaf, so a key that gains or loses an empty container shows up."""
    if isinstance(obj, (dict, list)) and not obj:
        yield path, obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def drift(got, want):
    """Largest absolute and relative drift of the numeric leaves of got from
    want, with their paths, and the lines naming every other changed leaf
    (a number that changes only its sign of zero or its type counts too)."""
    new, old = dict(leaves(got)), dict(leaves(want))
    worst_abs, worst_rel, changed = (0.0, None), (0.0, None), []
    for path in sorted(new.keys() | old.keys()):
        g, w = new.get(path, "<absent>"), old.get(path, "<absent>")
        numbers = _is_number(g) and _is_number(w)
        if numbers and not (math.isnan(g) or math.isnan(w)):
            gap = abs(g - w)
            rel = gap / abs(w) if w else (math.inf if gap else 0.0)
            worst_abs = max(worst_abs, (gap, path), key=lambda t: t[0])
            worst_rel = max(worst_rel, (rel, path), key=lambda t: t[0])
            if not gap and repr(g) != repr(w):     # 0.0 vs -0.0, or 1 vs 1.0
                changed.append(f"  {path}: {w!r} -> {g!r}")
        elif g != w and not (numbers and math.isnan(g) and math.isnan(w)):
            changed.append(f"  {path}: {w!r} -> {g!r}")
    return worst_abs, worst_rel, changed


def merge_goldens(fresh, stored):
    """The reports to store, and the names of the stored ones kept: a stored
    report that the fresh one matches under ``assert_same`` is kept as it
    was, every other fresh report replaces it or is added."""
    merged, kept = {}, []
    for name, report in fresh.items():
        try:
            assert_same(report, stored[name])
        except (KeyError, AssertionError):
            merged[name] = report
        else:
            merged[name] = stored[name]
            kept.append(name)
    return merged, kept


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "demo.csv"
    write_csv(path)
    return path


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, golden, data_csv, tmp_path):
    assert_same(run_report(RUNS[name], data_csv, tmp_path / "out.json"), golden[name])


def test_drift_lists_a_lost_empty_container(golden):
    # a report that loses ``infeasible: []`` must not read as unchanged
    report = json.loads(json.dumps(golden["aggregate"]))
    del report["results"]["infeasible"]
    _, _, changed = drift(report, golden["aggregate"])
    assert changed == ["  report.results.infeasible: [] -> '<absent>'"]


def test_drift_lists_a_number_that_changes_only_its_zero_sign_or_type():
    (gap, _), _, changed = drift({"a": -0.0, "b": 1.0, "c": 2.0}, {"a": 0.0, "b": 1, "c": 2.0})
    assert gap == 0.0
    assert changed == ["  report.a: 0.0 -> -0.0", "  report.b: 1 -> 1.0"]


def test_merge_keeps_a_report_within_tolerance(golden):
    fresh = json.loads(json.dumps({"density-effect:l2": golden["density-effect:l2"],
                                   "aggregate": golden["aggregate"]}))
    fresh["density-effect:l2"]["results"]["psi"] += 1e-16
    fresh["aggregate"]["results"]["weights"][0] += 1e-6
    merged, kept = merge_goldens(fresh, golden)
    assert kept == ["density-effect:l2"]
    assert merged["density-effect:l2"] == golden["density-effect:l2"]
    assert merged["density-effect:l2"] != fresh["density-effect:l2"]
    assert merged["aggregate"] == fresh["aggregate"] != golden["aggregate"]


if __name__ == "__main__":
    import sys
    import tempfile

    check = "--check" in sys.argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "demo.csv"
        write_csv(data)
        reports = {name: run_report(argv, data, Path(tmp) / "out.json")
                   for name, argv in RUNS.items()}
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    exact = True
    for name in sorted(reports.keys() | previous.keys()):
        if name not in previous or name not in reports:
            print(f"{name}: {'added' if name in reports else 'removed'}")
            exact = False
            continue
        (gap, gap_at), (rel, rel_at), changed = drift(reports[name], previous[name])
        exact = exact and not gap and not changed
        print(f"{name}: max abs drift {gap:.3g} at {gap_at}; "
              f"max rel drift {rel:.3g} at {rel_at}; "
              f"other changed leaves: {len(changed)}")
        for line in changed:
            print(line)
    if check:
        print("identical to the stored reports" if exact else "reports differ")
        sys.exit(0 if exact else 1)
    reports, kept = merge_goldens(reports, previous)
    print(f"kept as stored (within tolerance): {', '.join(sorted(kept)) or 'none'}")
    GOLDEN.write_text(json.dumps(reports, sort_keys=True, indent=1) + "\n")
