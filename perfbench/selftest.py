"""Harness self-test at tiny sizes (about a minute).

Runs every workload in both modes with ``--tiny`` and checks that the last
stdout line is the result object with every metric BENCHMARK.json names, each
with its unit; then checks that a copy holding only BENCHMARK.json and the
benchmark's files exits non-zero without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    cmd = [sys.executable, *SPEC["command"][1:], *args]      # command[0] is python3
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int), result
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected), \
        sorted(set(result["metrics"]) ^ {m["name"] for m in expected})
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    return result


def main():
    for wl in SPEC["workloads"]:
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = run(ROOT, "--workload", wl["name"], "--seed", "0", "--seconds", "1",
                       "--trace", trace, "--tiny")
            result = check_result(proc, expected)
            print(f"ok  {wl['name']} trace={trace}: {len(result['metrics'])} metrics,"
                  f" {result['attempted']} operations, {result['failed']} missed")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok  bare copy exits {proc.returncode} without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
