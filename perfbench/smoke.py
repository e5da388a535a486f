"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one operation of each part on one
seed, with --trace 0 and --trace 1, and asserts the output contract: the last
stdout line has exactly the keys correct/attempted/failed/metrics, and the
metric names and units are exactly those BENCHMARK.json declares (end-to-end
ones nonzero).  It also checks that the benchmark refuses to run, without
printing a result, from a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first broken workload.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def check_result(line: str, want: dict, nonzero: bool) -> list:
    problems = []
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:120]!r}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            problems.append(f"{key} is not an integer")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{name} value {value!r} is not a finite number")
        elif nonzero and value == 0:
            problems.append(f"{name} is 0")
        if name in want and entry.get("unit") != want[name]:
            problems.append(f"{name} unit {entry.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
    return problems


def check_bare_directory(spec: dict) -> list:
    """The benchmark must fail, printing no result, without the rest of the repo."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-120:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload["name"],
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}: {proc.stderr[-400:]}"] \
                if proc.returncode != 0 or not lines else \
                check_result(lines[-1], want[trace], nonzero=trace == 0)
            label = f"{workload['name']} --trace {trace}"
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}")
    problems = check_bare_directory(spec)
    if problems:
        print("FAIL " + "; ".join(problems))
        return 1
    print("ok   bare directory is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
