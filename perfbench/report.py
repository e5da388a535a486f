"""Print every workload's metrics under their per-workload names.

    python3 perfbench/report.py [--seed N] [--trace]

Runs each workload of BENCHMARK.json once (run_seconds from the file), with
every correctness check, and prints one table: the end-to-end metrics by the
names they carry on each workload (cli_cmd_p50_s, fef3_states_per_s, ...),
failed_ratio, fef3_gap, and each failing check.  --trace adds a traced run
per workload and prints its per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        detail, result = run(spec, workload, args.seed, 0)
        print(f"{workload}  (seed {args.seed}, {detail['passes']} passes, "
              f"{result['attempted']} operations, {result['failed']} failed, "
              f"correct={result['correct']})")
        for name, entry in detail["metrics"].items():
            print(f"    {name:38s} {entry['value']:14.6g} {entry['unit']}")
        for failure in detail["failures"]:
            tag = "known defect" if failure["known_defect"] else "FAILED"
            print(f"    {tag}: {failure['op']} x{failure['count']}: {failure['reason']}")
        if args.trace:
            detail, result = run(spec, workload, args.seed, 1)
            print(f"    traced: spans in {detail['spans_file']}")
            for name, entry in result["metrics"].items():
                print(f"    {name:38s} {entry['value']:14.6g} {entry['unit']}")
    provenance = detail["provenance"]
    print("provenance:", json.dumps(provenance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
