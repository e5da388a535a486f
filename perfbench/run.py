"""entkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-cold,fef,sweep,protocol-mc} \
        --seed N --seconds S --trace {0,1}

Run from the root of an entkit checkout.  Every workload is a closed loop: one
client, one call at a time, each starting after the previous one returned.
The run repeats whole passes over the workload's fixed input set until the
next pass would overrun S seconds (at least one pass), then checks every
output outside the timed window.  Times are scaled to a nominal host speed
by a reference timed between operations (see REFERENCES), and each
operation contributes the median of its calls.

--trace 0 prints the end-to-end metrics.  --trace 1 times one untraced phase
(S/2 seconds) and one traced pass, and prints the per-layer metrics taken
from the traced pass's spans; the spans are written to
perfbench/out/trace-<workload>.jsonl (the seed is in its first line).

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it is a detail object with provenance, the workload's metrics
under their per-workload names, failed_ratio and the failing checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from tracer import LAYERS, Tracer, layer_metrics
from workloads import OUT, ROOT, WORKLOADS, child_env

HERE = ROOT / "perfbench"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "small_items_per_s": "1/s",
    "large_items_per_s": "1/s",
}

PER_LAYER = {"import.total_s": "s", "import.scipy_s": "s"}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls_per_pass"] = "count"
    PER_LAYER[f"{_layer}.self_s_per_pass"] = "s"
PER_LAYER.update({
    "qcore.validations_per_pass": "count",
    "linalg.decompositions_per_pass": "count",
    "linalg.self_s_per_pass": "s",
    "measures.fef_calls_per_pass": "count",
    "protocols.cdc_runs_per_sample": "ratio",
    "trace.overhead_ratio": "ratio",
})

SETUP_PROBES = 3
IMPORT_PROBES = 3

# Every time the benchmark reports is scaled to a nominal host speed.  The
# CPUs it runs on are shared, and their speed moves by tens of percent for
# minutes at a time.  So the runner times a fixed reference (its own work,
# never entkit's) between operations and multiplies each measured time by
# nominal / (the reference's time around it).  In-process workloads use a
# 10 ms interpreter-plus-LAPACK kernel; fresh-process timings (cold commands,
# set-up) use a fresh interpreter importing a fixed set of stdlib modules,
# which tracks process start and import speed far better than any in-process
# kernel.  The detail line keeps the unscaled values and the reference time.
_REF_EIGVALSH = np.linalg.eigvalsh      # bound before a tracer can wrap it
_REF_MATRIX = np.add.outer(np.arange(9.0), np.arange(9.0)) % 7.0
_REF_IMPORTS = "import argparse, ctypes, decimal, email.parser, json, unittest, xml.dom.minidom"


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter work and 9x9 eigvalsh calls."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for _ in range(300):
        _REF_EIGVALSH(_REF_MATRIX)
    return time.perf_counter() - t0


def reference_process() -> float:
    """Seconds for a fresh interpreter that imports a fixed set of stdlib modules."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _REF_IMPORTS], cwd=ROOT, env=child_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    nominal_s: float            # the reference's time at nominal speed
    every_s: float              # re-time it once this much operation time has passed
    measure: object


REFERENCES = {
    "kernel": Reference(0.010, 0.25, reference_kernel),
    "process": Reference(0.15, 2.0, reference_process),
}


@dataclass
class Record:
    pass_index: int
    op: object
    seconds: float              # measured
    out: object
    error: str | None
    span: int
    scale: float = 1.0          # nominal / measured reference time around the call

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def run_passes(ops, seconds: float, reference: Reference, tracer=None,
               max_passes: int | None = None):
    """Whole passes over ops until the next one would overrun `seconds`."""
    records, pass_seconds, pending = [], [], []
    timed = [reference.measure()]

    def rescale():
        timed.append(reference.measure())
        for r in pending:
            r.scale = reference.nominal_s / ((timed[-2] + timed[-1]) / 2.0)
        pending.clear()

    begin = time.perf_counter()
    while True:
        k = len(pass_seconds)
        pass_span = tracer.begin("bench.pass") if tracer else -1
        t_pass = time.perf_counter()
        for op in ops:
            span = tracer.begin("bench.op") if tracer else -1
            out, error = None, None
            t0 = time.perf_counter()
            try:
                raw = op.run(k)
            except Exception:
                raw, error = None, traceback.format_exc(limit=2).strip().splitlines()[-1]
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.finish(span)
            if error is None:
                try:
                    out = op.after(raw)
                except Exception:
                    error = traceback.format_exc(limit=2).strip().splitlines()[-1]
            records.append(Record(k, op, elapsed, out, error, span))
            pending.append(records[-1])
            if sum(r.seconds for r in pending) >= reference.every_s:
                rescale()
        if pending:
            rescale()
        pass_seconds.append(time.perf_counter() - t_pass)
        if tracer:
            tracer.finish(pass_span)
        if max_passes is not None and len(pass_seconds) >= max_passes:
            break
        if time.perf_counter() - begin + statistics.median(pass_seconds) > seconds:
            break
    return records, len(pass_seconds)


def op_medians(records, scaled: bool = True) -> dict:
    """{op name: (median seconds over its successful calls, one of its records)}."""
    calls: dict = {}
    for r in records:
        if r.error is None:
            calls.setdefault(r.op.name, []).append(r)
    return {name: (statistics.median(r.scaled if scaled else r.seconds for r in rs), rs[0])
            for name, rs in calls.items()}


def throughput(per_op: dict, part: str) -> float:
    """Items one pass completes in `part`, per second of its ops' median times."""
    calls = [(t, r) for t, r in per_op.values() if r.op.part == part]
    seconds = sum(t for t, _ in calls)
    return sum(r.op.items(r.out) for _, r in calls) / seconds if seconds > 0 else 0.0


def end_to_end(records, setup_s: float, peak_rss_mb: float, scaled: bool = True) -> dict:
    per_op = op_medians(records, scaled)
    latencies = [t for t, _ in per_op.values()]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_s": statistics.median(latencies),
        "op_p75_s": quartile3(latencies),
        "small_items_per_s": throughput(per_op, "small"),
        "large_items_per_s": throughput(per_op, "large"),
    }


def pass_op_seconds(records) -> float:
    per_pass: dict = {}
    for r in records:
        per_pass[r.pass_index] = per_pass.get(r.pass_index, 0.0) + r.scaled
    return statistics.median(per_pass.values())


def quartile3(values) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# probes in fresh processes
# ---------------------------------------------------------------------------

def setup_probes(workload: str, seed: int, count: int) -> list:
    """(scaled, measured) seconds from launching a fresh process until the
    workload is ready, `count` times, each between two reference processes."""
    reference = REFERENCES["process"]
    timed, probes = [reference.measure()], []
    for _ in range(count):
        ready = setup_probe(workload, seed)
        timed.append(reference.measure())
        probes.append((ready * reference.nominal_s / ((timed[-2] + timed[-1]) / 2.0), ready))
    return probes


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from launching a fresh process until the workload is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit code {proc.returncode})")
    return ready


def parse_importtime(text: str) -> tuple:
    """(total seconds, seconds under the outermost scipy imports) from -X importtime."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue                                    # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = sum(cum for depth, _, cum in entries if depth == 0)
    scipy, stack = 0.0, []
    # importtime prints children before their parent; reversed, parents come first
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not (stack and stack[-1][1].split(".")[0] == "scipy"):
            scipy += cum
        stack.append((depth, name))
    return total, scipy


def import_probe() -> tuple:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import entkit.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    return parse_importtime(proc.stderr)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import importlib.metadata

    import numpy as np

    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "timing_notes": ("closed loop, one client; no CPU pinning, cache dropping or "
                         "page-cache control (unavailable to an unprivileged run); "
                         "ENTKIT_THREADS unset"),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation of each part, one pass, one probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def failed_checks(record) -> dict:
    """{sub-check: reason} for every check the record fails; {} when it passes.

    A call that raised fails "raised" and a check that raised fails "check";
    neither is ever a recorded defect."""
    if record.error is not None:
        return {"raised": record.error}
    try:
        reason = record.op.check(record.out)
    except Exception:
        return {"check": "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]}
    if reason is None:
        return {}
    return reason if isinstance(reason, dict) else {"output": reason}


def check_records(records, known_defects) -> dict:
    """{op name: {"count", "checks", "reason", "known_defect"}} over failing operations.

    An operation is a known defect only while every sub-check it fails, on
    every call, is one of `known_defects` ((op name, sub-check) pairs)."""
    failures: dict = {}
    for r in records:
        failed = failed_checks(r)
        if not failed:
            continue
        entry = failures.setdefault(r.op.name, {"count": 0, "checks": [], "reason": "",
                                                "known_defect": True})
        entry["count"] += 1
        for check, reason in failed.items():
            if check not in entry["checks"]:
                entry["checks"].append(check)
                entry["reason"] = "; ".join(filter(None, (entry["reason"], reason)))
            if (r.op.name, check) not in known_defects:
                entry["known_defect"] = False
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "entkit" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "util.py").is_file():
        print("perfbench: src/entkit and tests/util.py not found; run from an entkit checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("ENTKIT_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    probes = 1 if args.smoke else SETUP_PROBES
    max_passes = 1 if args.smoke else None
    setups = setup_probes(args.workload, args.seed, probes) if args.trace == 0 else []

    workload = WORKLOADS[args.workload](args.seed)
    reference = REFERENCES[workload.reference]

    def ops(traced):
        all_ops = workload.ops(traced)
        if args.smoke:
            return [next(o for o in all_ops if o.part == p) for p in ("small", "large")]
        return all_ops

    metrics, named = {}, {}
    if args.trace == 0:
        records, passes = run_passes(ops(False), args.seconds, reference, max_passes=max_passes)
        peak = workload.peak_rss_mb(records)
        values = end_to_end(records, statistics.median(s for s, _ in setups), peak)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        named = {workload.named.get(k, k): v for k, v in metrics.items()}
        unscaled = end_to_end(records, statistics.median(m for _, m in setups), peak,
                              scaled=False)
        op_seconds = {name: t for name, (t, _) in op_medians(records).items()}
        spans_file = None
    else:
        untraced, _ = run_passes(ops(False), args.seconds / 2.0, reference,
                                 max_passes=max_passes)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(ops(True), 0.0, reference, tracer=tracer, max_passes=1)
        finally:
            tracer.uninstall()
        workload.merge_child_spans(tracer, traced)
        records = untraced + traced
        passes = len({r.pass_index for r in untraced}) + 1
        samples = sum(r.op.items(r.out) for r in traced
                      if r.error is None and r.op.name.startswith("monte_carlo_cdc:"))
        values = layer_metrics(tracer, passes=1, mc_samples=samples)
        imports = [import_probe() for _ in range(1 if args.smoke else IMPORT_PROBES)]
        values["import.total_s"] = statistics.median(t for t, _ in imports)
        values["import.scipy_s"] = statistics.median(s for _, s in imports)
        values["trace.overhead_ratio"] = pass_op_seconds(traced) / pass_op_seconds(untraced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(spans_file, {"workload": args.workload, "seed": args.seed,
                                        "spans": len(tracer.name_id)})
        spans_file = str(spans_file.relative_to(ROOT))
        op_seconds = unscaled = None

    failures = check_records(records, workload.known_defects)
    attempted = len(records)
    failed = sum(f["count"] for f in failures.values())
    correct = all(f["known_defect"] for f in failures.values())
    named["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    for key, value in workload.extra(records).items():
        named[key] = {"value": value, "unit": "1"}

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": attempted // passes,
        "metrics": named,
        "failures": [{"op": op, **f} for op, f in sorted(failures.items())],
        "unscaled_metrics": unscaled,
        "reference": {"kind": workload.reference, "nominal_s": reference.nominal_s,
                      "median_s": statistics.median(reference.nominal_s / r.scale
                                                    for r in records)},
        "op_median_s": op_seconds,
        "spans_file": spans_file,
        "provenance": provenance(args.seed),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
