"""The four benchmark workloads.

Each workload builds its inputs from the seed, lists its operations (one call
into a stable public entry point each, split into a "small" and a "large"
part), and checks every output outside the timed window.  Only these entry
points are used: `python -m entkit.cli`, `cli.main`,
`measures.singlet_fraction`, `channel.analyze_family`, `cloning.*`,
`protocols.cdc_run`, `protocols.monte_carlo_cdc` and
`protocols.secret_share_run`.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


@dataclass
class Op:
    """One timed call.  `run(pass_index)` is timed; `after` turns its return
    value into the recorded output right after the timed window; `items`
    counts the work the call completed; `check` returns None when the output
    is right, otherwise a one-line reason, or {sub-check: reason} for a check
    made of named parts."""

    name: str
    part: str                                   # "small" or "large"
    run: Callable[[int], object]
    check: Callable[[object], str | None]
    items: Callable[[object], int] = lambda out: 1
    after: Callable[[object], object] = lambda out: out


class Workload:
    name = ""
    # end-to-end metric -> the name it carries for this workload in the detail line
    named: dict = {}
    # (op name, sub-check) pairs that fail on the program as it stands
    known_defects: frozenset = frozenset()
    # which reference the runner scales this workload's times by (see run.py)
    reference = "kernel"

    def ops(self, traced: bool) -> list:
        raise NotImplementedError

    def peak_rss_mb(self, records) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra(self, records) -> dict:
        return {}

    def merge_child_spans(self, tracer, records):
        pass


def child_env() -> dict:
    """Environment for entkit child processes: src/ importable, ENTKIT_THREADS unset."""
    env = dict(os.environ)
    env.pop("ENTKIT_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _load_test_util():
    """The test suite's random-state generators and two-qubit FEF oracle."""
    spec = importlib.util.spec_from_file_location("entkit_test_util", ROOT / "tests" / "util.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _interleave(small: list, large: list) -> list:
    """Alternate the two parts, so that in a single timed pass both parts
    sample the whole window and a slow stretch of the host hits them alike."""
    out = []
    for i in range(max(len(small), len(large))):
        out += small[i:i + 1] + large[i:i + 1]
    return out


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n seeded points, one in each of n equal cells of (lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + 1.0 - rng.random(n)) / n


# ---------------------------------------------------------------------------
# cli-cold: fresh `python -m entkit.cli` processes
# ---------------------------------------------------------------------------

@dataclass
class ColdResult:
    returncode: int
    stdout: bytes
    maxrss_kb: int
    spans: Path | None = None


def _run_cold(argv: list, env: dict) -> tuple:
    """Run one command to completion; returns (exit code, stdout, peak RSS in KB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, usage.ru_maxrss


class CliCold(Workload):
    """40 cold commands: measures and error paths (small), figures and protocols (large)."""

    name = "cli-cold"
    reference = "process"
    named = {"op_p50_s": "cli_cmd_p50_s", "op_p75_s": "cli_cmd_p75_s",
             "small_items_per_s": "cli_measure_and_error_cmds_per_s",
             "large_items_per_s": "cli_figure_and_protocol_cmds_per_s"}

    FIGURES = ("3.1", "3.2", "3.3", "3.4", "3.5", "4.1", "4.2", "4.3",
               "5.1", "5.2", "5.3", "5.4", "5.5", "5.6")
    PROTOCOLS = (
        ["cdc", "--family", "ghz", "--theta", "0.6"],
        ["cdc", "--family", "ghz_class", "--theta", "0.6", "--class-index", "1"],
        ["cdc", "--family", "pati", "--l", "0.5"],
        ["cdc", "--family", "ghz4", "--theta", "0.6", "--epsilon", "0.5"],
        ["cdc", "--family", "w3", "--theta", "0.6"],
        ["cdc", "--family", "w4", "--theta", "1.0", "--epsilon", "1.0"],
        ["cdc", "--family", "liqiu_w", "--n", "3"],
        ["cdc", "--family", "qutrit_ghz", "--theta", "0.9"],
        ["secret-share"],
    )

    def __init__(self, seed: int):
        from entkit import cli  # noqa: F401  (the in-process reference needs it)

        util = _load_test_util()
        rng = np.random.default_rng(seed)
        OUT.mkdir(parents=True, exist_ok=True)
        matrix = OUT / "cli-cold-rho.json"
        rho = util.random_density(rng, (2, 2)).matrix
        matrix.write_text(json.dumps(
            {"dims": [2, 2], "entries": [[z.real, z.imag] for z in rho.reshape(-1)]}))
        a, b = (float(v) for v in rng.uniform(0.02, 0.1, size=2))
        gamma = float(rng.uniform(0.1, 0.6))
        x = (1.0 - a - b - gamma) / 2.0
        specs = {
            "werner": f"werner:F={rng.uniform(0.3, 1.0)!r}",
            "mjwk": f"mjwk:C={rng.uniform(0.05, 1.0)!r}",
            "nmems": f"nmems:p={rng.uniform(0.0, 1.0)!r}",
            "wei": f"wei:x={x!r},y={x!r},a={a!r},b={b!r},gamma={gamma!r}",
            "bell": f"bell:{int(rng.integers(1, 5))}",
            "matrix": f"matrix:{matrix.relative_to(ROOT)}",
        }
        measures = [
            ("werner", "concurrence"), ("mjwk", "tangle"), ("nmems", "negativity"),
            ("wei", "eof"), ("matrix", "entropy_vn"), ("bell", "entropy_linear"),
            ("bell", "entropy_of_entanglement"), ("werner", "n_value"), ("mjwk", "m_value"),
            ("matrix", "fidelity_opt"), ("nmems", "concurrence"), ("wei", "negativity"),
            ("matrix", "concurrence"),
        ]
        # (argv, expected exit code, part)
        small = [(["measure", "--state", specs[s], "--kind", k], 0, "small")
                 for s, k in measures]
        small += [
            (["measure", "--state", "nosuch:F=0.5", "--kind", "concurrence"], 2, "small"),
            (["measure", "--state", specs["werner"], "--kind", "bogus"], 2, "small"),
            (["measure", "--state", "werner:F=1.5", "--kind", "concurrence"], 3, "small"),
            (["protocol", "cdc", "--family", "w3", "--theta", "1.0"], 3, "small"),
        ]
        large = [(["figure", f], 0, "large") for f in self.FIGURES]
        large += [(["protocol", *p], 0, "large") for p in self.PROTOCOLS]
        self.commands = _interleave(small, large)
        self.env = child_env()
        self._reference: dict = {}

    def _in_process(self, argv: list) -> tuple:
        from entkit import cli

        key = tuple(argv)
        if key not in self._reference:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            self._reference[key] = (rc, out.getvalue().encode())
        return self._reference[key]

    def ops(self, traced: bool) -> list:
        ops = []
        for i, (argv, expected, part) in enumerate(self.commands):
            def run(k, argv=argv, i=i):
                if traced:
                    spans = OUT / f"cli-cold-spans-{os.getpid()}-{k}-{i}.jsonl"
                    cmd = [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans)]
                else:
                    spans = None
                    cmd = [sys.executable, "-m", "entkit.cli"]
                rc, out, rss = _run_cold(cmd + argv, self.env)
                return ColdResult(rc, out, rss, spans)

            def check(res, argv=argv, expected=expected):
                ref_rc, ref_out = self._in_process(argv)
                if res.returncode != expected or ref_rc != expected:
                    return f"exit code {res.returncode} (in-process {ref_rc}), expected {expected}"
                if res.stdout != ref_out:
                    return f"stdout differs from in-process cli.main ({len(res.stdout)} vs {len(ref_out)} bytes)"
                return None

            ops.append(Op(" ".join(argv), part, run, check))
        return ops

    def peak_rss_mb(self, records) -> float:
        return max((r.out.maxrss_kb for r in records if r.out is not None), default=0) / 1024.0

    def merge_child_spans(self, tracer, records):
        for r in records:
            if r.out is not None and r.out.spans is not None and r.out.spans.exists():
                tracer.add_jsonl(r.out.spans, r.span)
                r.out.spans.unlink()


# ---------------------------------------------------------------------------
# fef: the fully entangled fraction ascent
# ---------------------------------------------------------------------------

def bell_enumeration(m: np.ndarray, n: int) -> float:
    """Largest overlap with the n^2 generalised Bell vectors."""
    xi = np.exp(2j * np.pi / n)
    best = -np.inf
    for x in range(n):
        for y in range(n):
            v = np.zeros(n * n, dtype=complex)
            for j in range(n):
                v[j * n + (j + x) % n] = xi ** (j * y)
            v /= np.sqrt(n)
            best = max(best, float(np.real(v.conj() @ m @ v)))
    return best


def fef_upper_bound(m: np.ndarray, n: int) -> float:
    """Certified upper bound min(lambda_max(rho), ||rho^T_B||_1 / n) on the FEF."""
    pt = m.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)
    return min(float(np.linalg.eigvalsh(m).max()),
               float(np.abs(np.linalg.eigvalsh(pt)).sum()) / n)


class Fef(Workload):
    """singlet_fraction on 2x2 states at 32 restarts (small) and 3x3 at 6 (large)."""

    name = "fef"
    named = {"small_items_per_s": "fef2_states_per_s", "large_items_per_s": "fef3_states_per_s"}

    def __init__(self, seed: int):
        from entkit import cloning, statezoo

        util = _load_test_util()
        self.util = util
        rng = np.random.default_rng(seed)
        pair = cloning.qutrit_cloned_pair(0.5).joint
        qubits = [
            ("fef2:ginibre-full", "small", 32, util.random_density(rng, (2, 2))),
            ("fef2:ginibre-rank2", "small", 32, util.random_density(rng, (2, 2), rank=2)),
            ("fef2:werner-0.8", "small", 32, statezoo.werner(0.8)),
            ("fef2:mjwk-0.5", "small", 32, statezoo.mjwk(0.5)),
        ]
        qutrits = [
            ("fef3:ginibre-full", "large", 6, util.random_density(rng, (3, 3))),
            ("fef3:ginibre-rank3", "large", 6, util.random_density(rng, (3, 3), rank=3)),
            ("fef3:clone-d0.45", "large", 6, cloning.qutrit_cloned_pair(0.45).joint),
            ("fef3:clone-d0.5", "large", 6, pair),
            ("fef3:distilled-d0.5", "large", 6,
             cloning.distill(pair, cloning.distillation_filter(pair))),
        ]
        self.states = _interleave(qubits, qutrits)

    def ops(self, traced: bool) -> list:
        from entkit import measures

        ops = []
        for name, part, restarts, rho in self.states:
            def run(k, rho=rho, restarts=restarts):
                return measures.singlet_fraction(rho, restarts=restarts)

            if part == "small":
                def check(value, rho=rho):
                    oracle = self.util.fef_closed_form(rho)
                    if abs(value - oracle) > 1e-8:
                        return f"FEF {value!r} vs T-matrix oracle {oracle!r}"
                    return None
            else:
                def check(value, rho=rho):
                    lo = bell_enumeration(rho.matrix, 3)
                    hi = fef_upper_bound(rho.matrix, 3)
                    if not lo - 1e-12 <= value <= hi + 1e-9:
                        return f"FEF {value!r} outside [enumeration {lo!r}, upper bound {hi!r}]"
                    return None
            ops.append(Op(name, part, run, check))
        return ops

    def extra(self, records) -> dict:
        """fef3_gap: mean of (certified upper bound - returned FEF) over the 3x3 calls."""
        rho = {name: state for name, _, _, state in self.states}
        gaps = [fef_upper_bound(rho[r.op.name].matrix, 3) - r.out
                for r in records if r.op.part == "large" and r.out is not None]
        return {"fef3_gap": float(np.mean(gaps))} if gaps else {}


# ---------------------------------------------------------------------------
# sweep: grid evaluation, 4x4 states (small) and 9x9 to 64x64 (large)
# ---------------------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"
    named = {"small_items_per_s": "sweep_small_points_per_s",
             "large_items_per_s": "sweep_large_points_per_s"}

    SMALL_FIGURES = ("3.1", "3.2", "3.3", "3.4", "3.5", "5.1", "5.2", "5.3", "5.4", "5.5", "5.6")
    LARGE_FIGURES = ("4.1", "4.2", "4.3")
    # family -> (fixed parameters, sweep interval (lo, hi])
    FAMILIES = {
        "werner": ({}, 0.25, 1.0),
        "mjwk": ({}, 0.0, 1.0),
        "nmems": ({}, 0.0, 1.0),
        "wei": ({"a": 0.05, "b": 0.05}, 0.0, 0.9),
        "werner_derivative": ({"F": 0.8}, 0.5, 1.0),
    }
    FAMILY_POINTS = 20
    GRID_POINTS = 16
    CLOSED_FORM_TOL = 1e-8

    def __init__(self, seed: int):
        from entkit import cli, cloning  # noqa: F401

        rng = np.random.default_rng(seed)
        OUT.mkdir(parents=True, exist_ok=True)
        self.family_grids = {fam: _stratified(rng, lo, hi, self.FAMILY_POINTS)
                             for fam, (_, lo, hi) in self.FAMILIES.items()}
        self.lambdas = _stratified(rng, 0.0, 1.0, self.GRID_POINTS)
        self.clone_ds = _stratified(rng, cloning.NONOPT_FILTER_D_MIN, 0.5, self.GRID_POINTS)
        self.params = cloning.uqcm_params(2)
        self._figure_digest: dict = {}

    def _figure_op(self, fid: str, part: str) -> Op:
        from entkit import cli

        path = OUT / f"sweep-figure-{fid}.csv"

        def run(k):
            return cli.main(["figure", fid, "--out", str(path)])

        def after(rc):
            data = path.read_bytes() if rc == 0 else b""
            return rc, max(data.count(b"\n") - 1, 0), hashlib.sha256(data).hexdigest()

        def check(out):
            rc, rows, digest = out
            if rc != 0 or rows < 1:
                return f"figure {fid} exit code {rc}, {rows} rows"
            first = self._figure_digest.setdefault(fid, digest)
            if digest != first:
                return f"figure {fid} bytes differ between passes"
            return None

        return Op(f"figure:{fid}", part, run, check, items=lambda out: out[1], after=after)

    def ops(self, traced: bool) -> list:
        from entkit import channel, cloning

        ops = [self._figure_op(f, "small") for f in self.SMALL_FIGURES]
        for fam, (fixed, _, _) in self.FAMILIES.items():
            grid = self.family_grids[fam]

            def run(k, fam=fam, fixed=fixed, grid=grid):
                return channel.analyze_family(fam, grid, restarts=0, **fixed)

            def check(rows, fam=fam, grid=grid):
                if len(rows) != len(grid):
                    return f"{len(rows)} rows for {len(grid)} grid values"
                for value, report, forms in rows:
                    for key, want in forms.items():
                        got = getattr(report, key, None)
                        if want is not None and got is not None \
                                and abs(got - want) > self.CLOSED_FORM_TOL:
                            return f"{fam}({value!r}).{key} = {got!r}, closed form {want!r}"
                return None

            ops.append(Op(f"analyze_family:{fam}", "small", run, check, items=len))

        ops += [self._figure_op(f, "large") for f in self.LARGE_FIGURES]
        for i, lam in enumerate(self.lambdas):
            def run(k, lam=lam):
                return cloning.clone_bipartite(lam, self.params)

            def check(out, lam=lam):
                local, nonlocal_, _ = out
                err = max(
                    np.abs(local.matrix - cloning.local_closed_form(lam, self.params)).max(),
                    np.abs(nonlocal_.matrix - cloning.nonlocal_closed_form(lam, self.params)).max())
                return None if err <= 1e-10 else f"clone_bipartite({lam!r}) off its closed forms by {err:.3e}"

            ops.append(Op(f"clone_bipartite:{i}", "large", run, check))
        for i, d in enumerate(self.clone_ds):
            def run(k, d=d):
                pair = cloning.qutrit_cloned_pair(d)
                reduction = cloning.reduction_check(pair.joint)
                distilled = cloning.distill(pair.joint, cloning.distillation_filter(pair.joint))
                return pair.joint, reduction, distilled

            def check(out, d=d):
                joint, reduction, _ = out
                pt = joint.matrix.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
                evals = np.linalg.eigvalsh(pt)
                for want in (cloning.pt_eigenvalue_1(d), cloning.pt_eigenvalue_2(d)):
                    if np.abs(evals - want).min() > 1e-9:
                        return f"clone pair d={d!r}: no PT eigenvalue near closed form {want!r}"
                want = cloning.reduction_eigenvalue_nonopt(d)
                if abs(reduction.eigenvalue - want) > 1e-9:
                    return f"clone pair d={d!r}: reduction eigenvalue {reduction.eigenvalue!r} vs {want!r}"
                return None

            ops.append(Op(f"clone_pipeline:{i}", "large", run, check))
        return ops


# ---------------------------------------------------------------------------
# protocol-mc: controlled dense coding and secret sharing
# ---------------------------------------------------------------------------

class ProtocolMc(Workload):
    """Deterministic protocol runs (small) and Monte-Carlo samples (large)."""

    name = "protocol-mc"
    named = {"small_items_per_s": "protocol_runs_per_s", "large_items_per_s": "mc_samples_per_s"}
    # Sub-checks that fail on the program as it stands; they stay in the mix and
    # in `failed`.  ghz4: the sampler only draws Paul's "+" and exact_success is
    # the published closed form, not the Born average.  qutrit_ghz: "side" is
    # never sampled, and exact_success (0.773) is not the Born average (0.515).
    # liqiu_w: exact_success is 2/(n+1), the Born average half that.
    known_defects = frozenset({
        ("monte_carlo_cdc:ghz4", "empirical_success"), ("monte_carlo_cdc:ghz4", "exact_success"),
        ("monte_carlo_cdc:qutrit_ghz", "empirical_success"),
        ("monte_carlo_cdc:qutrit_ghz", "exact_success"),
        ("monte_carlo_cdc:liqiu_w", "exact_success"),
    })

    # family, theta, keyword arguments, every controller outcome
    FAMILIES = (
        ("ghz", 0.6, {}, ("+", "-")),
        ("ghz_class", 0.6, {"class_index": 1}, ("+", "-")),
        ("pati", None, {"l": 0.5}, ("+", "-")),
        ("ghz4", 0.6, {"epsilon": 0.5}, ("++", "+-", "-+", "--")),
        ("w3", 0.6, {}, ("+", "-")),
        ("w4", 1.0, {"epsilon": 1.0}, ("++", "+-", "-+", "--")),
        ("liqiu_w", None, {"n": 3}, ("+", "-")),
        ("qutrit_ghz", 0.9, {}, ("up", "side", "down")),
    )
    MC_SAMPLES = 500
    C2 = 2.0 / 3.0

    def __init__(self, seed: int):
        import entkit  # noqa: F401

        self.seed = seed
        self._references: dict = {}

    def _reference(self, family, theta, kwargs, outcomes) -> dict:
        """{outcome: (p_branch, p_success)} from one untimed cdc_run per outcome."""
        from entkit import protocols

        if family not in self._references:
            reports = {o: protocols.cdc_run(family, theta=theta, controller_outcome=o, **kwargs)
                       for o in outcomes}
            self._references[family] = {o: (r.branch_probability, r.success_probability)
                                        for o, r in reports.items()}
        return self._references[family]

    def _born_average(self, *spec) -> float:
        """Sum of p_branch * p_success over every controller outcome."""
        return sum(b * s for b, s in self._reference(*spec).values())

    def ops(self, traced: bool) -> list:
        from entkit import protocols

        ops = []
        for index, (family, theta, kwargs, outcomes) in enumerate(self.FAMILIES):
            for outcome in outcomes:
                def run(k, family=family, theta=theta, kwargs=kwargs, outcome=outcome):
                    return protocols.cdc_run(family, theta=theta, controller_outcome=outcome,
                                             **kwargs)

                def check(report, spec=(family, theta, kwargs, outcomes), outcome=outcome):
                    reference = self._reference(*spec)
                    got = (report.branch_probability, report.success_probability)
                    if max(abs(g - w) for g, w in zip(got, reference[outcome])) > 1e-12:
                        return f"(p_branch, p_success) {got!r} vs {reference[outcome]!r} untimed"
                    total = sum(b for b, _ in reference.values())
                    if abs(total - 1.0) > 1e-9:
                        return f"{spec[0]} branch probabilities sum to {total!r}"
                    if not 0.0 <= report.success_probability <= 1.0 + 1e-12:
                        return f"success probability {report.success_probability!r}"
                    return None

                ops.append(Op(f"cdc_run:{family}:{outcome}", "small", run, check))

            def run_mc(k, family=family, theta=theta, kwargs=kwargs, index=index):
                seed = int(np.random.SeedSequence([self.seed, k, index]).generate_state(1)[0])
                return protocols.monte_carlo_cdc(family, theta, self.MC_SAMPLES, seed, **kwargs)

            def check_mc(result, spec=(family, theta, kwargs, outcomes)):
                born = self._born_average(*spec)
                n = result["n_samples"]
                sigma = np.sqrt(born * (1.0 - born) / n)
                problems = {}
                if abs(result["empirical_success"] - born) > 5.0 * sigma + 1e-12:
                    problems["empirical_success"] = (
                        f"empirical_success {result['empirical_success']:.4f} "
                        f"not within 5 sigma of the Born average {born:.4f}")
                if abs(result["exact_success"] - born) > 1e-9:
                    problems["exact_success"] = (f"exact_success {result['exact_success']:.4f} "
                                                 f"!= Born average {born:.4f}")
                return problems or None

            ops.append(Op(f"monte_carlo_cdc:{family}", "large", run_mc, check_mc,
                          items=lambda result: result["n_samples"]))

        c = np.sqrt(self.C2)
        q = 4.0 * self.C2 * (1.0 - self.C2) / 2.0
        for bit in (0, 1):
            for outcome in ("+", "-"):
                def run(k, bit=bit, outcome=outcome):
                    return protocols.secret_share_run(c, bit, outcome)

                def check(report):
                    if abs(report.success_probability - q) > 1e-12:
                        return f"success probability {report.success_probability!r} != Q = {q!r}"
                    return None

                ops.append(Op(f"secret_share_run:{bit}{outcome}", "small", run, check))
        return ops


WORKLOADS = {w.name: w for w in (CliCold, Fef, Sweep, ProtocolMc)}
