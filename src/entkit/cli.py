"""Command-line front end: measures, figure-data sweeps, and protocol runs.

Output contract: numbers are printed with 12 significant digits, CSV files
have a header row and LF line endings, and re-running a command with the same
flags (seed included) reproduces the output byte for byte.  Exit codes:
0 success, 2 usage or parse failure, 3 domain error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import channel, cloning, measures, protocols, statezoo
from .qcore import DensityMatrix, DomainError, PureState, density, pure


class ParseFailure(ValueError):
    """Command-line value that does not parse (exit code 2)."""


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# state-spec mini grammar:  family:key=value,...  |  bell:K  |  matrix:FILE
# ---------------------------------------------------------------------------

_PURE_BUILDERS = {
    "ghz3": lambda kw: statezoo.make_pure("ghz3"),
    "ghz4": lambda kw: statezoo.make_pure("ghz4"),
    "w3_prototype": lambda kw: statezoo.make_pure("w3_prototype"),
    "w3_nonprototype": lambda kw: statezoo.make_pure("w3_nonprototype"),
    "qutrit_ghz3": lambda kw: statezoo.make_pure("qutrit_ghz3"),
    "pati": lambda kw: statezoo.make_pure("pati", kw["l"]),
    "liqiu_w": lambda kw: statezoo.make_pure("liqiu_w", int(kw["n"])),
    "ghz_class": lambda kw: statezoo.make_pure("ghz_class", int(kw["i"])),
    "gme": lambda kw: statezoo.make_pure("generalized_max_entangled", int(kw["n"])),
}

_MIXED_BUILDERS = {
    "werner": lambda kw: statezoo.make_mixed("werner", F=kw["F"]),
    "mjwk": lambda kw: statezoo.make_mixed("mjwk", C=kw["C"]),
    "wei": lambda kw: statezoo.make_mixed(
        "wei", x=kw["x"], y=kw["y"], a=kw["a"], b=kw["b"], gamma=kw["gamma"]),
    "werner_derivative": lambda kw: statezoo.make_mixed(
        "werner_derivative", F=kw["F"], a=kw["a"]),
    "nmems": lambda kw: statezoo.make_mixed("nmems", p=kw["p"]),
    "ih_mems": lambda kw: statezoo.make_mixed(
        "ih_mems", p1=kw["p1"], p2=kw["p2"], p3=kw["p3"], p4=kw["p4"]),
    "cloned_mems": lambda kw: statezoo.make_mixed("cloned_mems", c2=kw["c2"]),
}


def parse_state(spec: str):
    """Parse a state spec into a PureState or DensityMatrix."""
    if ":" in spec:
        family, _, rest = spec.partition(":")
    else:
        family, rest = spec, ""
    family = family.strip()

    if family == "matrix":
        return _load_matrix(rest)

    if family == "bell":
        try:
            k = int(rest)
        except ValueError as exc:
            raise ParseFailure(f"bell index must be an integer, got {rest!r}") from exc
        return statezoo.bell(k)

    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ParseFailure(f"expected key=value in state spec, got {item!r}")
            try:
                kwargs[key.strip()] = float(value)
            except ValueError as exc:
                raise ParseFailure(f"cannot parse value {value!r} for {key!r}") from exc

    builders = {**_PURE_BUILDERS, **_MIXED_BUILDERS}
    if family not in builders:
        raise ParseFailure(f"unknown state family {family!r}")
    try:
        return builders[family](kwargs)
    except KeyError as exc:
        raise ParseFailure(f"state family {family!r} is missing parameter {exc}") from exc


def _load_matrix(path: str):
    """Load a density matrix from JSON: {"dims": [...], "entries": [[re, im], ...]}
    with entries in row-major order."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        dims = tuple(int(d) for d in payload["dims"])
        entries = np.array([complex(re, im) for re, im in payload["entries"]])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read matrix file {path!r}: {exc}") from exc
    d = int(np.prod(dims))
    if entries.size != d * d:
        raise ParseFailure(f"matrix file has {entries.size} entries, expected {d * d}")
    return density(dims, entries.reshape(d, d))


def _as_density(state) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


# ---------------------------------------------------------------------------
# measure command
# ---------------------------------------------------------------------------

MEASURE_KINDS = (
    "concurrence", "tangle", "negativity", "eof", "entropy_vn", "entropy_linear",
    "singlet_fraction", "entropy_of_entanglement", "n_value", "m_value",
    "fidelity_opt",
)


def cmd_measure(args) -> int:
    state = parse_state(args.state)
    rho = _as_density(state)
    kind = args.kind
    if kind == "concurrence":
        value = measures.concurrence(rho)
    elif kind == "tangle":
        value = measures.tangle(rho)
    elif kind == "negativity":
        value = measures.negativity(rho)
    elif kind == "eof":
        value = measures.entanglement_of_formation(rho)
    elif kind == "entropy_vn":
        value = measures.entropy(rho, "von_neumann", args.base)
    elif kind == "entropy_linear":
        value = measures.entropy(rho, "linear")
    elif kind == "singlet_fraction":
        value = measures.singlet_fraction(rho, seed=args.seed, restarts=args.restarts)
    elif kind == "entropy_of_entanglement":
        value = measures.entropy_of_entanglement(rho)
    elif kind == "n_value":
        value = channel.n_value(rho)
    elif kind == "m_value":
        value = channel.m_value(rho)
    elif kind == "fidelity_opt":
        value = channel.optimal_fidelity(rho, seed=args.seed, restarts=args.restarts)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseFailure(f"unknown measure kind {kind!r}")
    print(fmt(value))
    return 0


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 2:
        raise DomainError("step count must be >= 2")
    return np.linspace(lo, hi, n)


def _fig_nmems(points):
    def row(p):
        forms = channel.closed_forms("nmems", p=p)
        return (p, forms["concurrence"], forms["n_value"], forms["m_value"])
    return ("p", "concurrence", "n_value", "m_value"), [row(x) for x in _grid(0.0, 1.0, points)]


def _fig_fidelity_vs_concurrence(points):
    def row(c):
        f_w = channel.closed_forms("werner", F=(1.0 + c) / 2.0)["fidelity_opt"]
        f_m = channel.closed_forms("mjwk", C=c)["fidelity_opt"]
        return (c, f_w, f_m)
    return ("concurrence", "f_opt_werner", "f_opt_mjwk"), [row(x) for x in _grid(0.0, 1.0, points)]


def _fig_fidelity_vs_m_mjwk(points):
    def row(c):
        w = channel.closed_forms("werner", F=(1.0 + c) / 2.0)
        m = channel.closed_forms("mjwk", C=c)
        return (c, w["m_value"], w["fidelity_opt"], m["m_value"], m["fidelity_opt"])
    return ("concurrence", "m_werner", "f_opt_werner", "m_mjwk", "f_opt_mjwk"), \
        [row(x) for x in _grid(0.0, 1.0, points)]


def _fig_fidelity_vs_m_wei(points):
    def row(g):
        w = channel.closed_forms("werner", F=(1.0 + g) / 2.0)
        a = b = (1.0 - g) / 2.0
        v = channel.closed_forms("wei", a=a, b=b, gamma=g)
        return (g, w["m_value"], w["fidelity_opt"], v["m_value"], v["fidelity_opt"])
    return ("gamma", "m_werner", "f_opt_werner", "m_wei", "f_opt_wei"), \
        [row(x) for x in _grid(0.0, 1.0, points)]


def _fig_fidelity_vs_entropy(points):
    def row(s):
        f_w = (1.0 + np.sqrt(1.0 - s)) / 2.0
        if s <= 16.0 / 27.0:
            f_m = 2.0 / 3.0 + np.sqrt(2.0 - 3.0 * s) / (3.0 * np.sqrt(2.0))
        else:
            f_m = 5.0 / 9.0 + np.sqrt(8.0 - 9.0 * s) / (3.0 * np.sqrt(6.0))
        return (s, f_w, f_m)
    return ("linear_entropy", "f_opt_werner", "f_opt_mjwk"), \
        [row(x) for x in _grid(0.0, 8.0 / 9.0 - 1e-9, points)]


def _fig_clone_advantage(points):
    def row(d):
        out = cloning.qutrit_cloned_pair(d)
        return (d, cloning.dense_coding_advantage(out.joint))
    return ("d", "entropy_advantage"), [row(x) for x in _grid(1e-3, 0.5, points)]


def _fig_distilled_fef(points):
    def row(d):
        out = cloning.qutrit_cloned_pair(d)
        dist = cloning.distill(out.joint, cloning.distillation_filter(out.joint))
        return (d, measures.singlet_fraction(dist, restarts=0))
    lo = cloning.NONOPT_FILTER_D_MIN + 1e-6
    return ("d", "singlet_fraction_distilled"), [row(x) for x in _grid(lo, 0.5, points)]


def _fig_dense_coding_capacity(points):
    def row(d):
        out = cloning.qutrit_cloned_pair(d)
        dist = cloning.distill(out.joint, cloning.distillation_filter(out.joint))
        return (d, cloning.dense_coding_capacity(out.joint),
                cloning.dense_coding_capacity(dist))
    lo = cloning.NONOPT_FILTER_D_MIN + 1e-6
    return ("d", "chi_undistilled", "chi_distilled"), [row(x) for x in _grid(lo, 0.5, points)]


def _fig_cdc_bits(points):
    def row(t):
        return (t, 1.0 + 2.0 * np.sin(t) ** 2, 1.0 + 2.0 * np.cos(t) ** 2)
    return ("theta", "bits_sin_family", "bits_cos_family"), \
        [row(x) for x in _grid(0.0, np.pi / 2.0, points)]


def _fig_pati_angle(points):
    def row(l):
        return (l, np.arctan2(1.0, l))
    return ("l", "theta"), [row(x) for x in _grid(0.0, 1.0, points)]


def _fig_pati_concurrence(points):
    def row(t):
        return (t, abs(np.sin(2.0 * t)))
    return ("theta", "concurrence"), [row(x) for x in _grid(np.pi / 4.0, np.pi / 2.0, points)]


def _fig_ghz4_concurrence(points):
    thetas = _grid(0.0, np.pi / 4.0, points)
    epsilons = _grid(0.0, np.pi / 2.0, points)
    rows = [(t, e, 2.0 * np.sin(t) ** 2 * np.sin(e) ** 2)
            for t in thetas for e in epsilons]
    return ("theta", "epsilon", "concurrence"), rows


def _fig_w3_concurrence(points):
    def row(t):
        return (t, np.sqrt(2.0) * abs(np.sin(t) * np.cos(t)))
    return ("theta", "concurrence"), [row(x) for x in _grid(np.pi / 4.0, np.pi / 2.0, points)]


def _fig_w4_concurrence(points):
    thetas = _grid(np.pi / 4.0, np.pi / 2.0, points)
    epsilons = _grid(np.pi / 4.0, np.pi / 2.0, points)
    rows = [(t, e, abs(np.sin(2.0 * t)) * np.cos(e) ** 2)
            for t in thetas for e in epsilons]
    return ("theta", "epsilon", "concurrence"), rows


FIGURES = {
    "3.1": (_fig_nmems, 1001),
    "3.2": (_fig_fidelity_vs_concurrence, 201),
    "3.3": (_fig_fidelity_vs_m_mjwk, 201),
    "3.4": (_fig_fidelity_vs_m_wei, 201),
    "3.5": (_fig_fidelity_vs_entropy, 201),
    "4.1": (_fig_clone_advantage, 101),
    "4.2": (_fig_distilled_fef, 33),
    "4.3": (_fig_dense_coding_capacity, 33),
    "5.1": (_fig_cdc_bits, 201),
    "5.2": (_fig_pati_angle, 201),
    "5.3": (_fig_pati_concurrence, 201),
    "5.4": (_fig_ghz4_concurrence, 41),
    "5.5": (_fig_w3_concurrence, 201),
    "5.6": (_fig_w4_concurrence, 41),
}


def cmd_figure(args) -> int:
    if args.figure_id not in FIGURES:
        raise ParseFailure(f"unknown figure id {args.figure_id!r}; known: {sorted(FIGURES)}")
    builder, default_points = FIGURES[args.figure_id]
    points = args.points or default_points
    header, rows = builder(points)
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"figure": args.figure_id, "columns": list(header),
                           "rows": [[float(x) for x in row] for row in rows]},
                          indent=None, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# protocol command
# ---------------------------------------------------------------------------

def cmd_protocol(args) -> int:
    if args.protocol == "cdc":
        kwargs = {}
        if args.l is not None:
            kwargs["l"] = args.l
        if args.n is not None:
            kwargs["n"] = args.n
        if args.class_index is not None:
            kwargs["class_index"] = args.class_index
        report = protocols.cdc_run(
            args.family, theta=args.theta, epsilon=args.epsilon,
            controller_outcome=args.outcome, aux_outcome=args.aux, **kwargs)
        payload = report.to_dict()
        if args.montecarlo:
            payload["montecarlo"] = protocols.monte_carlo_cdc(
                args.family, args.theta, args.montecarlo, args.seed, **kwargs)
    elif args.protocol == "secret-share":
        c = np.sqrt(args.c2)
        report = protocols.secret_share_run(c, args.charlie_bit, args.alice_outcome)
        payload = report.to_dict()
        if args.montecarlo:
            payload["montecarlo"] = protocols.monte_carlo_secret_share(
                c, args.montecarlo, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseFailure(f"unknown protocol {args.protocol!r}")
    text = json.dumps(payload, sort_keys=True, default=float) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Entanglement measures, channel analysis and protocol simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="evaluate one measure of one state")
    m.add_argument("--state", required=True,
                   help="state spec, e.g. werner:F=0.75, bell:1, matrix:file.json")
    m.add_argument("--kind", required=True, choices=MEASURE_KINDS)
    m.add_argument("--base", type=float, default=2.0, help="entropy base (default 2)")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--restarts", type=int, default=32,
                   help="local-unitary ascent restarts for singlet_fraction")
    m.set_defaults(func=cmd_measure)

    f = sub.add_parser("figure", help="write one figure's data as CSV/JSON")
    f.add_argument("figure_id", help="figure id, e.g. 3.1")
    f.add_argument("--out", help="output path (stdout when omitted)")
    f.add_argument("--points", type=int, default=None, help="grid points per axis")
    f.add_argument("--format", choices=("csv", "json"), default="csv")
    f.set_defaults(func=cmd_figure)

    p = sub.add_parser("protocol", help="run a protocol and emit its transcript")
    p.add_argument("protocol", choices=("cdc", "secret-share"))
    p.add_argument("--family", default="ghz",
                   help="CDC family: ghz, ghz_class, pati, ghz4, w3, w4, liqiu_w, qutrit_ghz")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--l", type=float, default=None, help="pati state parameter")
    p.add_argument("--n", type=int, default=None, help="liqiu_w state parameter")
    p.add_argument("--class-index", dest="class_index", type=int, default=None)
    p.add_argument("--outcome", default="+", help="controller outcome(s), e.g. +, -, ++, up")
    p.add_argument("--aux", type=int, default=0, help="sender's auxiliary outcome")
    p.add_argument("--c2", type=float, default=2.0 / 3.0, help="cloning c^2 for secret-share")
    p.add_argument("--charlie-bit", dest="charlie_bit", type=int, default=0, choices=(0, 1))
    p.add_argument("--alice-outcome", dest="alice_outcome", default="+", choices=("+", "-"))
    p.add_argument("--montecarlo", type=int, default=0, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_protocol)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
