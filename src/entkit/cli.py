"""Command-line front end: measures, figure-data sweeps, and protocol runs.

Output contract: numbers are printed with 12 significant digits, CSV files
have a header row and LF line endings, and re-running a command with the same
flags (seed included) reproduces the output byte for byte.  Exit codes:
0 success, 2 usage or parse failure, 3 domain error.
"""
from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import channel, cloning, measures, protocols, statezoo
from .qcore import DensityMatrix, DomainError, PureState


class ParseFailure(ValueError):
    """Command-line value that does not parse (exit code 2)."""


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# state-spec mini grammar:  family:key=value,...  |  bell:K  |  matrix:FILE
# ---------------------------------------------------------------------------

# the keys of family:key=value,... are the parameters of the statezoo builder
_STATE_FAMILIES = {**statezoo.PURE_FAMILIES, **statezoo.MIXED_FAMILIES}
_STATE_ALIASES = {"gme": "generalized_max_entangled"}


def parse_state(spec: str):
    """Parse a state spec into a PureState or DensityMatrix."""
    family, _, rest = spec.partition(":")
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

    builder = _STATE_FAMILIES.get(_STATE_ALIASES.get(family, family))
    if builder is None:
        raise ParseFailure(f"unknown state family {family!r}")
    params = inspect.signature(builder, eval_str=True).parameters
    for name, param in params.items():
        if name not in kwargs:
            raise ParseFailure(f"state family {family!r} is missing parameter {name!r}")
        if param.annotation is int:
            if not kwargs[name].is_integer():
                raise ParseFailure(f"state family {family!r} parameter {name!r} must be "
                                   f"an integer, got {kwargs[name]!r}")
            kwargs[name] = int(kwargs[name])
    unknown = [key for key in kwargs if key not in params]
    if unknown:
        raise ParseFailure(f"state family {family!r} has no parameter {unknown[0]!r}")
    return builder(**kwargs)


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
    d = math.prod(dims)
    if entries.size != d * d:
        raise ParseFailure(f"matrix file has {entries.size} entries, expected {d * d}")
    return DensityMatrix(dims, entries.reshape(d, d))


def _emit(text: str, out: str | None) -> int:
    """Write a command's output to the file `out`, or to stdout when omitted."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# measure command
# ---------------------------------------------------------------------------

# kind -> value(rho, args)
MEASURES = {
    "concurrence": lambda rho, args: measures.concurrence(rho),
    "tangle": lambda rho, args: measures.tangle(rho),
    "negativity": lambda rho, args: measures.negativity(rho),
    "eof": lambda rho, args: measures.entanglement_of_formation(rho),
    "entropy_vn": lambda rho, args: measures.entropy(rho, "von_neumann", args.base),
    "entropy_linear": lambda rho, args: measures.entropy(rho, "linear"),
    "singlet_fraction": lambda rho, args: measures.singlet_fraction(
        rho, seed=args.seed, restarts=args.restarts),
    "entropy_of_entanglement": lambda rho, args: measures.entropy_of_entanglement(rho),
    "n_value": lambda rho, args: channel.n_value(rho),
    "m_value": lambda rho, args: channel.m_value(rho),
    "fidelity_opt": lambda rho, args: channel.optimal_fidelity(
        rho, seed=args.seed, restarts=args.restarts),
}


def cmd_measure(args) -> int:
    state = parse_state(args.state)
    rho = state.density() if isinstance(state, PureState) else state
    print(fmt(MEASURES[args.kind](rho, args)))
    return 0


# ---------------------------------------------------------------------------
# figure command: each figure is a grid over its axes and a library function
# giving the remaining columns at one grid point
# ---------------------------------------------------------------------------

class Figure(NamedTuple):
    columns: tuple
    axes: tuple                 # one (lo, hi) per swept axis
    points: int                 # default grid points per axis
    values: Callable            # grid point -> the columns after the axes


def _pick(forms: dict, *keys) -> tuple:
    return tuple(map(forms.__getitem__, keys))


def _cloned_and_distilled(d: float) -> tuple:
    joint = cloning.qutrit_cloned_pair(d).joint
    return joint, cloning.distill(joint, cloning.distillation_filter(joint))


_PI_4 = np.pi / 4.0
_PI_2 = np.pi / 2.0
_DISTILLABLE = (cloning.NONOPT_FILTER_D_MIN + 1e-6, 0.5)

FIGURES = {
    "3.1": Figure(("p", "concurrence", "n_value", "m_value"), ((0.0, 1.0),), 1001,
                  lambda p: _pick(channel.closed_forms("nmems", p=p),
                                  "concurrence", "n_value", "m_value")),
    "3.2": Figure(("concurrence", "f_opt_werner", "f_opt_mjwk"), ((0.0, 1.0),), 201,
                  lambda c: (channel.closed_forms("werner", C=c)["fidelity_opt"],
                             channel.closed_forms("mjwk", C=c)["fidelity_opt"])),
    "3.3": Figure(("concurrence", "m_werner", "f_opt_werner", "m_mjwk", "f_opt_mjwk"),
                  ((0.0, 1.0),), 201,
                  lambda c: (
                      _pick(channel.closed_forms("werner", C=c), "m_value", "fidelity_opt")
                      + _pick(channel.closed_forms("mjwk", C=c), "m_value", "fidelity_opt"))),
    "3.4": Figure(("gamma", "m_werner", "f_opt_werner", "m_wei", "f_opt_wei"), ((0.0, 1.0),), 201,
                  lambda g: (
                      _pick(channel.closed_forms("werner", C=g), "m_value", "fidelity_opt")
                      + _pick(channel.closed_forms("wei", gamma=g), "m_value", "fidelity_opt"))),
    "3.5": Figure(("linear_entropy", "f_opt_werner", "f_opt_mjwk"),
                  ((0.0, 8.0 / 9.0 - 1e-9),), 201,
                  lambda s: (channel.fidelity_from_linear_entropy("werner", s),
                             channel.fidelity_from_linear_entropy("mjwk", s))),
    "4.1": Figure(("d", "entropy_advantage"), ((1e-3, 0.5),), 101,
                  lambda d: (cloning.dense_coding_advantage(
                      cloning.qutrit_cloned_pair(d).joint),)),
    "4.2": Figure(("d", "bell_enumeration_distilled"), (_DISTILLABLE,), 33,
                  lambda d: (measures.singlet_fraction(_cloned_and_distilled(d)[1], restarts=0),)),
    "4.3": Figure(("d", "chi_undistilled", "chi_distilled"), (_DISTILLABLE,), 33,
                  lambda d: tuple(map(cloning.dense_coding_capacity, _cloned_and_distilled(d)))),
    "5.1": Figure(("theta", "bits_sin_family", "bits_cos_family"), ((0.0, _PI_2),), 201,
                  lambda t: (protocols.cdc_closed_forms("ghz", theta=t)["bits"],
                             protocols.cdc_closed_forms("qutrit_ghz", theta=t)["bits"])),
    "5.2": Figure(("l", "theta"), ((0.0, 1.0),), 201,
                  lambda l: (protocols.cdc_closed_forms("pati", l=l)["theta"],)),
    "5.3": Figure(("theta", "concurrence"), ((_PI_4, _PI_2),), 201,
                  lambda t: (protocols.cdc_closed_forms("ghz", theta=t)["concurrence"],)),
    "5.4": Figure(("theta", "epsilon", "concurrence"), ((0.0, _PI_4), (0.0, _PI_2)), 41,
                  lambda t, e: (protocols.cdc_closed_forms(
                      "ghz4", theta=t, epsilon=e)["concurrence"],)),
    "5.5": Figure(("theta", "concurrence"), ((_PI_4, _PI_2),), 201,
                  lambda t: (protocols.cdc_closed_forms("w3", theta=t)["concurrence"],)),
    "5.6": Figure(("theta", "epsilon", "concurrence"), ((_PI_4, _PI_2), (_PI_4, _PI_2)), 41,
                  lambda t, e: (protocols.cdc_closed_forms(
                      "w4", theta=t, epsilon=e)["concurrence"],)),
}


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 2:
        raise DomainError("step count must be >= 2")
    return np.linspace(lo, hi, n)


def _rows(figure: Figure, points: int) -> list:
    """Rows (axis values..., column values...) over the product of the axis grids."""
    grids = [_grid(lo, hi, points) for lo, hi in figure.axes]
    return [(*x, *figure.values(*x)) for x in itertools.product(*grids)]


def cmd_figure(args) -> int:
    if args.figure_id not in FIGURES:
        raise ParseFailure(f"unknown figure id {args.figure_id!r}; known: {sorted(FIGURES)}")
    figure = FIGURES[args.figure_id]
    rows = _rows(figure, figure.points if args.points is None else args.points)
    if args.format == "csv":
        lines = [",".join(figure.columns)]
        lines += [",".join(map(fmt, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"figure": args.figure_id, "columns": list(figure.columns),
                           "rows": [[float(x) for x in row] for row in rows]},
                          indent=None, separators=(",", ":")) + "\n"
    return _emit(text, args.out)


# ---------------------------------------------------------------------------
# protocol command
# ---------------------------------------------------------------------------

def cmd_protocol(args) -> int:
    if args.protocol == "cdc":
        kwargs = {name: getattr(args, name) for name in ("epsilon", "l", "n", "class_index")
                  if getattr(args, name) is not None}
        report = protocols.cdc_run(args.family, theta=args.theta, controller_outcome=args.outcome,
                                   aux_outcome=args.aux, **kwargs)
        payload = report.to_dict()
        if args.montecarlo:
            payload["montecarlo"] = protocols.monte_carlo_cdc(
                args.family, args.theta, args.montecarlo, args.seed, **kwargs)
    else:
        if args.c2 < 0.0:
            raise DomainError(f"cloning c^2 must lie in (1/3, 1], got {args.c2}")
        c = np.sqrt(args.c2)
        report = protocols.secret_share_run(c, args.charlie_bit, args.alice_outcome)
        payload = report.to_dict()
        if args.montecarlo:
            payload["montecarlo"] = protocols.monte_carlo_secret_share(
                c, args.montecarlo, args.seed)
    return _emit(json.dumps(payload, sort_keys=True, default=float) + "\n", args.out)


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
    m.add_argument("--kind", required=True, choices=tuple(MEASURES))
    m.add_argument("--base", type=float, default=2.0, help="entropy base (default 2)")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--restarts", type=int, default=32, help="local-unitary ascent restarts "
                   "for singlet_fraction (0: Bell-basis enumeration only)")
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


# argparse reads a spaced value such as -1e-3 or -inf as an option (only
# plain negative numbers like -1 pass), so main joins each of these options
# with a following token that float() accepts, as the --option=value form
_FLOAT_OPTIONS = frozenset({"--base", "--theta", "--epsilon", "--l", "--c2"})


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list) -> list:
    out = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and _is_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
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
