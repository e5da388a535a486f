"""Command-line front end: measures, figure-data sweeps, and protocol runs.

Output contract: numbers are printed with 12 significant digits, CSV files
have a header row and LF line endings, and re-running a command with the same
flags (seed included) reproduces the output byte for byte.  Exit codes:
0 success, 2 usage or parse failure, 3 domain error.

A figure is a table built a column at a time: `Figure.values` takes the axis
columns (one entry per row) and returns the value columns; the library closed
forms accept arrays, so most columns are one call over the whole grid.

A command imports only the modules it runs.  This module loads `qcore`,
`statezoo` and `measures`; it reaches `channel`, `cloning` and `protocols` as
attributes of the package (`entkit.channel`), which the package imports on
first access: a measure kind of `channel`, a figure by the module its values
call, and `protocol` for `protocols`, whose secret-sharing code uses `cloning`.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

import entkit

from . import measures, statezoo
from .qcore import DensityMatrix, DomainError, PureState


class ParseFailure(ValueError):
    """Command-line value that does not parse (exit code 2)."""


NUMBER = "%.12g"     # every printed number: a measure value, a CSV figure cell


def fmt(x: float) -> str:
    return NUMBER % float(x)


# ---------------------------------------------------------------------------
# state-spec mini grammar:  family:key=value,...  |  bell:K  |  matrix:FILE
# ---------------------------------------------------------------------------

# bell:K is statezoo.bell(K): K = 1..4 gives Phi+, Phi-, Psi+, Psi-, that is
# (|00> + |11>, |00> - |11>, |01> + |10>, |01> - |10>)/sqrt(2)

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
    "singlet_fraction": lambda rho, args: measures.singlet_fraction(rho),
    "entropy_of_entanglement": lambda rho, args: measures.entropy_of_entanglement(rho),
    "n_value": lambda rho, args: entkit.channel.n_value(rho),
    "m_value": lambda rho, args: entkit.channel.m_value(rho),
    "fidelity_opt": lambda rho, args: entkit.channel.optimal_fidelity(rho),
}


def cmd_measure(args) -> int:
    state = parse_state(args.state)
    rho = state.density() if isinstance(state, PureState) else state
    print(fmt(MEASURES[args.kind](rho, args)))
    return 0


# ---------------------------------------------------------------------------
# figure command: each figure is a grid over its axes and a library function
# giving the remaining columns over the whole grid
# ---------------------------------------------------------------------------

class Figure(NamedTuple):
    columns: tuple
    axes: tuple | Callable      # one (lo, hi) per swept axis, or a function giving those
    points: int                 # default grid points per axis
    values: Callable            # (*axis columns) -> the columns after the axes


def _each(point: Callable) -> Callable:
    """Figure.values of a library call made at one grid point at a time.

    Figures 4.2 and 4.3 stay per point.  Their distillation filter is still an
    open question (it follows the local frame below NONOPT_FILTER_D_MIN), and
    the benchmark keeps the outputs of every sweep pass, so a shorter pass
    runs more passes and raises the sweep's peak RSS past its bound.
    """
    return lambda *axes: tuple(zip(*map(point, *axes)))


def _cloned_and_distilled(d: float) -> tuple:
    cloning = entkit.cloning
    joint = cloning.qutrit_cloned_pair(d).joint
    return joint, cloning.distill(joint, cloning.distillation_filter(joint))


def _distillable() -> tuple:
    """The d axis of figures 4.2 and 4.3, where the distillation filter exists."""
    return ((entkit.cloning.NONOPT_FILTER_D_MIN + 1e-6, 0.5),)


def _channel_forms(family: str, *keys, **params) -> tuple:
    """The columns `keys` of a channel family's closed forms."""
    forms = entkit.channel.closed_forms(family, **params)
    return tuple(map(forms.__getitem__, keys))


def _cdc_forms(family: str, *keys, **params) -> tuple:
    """The columns `keys` of a CDC family's closed forms."""
    forms = entkit.protocols.cdc_closed_forms(family, **params)
    return tuple(map(forms.__getitem__, keys))


_PI_4 = np.pi / 4.0
_PI_2 = np.pi / 2.0

FIGURES = {
    "3.1": Figure(("p", "concurrence", "n_value", "m_value"), ((0.0, 1.0),), 1001,
                  lambda p: _channel_forms("nmems", "concurrence", "n_value", "m_value", p=p)),
    "3.2": Figure(("concurrence", "f_opt_werner", "f_opt_mjwk"), ((0.0, 1.0),), 201,
                  lambda c: (_channel_forms("werner", "fidelity_opt", C=c)
                             + _channel_forms("mjwk", "fidelity_opt", C=c))),
    "3.3": Figure(("concurrence", "m_werner", "f_opt_werner", "m_mjwk", "f_opt_mjwk"),
                  ((0.0, 1.0),), 201,
                  lambda c: (_channel_forms("werner", "m_value", "fidelity_opt", C=c)
                             + _channel_forms("mjwk", "m_value", "fidelity_opt", C=c))),
    "3.4": Figure(("gamma", "m_werner", "f_opt_werner", "m_wei", "f_opt_wei"), ((0.0, 1.0),), 201,
                  lambda g: (_channel_forms("werner", "m_value", "fidelity_opt", C=g)
                             + _channel_forms("wei", "m_value", "fidelity_opt", gamma=g))),
    "3.5": Figure(("linear_entropy", "f_opt_werner", "f_opt_mjwk"), ((0.0, 8.0 / 9.0 - 1e-9),),
                  201, lambda s: (entkit.channel.fidelity_from_linear_entropy("werner", s),
                                  entkit.channel.fidelity_from_linear_entropy("mjwk", s))),
    "4.1": Figure(("d", "entropy_advantage"), ((1e-3, 0.5),), 101,
                  lambda d: (entkit.cloning.dense_coding_advantages(
                      (3, 3), *entkit.cloning.qutrit_cloned_pairs(d)),)),
    "4.2": Figure(("d", "bell_enumeration_distilled"), _distillable, 33,
                  _each(lambda d: (measures.bell_enumeration(_cloned_and_distilled(d)[1]),))),
    "4.3": Figure(("d", "chi_undistilled", "chi_distilled"), _distillable, 33,
                  _each(lambda d: tuple(map(entkit.cloning.dense_coding_capacity,
                                            _cloned_and_distilled(d))))),
    "5.1": Figure(("theta", "bits_sin_family", "bits_cos_family"), ((0.0, _PI_2),), 201,
                  lambda t: (_cdc_forms("ghz", "bits", theta=t)
                             + _cdc_forms("qutrit_ghz", "bits", theta=t))),
    "5.2": Figure(("l", "theta"), ((0.0, 1.0),), 201, lambda l: _cdc_forms("pati", "theta", l=l)),
    "5.3": Figure(("theta", "concurrence"), ((_PI_4, _PI_2),), 201,
                  lambda t: _cdc_forms("ghz", "concurrence", theta=t)),
    "5.4": Figure(("theta", "epsilon", "concurrence"), ((0.0, _PI_4), (0.0, _PI_2)), 41,
                  lambda t, e: _cdc_forms("ghz4", "concurrence", theta=t, epsilon=e)),
    "5.5": Figure(("theta", "concurrence"), ((_PI_4, _PI_2),), 201,
                  lambda t: _cdc_forms("w3", "concurrence", theta=t)),
    "5.6": Figure(("theta", "epsilon", "concurrence"), ((_PI_4, _PI_2), (_PI_4, _PI_2)), 41,
                  lambda t, e: _cdc_forms("w4", "concurrence", theta=t, epsilon=e)),
}


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 2:
        raise DomainError("step count must be >= 2")
    return np.linspace(lo, hi, n)


def _table(figure: Figure, points: int) -> np.ndarray:
    """The axis columns over the product of the axis grids, then the value columns."""
    bounds = figure.axes() if callable(figure.axes) else figure.axes
    grids = [_grid(lo, hi, points) for lo, hi in bounds]
    axes = [g.ravel() for g in np.meshgrid(*grids, indexing="ij")]
    return np.column_stack([*axes, *figure.values(*axes)])


def cmd_figure(args) -> int:
    if args.figure_id not in FIGURES:
        raise ParseFailure(f"unknown figure id {args.figure_id!r}; known: {sorted(FIGURES)}")
    figure = FIGURES[args.figure_id]
    table = _table(figure, figure.points if args.points is None else args.points)
    if args.format == "csv":
        rows = "\n".join([",".join([NUMBER] * table.shape[1])] * len(table))
        text = f"{','.join(figure.columns)}\n{rows % tuple(table.ravel().tolist())}\n"
    else:
        text = json.dumps({"figure": args.figure_id, "columns": list(figure.columns),
                           "rows": table.tolist()}, indent=None, separators=(",", ":")) + "\n"
    return _emit(text, args.out)


# ---------------------------------------------------------------------------
# protocol command
# ---------------------------------------------------------------------------

def cmd_protocol(args) -> int:
    protocols = entkit.protocols
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
        c = protocols.cloning_amplitude(args.c2)
        report = protocols.secret_share_run(c, args.charlie_bit, args.alice_outcome)
        payload = report.to_dict()
        if args.montecarlo:
            payload["montecarlo"] = protocols.monte_carlo_secret_share(
                c, args.montecarlo, args.seed)
    return _emit(json.dumps(payload, sort_keys=True, default=float) + "\n", args.out)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Entanglement measures, channel analysis and protocol simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="evaluate one measure of one state")
    m.add_argument("--state", required=True,
                   help="state spec, e.g. werner:F=0.75, bell:1, matrix:file.json")
    m.add_argument("--kind", required=True, choices=tuple(MEASURES),
                   help="singlet_fraction is the fully entangled fraction F: exact for "
                   "two qubits; for n x n, n >= 3, the polar ascent from the n^2 "
                   "generalised Bell unitaries, a lower bound on F")
    m.add_argument("--base", type=float, default=2.0, help="entropy base (default 2)")
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
    # command -> its float options' names, read by _join_float_values
    parser.float_options = {name: [o for a in cmd._actions if a.type is float
                                   for o in a.option_strings]
                            for name, cmd in sub.choices.items()}
    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list, float_options: dict) -> list:
    """Join each float option, named in full or by a prefix, to a following float
    token as --option=value: argparse reads a spaced -1e-3 or -inf as an option."""
    names = float_options.get(argv[0], ()) if argv else ()
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if len(option) > 2 and any(n.startswith(option) for n in names) and _is_float(token):
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_float_values(argv, parser.float_options))
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
