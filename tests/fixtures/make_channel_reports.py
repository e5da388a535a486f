"""Write channel_reports.json: the pinned float bits of the channel analysis.

The fixture pins every field of the rows `channel.analyze_family` returns for
all five families on fixed grids that reach each domain's ends, and of
`channel.analyze_channel(restarts=0)` on seeded random two-qubit states of
ranks 1 to 4.  A float is pinned as its IEEE-754 bits (`.view(np.int64)`), so
a move of one ulp shows; a flag is pinned as a bool.  Regenerate it only when
a change of channel output is intended:

    PYTHONPATH=src python tests/fixtures/make_channel_reports.py

With --check the script writes nothing: it lists the entries whose bits
moved and exits 1 if any did.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

import numpy as np

from entkit import channel
from entkit.qcore import DensityMatrix

# (family, fixed parameters, sweep grid) of each pinned analyze_family call
FAMILIES = (
    ("werner", {}, np.linspace(0.25, 1.0, 31)[1:]),
    ("mjwk", {}, np.concatenate([np.linspace(0.0, 1.0, 31),
                                 [2.0 / 3.0, np.nextafter(2.0 / 3.0, 0.0)]])),
    ("nmems", {}, np.concatenate([np.linspace(0.0, 1.0, 31), [0.25, 0.5]])),
    ("wei", {"a": 0.05, "b": 0.05}, np.linspace(0.0, 0.9, 31)),
    ("wei", {"a": 0.2, "b": 0.2}, np.linspace(0.1, 0.6, 11)),
    ("werner_derivative", {"F": 0.8}, np.linspace(0.5, 1.0, 31)),
    ("werner_derivative", {"F": 1.0}, np.linspace(0.5, 1.0, 11)),
)

# seed -> rank of each pinned random state
RANDOM_STATES = {seed: 1 + seed % 4 for seed in range(20)}


def _bits(value):
    """A float as its int64 bits, a bool as itself; any other type is an error,
    so a field that stops being a Python float or bool shows here too."""
    if type(value) is bool:
        return value
    if type(value) is float:
        return int(np.float64(value).view(np.int64))
    raise TypeError(f"unexpected {type(value).__name__} {value!r}")


def _report(report: channel.ChannelReport) -> dict:
    return {f.name: _bits(getattr(report, f.name)) for f in dataclasses.fields(report)}


def random_state(seed: int, rank: int) -> DensityMatrix:
    """Two-qubit state of the given rank from a seeded Ginibre factor."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return DensityMatrix((2, 2), m / m.trace().real)


def table() -> dict:
    families = {}
    for family, fixed, grid in FAMILIES:
        key = family + "".join(f",{k}={v}" for k, v in sorted(fixed.items()))
        families[key] = [
            {"value": _bits(value), "report": _report(report),
             "closed_forms": {k: _bits(v) for k, v in forms.items()}}
            for value, report, forms in channel.analyze_family(family, grid, **fixed)]
    channels = {f"seed={seed},rank={rank}": _report(
                    channel.analyze_channel(random_state(seed, rank), restarts=0))
                for seed, rank in RANDOM_STATES.items()}
    return {"analyze_family": families, "analyze_channel": channels}


def moved(pinned: dict, got: dict) -> list:
    """Names of the entries whose pinned bits differ from got."""
    return sorted(f"{section}:{key}"
                  for section in pinned.keys() | got.keys()
                  for key in pinned.get(section, {}).keys() | got.get(section, {}).keys()
                  if pinned.get(section, {}).get(key) != got.get(section, {}).get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute the bits, print each entry whose bits moved and "
                             "exit 1 if any did; write nothing")
    args = parser.parse_args(argv)
    got = table()
    path = pathlib.Path(__file__).with_name("channel_reports.json")
    count = sum(len(section) for section in got.values())
    if args.check:
        names = moved(json.loads(path.read_text()), got)
        print("\n".join(names + [f"{len(names)} of {count} entries moved"]))
        return 1 if names else 0
    path.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n")
    print(f"wrote {count} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
