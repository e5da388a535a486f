"""channel_reports.json: the pinned values of the channel analysis.

The fixture pins every field of the rows `channel.analyze_family` returns for
all five families on fixed grids that reach each domain's ends, and of
`channel.analyze_channel` on seeded random two-qubit states of ranks 1 to 4,
each with its `measures.bell_enumeration` beside it.  `pin.py` writes and
checks the file.
"""
from __future__ import annotations

import dataclasses

import numpy as np

import util  # tests/util.py: the Ginibre state generator
from entkit import channel, measures

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


def _plain(value):
    """value if it is a Python float or bool; any other type is an error, so a
    field that stops being one shows here too."""
    if type(value) in (float, bool):
        return value
    raise TypeError(f"unexpected {type(value).__name__} {value!r}")


def _report(report: channel.ChannelReport) -> dict:
    return {f.name: _plain(getattr(report, f.name)) for f in dataclasses.fields(report)}


def random_state(seed: int, rank: int):
    """Two-qubit state of the given rank drawn from default_rng(seed)."""
    return util.random_density(np.random.default_rng(seed), (2, 2), rank=rank)


def table() -> dict:
    families = {}
    for family, fixed, grid in FAMILIES:
        key = family + "".join(f",{k}={v}" for k, v in sorted(fixed.items()))
        families[key] = [
            {"value": _plain(value), "report": _report(report),
             "closed_forms": {k: _plain(v) for k, v in forms.items()}}
            for value, report, forms in channel.analyze_family(family, grid, **fixed)]
    states = {f"seed={seed},rank={rank}": random_state(seed, rank)
              for seed, rank in RANDOM_STATES.items()}
    channels = {key: {**_report(channel.analyze_channel(rho)),
                      "bell_enumeration": _plain(measures.bell_enumeration(rho))}
                for key, rho in states.items()}
    return {"analyze_family": families, "analyze_channel": channels}
