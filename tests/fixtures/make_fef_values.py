"""fef_values.json: the pinned values of the fully entangled fraction.

The fixture pins `measures.singlet_fraction(rho)`, the fully entangled
fraction: the magic-basis eigenvalue for n = 2 and, for n = 3, the
extrapolated polar ascent from the nine generalised Bell unitaries, run for
its fixed 60 steps (see `ascent_budget.py`), once for each of
- the nine states of the perfbench `fef` workload (Ginibre states drawn from
  `default_rng(1)`),
- the floor states of the qutrit clone analysis that the workload does not
  already hold,
- seeded random n x n states, n = 2 and 3, of every rank,
and every field of `channel.analyze_channel` on a few two-qubit
states.  The states of one n are refined as one stack,
`measures._singlet_fractions`, which gives each state the bits of
`singlet_fraction` alone.  `pin.py` writes and checks the file; its --check
also gives the largest fall (min new - old) and the number of values that
fell by more than FLOOR_GATE: a re-pin needs that number to be 0.  The
n = 3 value is the certified lower bound of `measures.fef_bounds`, whose
bracket closes to rounding on every pinned state (the clone pair at
d = 1/sqrt(8) last) but stays open on some random states, such as a rank-6
one at 9e-4; a change of method may raise the value, but must not lower it
beyond rounding.
"""
from __future__ import annotations

import numpy as np

import util  # tests/util.py: the Ginibre state generator
from entkit import channel, cloning, measures, statezoo
from fixtures import make_channel_reports

# (n, rank, seed) of each random state, drawn from default_rng(seed)
RANDOM_STATES = (*((2, rank, seed) for rank in range(1, 5) for seed in range(5)),
                 *((3, rank, seed) for rank in range(1, 10) for seed in (rank % 5, (rank + 2) % 5)))

# a value may rise, but may not fall by more than this (rounding) before a re-pin
FLOOR_GATE = 1e-12

# name -> d of each qutrit clone pair whose FEF floor is pinned, with its distilled pair
CLONE_DS = {"sqrt(1/8)": np.sqrt(1.0 / 8.0), "0.45": 0.45, "0.5": 0.5}


def workload_states(seed: int = 1) -> dict:
    """name -> state of the perfbench `fef` workload at `seed`."""
    rng = np.random.default_rng(seed)
    pair = cloning.qutrit_cloned_pair(0.5).joint
    return {
        "fef2:ginibre-full": util.random_density(rng, (2, 2)),
        "fef2:ginibre-rank2": util.random_density(rng, (2, 2), rank=2),
        "fef2:werner-0.8": statezoo.werner(0.8),
        "fef2:mjwk-0.5": statezoo.mjwk(0.5),
        "fef3:ginibre-full": util.random_density(rng, (3, 3)),
        "fef3:ginibre-rank3": util.random_density(rng, (3, 3), rank=3),
        "fef3:clone-d0.45": cloning.qutrit_cloned_pair(0.45).joint,
        "fef3:clone-d0.5": pair,
        "fef3:distilled-d0.5": cloning.distill(pair, cloning.distillation_filter(pair)),
    }


def floor_states() -> dict:
    """name -> state of the qutrit clone analysis' FEF floors: the two fef3
    Ginibre states and the clone pair and its distilled pair at each CLONE_DS."""
    workload = workload_states()
    states = {name: workload[f"fef3:{name}"] for name in ("ginibre-full", "ginibre-rank3")}
    for name, d in CLONE_DS.items():
        pair = cloning.qutrit_cloned_pair(d).joint
        states[f"clone-d={name}"] = pair
        states[f"distilled-d={name}"] = cloning.distill(pair, cloning.distillation_filter(pair))
    return states


def _float(value: float) -> float:
    if type(value) is not float:
        raise TypeError(f"unexpected {type(value).__name__} {value!r}")
    return value


def _fractions(states: dict) -> dict:
    """key -> singlet_fraction(rho) for each key -> rho, one stack per n."""
    groups = {}
    for key, rho in states.items():
        groups.setdefault(rho.dims[0], []).append((key, rho))
    fractions = {}
    for n, members in groups.items():
        matrices = np.array([rho.matrix for _, rho in members])
        values = measures._singlet_fractions(matrices, n)[0].tolist()
        fractions.update((key, _float(value)) for (key, _), value in zip(members, values))
    return fractions


def table() -> dict:
    workload = workload_states()
    held = {rho.matrix.tobytes() for rho in workload.values()}
    floors = {name: rho for name, rho in floor_states().items()
              if rho.matrix.tobytes() not in held}
    random = {f"n={n},rank={rank},seed={seed}":
              util.random_density(np.random.default_rng(seed), (n, n), rank=rank)
              for n, rank, seed in RANDOM_STATES}
    channels = {f"seed={seed},rank={rank}": make_channel_reports._report(channel.analyze_channel(
                    make_channel_reports.random_state(seed, rank)))
                for seed, rank in ((0, 1), (1, 2), (2, 3), (3, 4))}
    return {"workload": _fractions(workload), "floors": _fractions(floors),
            "random": _fractions(random), "analyze_channel": channels}
