"""Measure how many polar steps the n = 3 FEF ascent needs on a corpus of states.

For every 3x3 state below, the script reads `measures.singlet_fraction(rho)`,
the ascent from the nine generalised Bell unitaries, with its step budget
`measures._POLAR_STEPS` cut to t = 1, 2, ... up to the budget, and prints the
step t from which that value stays within TOL of a plain polar ascent (no
extrapolation) run for REFERENCE_STEPS steps from the Bell starts and
HAAR_STARTS Haar unitaries drawn from `default_rng(HAAR_SEED)`.  It then
prints the slowest state and the budget's margin, the budget over that
state's step, and exits 1 when the margin is below MIN_MARGIN, or when a
state never comes within TOL.  The corpus:
- the first nine states drawn from each of seeds 0-149 by
  `test_measures.drawn_states` (1,350 random states of ranks 1-9),
- the eight floor states of `make_fef_values.floor_states`,
- the five perfbench `fef3` states of each of seeds 1-10
  (`make_fef_values.workload_states`),
- `test_measures.SLOW_STATES`.
Each read is one stack of the whole corpus (`measures._singlet_fractions`),
which gives every state the bits of `singlet_fraction` alone.  It is not
part of the test suite: it took about 11 minutes on a shared 2-vCPU host,
most of them in the reference ascent.

    PYTHONPATH=src python tests/fixtures/ascent_budget.py
"""
from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import test_measures  # noqa: E402  (drawn_states, SLOW_STATES and haar_starts)
from entkit import measures  # noqa: E402
from fixtures import make_fef_values  # noqa: E402

HAAR_SEED, HAAR_STARTS = 0, 6
REFERENCE_STEPS = 3000
TOL = 1e-15
MIN_MARGIN = 2.0


def corpus() -> dict:
    """name -> 3x3 state; a name drawn twice keeps its first state."""
    states = {}
    for seed in range(150):
        for k, rho in enumerate(test_measures.drawn_states(seed, 9), 1):
            states[f"seed-{seed} draw {k}"] = rho
    states.update(make_fef_values.floor_states())
    for seed in range(1, 11):
        states.update((f"perfbench seed-{seed} {name}", rho)
                      for name, rho in make_fef_values.workload_states(seed).items()
                      if name.startswith("fef3:"))
    for name, rho in test_measures.SLOW_STATES.items():
        states.setdefault(name, rho)
    return states


def plain_ascent(matrices: np.ndarray) -> np.ndarray:
    """Best overlap of each state after REFERENCE_STEPS plain polar steps
    from the Bell starts and HAAR_STARTS Haar unitaries."""
    rows = matrices[:, None]
    w = test_measures.haar_starts(np.random.default_rng(HAAR_SEED), 3, HAAR_STARTS)
    for _ in range(REFERENCE_STEPS):
        w = measures._polar_step(rows @ w)
    return measures._overlaps(w, rows @ w, 3).max(axis=1)


def reach_steps(matrices: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The step from which each state's value stays within TOL of the
    reference through the budget; budget + 1 where the budget's own value
    is not."""
    budget = measures._POLAR_STEPS
    reached = np.ones(len(matrices), dtype=int)
    try:
        for steps in range(1, budget + 1):
            measures._POLAR_STEPS = steps
            value = measures._singlet_fractions(matrices, 3)[0]
            reached[value < reference - TOL] = steps + 1
    finally:
        measures._POLAR_STEPS = budget
    return reached


def main() -> int:
    states = corpus()
    names = list(states)
    matrices = np.array([rho.matrix for rho in states.values()])
    reached = reach_steps(matrices, plain_ascent(matrices))
    for name, steps in zip(names, reached.tolist()):
        print(f"{name}: {steps}")
    budget, slowest = measures._POLAR_STEPS, int(reached.argmax())
    margin = budget / reached[slowest] if reached[slowest] <= budget else 0.0
    print(f"{len(names)} states; median step {np.median(reached):g}; slowest "
          f"{names[slowest]} at step {reached[slowest]}; budget {budget} steps; "
          f"margin {margin:.2f} (at least {MIN_MARGIN:g} needed)")
    return 0 if margin >= MIN_MARGIN else 1


if __name__ == "__main__":
    sys.exit(main())
