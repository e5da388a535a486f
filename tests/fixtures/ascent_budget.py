"""Measure how many polar steps the n = 3 FEF ascent needs on a corpus of states.

For every 3x3 state below, the script reads `measures.singlet_fraction(rho)`,
the ascent from the nine generalised Bell unitaries, with its step budget
`measures._POLAR_STEPS` cut to t = 1, 2, ... up to the budget, and prints the
step t from which that value stays within TOL of a plain polar ascent (no
Newton steps) run for REFERENCE_STEPS steps from the Bell starts and
HAAR_STARTS Haar unitaries drawn from `default_rng(HAAR_SEED)`.  The ascent
stops a state once its Z = 0 certificate closes, possibly a few 1e-15 below
that reference, so a value whose certificate closed with a width of at most
CERTIFIED counts as reached too; such states are printed with their width
and their value's distance to the reference.  Each state's best start takes
step 1 alone first, one svd call, and a state whose certificate closes
there stops after that call.  The ascent also stops a state before the
budget, with its certificate open, once a cycle of 3 steps and a Newton
step raises its value by at most n^2 eps (9 eps at n = 3) times that value
(a stall); such a value must lie within TOL of the reference.  It then
prints the number of states that closed at the leader's step, the slowest
state, the budget's margin (the budget over that state's step) and the
number of stalls, and exits 1 when the margin is below MIN_MARGIN, when a
state never comes within TOL and is not certified, or when a stalled value
lies more than TOL below the reference.  The corpus:
- the first nine states drawn from each of seeds 0-149 by
  `test_measures.drawn_states` (1,350 random states of ranks 1-9),
- the eight floor states of `make_fef_values.floor_states`,
- the five perfbench `fef3` states of each of seeds 1-10
  (`make_fef_values.workload_states`),
- `test_measures.SLOW_STATES`.
Each read is one stack of the whole corpus (`measures._singlet_fractions`),
which gives every state the bits of `singlet_fraction` alone; the stalls are
found by counting each state's svd calls alone.  The whole run is not part
of the test suite (it took about 5 minutes on one thread of a shared 2-vCPU
host); `test_measures` runs `judge` on three states against a short reference.

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
CERTIFIED = 1e-12
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


def plain_ascent(matrices: np.ndarray, steps: int = REFERENCE_STEPS) -> np.ndarray:
    """Best overlap of each state after `steps` plain polar steps from the
    Bell starts and HAAR_STARTS Haar unitaries."""
    rows = matrices[:, None]
    w = test_measures.haar_starts(np.random.default_rng(HAAR_SEED), 3, HAAR_STARTS)
    for _ in range(steps):
        w = measures._polar_step(rows @ w)
    return measures._overlaps(w, rows @ w, 3).max(axis=1)


def reach_steps(matrices: np.ndarray, reference: np.ndarray) -> tuple:
    """The step from which each state's value stays within TOL of the
    reference, or certified, through the budget (budget + 1 where the
    budget's own value is neither); the budget's values and certified
    widths, NaN where the certificate is open or wider than CERTIFIED;
    whether each state stalled: stopped before the budget's last svd call
    with its certificate open; and whether it closed at the leader's step,
    its one svd call."""
    budget = measures._POLAR_STEPS
    reached = np.ones(len(matrices), dtype=int)
    try:
        for steps in range(1, budget + 1):
            measures._POLAR_STEPS = steps
            value, (_, _, top, margin) = measures._singlet_fractions(matrices, 3)
            width = np.where(top <= margin, np.maximum(top, 0.0) + margin, np.nan)
            reached[(value < reference - TOL) & ~(width <= CERTIFIED)] = steps + 1
    finally:
        measures._POLAR_STEPS = budget
    # the leader's step, every step of every row and the Newton trials
    calls = svd_calls(matrices)
    stalled = (calls < 1 + budget + budget // measures._NEWTON_EVERY) & (top > margin)
    return reached, value, width, stalled, calls == 1


def svd_calls(matrices: np.ndarray) -> np.ndarray:
    """The number of (stacked) svd calls of each state's ascent alone, the
    leader's lone step included."""
    step, calls = measures._polar_step, []

    def counted(g):
        calls[-1] += 1
        return step(g)

    measures._polar_step = counted
    try:
        for matrix in matrices:
            calls.append(0)
            measures._singlet_fractions(matrix[None], 3)
    finally:
        measures._polar_step = step
    return np.array(calls)


def judge(names: list, matrices: np.ndarray, reference: np.ndarray) -> tuple:
    """(lines, exit status): a line per state with its reach step, then the
    summary line; status 1 when the budget's margin is below MIN_MARGIN or
    a stalled value lies more than TOL below the reference."""
    reached, value, width, stalled, led = reach_steps(matrices, reference)
    short = value - reference
    lines = []
    for name, steps, below, certified, stall in zip(names, reached.tolist(), short.tolist(),
                                                    width.tolist(), stalled.tolist()):
        note = f" (certified, width {certified:.2g}, {below:+.2g} from the reference)" \
            if below < -TOL and certified <= CERTIFIED else ""
        note += f" (stalled, {below:+.2g} from the reference)" if stall and below < -TOL else ""
        lines.append(f"{name}: {steps}{note}")
    budget, slowest = measures._POLAR_STEPS, int(reached.argmax())
    margin = budget / reached[slowest] if reached[slowest] <= budget else 0.0
    stalled_short = np.count_nonzero(stalled & (short < -TOL))
    lines.append(f"{len(names)} states; {np.count_nonzero(led)} closed at the leader's step; "
                 f"median step {np.median(reached):g}; slowest "
                 f"{names[slowest]} at step {reached[slowest]}; budget {budget} steps; "
                 f"margin {margin:.2f} (at least {MIN_MARGIN:g} needed); "
                 f"{np.count_nonzero((short < -TOL) & (width <= CERTIFIED))} certified more than TOL "
                 f"below the reference; {np.count_nonzero(stalled)} stalled, {stalled_short} of "
                 f"them more than TOL below it")
    return lines, 0 if margin >= MIN_MARGIN and stalled_short == 0 else 1


def main() -> int:
    states = corpus()
    matrices = np.array([rho.matrix for rho in states.values()])
    lines, status = judge(list(states), matrices, plain_ascent(matrices))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
