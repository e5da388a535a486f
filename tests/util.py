"""Shared helpers for the test suite: random states and independent oracles."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from entkit import channel, measures, statezoo
from entkit.qcore import (I2, DensityMatrix, DomainError, PureState, X, Y, Z, _reduced_matrix, ket,
                          partial_trace, tensor)


def random_density(rng, dims, rank=None) -> DensityMatrix:
    """Random full-rank (or fixed-rank) density matrix via a Ginibre factor."""
    d = int(np.prod(dims))
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / np.trace(m).real)


def random_pure(rng, dims) -> PureState:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(dims, v / np.linalg.norm(v))


def random_unitary(rng, n) -> np.ndarray:
    """Haar-random n x n unitary: the QR factor of a Ginibre matrix, phase-fixed."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_mixture(rng, n: int) -> DensityMatrix:
    """Random mixture of 1 to n^2 of the generalised Bell states of
    measures.maximally_entangled_bases(n): a Bell-diagonal state."""
    bases = np.array(measures.maximally_entangled_bases(n))
    chosen = rng.choice(n * n, size=int(rng.integers(1, n * n + 1)), replace=False)
    weights = rng.dirichlet(np.ones(len(chosen)))
    vectors = bases[chosen]
    return DensityMatrix((n, n), (vectors.T * weights) @ vectors.conj())


def clone_pair(n: int, d: float) -> tuple:
    """(rho, c): the two clones of the input (sum_i |i>)/sqrt(n) from the n-level
    cloning machine at d in [0, sqrt(1/(2(n-1)))], its machine traced out,
    and the machine's amplitude c = sqrt(1 - 2(n-1)d^2)."""
    from entkit import cloning

    c = cloning._amplitude_c(n, d, np.sqrt(1.0 / (2.0 * (n - 1))))
    a = (cloning._isometries(n, c, d) @ (np.ones(n) / np.sqrt(n))).reshape(n * n, n)
    return DensityMatrix((n, n), a @ a.conj().T), float(c)


def fef_closed_form(rho: DensityMatrix) -> float:
    """Independent oracle for the two-qubit fully entangled fraction.

    F = (1 + s1 + s2 - sign(det T) s3)/4 with s_i the singular values of the
    Pauli correlation matrix; exact for every two-qubit state, and derived by
    a completely different route than the enumeration-plus-ascent maximiser.
    """
    t = channel.correlation_matrix(rho)
    s = np.linalg.svd(t, compute_uv=False)
    return float(0.25 * (1.0 + s[0] + s[1] - np.sign(np.linalg.det(t)) * s[2]))


def bisect_predicate(pred, true_end: float, false_end: float, tol: float = 1e-9) -> float:
    """Boundary of a monotone boolean predicate between a true and a false end."""
    assert pred(true_end) and not pred(false_end)
    while abs(false_end - true_end) > tol:
        mid = 0.5 * (true_end + false_end)
        if pred(mid):
            true_end = mid
        else:
            false_end = mid
    return 0.5 * (true_end + false_end)


def assert_columns_match_points(f, rows) -> None:
    """f over whole columns equals f at each row alone, bit for bit (signed
    zeros and NaNs included), and f at one row returns scalars.

    rows is a list of argument tuples; f returns a dict of entries or one value.
    """
    def entries(out):
        return out if isinstance(out, dict) else {None: out}

    whole = entries(f(*map(np.array, zip(*rows))))
    points = [entries(f(*row)) for row in rows]
    for key, column in whole.items():
        at_points = [point[key] for point in points]
        for value in at_points:
            assert np.ndim(value) == 0 and not isinstance(value, np.ndarray), (key, value)
        assert np.shape(column) == (len(rows),), key
        got = np.asarray(column, dtype=float).view(np.int64)
        want = np.array(at_points, dtype=float).view(np.int64)
        assert (got == want).all(), (key, [rows[i] for i in np.flatnonzero(got != want)])


def nmems_from_reductions(p: float) -> DensityMatrix:
    """Same state as statezoo.nmems(p), built by actually tracing the third
    qubit out of the GHZ and W states and mixing; structural cross-check of
    the closed form."""
    rho_g = partial_trace(statezoo.ghz3().density(), keep=(0, 1)).matrix
    rho_w = partial_trace(statezoo.w3_prototype().density(), keep=(0, 1)).matrix
    return DensityMatrix((2, 2), p * rho_g + (1.0 - p) * rho_w)


def wei_slice(gamma, a, b):
    """The wei state channel.analyze_family builds at gamma (a scalar or an
    array) with a and b fixed: x = y take the remaining weight."""
    return statezoo.wei((1.0 - gamma - a - b) / 2.0, (1.0 - gamma - a - b) / 2.0, a, b, gamma)


def w4_branch_amplitudes(theta: float, epsilon: float) -> np.ndarray:
    """Aux-0 branch amplitudes (|00>, |01>, |10>, |11>) of the four-party W run.

    These carry the published tangent scaling of the sender's |0> components;
    the closed-form concurrence |sin 2t| cos^2(e) is 2|ad - bc| of this vector.
    """
    s, c = np.sin(theta), np.cos(theta)
    se, ce = np.sin(epsilon), np.cos(epsilon)
    return np.array([s * se + s * s * ce / c, s * ce, c * ce, 0.0])


def qutrit_projected_states(shared: np.ndarray) -> list:
    """The four encoded states obtained from the balanced qutrit pair by the
    sender's operators {|0><0|+|2><2|, |0><2|+|2><0|, |0><2|-|2><0|, |0><0|-|2><2|}."""
    ops = [
        np.outer(ket(0, 3), ket(0, 3)) + np.outer(ket(2, 3), ket(2, 3)),
        np.outer(ket(0, 3), ket(2, 3)) + np.outer(ket(2, 3), ket(0, 3)),
        np.outer(ket(0, 3), ket(2, 3)) - np.outer(ket(2, 3), ket(0, 3)),
        np.outer(ket(0, 3), ket(0, 3)) - np.outer(ket(2, 3), ket(2, 3)),
    ]
    return [w / np.linalg.norm(w) for w in (tensor(op, np.eye(3)) @ shared for op in ops)]


def is_unitary(u, tol: float = 1e-12) -> bool:
    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) <= tol)


def extraction_unitaries():
    """(family, cdc_run keyword arguments, controller outcome, unitary) for every
    extraction unitary the CDC pipeline applies on a grid inside each family's
    domain: one per grid point and controller branch that protocols._tree keeps."""
    from entkit import protocols

    open_half = np.linspace(0.05, np.pi / 2 - 0.05, 7)     # theta in (0, pi/2)
    quarter = np.linspace(0.05, np.pi / 4, 4)               # U1 and U2: tan <= 1
    grids = {
        "ghz": [{"theta": t} for t in open_half],
        "ghz_class": [{"theta": t, "class_index": k} for k in range(1, 8) for t in (0.3, 1.2)],
        "pati": [{"l": l} for l in (0.25, 0.5, 1.0, 2.0)],
        "ghz4": [{"theta": t, "epsilon": e} for t in quarter for e in quarter],
        "w3": [{"theta": t} for t in quarter],
        "w4": [{"theta": t, "epsilon": e} for t in open_half[::2] for e in (0.3, 1.0)],
        "liqiu_w": [{"n": n} for n in (1, 3)],
        "qutrit_ghz": [{"theta": t} for t in np.linspace(np.pi / 4, np.pi / 2 - 0.05, 4)],
    }
    assert grids.keys() == protocols._FAMILIES.keys()
    for family, grid in grids.items():
        for kwargs in grid:
            fam, p, _ = protocols._setup(family, **kwargs)
            for outcome, (_, vec, _, _) in protocols._tree(family, p, fam.outcomes).items():
                unitary = fam.unitary(p, outcome, vec)
                if unitary is not None:
                    yield family, kwargs, outcome, unitary


def x_form_matrix(a: float, b: float, c_offdiag: complex, d_entry: float,
                  e: float) -> DensityMatrix:
    """Assemble the X-form matrix diag(a, b, d, e) with coherence c on |01><10|."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = a
    m[1, 1] = b
    m[2, 2] = d_entry
    m[3, 3] = e
    m[1, 2] = c_offdiag
    m[2, 1] = np.conj(c_offdiag)
    return DensityMatrix((2, 2), m)


def concurrence_x_form(a: float, b: float, c_offdiag: complex, d_entry: float,
                       e: float) -> float:
    """Closed-form concurrence 2 max(|c| - sqrt(a e), 0) of the X-form state:
    the oracle for measures.concurrence."""
    x_form_matrix(a, b, c_offdiag, d_entry, e)  # validates the density matrix
    return float(2.0 * max(abs(c_offdiag) - np.sqrt(a * e), 0.0))


def chsh_max(rho: DensityMatrix, settings) -> float:
    """CHSH combination <a.s x b.s> + <a.s x b'.s> + <a'.s x b.s> - <a'.s x b'.s>
    at the four given unit measurement directions."""
    a, ap, b, bp = (np.asarray(v, dtype=float) for v in settings)
    assert all(abs(np.linalg.norm(v) - 1.0) <= 1e-9 for v in (a, ap, b, bp))
    t = channel.correlation_matrix(rho)
    return float(a @ t @ (b + bp) + ap @ t @ (b - bp))


class TeleportOutcome(NamedTuple):
    """Result of one Bell-measurement branch of the standard protocol."""

    bell_outcome: int              # 1..4 in the package Bell indexing
    probability: float
    output_state: DensityMatrix    # Bob's corrected single-qubit state
    hs_distance: float             # Tr (rho_in - rho_out)^2
    fidelity: float                # 1 - hs_distance

# Pauli corrections for each Bell outcome, one set per Bell sector of the
# channel; the set is picked by the channel's dominant Bell component, so any
# maximally entangled channel teleports perfectly.
_CORRECTIONS = {
    1: {1: I2, 2: Z, 3: X, 4: Y},
    2: {1: Z, 2: I2, 3: Y, 4: X},
    3: {1: X, 2: Y, 3: I2, 4: Z},
    4: {1: Y, 2: X, 3: Z, 4: I2},
}


def input_qubit(x: float, y: complex) -> DensityMatrix:
    """Single-qubit input [[x, y], [y*, 1-x]]; requires |y|^2 <= x(1-x)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"population x must lie in [0, 1], got {x}")
    if abs(y) ** 2 > x * (1.0 - x) + 1e-12:
        raise DomainError(f"coherence |y|^2 = {abs(y)**2:.3e} exceeds x(1-x) = {x*(1-x):.3e}")
    return DensityMatrix((2,), np.array([[x, y], [np.conj(y), 1.0 - x]]))


def teleport_through(rho_in: DensityMatrix, channel: DensityMatrix) -> list:
    """Standard teleportation of rho_in through a two-qubit channel.

    Alice Bell-measures the input qubit together with her channel half; Bob
    applies the outcome-dependent Pauli correction.  Returns the branches in
    Bell order, omitting any of probability <= 1e-15, which the input and
    channel never produce and whose conditional state is undefined.
    """
    if rho_in.dims != (2,):
        raise DomainError(f"input must be a single qubit, got dims {rho_in.dims}")
    measures._require_two_qubits(channel, "teleportation channel")
    bells = measures.maximally_entangled_bases(2)     # bell(1)..bell(4)
    overlaps = [float(np.real(v.conj() @ channel.matrix @ v)) for v in bells]
    corrections = _CORRECTIONS[1 + int(np.argmax(overlaps))]
    total = tensor(rho_in.matrix, channel.matrix)
    outcomes = []
    for k, bell_vec in enumerate(bells, start=1):
        proj = tensor(np.outer(bell_vec, bell_vec.conj()), I2)
        sub = proj @ total @ proj
        prob = float(sub.trace().real)
        if prob <= 1e-15:
            continue
        # Bob's uncorrected qubit stays an array; the corrected one is the state
        bob = _reduced_matrix(sub / prob, (2, 2, 2), (2,))
        u = corrections[k]
        corrected = DensityMatrix((2,), u @ bob @ u.conj().T)
        delta = rho_in.matrix - corrected.matrix
        d_hs = float(np.trace(delta @ delta).real)
        outcomes.append(TeleportOutcome(k, prob, corrected, d_hs, 1.0 - d_hs))
    return outcomes
