"""Shared helpers for the test suite: random states and independent oracles."""
from __future__ import annotations

import numpy as np

from entkit import channel, statezoo
from entkit.qcore import DensityMatrix, PureState, ket, partial_trace, tensor


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
