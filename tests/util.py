"""Shared helpers for the test suite: random states and independent oracles."""
from __future__ import annotations

import numpy as np

from entkit import channel
from entkit.qcore import DensityMatrix, PureState


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
