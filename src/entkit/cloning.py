"""Buzek-Hillery universal quantum cloning machine and what its outputs are good for.

The machine acts on basis states as

    |i>_a |0>_b |X>_x  ->  c |i>_a |i>_b |X_i>_x
                           + d sum_{j != i} (|i>_a |j>_b + |j>_a |i>_b) |X_j>_x

with real amplitudes constrained by c^2 + 2(n-1) d^2 = 1.  This module builds
the two-clone outputs (single input system, and both halves of a bipartite
state, for a stack of inputs at once), checks the reduction criterion,
constructs distillation filters, and evaluates dense-coding capacity and a
qutrit teleportation witness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures
from .qcore import (
    DensityMatrix,
    DomainError,
    _density_spectra,
    _reduced_matrix,
    _require,
    tensor,
)


@dataclass(frozen=True, slots=True)
class CloningParams:
    """Machine amplitudes (c, d) and the scaling factor s = c^2 + (n-2) d^2."""

    n: int
    c: float
    d: float
    s: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"cloning dimension must be >= 2, got {self.n}")
        residual = self.c ** 2 + 2.0 * (self.n - 1) * self.d ** 2 - 1.0
        if abs(residual) > 1e-12:
            raise DomainError(f"c^2 + 2(n-1)d^2 = 1 violated by {residual:.3e}")


def uqcm_params(n: int, d: float | None = None) -> CloningParams:
    """Machine parameters for dimension n; the optimal preset when d is omitted.

    Optimal: c^2 = 2/(n+1), d^2 = 1/(2(n+1)), s = (n+2)/(2(n+1)).
    d = 0 is the Wootters-Zurek limit (perfect on basis states only).
    """
    if n < 2:
        raise DomainError(f"cloning dimension must be >= 2, got {n}")
    if d is None:
        d = np.sqrt(1.0 / (2.0 * (n + 1)))
    d = float(d)
    d_max = np.sqrt(1.0 / (2.0 * (n - 1)))
    if not 0.0 <= d <= d_max:
        raise DomainError(f"d = {d} outside [0, sqrt(1/(2(n-1)))] for n = {n}")
    c = _amplitude_c(n, d, d_max)
    return CloningParams(n, c, d, c * c + (n - 2) * d * d)


def _amplitude_c(n: int, d, d_max: float):
    """c = sqrt(1 - 2(n-1)d^2) of each d in [0, d_max] (a scalar or an array);
    exactly 0.0 at d_max, where 1 - 2(n-1)d^2 rounds to a few ulps off 0."""
    return np.sqrt(np.maximum(1.0 - 2.0 * (n - 1) * d * d, 0.0) * (d != d_max))


def cloning_isometry(params: CloningParams) -> np.ndarray:
    """(n^3 x n) isometry from the input system to (clone a, clone b, machine)."""
    return _isometries(params.n, params.c, params.d)


def _isometries(n: int, c, d) -> np.ndarray:
    """cloning_isometry for each (c, d) of a column, stacked along a leading axis
    (none for scalars)."""
    c, d = np.asarray(c), np.asarray(d)
    # v[..., a, b, machine, input]: c |iii> + d sum_{j != i} (|ij> + |ji>)|j>
    v = np.zeros(c.shape + (n,) * 4, dtype=complex)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    v[..., i, j, j, i] = v[..., j, i, j, i] = d[..., None]
    k = np.arange(n)
    v[..., k, k, k, k] = c[..., None]
    return v.reshape(c.shape + (n ** 3, n))


@dataclass(frozen=True, slots=True)
class ClonePairOutput:
    """Joint state of the two clones after the machine is traced out."""

    joint: DensityMatrix
    params: CloningParams


def _check_d(d) -> np.ndarray:
    """The clone pair's machine parameter d (scalar or sequence) as a float array."""
    x = np.asarray(d, dtype=float)
    _require(((0.0 < x) & (x <= 0.5), "machine parameter d must lie in (0, 1/2], got {}", d))
    return x


def qutrit_cloned_pairs(ds) -> tuple:
    """Two-qutrit clone pairs for input (|0> + |1> + |2>)/sqrt(3), one per d of
    a sequence ds in (0, 1/2], from one contraction of the stacked isometry with
    the input, validated by one _density_spectra call.  Returns the read-only
    (N, 9, 9) matrices and (N, 9) spectra, each row with the bits of its one-row
    call; the first d outside (0, 1/2] raises the one-row call's DomainError.
    """
    d = _check_d(ds)
    iso = _isometries(3, _amplitude_c(3, d, 0.5), d)
    # a[r, clone a x clone b, machine]: each amplitude is c or d times 1/sqrt(3),
    # one rounding, so no order of the contraction's sums can change a bit
    a = (iso @ (np.ones(3) / np.sqrt(3.0))).reshape(-1, 9, 3)
    matrices = a @ a.conj().swapaxes(-1, -2)
    spectra = _density_spectra((3, 3), matrices)
    matrices.setflags(write=False)
    spectra.setflags(write=False)
    return matrices, spectra


def qutrit_cloned_pair(d: float) -> ClonePairOutput:
    """Two-qutrit clone pair for input (|0> + |1> + |2>)/sqrt(3), d in (0, 1/2]:
    the one-row case of qutrit_cloned_pairs."""
    (matrix,), (spectrum,) = qutrit_cloned_pairs((d,))
    return ClonePairOutput(DensityMatrix._validated((3, 3), matrix, spectrum), uqcm_params(3, d))


# Closed forms for the two partial-transpose eigenvalues of the clone pair
# that go negative, and for the reduction-criterion eigenvalue used to build
# the non-optimal filter, each for d in (0, 1/2].

def pt_eigenvalue_1(d: float) -> float:
    _check_d(d)
    r = np.sqrt(1.0 - 4.0 * d * d)
    return (1.0 + 4.0 * d * d) / 6.0 - np.sqrt(
        1.0 + 24.0 * d ** 2 - 104.0 * d ** 4 + 32.0 * r * d ** 3) / 6.0


def pt_eigenvalue_2(d: float) -> float:
    _check_d(d)
    r = np.sqrt(1.0 - 4.0 * d * d)
    return (1.0 - 5.0 * d * d) / 6.0 - np.sqrt(
        1.0 - 6.0 * d ** 2 + 25.0 * d ** 4 - 16.0 * r * d ** 3) / 6.0


def reduction_eigenvalue_nonopt(d: float) -> float:
    _check_d(d)
    r = np.sqrt(1.0 - 4.0 * d * d)
    inner = 1.0 - 18.0 * d ** 2 + 4.0 * r * d + 113.0 * d ** 4 - 44.0 * d ** 3 * r
    return (1.0 - 3.0 * d * d) / 6.0 + r * d / 3.0 - np.sqrt(inner) / 6.0


NONOPT_FILTER_D_MIN = (6.0 + np.sqrt(2.0)) / 17.0


def clone_pair_fef(d):
    """Fully entangled fraction of the qutrit clone pair, d in (0, 1/2] (a
    scalar or an array): max((1 - 4d^2)/3, (1 + 60d^2 - 16d sqrt(1 - 4d^2))/27).

    With c = sqrt(1 - 4d^2), the pair is sum_m |phi_m><phi_m| over the
    machine states m, |phi_m> = (c|mm> + d sum_{i != m} (|im> + |mi>))/sqrt(3).
    For psi = (I x W)|Phi+>, <psi|phi_m> = (c W*_mm + d sum_{i != m}
    (W*_im + W*_mi))/3.  W = I gives c/3 for every m, so F = c^2/3, the
    first branch.  W = I - (2/3)J, J the all-ones matrix (a reflection, so
    unitary), gives (c/3 - 8d/3)/3 for every m, so
    F = (c - 8d)^2/27 = (1 + 60d^2 - 16dc)/27, the second branch.  The
    branches meet at 1/6 at d = 1/sqrt(8), and the second is the larger
    above it: 1/3 at NONOPT_FILTER_D_MIN, 16/27 at d = 1/2.
    That no other W does better is certified by measures.fef_bounds on a d
    grid (tests/test_cloning.py).
    """
    _check_d(d)
    c = np.sqrt(1.0 - 4.0 * d * d)
    return np.maximum((1.0 - 4.0 * d * d) / 3.0, (1.0 + 60.0 * d * d - 16.0 * d * c) / 27.0)


# ---------------------------------------------------------------------------
# reduction criterion and distillation
# ---------------------------------------------------------------------------

# Reduction eigenvalues (or eigenspace weights) this close are equal, and an
# eigenvalue below -REDUCTION_TIE is a violation.  The clone pairs tie between
# sides A and B, and for d below about 0.4363 each side's minimum is
# degenerate; rounding must not pick the distilled state.
REDUCTION_TIE = 1e-12


@dataclass(frozen=True, slots=True)
class ReductionResult:
    """Outcome of the reduction-criterion check rho_A x I - rho >= 0 (and mirrored)."""

    violated: bool
    side: str                 # 'A' or 'B': which operator carries the minimum
    eigenvalue: float         # most negative eigenvalue found
    eigenvector: np.ndarray


def reduction_check(rho: DensityMatrix) -> ReductionResult:
    m, eye = rho.matrix, np.eye(measures._require_square(rho, "reduction criterion"))
    # both reduction operators, rho_A x I - rho and I x rho_B - rho, in one eigh
    ops = np.stack([tensor(_reduced_matrix(m, rho.dims, (0,)), eye) - m,
                    tensor(eye, _reduced_matrix(m, rho.dims, (1,))) - m])
    lowest = dict(zip("AB", map(_lowest_eigenpair, *np.linalg.eigh(ops))))
    # a tie goes to side A, the side the paper filters
    side = "B" if lowest["B"][0] < lowest["A"][0] - REDUCTION_TIE else "A"
    eigenvalue, eigenvector = lowest[side]
    return ReductionResult(eigenvalue < -REDUCTION_TIE, side, eigenvalue, eigenvector)


def _lowest_eigenpair(evals: np.ndarray, evecs: np.ndarray) -> tuple:
    """Lowest eigenvalue of a hermitian operator, from its eigh decomposition,
    and one eigenvector that owns its data: eigh's own vector if the eigenvalue
    is simple; if degenerate, the projection onto the eigenspace of the first
    basis ket projected longest, so the vector does not depend on how eigh
    picks a basis of the eigenspace."""
    span = evecs[:, evals <= evals[0] + REDUCTION_TIE]
    if span.shape[1] == 1:
        return float(evals[0]), evecs[:, 0].copy()
    weights = np.sum(np.abs(span) ** 2, axis=1)
    k = int(np.argmax(weights >= weights.max() - REDUCTION_TIE))
    v = span @ span[k].conj()
    return float(evals[0]), v / np.linalg.norm(v)


@dataclass(frozen=True, slots=True)
class FilterMatrix:
    """Local filter M applied to one side of the state: on side A as
    (M^dag x I) rho (M x I), on side B as (I x M^dag) rho (I x M)."""

    matrix: np.ndarray
    side: str = "A"

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise DomainError(f"filter side must be 'A' or 'B', got {self.side!r}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def filter_from_eigenvector(v, n: int, side: str = "A") -> FilterMatrix:
    """Filter from an n^2-component eigenvector sum a_ij |i>|j>, phase-fixed and
    unit-normalised: M = sqrt(n) a on side A, M = sqrt(n) a^T on side B, so
    that the eigenvector is (M x I) or (I x M) applied to sum_k |kk>."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != n * n:
        raise DomainError(f"eigenvector length {v.size} does not match n^2 = {n * n}")
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size == 0:
        raise DomainError("cannot build a filter from a zero vector")
    v = v / (v[nz[0]] / abs(v[nz[0]]))
    v = v / np.linalg.norm(v)
    a = np.sqrt(n) * v.reshape(n, n)
    return FilterMatrix(a if side == "A" else a.T, side)


def distillation_filter(rho: DensityMatrix) -> FilterMatrix:
    """Filter built from the most negative reduction-criterion eigenvector, on
    the side whose reduction operator carries it."""
    result = reduction_check(rho)
    if not result.violated:
        raise DomainError("state satisfies the reduction criterion; nothing to distill")
    return filter_from_eigenvector(result.eigenvector, rho.dims[0], result.side)


def distill(rho: DensityMatrix, filt: FilterMatrix) -> DensityMatrix:
    """Apply the local filter on its side, e.g. on A:
    (M^dag x I) rho (M x I) / Tr(rho (M M^dag x I))."""
    on_a = filt.side == "A"
    if len(rho.dims) != 2 or rho.dims[0 if on_a else 1] != filt.n:
        raise DomainError(f"filter size {filt.n} does not match state dims {rho.dims}")
    eye = np.eye(rho.dims[1 if on_a else 0])

    def local(m):
        return tensor(m, eye) if on_a else tensor(eye, m)

    a = filt.matrix
    denom = float(np.trace(rho.matrix @ local(a @ a.conj().T)).real)
    if denom <= 1e-12:
        raise DomainError("filter annihilates state")
    # M^dag x I is the adjoint of M x I, entry for entry, so it is not built again
    m = local(a)
    return DensityMatrix(rho.dims, m.conj().T @ rho.matrix @ m / denom)


# ---------------------------------------------------------------------------
# dense coding and the qutrit teleportation witness
# ---------------------------------------------------------------------------

def dense_coding_advantages(dims: tuple, matrices: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """S(rho_b) - S(rho_ab) in bits of each state of an (N, d, d) stack on the
    bipartite dims, given the rows of their ranked spectra.  One _density_spectra
    call makes partial_trace's checks on all the b marginals."""
    if len(dims) != 2:
        raise DomainError(f"dense coding needs a bipartite state, got dims {dims}")
    marginals = _density_spectra(dims[1:], _reduced_matrix(matrices, dims, (1,)))
    return measures._von_neumann_entropies(marginals) - measures._von_neumann_entropies(spectra)


def dense_coding_advantage(rho: DensityMatrix) -> float:
    """S(rho_b) - S(rho_ab) in bits; positive iff the state is dense-codeable:
    the one-row case of dense_coding_advantages."""
    return float(dense_coding_advantages(rho.dims, rho.matrix[None], rho.spectrum[None])[0])


def dense_coding_capacity(rho: DensityMatrix) -> float:
    """chi = log2(n) + S(rho_b) - S(rho_ab), in bits."""
    return float(np.log2(rho.dims[1]) + dense_coding_advantage(rho))


def teleportation_witness_qutrit(rho: DensityMatrix) -> float:
    """Tr(W rho) for W = I/3 - |phi+><phi+|; < 0 flags useful for teleportation,
    >= 0 is inconclusive: a FEF above 1/3 may sit on another maximally
    entangled state (the d = 1/2 clone pair reads >= 0 at F = 16/27)."""
    if rho.dims != (3, 3):
        raise DomainError(f"qutrit witness needs a 3x3 state, got dims {rho.dims}")
    phi = measures.maximally_entangled_bases(3)[0]
    return float(1.0 / 3.0 - np.real(phi.conj() @ rho.matrix @ phi))


# ---------------------------------------------------------------------------
# cloning both halves of a bipartite state
# ---------------------------------------------------------------------------

def pqrs(params: CloningParams) -> tuple:
    """Weights (P, Q, R, S) of the non-local two-clone output."""
    n, c, d = params.n, params.c, params.d
    P = (c * c + (n - 1) * d * d) ** 2
    Q = d * d * (4.0 * c * c + 4.0 * c * d * (n - 2) + (n - 2) * d * d)
    R = d * d * (c * c + (n - 1) * d * d)
    S = d ** 4
    return P, Q, R, S


def _check_lambda1(lambda1) -> np.ndarray:
    """The input weight l1 (scalar or sequence) as a float array."""
    x = np.asarray(lambda1, dtype=float)
    _require(((0.0 <= x) & (x <= 1.0), "lambda1 must lie in [0, 1], got {}", lambda1))
    return x


def local_closed_form(lambda1: float, params: CloningParams) -> np.ndarray:
    """Two-qubit local output diag(c^2 l1, d^2, d^2, c^2 l2) + d^2 coherence block."""
    _check_lambda1(lambda1)
    c2, d2 = params.c ** 2, params.d ** 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = c2 * lambda1
    m[3, 3] = c2 * (1.0 - lambda1)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = d2
    return m


def nonlocal_closed_form(lambda1: float, params: CloningParams) -> np.ndarray:
    """Two-qubit non-local output with corner coherence Q sqrt(l1 l2)."""
    _check_lambda1(lambda1)
    P, Q, R, S = pqrs(params)
    l1, l2 = lambda1, 1.0 - lambda1
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = P * l1 + S * l2
    m[3, 3] = P * l2 + S * l1
    m[0, 3] = m[3, 0] = Q * np.sqrt(l1 * l2)
    m[1, 1] = m[2, 2] = R
    return m


# axes of the (row, 1, 3, x1, 2, 4, x2) amplitude tensor, each pair's kept
# qubits first: local (1, 3) and non-local (1, 4), then what is traced out
_PAIR_AXES = {"local": (0, 1, 2, 4, 5, 3, 6), "nonlocal": (0, 1, 5, 4, 2, 3, 6)}


def clone_bipartite_stack(lambda1, signs, params: CloningParams,
                          pairs: tuple = ("local", "nonlocal")) -> tuple:
    """Clone both halves of sqrt(l1)|00> + sign sqrt(1 - l1)|11> for a column of
    (l1, sign) rows, sequences of equal length, with identical qubit machines.

    All rows are cloned in one einsum, every requested pair of every row is
    taken with one stacked product, and all of them are validated with one
    _density_spectra call.  Returns (matrices, spectra), read-only arrays of
    shapes (len(pairs), N, 4, 4) and (len(pairs), N, 4): matrices[k, r] is pair
    pairs[k] of row r, with its ranked spectrum.  Each row has the bits of its
    one-row call.  An l1 outside [0, 1] raises the one-row call's DomainError
    for the first such row.
    """
    lam = _check_lambda1(lambda1)
    if params.n != 2:
        raise DomainError("bipartite cloning is implemented for qubit machines (n = 2)")
    sign = np.asarray(signs, dtype=float)
    if sign.shape != lam.shape or not np.all(np.abs(sign) == 1.0):
        raise DomainError(f"signs must be +1 or -1, one per lambda1, got {signs}")
    if not set(pairs) <= _PAIR_AXES.keys():
        raise DomainError(f"pairs must be 'local' or 'nonlocal', got {pairs}")
    iso = cloning_isometry(params)
    amp = np.zeros((lam.size, 2, 2))
    amp[:, 0, 0] = np.sqrt(lam)
    amp[:, 1, 1] = sign * np.sqrt(1.0 - lam)
    # full[r, (1,3,x1), (2,4,x2)] = sum_ij amp_rij V[, i] V[, j]
    full = np.einsum("ai,bj,nij->nab", iso, iso, amp).reshape((lam.size,) + (2,) * 6)
    a = np.stack([full.transpose(_PAIR_AXES[p]) for p in pairs]).reshape(len(pairs), -1, 4, 16)
    matrices = a @ a.conj().swapaxes(-1, -2)
    spectra = _density_spectra((2, 2), matrices.reshape(-1, 4, 4)).reshape(matrices.shape[:-1])
    matrices.setflags(write=False)
    spectra.setflags(write=False)
    return matrices, spectra


def clone_bipartite(lambda1: float, params: CloningParams, sign: float = 1.0) -> tuple:
    """Clone both halves of sqrt(l1)|00> + sign sqrt(l2)|11> with identical
    machines: the one-row case of clone_bipartite_stack, so both pairs come
    from one einsum and one product and are validated by one stacked eigvalsh,
    each returned as a DensityMatrix without a second.

    System layout: original qubits 1 and 2, clones 3 (of 1) and 4 (of 2).
    Returns (local rho_13 = rho_24, non-local rho_14 = rho_23, (P, Q, R, S)).
    The non-local pair is entangled iff 2 sqrt(l1 l2) exceeds the critical
    concurrence (1 + c^2)/(4 c^2), which needs c > 1/sqrt(3).
    """
    matrices, spectra = clone_bipartite_stack((lambda1,), (sign,), params)
    local, nonlocal_ = (DensityMatrix._validated((2, 2), m[0], s[0])
                        for m, s in zip(matrices, spectra))
    return local, nonlocal_, pqrs(params)


def _entangling_c2(c2: float) -> bool:
    """Whether c^2 lies in (1/3, 1], where the critical concurrence is below 1.
    A cloning amplitude's domain is tested on c^2 alone: on a c^2 given, and on
    c * c of a c >= 0 given.  c = sqrt(c^2) of every c^2 inside passes too:
    rounded sqrt and square are monotone, and at the smallest c^2 above 1/3,
    c * c is 1/3 + 2 ulp."""
    return 1.0 / 3.0 < c2 <= 1.0


def nonlocal_critical_concurrence(c: float) -> float:
    """Input concurrence above which the non-local clone pair stays entangled."""
    if not (c >= 0.0 and _entangling_c2(c * c)):
        raise DomainError(f"critical concurrence defined for c in (1/sqrt(3), 1], got {c}")
    return (1.0 + c * c) / (4.0 * c * c)
