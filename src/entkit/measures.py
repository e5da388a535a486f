"""Entanglement, mixedness and distance measures for small bipartite systems."""
from __future__ import annotations

import functools
import math

import numpy as np

from . import statezoo
from .qcore import (
    TOL_HERM,
    TOL_RANK,
    DensityMatrix,
    DomainError,
    PureState,
    Y,
    partial_trace,
    partial_transpose,
    psd_spectrum,
    psd_sqrt,
    tensor,
)


def _require_two_qubits(rho: DensityMatrix, what: str):
    if rho.dims != (2, 2):
        raise DomainError(f"{what} requires a 2x2-qubit state, got dims {rho.dims}")


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit, h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        if -1e-12 < x < 1.0 + 1e-12:
            x = min(max(x, 0.0), 1.0)
        else:
            raise DomainError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


# ---------------------------------------------------------------------------
# two-qubit entanglement measures
# ---------------------------------------------------------------------------

def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4)) where the
    l_i are the eigenvalues of rho (sy x sy) rho* (sy x sy), in decreasing order.

    The sqrt(l_i) are computed directly as the singular values of
    sqrt(rho) sqrt(rho~), so no square root of eigenvalue noise is taken:
    psd_sqrt zeroes every eigenvalue that psd_spectrum ranks as zero, where a
    clip at 0 would turn noise of ~1e-17 on a rank-deficient rho (MJWK for
    C >= 2/3, pure states) into square roots of ~3e-9.  A difference at or
    below TOL_RANK times the largest root is rounding, and is returned as 0.
    """
    _require_two_qubits(rho, "concurrence")
    return float(_concurrences(rho.matrix[None])[0])


_YY = tensor(Y, Y)


def _concurrences(matrices: np.ndarray) -> np.ndarray:
    """Concurrence of each two-qubit density matrix in an (N, 4, 4) stack,
    with one stacked eigh per square root and one stacked svd."""
    tilde = _YY @ matrices.conj() @ _YY
    roots = np.linalg.svd(psd_sqrt(matrices) @ psd_sqrt(tilde), compute_uv=False)
    c = roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3]
    return np.where(c > TOL_RANK * roots[:, 0], c, 0.0)


def tangle(rho: DensityMatrix) -> float:
    """Concurrence squared."""
    c = concurrence(rho)
    return c * c


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
    """Closed-form concurrence 2 max(|c| - sqrt(a e), 0) of the X-form state."""
    x_form_matrix(a, b, c_offdiag, d_entry, e)  # validates the density matrix
    return float(2.0 * max(abs(c_offdiag) - np.sqrt(a * e), 0.0))


def negativity(rho: DensityMatrix) -> float:
    """Negativity from the partial transpose.

    For two qubits this is 2 max(0, -lambda_neg); in n x n it generalises to
    (||rho^{T_A}||_1 - 1)/(n - 1), with the trace norm.
    """
    if len(rho.dims) != 2:
        raise DomainError(f"negativity requires a bipartite state, got dims {rho.dims}")
    n = min(rho.dims)
    pt = partial_transpose(rho, 0)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    value = (trace_norm - 1.0) / (n - 1.0)
    return float(min(max(value, 0.0), 1.0))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """E_F = h((1 + sqrt(1 - C^2))/2) for two qubits."""
    _require_two_qubits(rho, "entanglement of formation")
    c = concurrence(rho)
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def entropy(rho: DensityMatrix, kind: str = "von_neumann", base: float = 2.0) -> float:
    """von Neumann entropy -sum l_i log_base l_i, or the purity-based linear
    entropy n/(n-1) (1 - Tr rho^2); exactly 0.0 for a state of rank 1."""
    if not base > 1.0:
        raise DomainError(f"entropy base must be > 1, got {base}")
    if kind not in ("von_neumann", "linear"):
        raise DomainError(f"unknown entropy kind {kind!r}")
    if kind == "linear":
        return float(_linear_entropies(rho.matrix[None], rho.spectrum[None])[0])
    evals = rho.spectrum[rho.spectrum > 0.0]
    if evals.size == 1:
        return 0.0
    return float(-np.sum(evals * np.log(evals)) / np.log(base))


def _linear_entropies(matrices: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Linear entropy of each n x n density matrix in an (N, n, n) stack,
    given the rows of their ranked spectra; 0.0 at rank 1."""
    n = matrices.shape[-1]
    purity = np.trace(matrices @ matrices, axis1=-2, axis2=-1).real
    pure = np.count_nonzero(spectra > 0.0, axis=-1) == 1
    return np.where(pure, 0.0, n / (n - 1.0) * (1.0 - purity))


def entropy_of_entanglement(psi) -> float:
    """Marginal von Neumann entropy (base 2) of a bipartite pure state."""
    if isinstance(psi, DensityMatrix):
        if not psi.is_pure():
            raise DomainError("entropy of entanglement is defined for pure states only")
        evecs = np.linalg.eigh(psi.matrix)[1]
        psi = PureState(psi.dims, evecs[:, -1])  # ascending: the last one spans rho
    if len(psi.dims) != 2:
        raise DomainError(f"need a bipartite pure state, got dims {psi.dims}")
    s_left = entropy(partial_trace(psi, keep=(0,)), "von_neumann", 2.0)
    s_right = entropy(partial_trace(psi, keep=(1,)), "von_neumann", 2.0)
    if abs(s_left - s_right) > 1e-10:
        raise DomainError(f"marginal entropies disagree: {s_left} vs {s_right}")
    return float(s_left)


# ---------------------------------------------------------------------------
# singlet fraction (fully entangled fraction)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def maximally_entangled_bases(n: int) -> tuple:
    """Reference maximally entangled vectors, the basis the fully entangled
    fraction enumerates, built once per n and returned as read-only arrays.

    n = 2: the four Bell states.  n >= 3: the generalised Bell family
    |phi_{x,y}> = sum_j xi^{jy} |j, j+x> / sqrt(n) with xi = exp(2 pi i / n).
    """
    if n == 2:
        out = np.array([statezoo.bell(k).vector for k in (1, 2, 3, 4)])
    else:
        xi = np.exp(2j * np.pi / n)
        j = np.arange(n)
        out = np.zeros((n, n, n * n), dtype=complex)
        for x in range(n):
            for y in range(n):
                out[x, y, j * n + (j + x) % n] = xi ** (j * y)
        out = out.reshape(n * n, n * n) / np.sqrt(n)
    out.flags.writeable = False
    return tuple(out)


def singlet_fraction(rho: DensityMatrix, seed: int = 0, restarts: int = 32) -> float:
    """Maximal overlap of rho with a maximally entangled state.

    The generalised Bell basis is enumerated exactly; restarts=0 returns the
    enumeration alone.  With restarts > 0:

    n = 2: a pure state is maximally entangled exactly when its coefficients
    in the magic basis (Phi+, i Phi-, i Psi+, Psi-) are real up to a global
    phase (Bennett, DiVincenzo, Smolin & Wootters 1996), so the value is
    lambda_max(Re(M^dag rho M)), exact and read without a seed.

    n >= 3: every maximally entangled state is (I x W)|Phi+> for a unitary W,
    since (U_A x U_B)|Phi+> = (I x U_B U_A^T)|Phi+>, and the overlap is convex
    in vec W, so the polar ascent W <- polar(mat(rho vec W)) never lowers it.
    It ascends from the n^2 generalised Bell unitaries and from `restarts`
    Haar unitaries drawn from default_rng(seed), each for a fixed 250 steps
    with an Aitken extrapolation after every 10th, kept only where it raises
    the overlap, so the cost of a call does not depend on its state.  The
    value is a lower bound on the true maximum.

    Either way the value is never below the enumeration and never lowered by
    one more restart.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DomainError(f"singlet fraction needs an n x n bipartite state, got {rho.dims}")
    return _singlet_fractions(rho.matrix[None], rho.dims[0], seed, restarts)[0]


def _require_restarts(restarts: int):
    if restarts < 0:
        raise DomainError(f"restarts must be >= 0, got {restarts}")


# the magic basis, columns Phi+, i Phi-, i Psi+, Psi- (see singlet_fraction)
_MAGIC = np.array(maximally_entangled_bases(2)).T * np.array([1.0, 1j, 1j, 1.0])
_MAGIC.flags.writeable = False

# polar steps of every (state, start) row, every _AITKEN_EVERY-th followed by
# an extrapolation; no stopping test, so the cost of a call does not depend on
# its state.  On 1,350 random 3x3 states of ranks 1-9, 100 steps came within
# 1e-15 of 3,000 plain steps (500 plain steps: up to 8e-10 short); 250 leave
# room for states that converge more slowly still
_POLAR_STEPS = 250
_AITKEN_EVERY = 10


def _singlet_fractions(matrices: np.ndarray, n: int, seed: int, restarts: int) -> list:
    """singlet_fraction of each n x n state in an (N, n^2, n^2) stack, as a
    list of floats: the enumeration, and with restarts > 0 the magic-basis
    eigenvalue (n = 2) or the polar ascent (n >= 3), each run once over the
    whole stack with every product taken state by state, so each state gets
    the bits it gets alone."""
    _require_restarts(restarts)
    bases = maximally_entangled_bases(n)
    # <v|rho|v> as a vector-matrix then a vector-vector product per state,
    # the arithmetic of one state's v.conj() @ rho @ v, so every bit is kept
    overlaps = [((v.conj() @ matrices)[:, None, :] @ v)[:, 0].real for v in bases]
    best = overlaps[0]
    for overlap in overlaps[1:]:
        best = np.where(overlap > best, overlap, best)   # the first of equal maxima
    if restarts == 0:
        return best.tolist()
    if n == 2:
        # for real unit x, <Mx|rho|Mx> = x^T Re(M^dag rho M) x
        found = np.linalg.eigvalsh(((_MAGIC.conj().T @ matrices) @ _MAGIC).real)[:, -1]
    else:
        found = _polar_ascent(matrices, n, seed, restarts)
    return np.maximum(best, found).tolist()


def _polar_ascent(matrices: np.ndarray, n: int, seed: int, restarts: int) -> np.ndarray:
    """Best overlap of each n x n state in an (N, n^2, n^2) stack over the
    polar ascents from the n^2 generalised Bell unitaries and `restarts` Haar
    unitaries; each step is one stacked svd over every (state, start) row.

    The ascent converges linearly, W_k ~ W + r^k D, and slowly where the rate
    r is near 1.  So every _AITKEN_EVERY steps each row also tries the nearest
    unitary to W_k + (W_k - W_k-1) r / (1 - r), r estimated as
    |W_k - W_k-1| / |W_k-1 - W_k-2| (Aitken's extrapolation), and moves there
    only if that raises its overlap."""
    rows = matrices[:, None]           # (N, 1, n^2, n^2), broadcast over the starts
    old = w = _polar_starts(n, seed, restarts)
    g = rows @ w
    for k in range(1, _POLAR_STEPS + 1):
        older, old, w = old, w, _polar_step(g)
        g = rows @ w
        if k % _AITKEN_EVERY == 0:
            step, last = w - old, old - older
            r = np.minimum(np.sqrt(_norm2(step) / np.maximum(_norm2(last), 1e-300)), 0.999)
            trial = _polar_step(w + step * (r / (1.0 - r))[..., None, None])
            trial_g = rows @ trial
            up = (_overlaps(trial, trial_g, n) > _overlaps(w, g, n))[..., None, None]
            w, g = np.where(up, trial, w), np.where(up, trial_g, g)
    return _overlaps(w, g, n).max(axis=1)


def _norm2(w: np.ndarray) -> np.ndarray:
    """|vec W|^2 of each row of a stack of (n^2, 1) columns."""
    return (w.real ** 2 + w.imag ** 2).sum(axis=(-2, -1))


def _polar_starts(n: int, seed: int, restarts: int) -> np.ndarray:
    """vec W, as (n^2, 1) columns, of the n^2 generalised Bell unitaries and
    `restarts` Haar unitaries: the phase-fixed QR factors of Ginibre matrices
    drawn in one block, so restarts + 1 keeps the first restarts."""
    z = np.random.default_rng(seed).normal(size=(restarts, 2, n, n))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    haar = (q * (d / np.abs(d))[:, None, :]).reshape(restarts, n * n)
    bases = np.array(maximally_entangled_bases(n))
    return np.concatenate([np.sqrt(n) * bases, haar])[..., None]


def _overlaps(w: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """<W|rho|W>/n of each row, from vec W and g = rho vec W."""
    return (w.conj().swapaxes(-1, -2) @ g)[..., 0, 0].real / n


def _polar_step(g: np.ndarray) -> np.ndarray:
    """One step W <- polar(mat(rho vec W)) = U V^dag, for U S V^dag the svd,
    of every row of a stack of (n^2, 1) columns g = rho vec W; polar(mat(g))
    is the unitary nearest mat(g).  The overlap is convex in vec W, so no
    row's overlap drops."""
    n = math.isqrt(g.shape[-2])
    u, _, vh = np.linalg.svd(g.reshape(*g.shape[:-2], n, n))
    return (u @ vh).reshape(g.shape)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho))."""
    if rho.dims != sigma.dims:
        raise DomainError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    root = psd_sqrt(rho.matrix)
    inner = root @ sigma.matrix @ root
    evals = psd_spectrum(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0))
    return float(min(np.sum(np.sqrt(evals)), 1.0))


def distance(rho: DensityMatrix, sigma: DensityMatrix, metric: str = "trace") -> float:
    """Distance between two states.

    trace:           (1/2) Tr|rho - sigma|
    hilbert_schmidt: Tr (rho - sigma)^2
    bures:           sqrt(2) (1 - fidelity)^(1/2)
    """
    if rho.dims != sigma.dims:
        raise DomainError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    if metric == "trace":
        evals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
        return float(0.5 * np.sum(np.abs(evals)))
    if metric == "hilbert_schmidt":
        delta = rho.matrix - sigma.matrix
        return float(np.trace(delta @ delta).real)
    if metric == "bures":
        return float(np.sqrt(2.0 * max(0.0, 1.0 - fidelity(rho, sigma))))
    raise DomainError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# separability tests
# ---------------------------------------------------------------------------

def peres_horodecki(rho: DensityMatrix) -> str:
    """Separability verdict for two qubits from the leading principal minors
    W2, W3, W4 of the partial transpose; entangled iff the transpose fails to
    stay positive."""
    _require_two_qubits(rho, "Peres-Horodecki test")
    pt = partial_transpose(rho, 1)
    w2 = float(np.linalg.det(pt[:2, :2]).real)
    w3 = float(np.linalg.det(pt[:3, :3]).real)
    w4 = float(np.linalg.det(pt).real)
    entangled = w4 < -1e-12 or (abs(w4) <= 1e-12 and w3 < -1e-12) or w2 < -1e-12
    return "entangled" if entangled else "separable"


def witness_expectation(w, rho: DensityMatrix) -> float:
    """Real expectation Tr(W rho) of a hermitian witness; negative flags entanglement."""
    w = np.asarray(w, dtype=complex)
    if w.shape != rho.matrix.shape:
        raise DomainError(f"witness shape {w.shape} does not match state {rho.matrix.shape}")
    if np.max(np.abs(w - w.conj().T)) > TOL_HERM:
        raise DomainError("witness operator must be hermitian")
    return float(np.trace(w @ rho.matrix).real)
