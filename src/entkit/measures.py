"""Entanglement, mixedness and distance measures for small bipartite systems."""
from __future__ import annotations

import functools

import numpy as np

from . import statezoo
from .qcore import (
    TOL_HERM,
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
    C >= 2/3, pure states) into square roots of ~3e-9.
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
    return np.where(c > 0.0, c, 0.0)


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
    """Reference maximally entangled vectors the optimizer starts from, built
    once per n and returned as read-only arrays.

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


@functools.lru_cache(maxsize=None)
def _traceless_hermitian_basis(n: int) -> np.ndarray:
    """The n^2 - 1 generalised Gell-Mann matrices as one read-only
    (n^2 - 1, n, n) array, built once per n; Tr(G_i G_j) = 2 delta_ij."""
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            basis.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1j
            a[k, j] = 1j
            basis.append(a)
    for j in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[:j, :j] = np.eye(j)
        d[j, j] = -j
        basis.append(d * np.sqrt(2.0 / (j * (j + 1))))
    out = np.array(basis)
    out.flags.writeable = False
    return out


def singlet_fraction(rho: DensityMatrix, seed: int = 0, restarts: int = 32) -> float:
    """Maximal overlap of rho with a maximally entangled state.

    The generalised Bell basis is enumerated exactly, then refined by a
    gradient-free ascent over local unitaries U_A x U_B (Nelder-Mead,
    multi-start, deterministic for a given seed): restart r starts from the
    basis vector r mod n^2, at U_A = U_B = I for the first n^2 restarts and
    at seeded random generators after.  All restarts run in lockstep, in
    numpy alone.  The returned value is the best overlap found and is always
    a valid lower bound on the true maximum.  restarts=0 returns the
    enumeration alone.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DomainError(f"singlet fraction needs an n x n bipartite state, got {rho.dims}")
    return _singlet_fractions(rho.matrix[None], rho.dims[0], seed, restarts)[0]


def _require_restarts(restarts: int):
    if restarts < 0:
        raise DomainError(f"restarts must be >= 0, got {restarts}")


def _singlet_fractions(matrices: np.ndarray, n: int, seed: int, restarts: int) -> list:
    """singlet_fraction of each n x n state in an (N, n^2, n^2) stack, as a
    list of floats: the enumeration runs over the whole stack, and the
    Nelder-Mead refinement advances every (state, restart) simplex together,
    so each state gets the bits it gets alone."""
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

    gens = _traceless_hermitian_basis(n)
    npar = len(gens)
    rng = np.random.default_rng(seed)
    starts = np.array([np.zeros(2 * npar) if r < len(bases)
                       else rng.uniform(-np.pi, np.pi, size=2 * npar) for r in range(restarts)])
    # row i refines state i // restarts from restart i % restarts
    state, restart = np.divmod(np.arange(len(matrices) * restarts), restarts)
    row_bases = np.array(bases).reshape(-1, n, n)[restart % len(bases)]
    row_matrices = matrices[state]

    def objective(points, rows):
        return -_overlaps(points, row_bases[rows], row_matrices[rows], gens)

    found = -_nelder_mead(objective, starts[restart], 300 * npar, xatol=1e-9, fatol=1e-12)
    for value in found.reshape(len(matrices), restarts).T:
        best = np.where(value > best, value, best)   # max(best, value), restart by restart
    return best.tolist()


def _overlaps(params: np.ndarray, bases: np.ndarray, matrices: np.ndarray,
              gens: np.ndarray) -> np.ndarray:
    """<v|rho|v> for v = (U_A x U_B)|base>, one row per (params, base, rho) of
    an (M, 2 npar) stack, an (M, n, n) stack of bases and an (M, n^2, n^2)
    stack of states: U_A = exp(i H_A) and U_B = exp(i H_B), for H_A and H_B
    the combinations of gens with the two halves of the row's params.  One
    matmul forms every generator, one stacked eigh exponentiates them, and
    U_A x U_B acts on vec(base) as vec(U_A base U_B^T)."""
    m, npar, n = len(params), len(gens), gens.shape[-1]
    h = (params.reshape(m, 2, npar) @ gens.reshape(npar, n * n)).reshape(m, 2, n, n)
    evals, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(1j * evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    v = (u[:, 0] @ bases @ u[:, 1].swapaxes(-1, -2)).reshape(m, n * n)
    return ((v.conj()[:, None, :] @ matrices) @ v[:, :, None])[:, 0, 0].real


# Nelder-Mead coefficients of reflection, expansion, contraction and shrink
_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1, 2, 0.5, 0.5


def _nelder_mead(f, x0: np.ndarray, maxiter: int, xatol: float, fatol: float) -> np.ndarray:
    """Least value Nelder-Mead finds from each row of an (M, dim) x0, every
    row's simplex advanced in lockstep; f(points, rows) returns the objective
    of row rows[i] at points[i] for a stack of points.

    Each row follows the unbounded, non-adaptive method alone: the initial
    simplex steps each nonzero entry by 5 % and each zero one to 0.00025, the
    simplex is sorted twice before the first step (an unstable sort may move
    ties) and after every step, and a row stops once every vertex lies within
    xatol and every value within fatol of the best, or after maxiter - 1
    steps.  A step evaluates f once per branch (reflection, expansion,
    contraction, shrink), on all the rows that take it.
    """
    m, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    k = np.arange(dim)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = f(sim.reshape(-1, dim), np.repeat(np.arange(m), dim + 1)).reshape(m, dim + 1)
    sim, fsim = _sorted(*_sorted(sim, fsim))
    rows, least = np.arange(m), np.empty(m)
    for _ in range(maxiter - 1):
        stop = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        if stop.any():
            least[rows[stop]] = fsim[stop].min(axis=1)
            rows, sim, fsim = rows[~stop], sim[~stop], fsim[~stop]
            if not rows.size:
                return least
        _nelder_mead_step(f, rows, sim, fsim)
        sim, fsim = _sorted(sim, fsim)
    least[rows] = fsim.min(axis=1)
    return least


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple:
    """Each row's simplex and values ordered by ascending value."""
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


def _nelder_mead_step(f, rows: np.ndarray, sim: np.ndarray, fsim: np.ndarray):
    """One Nelder-Mead step of each sorted simplex in an (M, dim + 1, dim)
    stack, in place: the worst vertex moves to the reflected, expanded or
    contracted point, or the simplex shrinks toward its best vertex."""
    dim = sim.shape[-1]
    xbar = np.add.reduce(sim[:, :-1], 1) / dim
    worst = sim[:, -1]
    xr = (1 + _REFLECT) * xbar - _REFLECT * worst
    fxr = f(xr, rows)
    x_new, f_new = xr, fxr.copy()
    expanding = fxr < fsim[:, 0]
    expand = expanding.nonzero()[0]
    if expand.size:
        xe = (1 + _REFLECT * _EXPAND) * xbar[expand] - _REFLECT * _EXPAND * worst[expand]
        fxe = f(xe, rows[expand])
        take = fxe < fxr[expand]
        x_new[expand[take]], f_new[expand[take]] = xe[take], fxe[take]
    shrink = np.zeros(len(rows), dtype=bool)
    contract = (~expanding & ~(fxr < fsim[:, -2])).nonzero()[0]
    if contract.size:
        # outside the simplex when the reflected point beats the worst vertex
        outside = fxr[contract] < fsim[contract, -1]
        xb, xw = xbar[contract], worst[contract]
        xc = np.where(outside[:, None],
                      (1 + _CONTRACT * _REFLECT) * xb - _CONTRACT * _REFLECT * xw,
                      (1 - _CONTRACT) * xb + _CONTRACT * xw)
        fxc = f(xc, rows[contract])
        take = np.where(outside, fxc <= fxr[contract], fxc < fsim[contract, -1])
        x_new[contract[take]], f_new[contract[take]] = xc[take], fxc[take]
        shrink[contract[~take]] = True
    sim[~shrink, -1], fsim[~shrink, -1] = x_new[~shrink], f_new[~shrink]
    if shrink.any():
        best = sim[shrink, :1]
        sim[shrink, 1:] = best + _SHRINK * (sim[shrink, 1:] - best)
        fsim[shrink, 1:] = f(sim[shrink, 1:].reshape(-1, dim),
                             np.repeat(rows[shrink], dim)).reshape(-1, dim)


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
