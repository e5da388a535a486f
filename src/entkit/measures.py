"""Entanglement and mixedness measures for small bipartite systems."""
from __future__ import annotations

import functools
import math

import numpy as np

from . import statezoo
from .qcore import (
    TOL_RANK,
    DensityMatrix,
    DomainError,
    PureState,
    Y,
    partial_trace,
    partial_transpose,
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


def negativity(rho: DensityMatrix) -> float:
    """Negativity (||rho^{T_A}||_1 - 1)/(n - 1) of an n x m state, n <= m, with
    the trace norm: 2 sum |lambda| / (n - 1) over the partial transpose's
    negative eigenvalues; for two qubits 2 max(0, -lambda_neg).  An eigenvalue
    at or above -TOL_RANK times the largest one is rounding, so a separable
    state reads exactly 0.0.
    """
    if len(rho.dims) != 2:
        raise DomainError(f"negativity requires a bipartite state, got dims {rho.dims}")
    evals = np.linalg.eigvalsh(partial_transpose(rho, 0))
    negative = evals[evals < -TOL_RANK * evals[-1]]
    return float(min(2.0 * np.abs(negative).sum() / (min(rho.dims) - 1.0), 1.0))


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
    return float(_von_neumann_entropies(rho.spectrum[None], base)[0])


def _linear_entropies(matrices: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Linear entropy of each n x n density matrix in an (N, n, n) stack,
    given the rows of their ranked spectra; 0.0 at rank 1."""
    n = matrices.shape[-1]
    purity = np.trace(matrices @ matrices, axis1=-2, axis2=-1).real
    pure = np.count_nonzero(spectra > 0.0, axis=-1) == 1
    return np.where(pure, 0.0, n / (n - 1.0) * (1.0 - purity))


def _von_neumann_entropies(spectra: np.ndarray, base: float = 2.0) -> np.ndarray:
    """von Neumann entropy of each row of an (N, n) stack of ascending ranked
    spectra; 0.0 at rank 1, where every entry but the last is 0.0."""
    logs = np.log(spectra, out=np.zeros_like(spectra), where=spectra > 0.0)
    return np.where(spectra[:, -2] == 0.0, 0.0, -(spectra * logs).sum(axis=-1) / np.log(base))


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


def bell_enumeration(rho: DensityMatrix) -> float:
    """Largest overlap <phi|rho|phi> over the n^2 states phi of
    maximally_entangled_bases(n), in that order: a lower bound on the fully
    entangled fraction, equal to it on states diagonal in that basis."""
    return float(_bell_enumerations(rho.matrix[None], _require_square(rho, "Bell enumeration"))[0])


def singlet_fraction(rho: DensityMatrix, restarts: int = 1) -> float:
    """Fully entangled fraction F: the maximal overlap of rho with a maximally
    entangled state, never below bell_enumeration(rho).

    restarts is ignored and not checked: it stays only because the perfbench
    workloads pass restarts=32, 6 or 0, and ROADMAP item 1 removes it.

    n = 2: a pure state is maximally entangled exactly when its coefficients
    in the magic basis (Phi+, i Phi-, i Psi+, Psi-) are real up to a global
    phase (Bennett, DiVincenzo, Smolin & Wootters 1996), so F is
    lambda_max(Re(M^dag rho M)), exact.

    n >= 3: every maximally entangled state is (I x W)|Phi+> for a unitary W,
    since (U_A x U_B)|Phi+> = (I x U_B U_A^T)|Phi+>, and the overlap is convex
    in vec W, so the polar ascent W <- polar(mat(rho vec W)) never lowers it.
    It ascends from the n^2 generalised Bell unitaries, each for a fixed 60
    steps with an Anderson extrapolation after every 3rd, kept only where it
    raises the overlap: 80 svd per row, whatever the state.  The value is a
    lower bound on F; fef_bounds certifies how far below it can lie.
    """
    n = _require_square(rho, "singlet fraction")
    return float(_singlet_fractions(rho.matrix[None], n)[0][0])


def fef_bounds(rho: DensityMatrix) -> tuple:
    """Certified bracket (lower, upper) on the fully entangled fraction F.

    lower is singlet_fraction(rho), bit for bit.  n = 2: the bracket is
    [F, F], since that value is exact.

    n >= 3: take the ascent's best unitary W, psi = (I x W)|Phi+>,
    G = mat(rho vec W) and H = Herm(G W^dag).  For every hermitian Z,
    X = H/2 + Z and Y = (W^dag (H/2 - Z) W)^T give K(Z) = rho - X x I - I x Y
    with K psi = 0 at the ascent's fixed point and
    Tr X + Tr Y = n <psi|rho|psi> <= n lower.  For any state sigma with
    maximally mixed marginals,
    Tr(rho sigma) <= lambda_max(K) + (Tr X + Tr Y)/n, so upper =
    lower + max(lambda_max(K(Z)), 0) plus a rounding margin of
    8 n^2 eps (1 + |X|_F + |Y|_F) bounds F.  Z = 0 closes most states (one
    eigvalsh); the states it leaves open run _DUAL_STEPS (200) steps of a
    smoothed descent over Z, one stacked eigh per step.

    The bound is on the relaxation over states with maximally mixed
    marginals, which can exceed F for n >= 3: unital channels that are not
    mixed-unitary exist there (Landau & Streater 1993).  The descent over Z,
    with X and Y tied to W, leaves a rank-6 state (the 118th drawn from seed 7
    in tests/test_measures.py) open at about 9e-4 however long it runs; a
    descent over independent X and Y (2 n^2 parameters) narrows that to about
    8.7e-5, the relaxation's own gap there.  The 150th drawn from seed 11 is
    still 1.4e-3 open after those 200 steps.  The clone pair at
    d = 1/sqrt(8) is the slowest of the states that close.
    """
    lower, upper = _fef_brackets(rho.matrix[None], _require_square(rho, "singlet fraction"))
    return float(lower[0]), float(upper[0])


def _require_square(rho: DensityMatrix, what: str) -> int:
    """n of an n x n bipartite state; any other shape is a DomainError naming `what`."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DomainError(f"{what} needs an n x n bipartite state, got {rho.dims}")
    return rho.dims[0]


# the magic basis, columns Phi+, i Phi-, i Psi+, Psi- (see singlet_fraction)
_MAGIC = np.array(maximally_entangled_bases(2)).T * np.array([1.0, 1j, 1j, 1.0])
_MAGIC.flags.writeable = False

# polar steps of every (state, start) row, every _ANDERSON_EVERY-th followed by
# an extrapolation; no stopping test, so a call's cost does not depend on its
# state.  On the 1,409 3x3 states of tests/fixtures/ascent_budget.py every
# state came within 1e-15 of a 3,000-step plain ascent from the Bell and 6
# Haar starts by step 30 (the 6th drawn from seed 10 last, the median by
# step 9); 60 keeps twice that
_POLAR_STEPS = 60
_ANDERSON_EVERY = 3
_ANDERSON_DEPTH = 5


def _bell_enumerations(matrices: np.ndarray, n: int) -> np.ndarray:
    """bell_enumeration of each n x n state in an (N, n^2, n^2) stack."""
    # <v|rho|v> as a vector-matrix then a vector-vector product per state,
    # the arithmetic of one state's v.conj() @ rho @ v, so every bit is kept
    overlaps = [((v.conj() @ matrices)[:, None, :] @ v)[:, 0].real
                for v in maximally_entangled_bases(n)]
    best = overlaps[0]
    for overlap in overlaps[1:]:
        best = np.where(overlap > best, overlap, best)   # the first of equal maxima
    return best


def _singlet_fractions(matrices: np.ndarray, n: int) -> tuple:
    """(F, W) for an (N, n^2, n^2) stack: F the singlet_fraction of each state,
    with the bits it gets alone, the larger of the enumeration and the
    magic-basis eigenvalue (n = 2) or the polar ascent (n >= 3), each run once
    over the whole stack with every product taken state by state; W the
    (N, n, n) unitaries of the best ascent rows, or None at n = 2."""
    if n == 2:
        # for real unit x, <Mx|rho|Mx> = x^T Re(M^dag rho M) x
        found = np.linalg.eigvalsh(((_MAGIC.conj().T @ matrices) @ _MAGIC).real)[:, -1]
        w = None
    else:
        found, w = _polar_ascent(matrices, _polar_starts(n))
    return np.maximum(_bell_enumerations(matrices, n), found), w


def _polar_ascent(matrices: np.ndarray, starts: np.ndarray) -> tuple:
    """Best overlap of each n x n state in an (N, n^2, n^2) stack over the
    polar ascents from the (S, n^2, 1) columns vec W of `starts`, and the
    (N, n, n) unitary W that reached it; each step is one stacked svd over
    every (state, start) row.

    The ascent converges linearly, slowly where its rate is near 1, so after
    every _ANDERSON_EVERY-th step each row also takes a polar step from the
    Anderson mix of its last _ANDERSON_DEPTH steps (D. G. Anderson, J. ACM 12,
    547 (1965)) and moves there only if that raises its overlap."""
    rows = matrices[:, None]           # (N, 1, n^2, n^2), broadcast over the starts
    n, w, outs, steps = math.isqrt(starts.shape[-2]), starts, [], []
    g = rows @ w
    for k in range(1, _POLAR_STEPS + 1):
        new = _polar_step(g)
        outs, steps = outs[1 - _ANDERSON_DEPTH:] + [new], steps[1 - _ANDERSON_DEPTH:] + [new - w]
        w, g = new, rows @ new
        if k % _ANDERSON_EVERY == 0:
            trial = _polar_step(rows @ _anderson_mix(outs, steps))
            trial_g = rows @ trial
            up = (_overlaps(trial, trial_g, n) > _overlaps(w, g, n))[..., None, None]
            w, g = np.where(up, trial, w), np.where(up, trial_g, g)
    overlaps = _overlaps(w, g, n)
    top, states = overlaps.argmax(axis=1), np.arange(len(matrices))
    return overlaps[states, top], w[states, top].reshape(-1, n, n)


def _anderson_mix(outs: list, steps: list) -> np.ndarray:
    """sum_i a_i W_i+1 of each row over its last iterates W_i+1 and steps R_i =
    W_i+1 - W_i, with sum a_i = 1 and |sum a_i R_i| least: a ~ (R^dag R + d I)^-1 1,
    d = 1e-12 Tr(R^dag R) + 1e-300 > 0 so no solve is singular, even at R = 0."""
    r, m = np.concatenate(steps, -1), len(steps)
    gram = r.conj().swapaxes(-1, -2) @ r
    delta = 1e-12 * np.trace(gram, axis1=-2, axis2=-1).real + 1e-300
    a = np.linalg.solve(gram + delta[..., None, None] * np.eye(m), np.ones((m, 1)))
    return np.concatenate(outs, -1) @ (a / a.sum(axis=-2, keepdims=True))


def _polar_starts(n: int) -> np.ndarray:
    """vec W, as (n^2, 1) columns, of the n^2 generalised Bell unitaries."""
    return np.sqrt(n) * np.array(maximally_entangled_bases(n))[..., None]


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


# steps of the smoothed descent over Z that fef_bounds runs on the states K(0)
# leaves open.  On 651 3x3 states (the clone pair at 51 values of d, the eight
# floor states, 600 random ones drawn from seeds 7 and 11) all but two closed
# within 150 steps, the clone pair at d = 1/sqrt(8) last (2e-11 open at 100)
_DUAL_STEPS = 200
_EPS = np.finfo(float).eps


def _fef_brackets(matrices: np.ndarray, n: int) -> tuple:
    """(lower, upper) of fef_bounds for each state of an (N, n^2, n^2) stack,
    lower being singlet_fraction(rho)."""
    lower, w = _singlet_fractions(matrices, n)
    if n == 2:
        return lower, lower
    half_h = (matrices @ w.reshape(-1, n * n, 1)).reshape(w.shape) @ w.conj().swapaxes(-1, -2)
    half_h = (half_h + half_h.conj().swapaxes(-1, -2)) / 4.0
    top, margin = _dual_tops(matrices, half_h, w, np.zeros_like(w))
    gap = np.maximum(top, 0.0) + margin
    open_rows = np.flatnonzero(top > margin)
    if open_rows.size:
        z = _descend(matrices[open_rows], half_h[open_rows], w[open_rows])
        top, margin = _dual_tops(matrices[open_rows], half_h[open_rows], w[open_rows], z)
        gap[open_rows] = np.minimum(gap[open_rows], np.maximum(top, 0.0) + margin)
    return lower, lower + gap


def _dual_matrices(rho: np.ndarray, half_h: np.ndarray, w: np.ndarray, z: np.ndarray) -> tuple:
    """(K, X, Y) of each row: X = H/2 + Z, Y = (W^dag (H/2 - Z) W)^T and
    K = rho - X x I - I x Y."""
    n = w.shape[-1]
    x = half_h + z
    y = (w.conj().swapaxes(-1, -2) @ (half_h - z) @ w).swapaxes(-1, -2)
    eye = np.eye(n)
    kron = np.einsum("...ac,bd->...abcd", x, eye) + np.einsum("ac,...bd->...abcd", eye, y)
    return rho - kron.reshape(rho.shape), x, y


def _dual_tops(rho: np.ndarray, half_h: np.ndarray, w: np.ndarray, z: np.ndarray) -> tuple:
    """(lambda_max(K(Z)), its rounding margin 8 n^2 eps (1 + |X|_F + |Y|_F))
    of each row, the margin above the rounding of forming K and of eigvalsh."""
    k, x, y = _dual_matrices(rho, half_h, w, z)
    n = w.shape[-1]
    scale = 1.0 + np.linalg.norm(x, axis=(-2, -1)) + np.linalg.norm(y, axis=(-2, -1))
    return np.linalg.eigvalsh(k)[:, -1], 8 * n * n * _EPS * scale


def _descend(rho: np.ndarray, half_h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Z of each row at the lowest lambda_max(K(Z) - 2 psi psi^dag) met in
    _DUAL_STEPS steps of a smoothed descent, one stacked eigh per step.

    psi is an eigenvector of every K(Z) with eigenvalue about 0, so the
    descent moves it to -2 and lowers the rest of the spectrum.  It
    minimises mu log sum_i exp(lambda_i / mu), whose gradient in Z is
    W (Tr_A P)^T W^dag - Tr_B P for P = sum_i p_i v_i v_i^dag, p the softmax
    weights of the eigenpairs.  Each row keeps its own step, x1.5 after a
    step that lowers the smoothed value and halved (without the move) after
    one that does not, and its own mu, lowered to max(lambda_max, eps^2) /
    log n^2 as lambda_max falls."""
    n = w.shape[-1]
    wh = w.conj().swapaxes(-1, -2)
    psi = w.reshape(-1, n * n, 1) / math.sqrt(n)
    away = rho - 2.0 * psi @ psi.conj().swapaxes(-1, -2)

    def spectrum(z):
        return np.linalg.eigh(_dual_matrices(away, half_h, w, z)[0])

    def smoothed(lam, mu):
        weights = np.exp((lam - lam[:, -1:]) / mu[:, None])
        total = weights.sum(axis=1)
        return lam[:, -1] + mu * np.log(total), weights / total[:, None]

    z = best = np.zeros_like(w)
    lam, v = spectrum(z)
    low, mu, step = lam[:, -1], np.full(len(z), np.inf), np.ones(len(z))
    for _ in range(_DUAL_STEPS):
        mu = np.minimum(mu, np.maximum(lam[:, -1], _EPS * _EPS) / math.log(n * n))
        value, p = smoothed(lam, mu)
        pp = ((v * p[:, None, :]) @ v.conj().swapaxes(-1, -2)).reshape(-1, n, n, n, n)
        grad = w @ np.einsum("...jajb->...ba", pp) @ wh - np.einsum("...ajbj->...ab", pp)
        trial = z - step[:, None, None] * grad
        trial_lam, trial_v = spectrum(trial)
        best = np.where((trial_lam[:, -1] < low)[:, None, None], trial, best)
        low = np.minimum(low, trial_lam[:, -1])
        up = smoothed(trial_lam, mu)[0] < value
        z = np.where(up[:, None, None], trial, z)
        lam, v = np.where(up[:, None], trial_lam, lam), np.where(up[:, None, None], trial_v, v)
        step = np.where(up, 1.5 * step, 0.5 * step)
    return best


# ---------------------------------------------------------------------------
# separability tests
# ---------------------------------------------------------------------------

def peres_horodecki(rho: DensityMatrix) -> str:
    """Separability verdict for two qubits from the leading principal minors
    W2, W3, W4 of the partial transpose; entangled iff the transpose fails to
    stay positive."""
    _require_two_qubits(rho, "Peres-Horodecki test")
    pt = partial_transpose(rho, 1)
    # a k x k minor is at most scale^k, scale = ||rho||_F; scaled by it, each
    # minor's rounding is a few eps, so one band serves every minor and state
    scale = np.linalg.norm(pt)
    w2, w3, w4 = (float(np.linalg.det(pt[:k, :k]).real) / scale ** k for k in (2, 3, 4))
    band = 64.0 * _EPS
    entangled = w4 < -band or (abs(w4) <= band and w3 < -band) or w2 < -band
    return "entangled" if entangled else "separable"

