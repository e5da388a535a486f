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
    if not 1.0 < base < math.inf:
        raise DomainError(f"entropy base must be finite and > 1, got {base}")
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
    maximally_entangled_bases(n): a lower bound on the fully entangled
    fraction, equal to it on states diagonal in that basis."""
    n = _require_square(rho, "Bell enumeration")
    if n == 2:
        return float(_two_qubit_fractions(rho.matrix[None])[1][0])
    # the products the ascent forms for its start overlaps, so the two agree bit for bit
    starts = _polar_starts(n)
    return float(_overlaps(starts, rho.matrix @ starts, n).max())


def singlet_fraction(rho: DensityMatrix, restarts: int = 1) -> float:
    """Fully entangled fraction F: the maximal overlap of rho with a maximally
    entangled state, at most 1 and never below bell_enumeration(rho) where
    that is at most 1.

    restarts is ignored and not checked: it stays only because the perfbench
    workloads pass restarts=32, 6 or 0, and ROADMAP item 1 removes it.

    n = 2: a pure state is maximally entangled exactly when its coefficients
    in the magic basis (Phi+, i Phi-, i Psi+, Psi-) are real up to a global
    phase (Bennett, DiVincenzo, Smolin & Wootters 1996), so F is
    lambda_max(Re(M^dag rho M)), exact; its diagonal holds the Bell overlaps.
    The same kernel reads F for a whole stack of states in channel's reports.

    n >= 3: every maximally entangled state is (I x W)|Phi+> for a unitary W,
    since (U_A x U_B)|Phi+> = (I x U_B U_A^T)|Phi+>, and the overlap is convex
    in vec W, so the polar ascent W <- polar(mat(rho vec W)) never lowers it.
    It ascends on this one state from the n^2 generalised Bell unitaries,
    each step one svd stacked over them.  The best of those
    starts takes step 1 alone, and the ascent stops there if fef_bounds'
    Z = 0 certificate closes: 1 svd on a pure or isotropic state and on every
    qutrit clone pair.  Otherwise every start takes step 1, and after every
    3rd step the best start also takes one Newton step on the unitary
    group, kept only where it raises the overlap.  After step 1 and every
    Newton step the ascent stops once the certificate closes or the best
    overlap has risen by at most n^2 eps times itself since the last such
    check, and at 60 steps (81 svd) at the latest: 13-29 svd on the tested
    3x3 states whose certificate never closes.  The value, the larger of the
    ascent's and of its largest start overlap (bell_enumeration) and at most
    1, is a lower bound on F; fef_bounds certifies how far below it can lie.
    """
    n = _require_square(rho, "singlet fraction")
    if n == 2:
        return float(_two_qubit_fractions(rho.matrix[None])[0][0])
    return float(_singlet_fraction(rho.matrix, n)[0])


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
    8 n^2 eps (1 + |X|_F + |Y|_F) bounds F.  Z = 0, one of the ascent's stop
    tests, closes most states, every qutrit clone pair at the best start's
    first step; a state it leaves open runs _DUAL_STEPS (200) steps of a
    smoothed descent over Z, one eigh per step.

    The bound is on the relaxation over states with maximally mixed
    marginals, which can exceed F for n >= 3: unital channels that are not
    mixed-unitary exist there (Landau & Streater 1993).  The descent over Z,
    with X and Y tied to W, leaves a rank-6 state (the 118th drawn from seed 7
    in tests/test_measures.py) open at about 9e-4 however long it runs; a
    descent over independent X and Y (2 n^2 parameters) narrows that to about
    8.7e-5, the relaxation's own gap there.  The 150th drawn from seed 11 is
    still 1.4e-3 open after those 200 steps.
    """
    n = _require_square(rho, "singlet fraction")
    if n == 2:
        lower = singlet_fraction(rho)
        return lower, lower
    lower, upper = _fef_bracket(rho.matrix, n)
    return float(lower), float(upper)


def _require_square(rho: DensityMatrix, what: str) -> int:
    """n of an n x n bipartite state; any other shape is a DomainError naming `what`."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DomainError(f"{what} needs an n x n bipartite state, got {rho.dims}")
    return rho.dims[0]


# the magic basis, columns Phi+, i Phi-, i Psi+, Psi- (see singlet_fraction)
_MAGIC = np.array(maximally_entangled_bases(2)).T * np.array([1.0, 1j, 1j, 1.0])
_MAGIC_DAG = _MAGIC.conj().T
_MAGIC.flags.writeable = _MAGIC_DAG.flags.writeable = False

# the most polar steps of a start, every _NEWTON_EVERY-th followed by a
# Newton step on the best start.  On the 1,409 3x3 states of
# tests/fixtures/ascent_budget.py every state came within 1e-15 of a
# 3,000-step plain ascent from the Bell and 6 Haar starts, or stopped on a
# certificate at most 5.6e-14 wide, by step 18 (the 5th drawn from seed 59
# and the 8th from seed 101 last, the median by step 6), 189 of them at the
# leader's step; 60 keeps 3.33 times that.  A state stops before it when its
# certificate closes or a cycle raises its best overlap by at most n^2 eps
# times itself: no step lowers the overlap, so such a rise is rounding at the
# ascent's fixed point, and ascent_budget.py checks that such a value lies
# within 1e-15 of the reference (all 325 that stalled there)
_POLAR_STEPS = 60
_NEWTON_EVERY = 3


def _two_qubit_fractions(matrices: np.ndarray) -> tuple:
    """(F, enumeration) of each two-qubit state of an (N, 4, 4) stack, with
    R = Re(M^dag rho M): enumeration (bell_enumeration) R's largest diagonal
    entry, and F (singlet_fraction) the larger of it and R's top eigenvalue,
    capped at 1.  Every product is taken state by state, so each state gets
    the bits it gets alone."""
    # for real unit x, <Mx|rho|Mx> = x^T R x; x = e_k are the Bell states
    r = ((_MAGIC_DAG @ matrices) @ _MAGIC).real
    start = r.diagonal(0, 1, 2).max(1)
    # F <= 1, which rounding can pass by an eps on a maximally entangled state
    return np.minimum(np.maximum(np.linalg.eigvalsh(r)[:, -1], start), 1.0), start


def _singlet_fraction(rho: np.ndarray, n: int) -> tuple:
    """(F, certificate) of one n x n state, n >= 3: F the larger of the polar
    ascent and the enumeration, capped at 1, and certificate the ascent's
    (W, H/2, top, margin)."""
    found, *certificate, start = _polar_ascent(rho, _polar_starts(n))
    return min(max(found, start), 1.0), certificate


def _polar_ascent(rho: np.ndarray, starts: np.ndarray) -> tuple:
    """(F, W, H/2, top, margin, start) of one (n^2, n^2) state rho: F its best
    overlap over the polar ascents from the (S, n^2, 1) columns vec W of
    `starts`, W the (n, n) unitary that reached it, (W, H/2, top, margin) its
    Z = 0 certificate (fef_bounds, _dual_tops) and start its largest overlap
    at the starts; each step is one svd stacked over the starts.

    The best start takes step 1 alone, and the ascent stops there if that
    row's certificate closes; otherwise it steps from every start.  The
    ascent converges linearly, slowly where its rate is near 1, so after
    every _NEWTON_EVERY-th step the best row also takes a Newton step
    (_newton_step), which converges quadratically near a maximum, and moves
    there only if that raises its overlap.  After step 1, each Newton step
    and the last step, it stops if the best row's certificate closes or the
    best overlap has risen by at most n^2 eps times itself since the check
    before, which is rounding at the ascent's fixed point.  The certificate
    is formed only when the ascent stops or could close: with
    psi = (I x W)|Phi+>, K(0) psi = (G W^dag - W G^dag) W / 2 sqrt(n)
    and |K(0)| <= 1 + sqrt(n), so lambda_max(K(0)) >= |K(0) psi|^2 / 2 (1 + sqrt(n)),
    twice the largest margin 8 n^2 eps (1 + sqrt(n)) once
    |G W^dag - W G^dag|_F^2 > open_skew (2 + sqrt(n) covers rounding)."""
    n, w = math.isqrt(starts.shape[-2]), starts
    g = rho @ w
    overlaps = _overlaps(w, g, n)
    start = overlaps.max()
    open_skew = 128 * n ** 3 * _EPS * (2.0 + math.sqrt(n)) ** 2
    lead_w = _polar_step(g[overlaps.argmax()])
    lead_g = rho @ lead_w
    certificate = _certificate(rho, lead_w, lead_g, open_skew, False)
    if certificate and certificate[2] <= certificate[3]:
        return _overlaps(lead_w, lead_g, n), *certificate, start
    best = -np.inf   # the highest F over the checks
    for k in range(1, _POLAR_STEPS + 1):
        w = _polar_step(g)
        g = rho @ w
        if k % _NEWTON_EVERY and k != 1 and k != _POLAR_STEPS:
            continue
        overlaps = _overlaps(w, g, n)
        pick = overlaps.argmax()
        found = overlaps[pick]
        if k % _NEWTON_EVERY == 0:
            trial = _newton_step(rho, w[pick], g[pick])
            trial_g = rho @ trial
            trial_found = _overlaps(trial, trial_g, n)
            if trial_found > found:
                w[pick], g[pick], found = trial, trial_g, trial_found
        stop = found - best <= n * n * _EPS * found or k == _POLAR_STEPS
        best = max(best, found)
        certificate = _certificate(rho, w[pick], g[pick], open_skew, stop)
        if certificate and (stop or certificate[2] <= certificate[3]):
            return best, *certificate, start


def _certificate(rho: np.ndarray, w: np.ndarray, g: np.ndarray, open_skew: float,
                 stop: bool) -> tuple | None:
    """(W, H/2, top, margin) of the Z = 0 certificate of one row, from its
    (n^2, 1) column vec W and g = rho vec W, or None, as it is open, when
    `stop` is not set and the skew fails the open_skew pretest of
    _polar_ascent."""
    n = math.isqrt(w.shape[-2])
    unitary = w.reshape(n, n)
    gw = g.reshape(n, n) @ unitary.conj().T   # G W^dag
    skew = gw - gw.conj().T
    if not (stop or np.add.reduce(np.abs(skew) ** 2, axis=(-2, -1)) <= open_skew):
        return None
    half_h = (gw + gw.conj().T) / 4.0
    return unitary, half_h, *_dual_tops(rho, half_h, unitary, 0.0)


def _newton_step(rho: np.ndarray, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """vec polar(W (I + i H)) of one row, from its state rho, its (n^2, 1)
    column vec W and g = rho vec W: H the Newton step of
    f(H) = <W e^{iH}|rho|W e^{iH}> in the coordinates x of
    H = sum_k x_k B_k over _hermitian_basis(n).  With G = mat(g) and
    M = W^dag G, f's gradient is -2 Im Tr(M^dag B_k) and its Hessian
    2 Re <W B_k|rho|W B_l> - Re Tr(M^dag (B_k B_l + B_l B_k)).  The Hessian
    is shifted by -1e-12 I, small beside its entries as rho has unit trace,
    so that no solve is singular: at every Bell start of a
    product-basis-diagonal state the Hessian itself is."""
    n = math.isqrt(w.shape[-2])
    basis = _hermitian_basis(n)
    transposed = basis.reshape(-1, n * n).conj().T   # the columns vec(B_k^T) = vec(conj(B_k))
    unitary = w.reshape(n, n)
    moves = (unitary @ basis).reshape(-1, n * n)   # the rows vec(W B_k)
    m_dag = g.reshape(n, n).conj().T @ unitary
    slope = -2.0 * (m_dag.reshape(1, n * n) @ transposed).imag   # Tr(X Y) = vec(X) . vec(Y^T)
    t = (m_dag @ basis).reshape(moves.shape) @ transposed   # Tr(M^dag B_k B_l)
    curvature = (2.0 * (moves.conj() @ rho @ moves.T).real
                 - (t + t.T).real - 1e-12 * np.eye(len(basis)))
    x = np.linalg.solve(curvature, -slope.T)
    h = (x.T @ basis.reshape(-1, n * n)).reshape(n, n)
    return _polar_step((unitary + 1j * unitary @ h).reshape(w.shape))


@functools.lru_cache(maxsize=None)
def _hermitian_basis(n: int) -> np.ndarray:
    """The (n^2 - 1, n, n) hermitian matrices B_k, Tr(B_k B_l) = delta_kl, that
    span the hermitian matrices with a zero (0, 0) entry: they leave out the
    identity, the global phase that no overlap sees.  Built once per n and
    returned read-only."""
    j, k = np.triu_indices(n, 1)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)   # E_ab at a n + b
    upper, lower = units[j * n + k], units[k * n + j]
    basis = np.concatenate([units[(n + 1) * np.arange(1, n)], (upper + lower) / math.sqrt(2.0),
                            1j * (upper - lower) / math.sqrt(2.0)])
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def _polar_starts(n: int) -> np.ndarray:
    """vec W, as (n^2, 1) columns, of the n^2 generalised Bell unitaries,
    built once per n and returned read-only."""
    starts = np.sqrt(n) * np.array(maximally_entangled_bases(n))[..., None]
    starts.flags.writeable = False
    return starts


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


# steps of the smoothed descent over Z that fef_bounds runs on the states the
# ascent's last K(0) leaves open.  On 659 3x3 states (the clone pair at 51
# values of d, the eight floor states, 600 random ones drawn from seeds 7 and
# 11) that is 149 random ones, and all but two closed within 40 steps; the
# 6th state drawn from seed 10 (a slow state of the tests) closes only
# between 160 and 180
_DUAL_STEPS = 200
_EPS = np.finfo(float).eps


def _fef_bracket(rho: np.ndarray, n: int) -> tuple:
    """(lower, upper) of fef_bounds for one n x n state, n >= 3."""
    lower, (w, half_h, top, margin) = _singlet_fraction(rho, n)
    gap = max(top, 0.0) + margin
    if top > margin:
        top, margin = _dual_tops(rho, half_h, w, _descend(rho, half_h, w))
        gap = min(gap, max(top, 0.0) + margin)
    return lower, lower + gap


def _dual_matrices(rho: np.ndarray, half_h: np.ndarray, w: np.ndarray, z: np.ndarray) -> tuple:
    """(K, X, Y): X = H/2 + Z, Y = (W^dag (H/2 - Z) W)^T and
    K = rho - X x I - I x Y."""
    n = w.shape[-1]
    x = half_h + z
    y = (w.conj().T @ (half_h - z) @ w).T
    eye = np.eye(n)
    kron = x[:, None, :, None] * eye[:, None, :] + eye[:, None, :, None] * y[None, :, None, :]
    return rho - kron.reshape(rho.shape), x, y


def _dual_tops(rho: np.ndarray, half_h: np.ndarray, w: np.ndarray, z: np.ndarray) -> tuple:
    """(lambda_max(K(Z)), its rounding margin 8 n^2 eps (1 + |X|_F + |Y|_F)),
    the margin above the rounding of forming K and of eigvalsh."""
    k, x, y = _dual_matrices(rho, half_h, w, z)
    n = w.shape[-1]
    scale = 1.0 + np.linalg.norm(x, axis=(-2, -1)) + np.linalg.norm(y, axis=(-2, -1))
    return np.linalg.eigvalsh(k)[-1], 8 * n * n * _EPS * scale


def _descend(rho: np.ndarray, half_h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Z at the lowest lambda_max(K(Z) - 2 psi psi^dag) met in _DUAL_STEPS
    steps of a smoothed descent, one eigh per step.

    psi is an eigenvector of every K(Z) with eigenvalue about 0, so the
    descent moves it to -2 and lowers the rest of the spectrum.  It
    minimises mu log sum_i exp(lambda_i / mu), whose gradient in Z is
    W (Tr_A P)^T W^dag - Tr_B P for P = sum_i p_i v_i v_i^dag, p the softmax
    weights of the eigenpairs.  The step grows x1.5 after a step that lowers
    the smoothed value and is halved (without the move) after one that does
    not, and mu is lowered to max(lambda_max, eps^2) / log n^2 as
    lambda_max falls."""
    n = w.shape[-1]
    wh = w.conj().T
    psi = w.reshape(n * n, 1) / math.sqrt(n)
    away = rho - 2.0 * psi @ psi.conj().T

    def spectrum(z):
        return np.linalg.eigh(_dual_matrices(away, half_h, w, z)[0])

    def smoothed(lam, mu):
        weights = np.exp((lam - lam[-1]) / mu)
        total = weights.sum()
        return lam[-1] + mu * np.log(total), weights / total

    z = best = np.zeros_like(w)
    lam, v = spectrum(z)
    low, mu, step = lam[-1], np.inf, 1.0
    for _ in range(_DUAL_STEPS):
        mu = min(mu, max(lam[-1], _EPS * _EPS) / math.log(n * n))
        value, p = smoothed(lam, mu)
        pp = ((v * p) @ v.conj().T).reshape(n, n, n, n)
        grad = w @ np.einsum("jajb->ba", pp) @ wh - np.einsum("ajbj->ab", pp)
        trial = z - step * grad
        trial_lam, trial_v = spectrum(trial)
        if trial_lam[-1] < low:
            best, low = trial, trial_lam[-1]
        if smoothed(trial_lam, mu)[0] < value:
            z, lam, v, step = trial, trial_lam, trial_v, 1.5 * step
        else:
            step = 0.5 * step
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

