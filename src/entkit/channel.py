"""Teleportation-usefulness and Bell-CHSH analysis of two-qubit channels.

The central objects are the Pauli correlation matrix T with entries
t_nm = Tr(rho sigma_n x sigma_m), the quantity N(rho) = sum_i sqrt(u_i)
(u_i the eigenvalues of T^dag T) deciding teleportation usefulness, and
M(rho) = max_{i>j} (u_i + u_j) deciding Bell-CHSH violation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures, statezoo
from .qcore import (
    DensityMatrix,
    DomainError,
    I2,
    PAULIS,
    X,
    Y,
    Z,
    _reduced_matrix,
    tensor,
)

BOUNDARY_BAND = 1e-9

# _PAULI_PAIRS[n, m] = sigma_n x sigma_m, Pauli order (x, y, z)
_PAULI_PAIRS = np.array([[tensor(sn, sm) for sm in PAULIS] for sn in PAULIS])


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 real matrix t_nm = Tr(rho sigma_n x sigma_m), Pauli order (x, y, z)."""
    measures._require_two_qubits(rho, "correlation matrix")
    t = np.einsum("ij,nmji->nm", rho.matrix, _PAULI_PAIRS)
    residue = np.max(np.abs(t.imag))
    if residue > 1e-12:
        raise DomainError(f"correlation entry has imaginary residue {residue:.3e}")
    return t.real


def tt_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of T^dag T (squared singular values of T), descending."""
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return np.sort(s * s)[::-1]


def n_value(rho: DensityMatrix) -> float:
    """N(rho) = sum_i sqrt(u_i); the channel is teleportation-useful iff N > 1."""
    return _n_and_m(tt_eigenvalues(rho))[0]


def m_value(rho: DensityMatrix) -> float:
    """M(rho) = largest pair sum of the u_i; Bell-CHSH is violated iff M > 1."""
    return _n_and_m(tt_eigenvalues(rho))[1]


def _n_and_m(u: np.ndarray) -> tuple:
    return float(np.sum(np.sqrt(u))), float(u[0] + u[1])


def optimal_fidelity(rho: DensityMatrix, seed: int = 0, restarts: int = 32) -> float:
    """Optimal teleportation fidelity of a channel.

    Two qubits: f = (1 + N(rho)/3)/2.  n x n with n >= 3: f = (n F + 1)/(n + 1)
    with F the fully entangled fraction.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DomainError(f"optimal fidelity needs an n x n bipartite state, got {rho.dims}")
    n = rho.dims[0]
    if n == 2:
        return 0.5 * (1.0 + n_value(rho) / 3.0)
    f = measures.singlet_fraction(rho, seed=seed, restarts=restarts)
    return float((n * f + 1.0) / (n + 1.0))


# ---------------------------------------------------------------------------
# explicit teleportation through a channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TeleportOutcome:
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


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

def _unit_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise DomainError(f"{name} must be a unit 3-vector")
    return v


def chsh_max(rho: DensityMatrix, settings) -> float:
    """CHSH combination <a.s x b.s> + <a.s x b'.s> + <a'.s x b.s> - <a'.s x b'.s>
    at the four given measurement directions."""
    a, ap, b, bp = (_unit_vector(v, n) for v, n in zip(settings, ("a", "a'", "b", "b'")))
    t = correlation_matrix(rho)
    return float(a @ t @ (b + bp) + ap @ t @ (b - bp))


def chsh_supremum(rho: DensityMatrix) -> float:
    """Largest CHSH value over all settings, 2 sqrt(M(rho)); at most 2 sqrt(2)."""
    return float(2.0 * np.sqrt(m_value(rho)))


# ---------------------------------------------------------------------------
# bundled analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ChannelReport:
    """One-shot summary of a two-qubit channel."""

    concurrence: float
    n_value: float
    m_value: float
    singlet_fraction: float
    fidelity_opt: float
    useful_for_teleportation: bool
    violates_bell_chsh: bool
    linear_entropy: float
    boundary: bool = False         # true when N sits within 1e-9 of the N = 1 line


def analyze_channel(rho: DensityMatrix, restarts: int = 32) -> ChannelReport:
    measures._require_two_qubits(rho, "channel analysis")
    n, m = _n_and_m(tt_eigenvalues(rho))
    # exactly-critical channels (N = 1 up to float noise) are flagged boundary
    # and reported not useful; the same band guards the Bell flag
    return ChannelReport(
        concurrence=measures.concurrence(rho),
        n_value=n,
        m_value=m,
        singlet_fraction=measures.singlet_fraction(rho, restarts=restarts),
        fidelity_opt=0.5 * (1.0 + n / 3.0),
        useful_for_teleportation=n > 1.0 + BOUNDARY_BAND,
        violates_bell_chsh=m > 1.0 + BOUNDARY_BAND,
        linear_entropy=measures.entropy(rho, "linear"),
        boundary=abs(n - 1.0) <= BOUNDARY_BAND,
    )


def closed_forms(family: str, **params) -> dict:
    """Family-specific closed forms for concurrence, N, M, f_opt, S_L and F.

    These are the analytic expressions the numeric T-matrix pipeline must
    reproduce; each entry states its own validity domain through the family
    parameter ranges.  werner takes F or, on its entangled side, its
    concurrence C = 2F - 1; wei without a and b is the x = y = 0 slice
    a = b = (1 - gamma)/2.
    """
    if family == "werner":
        F = params["F"] if "F" in params else (1.0 + params["C"]) / 2.0
        n = abs(4.0 * F - 1.0)
        return {
            "concurrence": max(0.0, 2.0 * F - 1.0),
            "n_value": n,
            "m_value": 2.0 * (4.0 * F - 1.0) ** 2 / 9.0,
            "fidelity_opt": 0.5 * (1.0 + n / 3.0),
            "linear_entropy": 4.0 / 3.0 * (1.0 - F * F - (1.0 - F) ** 2 / 3.0),
            "singlet_fraction": F,
        }
    if family == "mjwk":
        C = params["C"]
        h = statezoo.mjwk_h(C)
        n = 2.0 * C + abs(4.0 * h - 1.0)
        u = sorted([C * C, C * C, (4.0 * h - 1.0) ** 2], reverse=True)
        if C >= 2.0 / 3.0:
            s_l = 8.0 / 3.0 * (C - C * C)
        else:
            s_l = 2.0 / 3.0 * (4.0 / 3.0 - C * C)
        return {
            "concurrence": C,
            "n_value": n,
            "m_value": u[0] + u[1],
            "fidelity_opt": (2.0 * C + 1.0) / 3.0 if C >= 2.0 / 3.0 else (5.0 + 3.0 * C) / 9.0,
            "linear_entropy": s_l,
            "singlet_fraction": h + C / 2.0,
        }
    if family == "wei":
        gamma = params["gamma"]
        a = params.get("a", (1.0 - gamma) / 2.0)
        b = params.get("b", (1.0 - gamma) / 2.0)
        tz = 1.0 - 2.0 * (a + b)
        n = 2.0 * gamma + abs(tz)
        u = sorted([gamma * gamma, gamma * gamma, tz * tz], reverse=True)
        return {
            "concurrence": max(0.0, gamma - 2.0 * np.sqrt(a * b)),
            "n_value": n,
            "m_value": u[0] + u[1],
            "fidelity_opt": 0.5 * (1.0 + n / 3.0),
        }
    if family == "werner_derivative":
        F, a = params["F"], params["a"]
        root = np.sqrt(a * (1.0 - a))
        n = (4.0 * F - 1.0) * (1.0 + 4.0 * root) / 3.0
        return {
            "n_value": n,
            "m_value": (1.0 + 4.0 * a - 4.0 * a * a) * (4.0 * F - 1.0) ** 2 / 9.0,
            "fidelity_opt": (9.0 + (4.0 * F - 1.0) * (1.0 + 4.0 * root)) / 18.0,
            "entangled_a_bound": statezoo.werner_derivative_entangled_bound(F),
        }
    if family == "nmems":
        p = params["p"]
        n = (5.0 - 8.0 * p) / 3.0 if p < 0.25 else 1.0
        if p < 0.5:
            m = (8.0 + 8.0 * p * p - 16.0 * p) / 9.0
        else:
            m = (20.0 * p * p - 16.0 * p + 5.0) / 9.0
        return {
            "concurrence": 2.0 * max((1.0 - p) / 3.0 - np.sqrt(p * (p + 2.0) / 12.0), 0.0),
            "n_value": n,
            "m_value": m,
            "fidelity_opt": (7.0 - 4.0 * p) / 9.0 if p < 0.25 else 2.0 / 3.0,
            "linear_entropy": 2.0 / 27.0 * (8.0 + 14.0 * p - 13.0 * p * p),
            "singlet_fraction": 2.0 * (1.0 - p) / 3.0 if p < 0.25 else None,
        }
    raise DomainError(f"no closed forms for family {family!r}")


def fidelity_from_linear_entropy(family: str, s: float) -> float:
    """Optimal teleportation fidelity of the werner (F >= 1/2) or mjwk state
    whose linear entropy is s, for s in [0, 8/9]; the mjwk branch switches at
    s = 16/27 (C = 2/3)."""
    if not 0.0 <= s <= 8.0 / 9.0:
        raise DomainError(f"linear entropy must lie in [0, 8/9], got {s}")
    if family == "werner":
        return (1.0 + np.sqrt(1.0 - s)) / 2.0
    if family == "mjwk":
        if s <= 16.0 / 27.0:
            return 2.0 / 3.0 + np.sqrt(2.0 - 3.0 * s) / (3.0 * np.sqrt(2.0))
        return 5.0 / 9.0 + np.sqrt(8.0 - 9.0 * s) / (3.0 * np.sqrt(6.0))
    raise DomainError(f"no fidelity-entropy closed form for family {family!r}")


# family -> (sweep parameter, builder(value, fixed parameters))
_FAMILIES = {
    "werner": ("F", lambda v, fixed: statezoo.werner(v)),
    "mjwk": ("C", lambda v, fixed: statezoo.mjwk(v)),
    "nmems": ("p", lambda v, fixed: statezoo.nmems(v)),
    "werner_derivative": ("a", lambda v, fixed: statezoo.werner_derivative(fixed["F"], v)),
    "wei": ("gamma", lambda v, fixed: statezoo.wei(
        (1.0 - v - fixed["a"] - fixed["b"]) / 2.0,
        (1.0 - v - fixed["a"] - fixed["b"]) / 2.0,
        fixed["a"], fixed["b"], v)),
}


def analyze_family(family: str, values, restarts: int = 0, **fixed) -> list:
    """Analyze one state family over a parameter grid.

    Returns (value, ChannelReport, closed_forms) triples sorted by the grid
    value.  The sweep parameter is F (werner), C (mjwk), p (nmems),
    a (werner_derivative, with F fixed) or gamma (wei, with a and b fixed,
    the remaining weight split evenly between x and y).
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    param, build = _FAMILIES[family]
    rows = []
    for v in sorted(float(x) for x in values):
        report = analyze_channel(build(v, fixed), restarts=restarts)
        rows.append((v, report, closed_forms(family, **{param: v}, **fixed)))
    return rows
