"""Teleportation-usefulness and Bell-CHSH analysis of two-qubit channels.

The central objects are the Pauli correlation matrix T with entries
t_nm = Tr(rho sigma_n x sigma_m), the quantity N(rho) = sum_i sqrt(u_i)
(u_i the eigenvalues of T^dag T) deciding teleportation usefulness, and
M(rho) = max_{i>j} (u_i + u_j) deciding Bell-CHSH violation.

The analysis works on stacks.  analyze_family builds a family's whole grid
as one (N, 4, 4) stack from its statezoo matrix formula and validates it once
(one stacked eigvalsh), then runs T, N and M, the concurrence, the Bell
enumeration and the linear entropy once over the stack, one stacked eigh or
svd per step, and the closed forms once over the grid.  Their
singlet_fraction column is measures.singlet_fraction's, the fully entangled
fraction, exact for two qubits: the larger of the Bell enumeration and one
stacked eigvalsh in the magic basis.
analyze_channel and the single-state functions are the same kernels applied
to a one-state stack, so a state gets the same bits alone as in a grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures, statezoo
from .qcore import (
    DensityMatrix,
    DomainError,
    PAULIS,
    _density_spectra,
    _shaped,
    tensor,
)

BOUNDARY_BAND = 1e-9

# _PAULI_PAIRS[n, m] = sigma_n x sigma_m, Pauli order (x, y, z)
_PAULI_PAIRS = np.array([[tensor(sn, sm) for sm in PAULIS] for sn in PAULIS])


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 real matrix t_nm = Tr(rho sigma_n x sigma_m), Pauli order (x, y, z)."""
    measures._require_two_qubits(rho, "correlation matrix")
    return _correlation_matrices(rho.matrix[None])[0]


def tt_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of T^dag T (squared singular values of T), descending."""
    return _tt_eigenvalues(correlation_matrix(rho)[None])[0]


def n_value(rho: DensityMatrix) -> float:
    """N(rho) = sum_i sqrt(u_i); the channel is teleportation-useful iff N > 1."""
    return float(_n_and_m(tt_eigenvalues(rho)[None])[0][0])


def m_value(rho: DensityMatrix) -> float:
    """M(rho) = largest pair sum of the u_i; Bell-CHSH is violated iff M > 1."""
    return float(_n_and_m(tt_eigenvalues(rho)[None])[1][0])


def _correlation_matrices(matrices: np.ndarray) -> np.ndarray:
    """The correlation matrix of each two-qubit matrix in an (N, 4, 4) stack."""
    t = np.einsum("kij,nmji->knm", matrices, _PAULI_PAIRS)
    residue = np.max(np.abs(t.imag))
    if residue > 1e-12:
        raise DomainError(f"correlation entry has imaginary residue {residue:.3e}")
    return t.real


def _tt_eigenvalues(ts: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of T^dag T for each T in an (N, 3, 3) stack."""
    s = np.linalg.svd(ts, compute_uv=False)     # descending
    return s * s


def _n_and_m(u: np.ndarray) -> tuple:
    """The columns N and M for an (N, 3) stack of descending u_i."""
    return np.sum(np.sqrt(u), axis=-1), u[:, 0] + u[:, 1]


def optimal_fidelity(rho: DensityMatrix) -> float:
    """Optimal teleportation fidelity of a channel.

    Two qubits: f = (1 + N(rho)/3)/2.  n x n with n >= 3: f = (n F + 1)/(n + 1)
    with F = measures.singlet_fraction(rho), the fully entangled fraction.
    """
    n = measures._require_square(rho, "optimal fidelity")
    if n == 2:
        return 0.5 * (1.0 + n_value(rho) / 3.0)
    f = measures.singlet_fraction(rho)
    return float((n * f + 1.0) / (n + 1.0))


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

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


def analyze_channel(rho: DensityMatrix) -> ChannelReport:
    """The ChannelReport of one two-qubit state, the bits of _reports' row for it."""
    measures._require_two_qubits(rho, "channel analysis")
    return _reports(rho.matrix[None], rho.spectrum[None])[0]


def _reports(matrices: np.ndarray, spectra: np.ndarray) -> list:
    """The ChannelReport of each validated two-qubit state in an (N, 4, 4) stack
    with (N, 4) spectra, each quantity computed at once: one stacked eigh or
    svd per step."""
    n, m = _n_and_m(_tt_eigenvalues(_correlation_matrices(matrices)))
    columns = {
        "concurrence": measures._concurrences(matrices),
        "n_value": n,
        "m_value": m,
        "singlet_fraction": measures._two_qubit_fractions(matrices)[0],
        "fidelity_opt": 0.5 * (1.0 + n / 3.0),
        # exactly-critical channels (N = 1 up to float noise) are flagged boundary
        # and reported not useful; the same band guards the Bell flag
        "useful_for_teleportation": n > 1.0 + BOUNDARY_BAND,
        "violates_bell_chsh": m > 1.0 + BOUNDARY_BAND,
        "linear_entropy": measures._linear_entropies(matrices, spectra),
        "boundary": np.abs(n - 1.0) <= BOUNDARY_BAND,
    }
    rows = zip(*(np.asarray(column).tolist() for column in columns.values()))
    return [ChannelReport(**dict(zip(columns, row))) for row in rows]


def closed_forms(family: str, **params) -> dict:
    """Family-specific closed forms for concurrence, N, M, f_opt, S_L and F.

    These are the analytic expressions the numeric T-matrix pipeline must
    reproduce, on the family's domain: a parameter outside it raises the
    statezoo constructor's DomainError.  werner takes F or, on its entangled
    side, its concurrence C = 2F - 1; wei without a and b is the x = y = 0
    slice a = b = (1 - gamma)/2.  Parameters may be arrays; each entry has
    their shape.
    """
    return _closed_forms(family, params, check=True)


def _closed_forms(family: str, params: dict, check: bool) -> dict:
    """closed_forms of params, whose domain is checked only when `check` is
    set: analyze_family passes a grid its statezoo constructor has checked."""
    if family == "werner":
        F = params["F"] if "F" in params else (1.0 + params["C"]) / 2.0
        if check:
            statezoo._check_werner(F)
        n, c = abs(4.0 * F - 1.0), 2.0 * F - 1.0
        return _shaped({
            "concurrence": np.where(c > 0.0, c, 0.0),
            "n_value": n,
            "m_value": 2.0 * np.float_power(4.0 * F - 1.0, 2.0) / 9.0,
            "fidelity_opt": 0.5 * (1.0 + n / 3.0),
            "linear_entropy": 4.0 / 3.0 * (1.0 - F * F - np.float_power(1.0 - F, 2.0) / 3.0),
            "singlet_fraction": F,
        }, F)
    if family == "mjwk":
        C = params["C"]
        if check:
            statezoo._check_mjwk(C)
        h = statezoo.mjwk_h(C)
        tz2, high = np.float_power(4.0 * h - 1.0, 2.0), C >= 2.0 / 3.0
        return _shaped({
            "concurrence": C,
            "n_value": 2.0 * C + abs(4.0 * h - 1.0),
            # the two largest of (C^2, C^2, tz^2)
            "m_value": np.where(tz2 > C * C, tz2 + C * C, C * C + C * C),
            "fidelity_opt": np.where(high, (2.0 * C + 1.0) / 3.0, (5.0 + 3.0 * C) / 9.0),
            "linear_entropy": np.where(high, 8.0 / 3.0 * (C - C * C),
                                       2.0 / 3.0 * (4.0 / 3.0 - C * C)),
            "singlet_fraction": h + C / 2.0,
        }, C)
    if family == "wei":
        gamma = params["gamma"]
        a = params.get("a", (1.0 - gamma) / 2.0)
        b = params.get("b", (1.0 - gamma) / 2.0)
        x = (1.0 - gamma - a - b) / 2.0
        if check:
            statezoo._check_wei(x, x, a, b, gamma)
        tz = 1.0 - 2.0 * (a + b)
        n = 2.0 * gamma + abs(tz)
        g2, c = gamma * gamma, gamma - 2.0 * np.sqrt(a * b)
        return _shaped({
            "concurrence": np.where(c > 0.0, c, 0.0),
            "n_value": n,
            "m_value": np.where(tz * tz > g2, tz * tz + g2, g2 + g2),
            "fidelity_opt": 0.5 * (1.0 + n / 3.0),
        }, gamma, a, b)
    if family == "werner_derivative":
        F, a = params["F"], params["a"]
        if check:
            statezoo._check_werner_derivative(F, a)
        root = np.sqrt(a * (1.0 - a))
        n = (4.0 * F - 1.0) * (1.0 + 4.0 * root) / 3.0
        return _shaped({
            "n_value": n,
            "m_value": (1.0 + 4.0 * a - 4.0 * a * a) * np.float_power(4.0 * F - 1.0, 2.0) / 9.0,
            "fidelity_opt": (9.0 + (4.0 * F - 1.0) * (1.0 + 4.0 * root)) / 18.0,
            "entangled_a_bound": statezoo.werner_derivative_entangled_bound(F),
        }, F, a)
    if family == "nmems":
        p = params["p"]
        if check:
            statezoo._check_nmems(p)
        low, c = p < 0.25, (1.0 - p) / 3.0 - np.sqrt(p * (p + 2.0) / 12.0)
        return _shaped({
            "concurrence": 2.0 * np.where(c < 0.0, 0.0, c),
            "n_value": np.where(low, (5.0 - 8.0 * p) / 3.0, 1.0),
            "m_value": np.where(p < 0.5, (8.0 + 8.0 * p * p - 16.0 * p) / 9.0,
                                (20.0 * p * p - 16.0 * p + 5.0) / 9.0),
            "fidelity_opt": np.where(low, (7.0 - 4.0 * p) / 9.0, 2.0 / 3.0),
            "linear_entropy": 2.0 / 27.0 * (8.0 + 14.0 * p - 13.0 * p * p),
            "singlet_fraction": np.where(p < 0.5, 2.0 * (1.0 - p) / 3.0, (1.0 + 2.0 * p) / 6.0),
        }, p)
    raise DomainError(f"no closed forms for family {family!r}")


def fidelity_from_linear_entropy(family: str, s):
    """Optimal teleportation fidelity of the werner (F >= 1/2) or mjwk state
    whose linear entropy is s, for s in [0, 8/9] (a scalar or an array); the
    mjwk branch switches at s = 16/27 (C = 2/3)."""
    if not np.all((0.0 <= s) & (s <= 8.0 / 9.0)):
        raise DomainError(f"linear entropy must lie in [0, 8/9], got {s}")
    if family == "werner":
        return (1.0 + np.sqrt(1.0 - s)) / 2.0
    if family == "mjwk":
        # 2 - 3s >= 2/9 where its branch is taken; the clamp keeps the other quiet
        return np.where(s <= 16.0 / 27.0,
                        2.0 / 3.0 + np.sqrt(np.maximum(2.0 - 3.0 * s, 0.0)) / (3.0 * np.sqrt(2.0)),
                        5.0 / 9.0 + np.sqrt(8.0 - 9.0 * s) / (3.0 * np.sqrt(6.0)))[()]
    raise DomainError(f"no fidelity-entropy closed form for family {family!r}")


# family -> (sweep parameter, fixed parameters, builder(grid array, **fixed))
_FAMILIES = {
    "werner": ("F", (), statezoo.werner),
    "mjwk": ("C", (), statezoo.mjwk),
    "nmems": ("p", (), statezoo.nmems),
    "werner_derivative": ("a", ("F",), lambda v, F: statezoo.werner_derivative(F, v)),
    "wei": ("gamma", ("a", "b"), lambda v, a, b: statezoo.wei(
        (1.0 - v - a - b) / 2.0, (1.0 - v - a - b) / 2.0, a, b, v)),
}


def analyze_family(family: str, values, restarts: int = 1, **fixed) -> list:
    """Analyze one state family over a parameter grid.

    Returns (value, ChannelReport, closed_forms) triples sorted by the grid
    value.  The sweep parameter is F (werner), C (mjwk), p (nmems),
    a (werner_derivative, with F fixed) or gamma (wei, with a and b fixed,
    the remaining weight split evenly between x and y).  The statezoo
    constructor builds the grid as one stack, validated at once, and raises
    for its first bad value; the analysis and closed forms run once over it,
    with no second check of its domain.
    The singlet_fraction column is the fully entangled fraction.  restarts is
    ignored and not checked: it stays only because the perfbench sweep passes
    restarts=0, and ROADMAP item 1 removes it.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    param, names, build = _FAMILIES[family]
    if param in fixed:
        raise DomainError(f"{family} sweeps {param}; it cannot also be fixed")
    unknown = sorted(fixed.keys() - set(names))
    if unknown:
        raise DomainError(f"{family} has no fixed parameter {unknown[0]}")
    missing = [name for name in names if name not in fixed]
    if missing:
        raise DomainError(f"{family} needs the fixed parameter {missing[0]}")
    grid = sorted(float(x) for x in values)
    if not grid:
        return []
    matrices = build(np.array(grid), **fixed)
    reports = _reports(matrices, _density_spectra((2, 2), matrices))
    columns = _closed_forms(family, {param: np.array(grid), **fixed}, check=False)
    forms = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    return list(zip(grid, reports, forms))
