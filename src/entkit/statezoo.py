"""Constructors for the named pure and mixed state families used in the package.

Bell-state indexing used everywhere in this package, with the standard
names (documented once, here):

    bell(1) = |Phi+> = (|00> + |11>)/sqrt(2)
    bell(2) = |Phi-> = (|00> - |11>)/sqrt(2)
    bell(3) = |Psi+> = (|01> + |10>)/sqrt(2)
    bell(4) = |Psi-> = (|01> - |10>)/sqrt(2)   (the singlet)

All amplitudes are real unless a family definition carries an explicit phase.
"""
from __future__ import annotations

import numpy as np

from .qcore import (
    DensityMatrix,
    DomainError,
    PureState,
    _require,
    basis_ket,
    ket,
    tensor,
)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# pure families
# ---------------------------------------------------------------------------

def bell(k: int) -> PureState:
    """Bell state k in the 1..4 = (Phi+, Phi-, Psi+, Psi-) indexing."""
    table = {
        1: (0, 3, +1.0),   # (|00> + |11>)/sqrt2
        2: (0, 3, -1.0),   # (|00> - |11>)/sqrt2
        3: (1, 2, +1.0),   # (|01> + |10>)/sqrt2
        4: (1, 2, -1.0),   # (|01> - |10>)/sqrt2
    }
    if k not in table:
        raise DomainError(f"bell index must be 1..4, got {k}")
    i, j, sign = table[k]
    v = np.zeros(4)
    v[i] = 1.0
    v[j] = sign
    return PureState((2, 2), v / SQRT2)


def ghz3() -> PureState:
    """(|000> + |111>)/sqrt(2)."""
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return PureState((2, 2, 2), v / SQRT2)


def ghz4() -> PureState:
    """(|0000> + |1111>)/sqrt(2)."""
    v = np.zeros(16)
    v[0] = v[15] = 1.0
    return PureState((2, 2, 2, 2), v / SQRT2)


# Orthogonal three-qubit companions of the GHZ state, G1..G7.
_GHZ_CLASS = {
    1: ("010", "101", +1.0),
    2: ("010", "101", -1.0),
    3: ("001", "110", -1.0),
    4: ("001", "110", +1.0),
    5: ("100", "011", -1.0),
    6: ("100", "011", +1.0),
    7: ("000", "111", -1.0),
}


def ghz_class(i: int) -> PureState:
    """Member G_i of the GHZ class, (|a> +/- |b>)/sqrt(2) on three qubits."""
    if i not in _GHZ_CLASS:
        raise DomainError(f"ghz_class index must be 1..7, got {i}")
    a, b, sign = _GHZ_CLASS[i]
    v = basis_ket([int(c) for c in a], (2, 2, 2)) + sign * basis_ket(
        [int(c) for c in b], (2, 2, 2))
    return PureState((2, 2, 2), v / SQRT2)


def w3_prototype() -> PureState:
    """(|100> + |010> + |001>)/sqrt(3)."""
    v = np.zeros(8)
    v[4] = v[2] = v[1] = 1.0
    return PureState((2, 2, 2), v / np.sqrt(3))


def w3_nonprototype() -> PureState:
    """(|100> + |010> + sqrt(2)|001>)/2."""
    v = np.zeros(8)
    v[4] = v[2] = 1.0
    v[1] = SQRT2
    return PureState((2, 2, 2), v / 2.0)


def w4() -> PureState:
    """(|1000> + |0100> + |0010> + |0001>)/2."""
    v = np.zeros(16)
    v[8] = v[4] = v[2] = v[1] = 0.5
    return PureState((2, 2, 2, 2), v)


def pati(l: float) -> PureState:
    """GHZ-type state (|000> + l|111>)/sqrt(1 + l^2) for real l > 0."""
    if not 0 < l < np.inf:
        raise DomainError(f"pati parameter l must be finite and > 0, got {l}")
    v = np.zeros(8)
    v[0] = 1.0
    v[7] = l
    return PureState((2, 2, 2), v / np.sqrt(1.0 + l * l))


def liqiu_w(n: int) -> PureState:
    """Non-prototypical W state [ (|10>+sqrt(n)|01>)/sqrt(n+1) |0> + |00>|1> ] / sqrt(2)."""
    if n < 1:
        raise DomainError(f"liqiu_w parameter n must be >= 1, got {n}")
    phi = np.zeros(4)
    phi[2] = 1.0
    phi[1] = np.sqrt(n)
    phi /= np.sqrt(n + 1.0)
    v = (tensor(phi, ket(0, 2)) + tensor(basis_ket((0, 0), (2, 2)), ket(1, 2))) / SQRT2
    return PureState((2, 2, 2), v)


def qutrit_ghz3() -> PureState:
    """(|000> + |111> + |222>)/sqrt(3) on three qutrits."""
    v = np.zeros(27)
    v[0] = v[13] = v[26] = 1.0
    return PureState((3, 3, 3), v / np.sqrt(3))


def generalized_max_entangled(n: int) -> PureState:
    """|psi+_n> = sum_i |ii> / sqrt(n)."""
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    v = np.zeros(n * n)
    for i in range(n):
        v[i * n + i] = 1.0
    return PureState((n, n), v / np.sqrt(n))


# ---------------------------------------------------------------------------
# mixed families
# ---------------------------------------------------------------------------

# |Psi-><Psi-| and |Psi+><Psi+|, the matrices of bell(4).density() and
# bell(3).density(), built once and read-only
_SINGLET = bell(4).density().matrix
_PSI_PLUS = bell(3).density().matrix

# werner, mjwk, wei, werner_derivative and nmems take scalars, for the
# DensityMatrix, or arrays, for the (N, 4, 4) complex stack of its matrices
# that the caller validates at once; each checks its domain with the _check_*
# function that channel.closed_forms shares, so a bad array raises what the
# scalar call raises at its first bad entry.


def _state(m: np.ndarray):
    """The DensityMatrix of one 4x4 matrix, or a grid's complex matrix stack."""
    return DensityMatrix((2, 2), m) if m.ndim == 2 else m.astype(complex, copy=False)


def _check_werner(F) -> None:
    _require(((0.25 < F) & (F <= 1.0), "werner F must lie in (1/4, 1], got {}", F))


def werner(F):
    """Werner state (1-F)/3 I + (4F-1)/3 |Psi-><Psi-| with singlet fraction F,
    a scalar or an array.

    Accepts F in (1/4, 1]; the teleportation analysis of the family is only
    interesting on (1/2, 1], where the state is entangled.
    """
    _check_werner(F)
    F = np.asarray(F, dtype=float)[..., None, None]
    return _state((1.0 - F) / 3.0 * np.eye(4) + (4.0 * F - 1.0) / 3.0 * _SINGLET)


def mjwk_h(C):
    """Corner weight h(C) of the Munro-James-White-Kwiat MEMS; C a scalar or an array."""
    return np.where(C >= 2.0 / 3.0, C / 2.0, 1.0 / 3.0)[()]


def _check_mjwk(C) -> None:
    _require(((0.0 <= C) & (C <= 1.0), "mjwk concurrence must lie in [0, 1], got {}", C))


def mjwk(C):
    """Munro-James-White-Kwiat maximally entangled mixed state of concurrence C,
    a scalar or an array."""
    _check_mjwk(C)
    h = mjwk_h(C)
    m = np.zeros(np.shape(C) + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = h
    m[..., 1, 1] = 1.0 - 2.0 * h
    m[..., 0, 3] = m[..., 3, 0] = C / 2.0
    return _state(m)


def _check_wei(x, y, a, b, gamma) -> tuple:
    """The weights (x, y, a, b, gamma), each entry in [-1e-12, 0) set to 0: a
    weight computed at the closed end of the domain may round below 0."""
    params = {"x": x, "y": y, "a": a, "b": b, "gamma": gamma}
    weights = tuple(np.where(val < 0.0, 0.0, val) for val in params.values())
    total = sum(weights)
    _require(*((val >= -1e-12, f"wei parameter {name} must be >= 0, got {{}}", val)
               for name, val in params.items()),
             (abs(total - 1.0) <= 1e-10, "wei parameters must sum to 1, got {}", total))
    return weights


def wei(x, y, a, b, gamma):
    """Wei et al. MEMS: Phi+ coherence gamma over a diagonal background; each
    weight a scalar or an array."""
    x, y, a, b, gamma = _check_wei(x, y, a, b, gamma)
    m = np.zeros(np.broadcast(x, y, a, b, gamma).shape + (4, 4), dtype=complex)
    m[..., 0, 0] = x + gamma / 2.0
    m[..., 1, 1] = a
    m[..., 2, 2] = b
    m[..., 3, 3] = y + gamma / 2.0
    m[..., 0, 3] = m[..., 3, 0] = gamma / 2.0
    return _state(m)


def _werner_derivative_F(F) -> tuple:
    """The _require check of werner_derivative's F, which lies in (1/2, 1]."""
    return (0.5 < F) & (F <= 1.0), "werner_derivative F must lie in (1/2, 1], got {}", F


def _check_werner_derivative(F, a) -> None:
    _require(_werner_derivative_F(F),
             ((0.5 <= a) & (a <= 1.0), "werner_derivative a must lie in [1/2, 1], got {}", a))


def werner_derivative(F, a):
    """Werner state rotated by a non-local unitary: (1-F)/3 I + (4F-1)/3 |psi><psi|,
    |psi> = sqrt(a)|00> + sqrt(1-a)|11>; F and a scalars or arrays."""
    _check_werner_derivative(F, a)
    psi = np.zeros(np.broadcast(F, a).shape + (4,))
    psi[..., 0] = np.sqrt(a)
    psi[..., 3] = np.sqrt(1.0 - a)
    F = np.asarray(F, dtype=float)[..., None, None]
    outer = psi[..., :, None] * psi[..., None, :]
    return _state((1.0 - F) / 3.0 * np.eye(4) + (4.0 * F - 1.0) / 3.0 * outer)


def werner_derivative_entangled_bound(F: float) -> float:
    """Upper limit on a below which the Werner derivative stays entangled, for
    F in (1/2, 1], a scalar or an array."""
    _require(_werner_derivative_F(F))
    return 0.5 * (1.0 + np.sqrt(3.0 * (4.0 * F * F - 1.0)) / (4.0 * F - 1.0))


def _check_nmems(p) -> None:
    _require(((0.0 <= p) & (p <= 1.0), "nmems p must lie in [0, 1], got {}", p))


def nmems(p):
    """Convex mixture p * Tr_C|GHZ><GHZ| + (1-p) * Tr_C|W><W| in closed form;
    p a scalar or an array."""
    _check_nmems(p)
    m = np.zeros(np.shape(p) + (4, 4), dtype=complex)
    m[..., 0, 0] = (p + 2.0) / 6.0
    m[..., 1, 1] = m[..., 2, 2] = m[..., 1, 2] = m[..., 2, 1] = (1.0 - p) / 3.0
    m[..., 3, 3] = p / 2.0
    return _state(m)


def ih_mems(p1: float, p2: float, p3: float, p4: float) -> DensityMatrix:
    """Ishizaka-Hiroshima MEMS p1|Psi-><Psi-| + p2|00><00| + p3|Psi+><Psi+| + p4|11><11|.

    The weights must already be ordered p1 >= p2 >= p3 >= p4.
    """
    ps = (p1, p2, p3, p4)
    if not all(p >= 0 for p in ps):
        raise DomainError(f"ih_mems weights must be >= 0, got {ps}")
    if abs(sum(ps) - 1.0) > 1e-10:
        raise DomainError(f"ih_mems weights must sum to 1, got {sum(ps)}")
    if not p1 >= p2 >= p3 >= p4:
        raise DomainError(f"ih_mems weights must be ordered p1 >= p2 >= p3 >= p4, got {ps}")
    m = (p1 * _SINGLET
         + p2 * np.outer(basis_ket((0, 0), (2, 2)), basis_ket((0, 0), (2, 2)))
         + p3 * _PSI_PLUS
         + p4 * np.outer(basis_ket((1, 1), (2, 2)), basis_ket((1, 1), (2, 2))))
    return DensityMatrix((2, 2), m)


def cloned_mems(c2: float) -> DensityMatrix:
    """Non-local two-qubit output of cloning both halves of a Bell pair.

    Symmetric cloning of each qubit of |Phi+> with machine amplitude c
    (c^2 + 2 d^2 = 1) leaves the distant pair in
    (P+S)/2 (|00><00| + |11><11|) + Q/2 (|00><11| + h.c.) + R (|01><01| + |10><10|).
    At c^2 = 2/3 this is the Werner-family state 4/9 |Phi+><Phi+| + 5/36 I.
    """
    if not 0.0 <= c2 <= 1.0:
        raise DomainError(f"cloned_mems c2 must lie in [0, 1], got {c2}")
    d2 = (1.0 - c2) / 2.0
    P = (c2 + d2) ** 2
    Q = 4.0 * c2 * d2
    R = c2 * d2 + d2 * d2
    S = d2 * d2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (P + S) / 2.0
    m[0, 3] = m[3, 0] = Q / 2.0
    m[1, 1] = m[2, 2] = R
    return DensityMatrix((2, 2), m)


MIXED_FAMILIES = {
    "werner": werner,
    "mjwk": mjwk,
    "wei": wei,
    "werner_derivative": werner_derivative,
    "nmems": nmems,
    "ih_mems": ih_mems,
    "cloned_mems": cloned_mems,
}

PURE_FAMILIES = {
    "bell": bell,
    "ghz3": ghz3,
    "ghz4": ghz4,
    "ghz_class": ghz_class,
    "w3_prototype": w3_prototype,
    "w3_nonprototype": w3_nonprototype,
    "pati": pati,
    "liqiu_w": liqiu_w,
    "qutrit_ghz3": qutrit_ghz3,
    "generalized_max_entangled": generalized_max_entangled,
}

