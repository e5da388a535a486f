"""Controlled dense coding (CDC) and cloning-controlled secret sharing.

Every CDC family runs through one pipeline: build the resource state; project
the controllers in turn, multiplying the branch probability by each outcome's
probability and renormalising (an outcome of zero probability is dropped, and
`cdc_run` raises DomainError for it); attach the sender's auxiliary system,
apply the collective extraction unitary and split by auxiliary outcome, or
hand the branch over as it is; then fill the report by the family's
convention.  What differs between families is data in one table, `_FAMILIES`
(see `_Family`).  Steps 1-3 run in `_tree`, which builds the state and each
controller's basis once and projects every requested outcome together;
`cdc_run` asks for its one outcome.  Runs are deterministic given the
outcomes.  The Monte-Carlo wrappers enumerate a protocol's outcome tree once,
weighting each leaf by its Born probability, and draw every sample from it
with one multinomial at an explicit seed.

Reported concurrences follow each family's published closed form (evaluated
on the unnormalised post-measurement branch vector where that is the
underlying convention), except for the qutrit family, which reports the
simulated pair's; the simulated shared state itself is also returned so the
honest value can always be recomputed.  `cdc_closed_forms` is the one source
of every published value: each CDC call evaluates it once, as plain values,
and reads from it what its family's convention reports.

Secret sharing clones both qubits of Charlie's |Phi+> (bit 0) and |Phi->
(bit 1) as one two-row stack (`cloning.clone_bipartite_stack`, non-local pair
only).  `_shares` builds that stack, the published Q and Bob's four
conditional states, one per (bit, Alice's outcome), each stack validated once
by one eigvalsh; `secret_share_run` indexes them and
`monte_carlo_secret_share` iterates them.  A run checks c, Charlie's bit and
Alice's outcome, in that order, before it simulates.  Only the
secret-sharing code reads `cloning`, as `entkit.cloning`, which the package
imports on first access, so a CDC run never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

import entkit

from . import statezoo
from .qcore import (
    DensityMatrix,
    DomainError,
    I2,
    PureState,
    X,
    Y,
    Z,
    _density_spectra,
    _reduced_matrix,
    _rng,
    _shaped,
    psd_spectrum,
    tensor,
)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# measurement bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MeasurementBasis:
    """Orthonormal basis of a controller: the rows of a read-only (k, d) array."""

    vectors: np.ndarray
    labels: tuple

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex)
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        if not np.abs(v.conj() @ v.T - np.eye(len(v))).max() <= 1e-12:
            raise DomainError("measurement basis is not orthonormal")


def controller_basis(theta: float) -> MeasurementBasis:
    """{|+> = cos t|0> + sin t|1>,  |-> = sin t|0> - cos t|1>}."""
    c, s = np.cos(theta), np.sin(theta)
    return MeasurementBasis([[c, s], [s, -c]], ("+", "-"))


def qutrit_controller_basis(theta: float) -> MeasurementBasis:
    """{up = sin t|0> + cos t|2>,  side = |1>,  down = cos t|0> - sin t|2>}."""
    c, s = np.cos(theta), np.sin(theta)
    return MeasurementBasis([[s, 0.0, c], [0.0, 1.0, 0.0], [c, 0.0, -s]], ("up", "side", "down"))


# ---------------------------------------------------------------------------
# collective unitaries
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float, label: str, noun: str = "angle") -> tuple:
    """(k, sqrt(1 - k^2)) for k = num/den on the domain |num| <= |den|; label
    names 1 - k^2 in the DomainError raised outside it."""
    if abs(num) > abs(den) + 1e-12:
        raise DomainError(f"{noun} outside admissible domain: {label} would be negative")
    k = num / den
    value = 1.0 - k ** 2
    if value < -1e-12:
        raise DomainError(f"angle outside admissible domain: {label} = {value:.3e} < 0")
    return k, np.sqrt(max(value, 0.0))


def _u1(theta: float) -> np.ndarray:
    ratio, rad = _ratio(np.sin(theta), np.cos(theta), "1 - sin^2/cos^2")
    # basis order |00>, |10>, |01>, |11> of (sender qubit, auxiliary qubit)
    return np.array(
        [[ratio, 0.0, rad, 0.0],
         [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, -1.0],
         [rad, 0.0, -ratio, 0.0]], dtype=complex)


def _u2(theta: float, epsilon: float) -> np.ndarray:
    k, rad = _ratio(np.sin(theta) * np.sin(epsilon), np.cos(theta) * np.cos(epsilon),
                    "1 - (sin t sin e / cos t cos e)^2", noun="angles")
    return np.array(
        [[k, 0.0, rad, 0.0],
         [0.0, 1.0, 0.0, 0.0],
         [-rad, 0.0, k, 0.0],
         [0.0, 0.0, 0.0, -1.0]], dtype=complex)


def _braid(ratio: float, rad: float, low: int, flip_index: int | None = None) -> np.ndarray:
    """9x9 extraction unitary on (sender qutrit, auxiliary qutrit).

    Rotates the {|low>, |2,2x>} plane by the given ratio, optionally flips the
    sign of one basis direction so a balanced two-level state is left on
    success, and acts as the identity elsewhere.
    """
    m = np.eye(9, dtype=complex)
    m[low, low] = ratio
    m[low, 8] = rad
    m[8, low] = rad
    m[8, 8] = -ratio
    if flip_index is not None:
        m[flip_index, flip_index] = -1.0
    return m


def _v1(theta: float) -> np.ndarray:
    return _braid(*_ratio(np.cos(theta), np.sin(theta), "1 - cos^2/sin^2"), low=0, flip_index=6)


def _v1_down(theta: float) -> np.ndarray:
    """V1 mirrored for the qutrit 'down' branch, whose weight sits on |22>:
    the rotation acts on the {|2,0x>, |2,2x>} plane."""
    return _braid(*_ratio(np.cos(theta), np.sin(theta), "1 - cos^2/sin^2"), low=6)


# ---------------------------------------------------------------------------
# generic protocol steps
# ---------------------------------------------------------------------------

def _project(stack: np.ndarray, dims: tuple, subsystem: int, kets: np.ndarray) -> np.ndarray:
    """Project one subsystem of each row of a (B or 1, prod(dims)) stack onto the
    matching row of the (B, d) kets in one contraction; returns the (B, ...)
    unnormalised remainders, whose subsystems keep their relative order."""
    axes = [0, subsystem + 1] + [i + 1 for i in range(len(dims)) if i != subsystem]
    t = stack.reshape(-1, *dims).transpose(axes)
    return (kets.conj()[:, None, :] @ t.reshape(len(t), dims[subsystem], -1))[:, 0]


def _collective_branches(shared: np.ndarray, d: int, unitary: np.ndarray) -> dict:
    """Aux-outcome branches after the collective unitary.

    Returns {aux_outcome: unnormalised (sender, receiver) vector}.
    """
    # rows (sender, aux) with aux initialised to |0>, cols receiver
    joint = np.zeros((d * d, d), dtype=complex)
    joint[::d] = shared.reshape(d, d)
    joint = unitary @ joint
    # rows x, x + d, x + 2d, ... hold auxiliary outcome x
    branches = {x: joint[x::d].reshape(-1) for x in range(d)}
    return {x: w for x, w in branches.items() if np.linalg.norm(w) > 1e-12}


def _report_dict(report, *states) -> dict:
    """A report's dataclass fields as a dict, without the named state fields."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name not in states}


def _schmidt_concurrence(vec: np.ndarray, d: int) -> float:
    """Generalised pure-state concurrence 2 sqrt(sum_{i<j} p_i p_j) over the
    Schmidt weights p ranked by psd_spectrum, so exactly 0.0 at Schmidt rank 1."""
    p = psd_spectrum(np.linalg.svd(vec.reshape(d, d), compute_uv=False) ** 2)
    return float(2.0 * np.sqrt(p[1:] @ np.cumsum(p[:-1])))


# ---------------------------------------------------------------------------
# CDC reports and closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CdcReport:
    """One deterministic controlled-dense-coding run."""

    family: str
    theta: float
    epsilon: float | None
    controller_outcome: str
    aux_outcome: int
    branch_probability: float      # probability of the controller outcome
    success_probability: float     # probability the run ends maximally entangled
    bits_transmitted_avg: float
    shared_concurrence: float      # family closed-form convention
    maximally_entangled: bool
    shared_state: PureState | None = None

    def to_dict(self) -> dict:
        return _report_dict(self, "shared_state")


_GHZ_CLASS_SIN = {1, 4, 6}      # bits 1 + 2 sin^2(theta), operated on (0, pi/4]
_GHZ_CLASS_COS = {2, 3, 5, 7}   # bits 1 + 2 cos^2(theta), operated on [pi/4, pi/2)


def cdc_closed_forms(family: str, theta=None, epsilon=None, l=None,
                     n: int | None = None, class_index: int | None = None) -> dict:
    """A CDC family's published success, bits = 1 + success and concurrence, and
    for pati the controller angle theta = arctan(1/l), after the family's domain
    is checked: each parameter it reads finite, in _Family.params order, then
    in range.  theta, epsilon, l and n may be scalars or arrays; each entry is
    a float for scalars, else an array of their broadcast shape."""
    if family not in _FAMILIES:
        raise DomainError(f"unknown CDC family {family!r}")
    given = {"theta": theta, "epsilon": epsilon, "l": l, "n": n, "class_index": class_index}
    for k in _FAMILIES[family].params:
        bad = [] if given[k] is None else np.asarray(given[k])[~np.isfinite(given[k])]
        if len(bad):
            raise DomainError(f"CDC parameter {k} must be finite, got {bad[0]}")
    if family == "pati":
        if l is None or np.count_nonzero(l < 0):
            raise DomainError("pati needs l >= 0")
        # published for l <= 1; beyond l = 1 the discrimination succeeds with
        # the weight of the smaller Schmidt component instead
        params, forms = (l,), {"success": 2.0 * np.where(1.0 < l * l, 1.0, l * l) / (1.0 + l * l),
                               "concurrence": 2.0 * l / (1.0 + l * l),
                               "theta": np.arctan2(1.0, l)}
    elif family == "liqiu_w":
        if n is None or np.count_nonzero(n < 1):
            raise DomainError("liqiu_w needs n >= 1")
        params, forms = (n,), {"success": 2.0 / (n + 1.0),
                               "concurrence": 2.0 * np.sqrt(n) / (n + 1.0)}
    else:
        if family == "ghz_class" and class_index not in _GHZ_CLASS_SIN | _GHZ_CLASS_COS:
            raise DomainError(f"ghz_class index must be 1..7, got {class_index}")
        if family in ("ghz4", "w4") and epsilon is None:
            raise DomainError(f"{family} needs both theta (Cliff) and epsilon (Paul)")
        # every other family reads the controller angle
        if theta is None:
            raise DomainError(f"{family} needs the controller angle theta")
        params = (theta, epsilon) if family in ("ghz4", "w4") else (theta,)
        if family in ("ghz", "ghz_class"):
            trig = np.cos if class_index in _GHZ_CLASS_COS else np.sin
            forms = {"success": 2.0 * np.float_power(trig(theta), 2.0),
                     "concurrence": abs(np.sin(2.0 * theta))}
        elif family == "ghz4":
            c1 = 2.0 * np.float_power(np.sin(theta), 2.0) * np.float_power(np.sin(epsilon), 2.0)
            forms = {"success": c1, "concurrence": c1}
        elif family == "w3":
            forms = {"success": 0.0, "concurrence": SQRT2 * abs(np.sin(theta) * np.cos(theta))}
        elif family == "w4":
            forms = {"success": 0.0,
                     "concurrence": abs(np.sin(2.0 * theta)) * np.float_power(np.cos(epsilon), 2.0)}
        else:                           # qutrit_ghz
            forms = {"success": 2.0 * np.float_power(np.cos(theta), 2.0), "concurrence": 1.0}
    return _shaped({**forms, "bits": 1.0 + forms["success"]}, *params)


# ---------------------------------------------------------------------------
# the CDC simulations
# ---------------------------------------------------------------------------

# The published 4x4 collective unitaries are written in the auxiliary-major
# basis {|00>, |10>, |01>, |11>} of (sender, aux); the branch applicator
# indexes sender-major, so qubit matrices are permuted before use.
_AM_TO_SM = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])


def _sender_major(u: np.ndarray) -> np.ndarray:
    return u[_AM_TO_SM]


def _qutrit_controller(p: dict) -> list:
    """The last of three qutrits measures in qutrit_controller_basis(theta)."""
    return [(2, qutrit_controller_basis(p["theta"]))]


def _one_tilted(p: dict) -> list:
    """The last of three parties measures in controller_basis(theta)."""
    return [(2, controller_basis(p["theta"]))]


def _two_tilted(p: dict) -> list:
    """Cliff (last of four) measures at theta, then Paul (first) at epsilon."""
    return [(3, controller_basis(p["theta"])), (0, controller_basis(p["epsilon"]))]


def _balanced(p: dict, outcome: str, branch: np.ndarray) -> np.ndarray:
    """U1 at the ratio angle min(theta, pi/2 - theta) for a two-qubit branch
    alpha|0y> + beta|1y'>; when the sender's |1> component dominates, it is
    conjugated by X on the sender so the dominant level is the one rescaled."""
    theta = p["theta"]
    v = branch.reshape(2, 2)
    eff = theta if theta <= np.pi / 4.0 + 1e-12 else np.pi / 2.0 - theta
    unitary = _sender_major(_u1(eff))
    if np.linalg.norm(v[1]) > np.linalg.norm(v[0]) + 1e-12:
        swap = tensor(X, I2)
        unitary = swap @ unitary @ swap
    return unitary


def _qutrit_unitary(p: dict, outcome: str, branch: np.ndarray) -> np.ndarray | None:
    """V1 for 'up' and its mirror for 'down' (cos <= sin domain); success leaves
    (|00> - |22>)/sqrt(2) and two bits, failure a product state.  'side' leaves
    the separable |11> pair (one bit) and is handed over as it is."""
    if outcome == "side":
        return None
    return (_v1 if outcome == "up" else _v1_down)(p["theta"])


@dataclass(frozen=True, slots=True)
class _Family:
    """What one CDC family feeds the pipeline in cdc_run.

    params      the cdc_run arguments the family reads; the others report None
    state       p -> the resource state
    controllers p -> [(subsystem, MeasurementBasis), ...] in measurement order,
                subsystems counted among the parties still unmeasured; an
                outcome is the basis label of a single controller, or one
                label character per controller
    unitary     (p, outcome, branch) -> the sender's extraction unitary on
                (sender, aux), or None to hand the branch over as it is
    convention  how the report is filled:
                "simulated"   success = aux-0 weight, bits 1 + success,
                              closed-form concurrence
                "published"   success, bits and concurrence from cdc_closed_forms
                "per_outcome" success = aux-0 weight; 2 bits and the Schmidt
                              concurrence on aux 0, else 1 bit and 0
    outcomes    the canonical controller outcomes, the leaves of the Monte-Carlo tree
    aliases     other names of controller outcomes; reports show the canonical one
    spellings   other names of controller outcomes; reports show the name as given
    """

    params: tuple
    state: Callable
    controllers: Callable
    unitary: Callable
    convention: str = "simulated"
    outcomes: tuple = ("+", "-")
    aliases: dict = field(default_factory=dict)
    spellings: dict = field(default_factory=dict)


# Cliff's and Paul's outcomes; a one-character outcome leaves Paul's at '+'
_TWO_CONTROLLERS = {"outcomes": ("++", "+-", "-+", "--"), "spellings": {"+": "++", "-": "-+"}}


_FAMILIES = {
    "ghz": _Family(("theta",), lambda p: statezoo.ghz3(), _one_tilted, _balanced),
    "ghz_class": _Family(("theta", "class_index"),
                         lambda p: statezoo.ghz_class(p["class_index"]), _one_tilted, _balanced),
    # Bob's probabilistic two-bit readout succeeds with 2 l^2 / (1 + l^2)
    "pati": _Family(("theta", "l"), lambda p: statezoo.pati(p["l"]), _one_tilted, _balanced,
                    convention="published"),
    "ghz4": _Family(("theta", "epsilon"), lambda p: statezoo.ghz4(), _two_tilted,
                    lambda p, o, v: _sender_major(_u2(p["theta"], p["epsilon"])),
                    **_TWO_CONTROLLERS),
    "w3": _Family(("theta",), lambda p: statezoo.w3_prototype(), _one_tilted,
                  lambda p, o, v: _sender_major(_u1(p["theta"])), convention="published"),
    "w4": _Family(("theta", "epsilon"), lambda p: statezoo.w4(), _two_tilted, _balanced,
                  convention="published", **_TWO_CONTROLLERS),
    "liqiu_w": _Family(("n",), lambda p: statezoo.liqiu_w(p["n"]),
                       lambda p: [(2, MeasurementBasis(np.eye(2), ("+", "-")))],
                       lambda p, o, v: None, convention="published",
                       spellings={"0": "+", "1": "-"}),
    "qutrit_ghz": _Family(("theta",), lambda p: statezoo.qutrit_ghz3(), _qutrit_controller,
                          _qutrit_unitary, convention="per_outcome",
                          outcomes=("up", "side", "down"), aliases={"+": "up", "-": "down"}),
}


def _tree(family: str, p: dict, outcomes: tuple) -> dict:
    """Steps 1-3 of the pipeline for the given controller outcomes at once.

    The resource state and each controller's basis are built once; each step
    projects every outcome still alive in one contraction (see _project) and
    drops those whose step probability is below 1e-15.  Returns {outcome:
    (branch probability, normalised branch, its dimension d, aux branches)},
    the aux branches mapping each auxiliary outcome to its unnormalised
    (sender, receiver) vector, or None when the branch is handed over as it is.
    """
    fam = _FAMILIES[family]
    psi = fam.state(p)
    steps = fam.controllers(p)
    dims, alive, probs = psi.dims, list(outcomes), [1.0] * len(outcomes)
    vecs = psi.vector[None]
    for step, (subsystem, basis) in enumerate(steps):
        rows = [basis.labels.index(o if len(steps) == 1 else o[step]) for o in alive]
        rests = _project(vecs, dims, subsystem, basis.vectors[rows])
        p_steps = [float(np.vdot(rest, rest).real) for rest in rests]
        live = [i for i, p_step in enumerate(p_steps) if p_step >= 1e-15]
        if not live:
            return {}
        alive = [alive[i] for i in live]
        probs = [probs[i] * p_steps[i] for i in live]
        vecs = np.array([rests[i] / np.sqrt(p_steps[i]) for i in live])
        dims = dims[:subsystem] + dims[subsystem + 1:]
    d, tree = dims[0], {}
    for outcome, prob, vec in zip(alive, probs, vecs):
        unitary = fam.unitary(p, outcome, vec)
        tree[outcome] = (prob, vec, d,
                         None if unitary is None else _collective_branches(vec, d, unitary))
    return tree


def _setup(family: str, theta: float | None = None, epsilon: float | None = None,
           l: float | None = None, n: int | None = None,
           class_index: int | None = None) -> tuple:
    """(family entry, the parameters it reads, its cdc_closed_forms) of a CDC
    call, with pati's theta set to the published arctan(1/l) when omitted."""
    fam = _FAMILIES.get(family)
    if fam is None:
        raise DomainError(f"unknown CDC family {family!r}")
    given = {"theta": theta, "epsilon": epsilon, "l": l, "n": n, "class_index": class_index}
    p = {k: given[k] for k in fam.params}
    closed = cdc_closed_forms(family, **p)
    if "theta" in closed and p["theta"] is None:
        p["theta"] = closed["theta"]
    return fam, p, closed


def _success(fam: _Family, closed: dict, vec: np.ndarray, d: int, branches) -> tuple:
    """(success probability of one controller branch (see _tree) by the
    family's convention, whether the branch is a product pair handed over as it is)."""
    if branches is None and _schmidt_concurrence(vec, d) <= 1e-12:
        return 0.0, True                # a product pair carries no resource
    if fam.convention == "published":
        return closed["success"], False
    if branches is None or 0 not in branches:
        return 0.0, False
    return float(np.real(np.vdot(branches[0], branches[0]))), False


def cdc_run(family: str, theta: float | None = None, epsilon: float | None = None,
            controller_outcome: str = "+", aux_outcome: int = 0,
            l: float | None = None, n: int | None = None,
            class_index: int | None = None) -> CdcReport:
    """Deterministic CDC run for the given controller/auxiliary outcomes.

    Families: ghz, ghz_class (class_index 1..7), pati (parameter l, controller
    angle defaulting to arctan(1/l)), ghz4 (angles theta and epsilon), w3, w4,
    liqiu_w (parameter n) and qutrit_ghz.  A controller outcome outside the
    family's outcomes (and their other names) raises DomainError.
    """
    fam, p, closed = _setup(family, theta, epsilon, l, n, class_index)
    label = fam.aliases.get(controller_outcome, controller_outcome)
    outcome = fam.spellings.get(label, label)
    if outcome not in fam.outcomes:
        raise DomainError(f"unknown controller outcome {controller_outcome!r} for {family}; "
                          f"expected one of {', '.join(fam.outcomes)}")
    tree = _tree(family, p, (outcome,))
    if outcome not in tree:
        raise DomainError(f"controller outcome {outcome!r} has zero probability")
    prob, vec, d, branches = tree[outcome]
    success, product = _success(fam, closed, vec, d, branches)

    if branches is None:        # handed over as it is
        aux_outcome, shared = 0, vec
    else:
        if aux_outcome not in branches:
            raise DomainError(f"auxiliary outcome {aux_outcome} has zero probability")
        w = branches[aux_outcome]
        shared = w / np.linalg.norm(w)

    if product:
        bits, conc = 1.0, 0.0
    elif fam.convention == "per_outcome":
        ok = aux_outcome == 0
        bits, conc = (2.0, _schmidt_concurrence(shared, d)) if ok else (1.0, 0.0)
    else:                       # the published bits are 1 + the published success
        bits, conc = 1.0 + success, closed["concurrence"]
    return CdcReport(
        family=f"{family}:{class_index}" if "class_index" in p else family,
        theta=p.get("theta"), epsilon=p.get("epsilon"),
        controller_outcome=label, aux_outcome=aux_outcome,
        branch_probability=prob, success_probability=success,
        bits_transmitted_avg=bits, shared_concurrence=conc,
        # a run that cannot succeed never ends maximally entangled
        maximally_entangled=bool(success > 0.0 and abs(conc - 1.0) <= 1e-9),
        shared_state=PureState((d, d), shared))


# ---------------------------------------------------------------------------
# secret sharing with a cloning circuit
# ---------------------------------------------------------------------------

INV_SQRT3 = 1.0 / np.sqrt(3.0)

# Optimal two-qubit entanglement witness with Phi+ corner structure.
W_A1 = np.array(
    [[0.0, 0.0, 0.0, -INV_SQRT3],
     [0.0, INV_SQRT3, 0.0, 0.0],
     [0.0, 0.0, INV_SQRT3, 0.0],
     [-INV_SQRT3, 0.0, 0.0, 0.0]], dtype=complex)

# Sanpera-style witness (I - sx.sx + sy.sy - sz.sz)/2.
W_A2 = 0.5 * (np.eye(4, dtype=complex)
              - (tensor(X, X) - tensor(Y, Y) + tensor(Z, Z)))


def povm_elements(Q: float) -> tuple:
    """The three discrimination operators, exactly as published.

    E1 and E2 are upper triangular with off-diagonal +/-1 and are therefore
    not hermitian; expectation values are still taken as Tr(E rho), which
    reproduces the published statistics.
    """
    if not 0.0 <= Q <= 0.5:
        raise DomainError(f"Q must lie in [0, 1/2], got {Q}")
    e1 = np.array([[Q / 2.0, 1.0], [0.0, Q / 2.0]], dtype=complex)
    e2 = np.array([[Q / 2.0, -1.0], [0.0, Q / 2.0]], dtype=complex)
    e3 = np.eye(2, dtype=complex) - e1 - e2
    return e1, e2, e3


@dataclass(frozen=True, slots=True)
class SecretShareReport:
    """One deterministic run of the cloning-controlled secret sharing protocol.

    success_probability is the published Q: the mean of Tr(E1 rho_0) and
    Tr(E2 rho_1) over Bob's '+' states rho_0 and rho_1 for Charlie's bits 0
    and 1, with the published, non-hermitian E1 and E2.  helstrom_success is
    the best success any measurement reaches on the same pair at equal priors,
    1/2 + ||rho_0 - rho_1||_1 / 4 (Helstrom), = 1/2 + c^2 (1 - c^2).
    """

    c: float
    q: float
    charlie_bit: int
    alice_outcome: str
    channel: DensityMatrix
    bob_state: DensityMatrix
    povm_stats: tuple           # (Tr E1 rho_B, Tr E2 rho_B, Tr E3 rho_B)
    success_probability: float  # the published Q
    helstrom_success: float

    def to_dict(self) -> dict:
        return _report_dict(self, "channel", "bob_state")


def _hadamard_vector(outcome: str) -> np.ndarray:
    if outcome == "+":
        return np.array([1.0, 1.0]) / SQRT2
    if outcome == "-":
        return np.array([1.0, -1.0]) / SQRT2
    raise DomainError(f"alice outcome must be '+' or '-', got {outcome!r}")


# Alice's Hadamard projector |h><h| x I on the channel, per outcome (h is real)
_ALICE_PROJECTORS = {o: tensor(np.outer(_hadamard_vector(o), _hadamard_vector(o)), I2)
                     for o in "+-"}


def _bob_matrices(channels: np.ndarray, outcomes) -> np.ndarray:
    """Bob's conditional states, unvalidated, as a (k, 2, 2) stack: row r after
    Alice's outcome outcomes[r] on the channel matrix channels[r]."""
    proj = np.stack([_ALICE_PROJECTORS[o] for o in outcomes])
    sub = proj @ channels @ proj
    prob = sub.trace(axis1=-2, axis2=-1).real
    return _reduced_matrix(sub / prob[:, None, None], (2, 2), (1,))


def cloning_amplitude(c2: float) -> float:
    """The amplitude c = sqrt(c^2) of Cliff's cloning machine, for c^2 in (1/3, 1]."""
    if not entkit.cloning._entangling_c2(c2):
        raise DomainError(f"cloning c^2 must lie in (1/3, 1], got {c2}")
    return np.sqrt(c2)


def _cloning_machine(c: float) -> entkit.cloning.CloningParams:
    """Cliff's qubit cloning machine with amplitude c in (1/sqrt(3), 1], tested as
    c >= 0 with c^2 in (1/3, 1], so it accepts every c that cloning_amplitude returns."""
    if not (c >= 0.0 and entkit.cloning._entangling_c2(c * c)):
        raise DomainError(f"cloning amplitude c must lie in (1/sqrt(3), 1], got {c}")
    return entkit.cloning.uqcm_params(2, np.sqrt((1.0 - c * c) / 2.0))


def _charlie_bit(charlie_bit: int) -> int:
    if charlie_bit not in (0, 1):
        raise DomainError(f"charlie bit must be 0 or 1, got {charlie_bit}")
    return 0 if charlie_bit == 0 else 1


# the rows (Charlie's bit, Alice's outcome) of _shares' stack of Bob's states
_BOB_ROWS = ((0, "+"), (0, "-"), (1, "+"), (1, "-"))


def _shares(c: float, params: entkit.cloning.CloningParams) -> tuple:
    """Everything a secret-sharing run reads, each stack validated once: the
    non-local pairs Alice and Bob share after Cliff (machine params, amplitude
    c) clones both qubits of Charlie's |Phi+> (bit 0) and |Phi-> (bit 1), as one
    (2, 4, 4) stack from one stacked clone, with its spectra; the published
    Q = 4 c^2 d^2; and Bob's conditional states in the rows of _BOB_ROWS, as a
    (4, 2, 2) stack, with its spectra."""
    (channels,), (spectra,) = entkit.cloning.clone_bipartite_stack(
        (0.5, 0.5), (1.0, -1.0), params, pairs=("nonlocal",))
    bobs = _bob_matrices(channels[[b for b, _ in _BOB_ROWS]], [o for _, o in _BOB_ROWS])
    q = 4.0 * c * c * (1.0 - c * c) / 2.0
    return channels, spectra, q, bobs, _density_spectra((2,), bobs)


def secret_share_run(c: float, charlie_bit: int = 0, alice_outcome: str = "+") -> SecretShareReport:
    """Run the protocol: Charlie encodes a bit in |Phi+/->, Cliff clones both
    qubits, Alice measures in the Hadamard basis, Bob applies the three-element
    discrimination and succeeds with probability Q = 4 c^2 d^2."""
    params = _cloning_machine(c)
    bit = _charlie_bit(charlie_bit)
    _hadamard_vector(alice_outcome)     # raises for an unknown outcome before any simulation
    channels, spectra, q, bobs, bob_spectra = _shares(c, params)
    row = _BOB_ROWS.index((bit, alice_outcome))
    e1, e2, e3 = povm_elements(q)
    stats = tuple(float(np.trace(e @ bobs[row]).real) for e in (e1, e2, e3))
    # the published Q, recomputed on Bob's '+' states for bits 0 and 1
    success = 0.5 * float(np.trace(e1 @ bobs[0]).real) + 0.5 * float(np.trace(e2 @ bobs[2]).real)
    if abs(success - q) > 1e-12:
        raise DomainError(f"success probability {success} deviates from Q = {q}")
    trace_norm = np.abs(np.linalg.eigvalsh(bobs[0] - bobs[2])).sum()
    return SecretShareReport(
        c=c, q=q, charlie_bit=charlie_bit, alice_outcome=alice_outcome,
        channel=DensityMatrix._validated((2, 2), channels[bit], spectra[bit]),
        bob_state=DensityMatrix._validated((2,), bobs[row], bob_spectra[row]),
        povm_stats=stats, success_probability=success,
        helstrom_success=0.5 + 0.25 * float(trace_norm))


@dataclass(frozen=True, slots=True)
class WitnessCheck:
    w1_value: float
    w2_value: float
    critical_concurrence: float
    entangled: bool


def secret_share_witness_checks(c: float, lambda1: float) -> WitnessCheck:
    """Witness expectations on the non-local clone output and the critical
    input concurrence (1 + c^2)/(4 c^2) above which it stays entangled."""
    cloning = entkit.cloning
    params = _cloning_machine(c)
    (nonlocal_,), _ = cloning.clone_bipartite_stack((lambda1,), (1.0,), params, pairs=("nonlocal",))
    w1 = float(np.trace(W_A1 @ nonlocal_[0]).real)
    w2 = float(np.trace(W_A2 @ nonlocal_[0]).real)
    critical = cloning.nonlocal_critical_concurrence(c)
    c_in = 2.0 * np.sqrt(lambda1 * (1.0 - lambda1))
    return WitnessCheck(w1, w2, critical, bool(c_in > critical))


# ---------------------------------------------------------------------------
# Monte-Carlo wrappers
# ---------------------------------------------------------------------------

def _draw(rng: np.random.Generator, weights: dict, n: int) -> dict:
    """Counts of n samples over the leaves of an outcome tree, drawn with one
    multinomial over the normalised weights.

    A weight down to -1e-12 counts as 0; a more negative one raises.  Leaves
    never drawn are omitted, so counts from independent chains merge by
    summation.
    """
    if n < 1:
        raise DomainError(f"Monte-Carlo sample count must be >= 1, got {n}")
    w = np.array(list(weights.values()), dtype=float)
    if w.min() < -1e-12:
        leaf = list(weights)[int(w.argmin())]
        raise DomainError(f"outcome {leaf!r} has negative weight {w.min():.3e}")
    w = np.maximum(w, 0.0)
    drawn = rng.multinomial(n, w / w.sum())
    return {leaf: int(k) for leaf, k in zip(weights, drawn) if k}


def monte_carlo_cdc(family: str, theta: float, n_samples: int, seed: int,
                    **kwargs) -> dict:
    """Sample controller and auxiliary outcomes with their Born probabilities.

    The outcome tree is enumerated once: each of the family's controller
    outcomes o has the leaves "o/aux0", weighing p_branch * p_success, and
    "o/fail", weighing p_branch * (1 - p_success), with both probabilities as
    cdc_run reports them; an outcome the state never produces weighs 0, and
    any other DomainError propagates.  All samples come from one multinomial
    draw.  exact_success is the Born average
    sum p_branch * p_success and published_success the family's closed form.
    """
    fam, p, closed = _setup(family, theta=theta, **kwargs)
    tree, leaves, exact = _tree(family, p, fam.outcomes), {}, 0.0
    for outcome in fam.outcomes:
        prob, success = 0.0, 0.0        # unless the state produces the outcome
        if outcome in tree:
            prob, vec, d, branches = tree[outcome]
            success = _success(fam, closed, vec, d, branches)[0]
        leaves[f"{outcome}/aux0"] = prob * success
        leaves[f"{outcome}/fail"] = prob * (1.0 - success)
        exact += prob * success
    counts = _draw(_rng(seed), leaves, n_samples)
    hits = sum(k for leaf, k in counts.items() if leaf.endswith("/aux0"))
    return {"counts": counts, "empirical_success": hits / n_samples, "exact_success": exact,
            "published_success": closed["success"], "n_samples": n_samples,
            "seed": seed}


def monte_carlo_secret_share(c: float, n_samples: int, seed: int) -> dict:
    """Sample Charlie's bit, Alice's Hadamard outcome and Bob's discrimination
    result from the protocol's outcome tree, with one multinomial draw.

    Charlie's bit weighs 1/2 and Alice's outcome its Born weight on the
    channel.  Bob's result weighs the published statistic Tr(E rho_B) of
    povm_elements; E1 and E2 are not hermitian, so these are the published
    discrimination statistics, not the Born probabilities of a measurement,
    and the result says so under "discrimination".  E1 is conclusive for
    (bit 0, '+') and (bit 1, '-'), E2 for the other two, E3 inconclusive.
    Leaves read "bit/alice outcome/result"; exact_success is the mass of the
    conclusive_correct leaves, which is Q = 4 c^2 d^2.
    """
    channels, _, q, bobs, _ = _shares(c, _cloning_machine(c))
    alices = _reduced_matrix(channels, (2, 2), (0,))
    elements = povm_elements(q)
    leaves = {}
    for (bit, outcome), bob in zip(_BOB_ROWS, bobs):
        h = _hadamard_vector(outcome)
        p_alice = float(np.real(h @ alices[bit] @ h))
        e1, e2 = "conclusive_correct", "conclusive_wrong"
        if (bit == 0) != (outcome == "+"):
            e1, e2 = e2, e1
        for result, e in zip((e1, e2, "inconclusive"), elements):
            leaves[f"{bit}/{outcome}/{result}"] = 0.5 * p_alice * float(np.trace(e @ bob).real)
    counts = _draw(_rng(seed), leaves, n_samples)
    hits = sum(k for leaf, k in counts.items() if leaf.endswith("/conclusive_correct"))
    exact = sum(w for leaf, w in leaves.items() if leaf.endswith("/conclusive_correct"))
    return {"counts": counts, "empirical_success": hits / n_samples, "exact_success": exact,
            "discrimination": "published Tr(E rho_B); E1 and E2 are not hermitian",
            "n_samples": n_samples, "seed": seed}
