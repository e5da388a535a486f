"""Dense complex linear algebra and density-operator primitives.

Everything downstream (state constructors, entanglement measures, channel
analysis, cloning, protocols) is built on the handful of operations in this
module.  All matrices are small (at most 81x81, two qutrits plus clones), so
plain dense numpy is used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Numerical tolerances, shared by the whole package.
TOL_NORM = 1e-10   # state normalisation / unit trace
TOL_HERM = 1e-10   # hermiticity
TOL_PSD = 1e-9     # how negative an "eigenvalue >= 0" may be
TOL_RANK = 1e-13   # a PSD eigenvalue <= TOL_RANK * the largest one is zero


class DomainError(ValueError):
    """Raised when an input lies outside the mathematical domain of an operation."""


def _rng(seed: int) -> np.random.Generator:
    """np.random.default_rng(seed) for a seed >= 0; a negative one is a DomainError."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _require(*checks) -> None:
    """Raise, at the first entry that fails a check, the DomainError that the
    scalar call raises there.  Each check is (ok, message, value) in the scalar
    call's order: ok and value a scalar or an array, message naming the value with {}."""
    if all(np.asarray(ok).all() for ok, _, _ in checks):   # the common case, without a broadcast
        return
    oks = np.broadcast_arrays(*(ok for ok, _, _ in checks))
    i = np.logical_and.reduce(oks).ravel().argmin()
    for ok, (_, message, value) in zip(oks, checks):
        if not ok.flat[i]:
            bad = value if np.ndim(value) == 0 else np.broadcast_to(value, ok.shape).flat[i]
            raise DomainError(message.format(bad))


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def _as_vector(a) -> np.ndarray:
    """Complex 1-D array; an array that already is one is kept, not re-viewed."""
    v = _as_complex(a)
    return v if v.ndim == 1 else v.reshape(-1)


def _shaped(forms: dict, *params) -> dict:
    """Closed-form entries broadcast to their parameters' shape; scalars for scalars."""
    shape = np.broadcast(*params).shape
    return {k: np.full(shape, v) if shape else float(v) for k, v in forms.items()}


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis ket |index> of a dim-level system."""
    if not 0 <= index < dim:
        raise DomainError(f"basis index {index} outside 0..{dim - 1}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def basis_ket(labels, dims) -> np.ndarray:
    """Product basis ket, e.g. basis_ket((0, 1), (2, 2)) -> |01>."""
    return tensor(*(ket(lab, d) for lab, d in zip(labels, dims)))


@dataclass(frozen=True, slots=True)
class PureState:
    """Normalised state vector with an explicit subsystem-dimension signature."""

    dims: tuple
    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        vec = _as_vector(self.vector)
        object.__setattr__(self, "vector", vec)
        if any(d < 2 for d in dims):
            raise DomainError(f"subsystem dimensions must be >= 2, got {dims}")
        if vec.size != math.prod(dims):
            raise DomainError(f"vector length {vec.size} does not match dims {dims}")
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= TOL_NORM:
            raise DomainError(f"state vector not normalised: <psi|psi> = {norm**2:.3e}")

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.vector, self.vector.conj()))


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with dims signature.

    matrix is a read-only copy of the array passed in, and spectrum holds the
    ascending eigenvalues computed to validate it, ranked by psd_spectrum and
    read-only too, so neither can drift from the other.
    """

    dims: tuple
    matrix: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        object.__setattr__(self, "dims", dims)
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        spectrum = _density_spectra(dims, m[None])[0]
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def _validated(cls, dims: tuple, matrix: np.ndarray, spectrum: np.ndarray) -> "DensityMatrix":
        """A row of a stack that _density_spectra has checked on dims, with the
        spectrum it returned: no second eigvalsh.  Both are copied, read-only,
        so the state does not keep the rest of the stack alive."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        for name, value in (("matrix", matrix.copy()), ("spectrum", spectrum.copy())):
            value.setflags(write=False)
            object.__setattr__(rho, name, value)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= 1e-9


def _density_spectra(dims: tuple, matrices: np.ndarray) -> np.ndarray:
    """DensityMatrix's checks, each made once over an (N, d, d) complex stack on
    subsystems dims; returns the (N, d) ascending spectra, ranked by psd_spectrum.
    One bad matrix raises what it raises alone; each row has its bits alone."""
    d = math.prod(dims)
    if matrices.shape[1:] != (d, d):
        raise DomainError(f"matrix shape {matrices.shape[1:]} does not match dims {dims}")
    finite = np.isfinite(matrices)
    if not finite.all():
        raise DomainError(f"density matrix has a non-finite entry {matrices[~finite][0]}")
    if np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max() > TOL_HERM:
        raise DomainError("density matrix is not hermitian")
    for tr in matrices.trace(axis1=-2, axis2=-1).real.tolist():
        if abs(tr - 1.0) > TOL_NORM:
            raise DomainError(f"density matrix trace {tr} != 1")
    return psd_spectrum(np.linalg.eigvalsh(matrices))


# ---------------------------------------------------------------------------
# tensor products and subsystem manipulation
# ---------------------------------------------------------------------------

def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more arrays (matrices or vectors).

    Each pair of factors is multiplied as one broadcast outer product with
    the axes of the two factors interleaved: the same products a_ij b_kl as
    np.kron, signed zeros included, without its set-up cost.  As in np.kron,
    a factor of lower ndim is given leading unit axes first.
    """
    if not factors:
        raise DomainError("tensor() needs at least one factor")
    out = _as_complex(factors[0])
    for f in factors[1:]:
        f = _as_complex(f)
        out = out.reshape((1,) * (f.ndim - out.ndim) + out.shape)
        f = f.reshape((1,) * (out.ndim - f.ndim) + f.shape)
        left, right, shape = [], [], []
        for a, b in zip(out.shape, f.shape):
            left += (a, 1)
            right += (1, b)
            shape.append(a * b)
        out = (out.reshape(left) * f.reshape(right)).reshape(shape)
    return out


def _check_subsystems(dims, subsystems) -> tuple:
    subs = tuple(int(s) for s in subsystems)
    for s in subs:
        if not 0 <= s < len(dims):
            raise DomainError(f"subsystem index {s} invalid for dims {dims}")
    if len(set(subs)) != len(subs):
        raise DomainError(f"repeated subsystem index in {subs}")
    return subs


def partial_trace(rho, keep) -> DensityMatrix:
    """Reduced density matrix on the listed subsystems (kept in original order).

    Takes a DensityMatrix, or a PureState whose amplitudes, with the kept axes
    moved to the front and reshaped to a d_keep x d_rest matrix A, give the
    reduced state A A^dag without forming the full outer product.
    """
    keep = sorted(_check_subsystems(rho.dims, keep))
    n = len(rho.dims)
    if not keep or len(keep) == n:
        raise DomainError("keep must be a non-empty proper subset of subsystems")
    kept_dims = tuple(rho.dims[s] for s in keep)
    if isinstance(rho, PureState):
        rest = [s for s in range(n) if s not in keep]
        a = rho.vector.reshape(rho.dims).transpose(keep + rest).reshape(math.prod(kept_dims), -1)
        return DensityMatrix(kept_dims, a @ a.conj().T)
    return DensityMatrix(kept_dims, _reduced_matrix(rho.matrix, rho.dims, keep))


def _reduced_matrix(m: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Partial trace of m, an operator on subsystems dims, onto keep (ascending):
    partial_trace's one contraction, for callers that need no validated state.
    m may also be a stack (..., d, d) of such operators, each traced alone."""
    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    # trace out the complement, highest index first so axis numbers stay valid
    for s in sorted(set(range(len(dims))) - set(keep), reverse=True):
        s += len(lead)
        t = t.trace(axis1=s, axis2=s + (t.ndim - len(lead)) // 2)
    return t.reshape(lead + (math.prod(dims[s] for s in keep), -1))


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor; hermitian and trace preserving, not always PSD."""
    (s,) = _check_subsystems(rho.dims, [subsystem])
    n = len(rho.dims)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    t = np.swapaxes(t, s, s + n)
    return t.reshape(rho.dim, rho.dim)


def psd_spectrum(evals) -> np.ndarray:
    """Eigenvalues of a positive-semidefinite operator with its rank decided.

    Takes eigenvalues already computed by the caller's own routine, one
    operator per row of the last axis, and keeps their order.  Raises
    DomainError below -TOL_PSD; every value at or below TOL_RANK times the
    largest of its own row becomes exactly 0.0.  This is the package's one
    definition of which PSD eigenvalues are zero.
    """
    evals = np.asarray(evals, dtype=float)
    lowest = evals.min()
    if not lowest >= -TOL_PSD:
        raise DomainError(f"operator is not PSD (eigenvalue {lowest:.3e})")
    return np.where(evals <= TOL_RANK * evals.max(axis=-1, keepdims=True), 0.0, evals)


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite matrix, or of each
    matrix in a stack along the leading axes."""
    evals, evecs = np.linalg.eigh(m)
    # summed from the largest eigenvalue down: the order sets the last bits,
    # and with them the rounding noise printed for a zero concurrence
    evals, evecs = evals[..., ::-1], evecs[..., ::-1]
    roots = np.sqrt(psd_spectrum(evals))[..., None, :]
    return (evecs * roots) @ evecs.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Pauli matrices
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = (X, Y, Z)
