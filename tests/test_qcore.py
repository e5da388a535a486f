"""Core linear-algebra primitive tests."""
import ast
import importlib.util
import itertools
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import cloning, protocols, qcore, statezoo
from entkit.qcore import (
    DensityMatrix,
    DomainError,
    PureState,
    basis_ket,
    partial_trace,
    partial_transpose,
    psd_spectrum,
    psd_sqrt,
    tensor,
)
from util import random_density, random_pure


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_identity():
    assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_bit_flips_both_qubits():
    xx = tensor(qcore.X, qcore.X)
    assert_allclose(xx @ basis_ket((0, 0), (2, 2)), basis_ket((1, 1), (2, 2)))


def test_bell_projector_matches_hand_expansion():
    # (|01> + |10>)/sqrt(2) built from basis kets
    v = (basis_ket((0, 1), (2, 2)) + basis_ket((1, 0), (2, 2))) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 0.5
    assert_allclose(proj.real, expected, atol=1e-15)
    assert_allclose(statezoo.bell(3).density().matrix, proj, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.lists(st.integers(1, 2), min_size=2, max_size=3))
def test_tensor_is_bitwise_np_kron(seed, ndims):
    # mixed ndims included: np.kron pads the lower-ndim factor with leading unit axes
    rng = np.random.default_rng(seed)
    factors = []
    for ndim in ndims:
        shape = tuple(rng.integers(2, 5, size=ndim))
        f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # signed zeros in both parts, which np.kron keeps
        f.real[rng.random(shape) < 0.2] = -0.0
        f.imag[rng.random(shape) < 0.2] = -0.0
        f[rng.random(shape) < 0.2] = 0.0
        factors.append(f)
    want = factors[0]
    for f in factors[1:]:
        want = np.kron(want, f)
    got = tensor(*factors)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_np_kron_appears_nowhere_in_the_package():
    # every Kronecker product in the package goes through qcore.tensor
    src = pathlib.Path(qcore.__file__).parent
    stray = [
        path.name
        for path in sorted(src.glob("*.py"))
        if any(isinstance(n, ast.Attribute) and n.attr == "kron" for n in ast.walk(ast.parse(path.read_text())))
    ]
    assert not stray, stray


def test_np_prod_appears_nowhere_in_the_package():
    # a product of dims is a product of python ints: math.prod, not a numpy reduction
    src = pathlib.Path(qcore.__file__).parent
    stray = [
        path.name
        for path in sorted(src.glob("*.py"))
        if any(isinstance(n, ast.Attribute) and n.attr == "prod"
               and isinstance(n.value, ast.Name) and n.value.id == "np"
               for n in ast.walk(ast.parse(path.read_text())))
    ]
    assert not stray, stray


# top-level names that no code in the package or perfbench reads, each with
# the paper criterion (test_acceptance.py) or ROADMAP item that needs it
KEEP = {
    "peres_horodecki": "criteria 7f and 8b: an independent PPT test",
    "chsh_supremum": "criterion 8d",
    "secret_share_witness_checks": "criterion 7",
    "teleportation_witness_qutrit": "ROADMAP item 9",
    "clone_pair_fef": "ROADMAP items 8 and 10",
    "analyze_channel": "ROADMAP item 9; tests/fixtures/channel_reports.json pins it",
    "fef_bounds": "ROADMAP items 3 and 9",
}


def _defined(node) -> set:
    """The names a top-level statement defines: a def, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _read_names(node) -> set:
    """Every name the code in node reads: loaded names, attributes and import
    aliases; docstrings, comments and other strings are not read."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rpartition(".")[2])
    return names


def test_every_public_name_in_the_package_has_a_reader():
    # a top-level def, class or constant of the package, public or private, is
    # read by a statement of the package or of perfbench other than its own
    # definition, or is kept in KEEP above; dunders are exempt
    package = sorted(pathlib.Path(qcore.__file__).parent.glob("*.py"))
    bench = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
    body = {path: ast.parse(path.read_text()).body for path in package + bench}
    reads = [(node, _read_names(node)) for nodes in body.values() for node in nodes]
    unread = [name for path in package for node in body[path] for name in _defined(node)
              if not (name.startswith("__") and name.endswith("__"))
              and not any(name in read for other, read in reads if other is not node)]
    assert sorted(unread) == sorted(KEEP), sorted(set(unread) ^ set(KEEP))


def test_the_package_hook_is_the_one_deferred_import():
    # entkit/__init__.py's __getattr__ imports a submodule on first access; no
    # other module of the package imports inside a function or calls import_module
    deferred = set()
    for path in sorted(pathlib.Path(qcore.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                deferred |= {f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                             if isinstance(inner, (ast.Import, ast.ImportFrom))}
            elif isinstance(node, ast.Call) and "import_module" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                deferred.add(f"{path.name}:{node.lineno}")
    assert sorted(deferred) == []


def test_util_loads_as_perfbench_loads_it():
    # perfbench/workloads.py runs tests/util.py from its path without entering
    # it in sys.modules, where a dataclass cannot be defined
    spec = importlib.util.spec_from_file_location("util_by_path", pathlib.Path(__file__).parent / "util.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_every_perfbench_operation_runs_and_passes_its_check(tmp_path, monkeypatch):
    # each in-process workload, built as perfbench builds it, runs every op once;
    # a failure that is not a listed known defect means a benchmark run would fail
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    failures, count = {}, 0
    for name in ("fef", "sweep", "protocol-mc"):
        workload = workloads.WORKLOADS[name](1)
        for op in workload.ops(False):
            count += 1
            reason = op.check(op.after(op.run(0)))
            reasons = reason if isinstance(reason, dict) else {"output": reason} if reason else {}
            failures.update({(op.name, check): why for check, why in reasons.items()
                             if (op.name, check) not in workload.known_defects})
    assert count > 90
    assert failures == {}


# ---------------------------------------------------------------------------
# partial trace / partial transpose
# ---------------------------------------------------------------------------

def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = statezoo.bell(3).density()
    assert_allclose(partial_trace(rho, keep=(0,)).matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_of_product_state(rng=np.random.default_rng(1)):
    a = random_density(rng, (2,))
    b = random_density(rng, (3,))
    prod = DensityMatrix((2, 3), tensor(a.matrix, b.matrix))
    assert_allclose(partial_trace(prod, keep=(0,)).matrix, a.matrix, atol=1e-14)
    assert_allclose(partial_trace(prod, keep=(1,)).matrix, b.matrix, atol=1e-14)


def test_partial_trace_of_ghz_gives_separable_mixture():
    reduced = partial_trace(statezoo.ghz3().density(), keep=(0, 1))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert_allclose(reduced.matrix.real, expected, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([(2, 2), (3, 3), (2, 2, 2)]))
def test_reduced_matrix_is_partial_trace_bitwise(seed, dims):
    # the array-only contraction and partial_trace are one path, for every keep subset
    rho = random_density(np.random.default_rng(seed), dims)
    for r in range(1, len(dims)):
        for keep in itertools.combinations(range(len(dims)), r):
            got = qcore._reduced_matrix(rho.matrix, dims, keep)
            want = partial_trace(rho, keep).matrix
            assert np.array_equal(got.view(float), want.view(float))
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_partial_trace_invalid_subsystem():
    with pytest.raises(DomainError):
        partial_trace(statezoo.bell(1).density(), keep=(2,))
    with pytest.raises(DomainError):
        partial_trace(statezoo.bell(1).density(), keep=(0, 1))


def test_partial_transpose_of_product_state_stays_positive(rng=np.random.default_rng(2)):
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    prod = DensityMatrix((2, 2), tensor(a.matrix, b.matrix))
    pt = partial_transpose(prod, 1)
    assert_allclose(pt, tensor(a.matrix, b.matrix.T), atol=1e-14)
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_partial_transpose_of_bell_state_min_eigenvalue():
    pt = partial_transpose(statezoo.bell(3).density(), 0)
    assert_allclose(np.linalg.eigvalsh(pt).min(), -0.5, atol=1e-12)


def test_partial_transpose_invalid_index():
    with pytest.raises(DomainError):
        partial_transpose(statezoo.bell(1).density(), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_transpose_is_an_involution(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (2, 3))
    # a partial transpose has its eigenvalues in [-1/2, 1], so (pt + I)/7 is a
    # state; its partial transpose permutes the entries back, bit for bit
    lifted = DensityMatrix((2, 3), (partial_transpose(rho, 1) + np.eye(6)) / 7)
    assert np.array_equal(partial_transpose(lifted, 1), (rho.matrix + np.eye(6)) / 7)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_undoes_tensor(seed):
    rng = np.random.default_rng(seed)
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    prod = DensityMatrix((2, 2), tensor(a.matrix, b.matrix))
    assert np.max(np.abs(partial_trace(prod, keep=(0,)).matrix - a.matrix)) <= 1e-12


def _proper_subsets(n):
    for r in range(1, n):
        yield from itertools.combinations(range(n), r)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([(2, 3), (3, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]))
def test_partial_trace_of_pure_state_matches_its_density(seed, dims):
    psi = random_pure(np.random.default_rng(seed), dims)
    rho = psi.density()
    for keep in _proper_subsets(len(dims)):
        got = partial_trace(psi, keep)
        want = partial_trace(rho, keep)
        assert got.dims == want.dims
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-14


def test_partial_trace_of_pure_state_keeps_original_order():
    # keep is sorted: (2, 0) and (0, 2) give the same state on subsystems 0, 2
    psi = PureState((2, 3, 2), np.arange(1, 13) / np.linalg.norm(np.arange(1, 13)))
    a = partial_trace(psi, keep=(2, 0))
    assert a.dims == (2, 2)
    assert np.array_equal(a.matrix, partial_trace(psi, keep=(0, 2)).matrix)
    with pytest.raises(DomainError):
        partial_trace(psi, keep=(0, 1, 2))


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------

def test_psd_sqrt_basic_cases():
    assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    assert_allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12)
    proj = statezoo.bell(3).density().matrix
    assert_allclose(psd_sqrt(proj), proj, atol=1e-10)


def test_psd_spectrum_zeroes_only_up_to_the_rank_tolerance():
    # TOL_RANK * max = 5e-14 here; order is kept
    evals = np.array([0.5, -1e-17, 2e-14, 0.5 - 2e-14, 1e-12])
    assert np.array_equal(psd_spectrum(evals), [0.5, 0.0, 0.0, 0.5 - 2e-14, 1e-12])
    with pytest.raises(DomainError):
        psd_spectrum(np.array([1.0, -2e-9]))


def test_psd_spectrum_ranks_each_row_by_its_own_maximum():
    tiny = np.array([1e-15, 2e-15, 3e-15, 4e-15])
    stacked = psd_spectrum(np.array([tiny, [0.1, 0.2, 0.3, 0.4]]))
    assert np.array_equal(stacked[0], tiny)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4),
                          st.floats(-15.0, 0.0)), min_size=1, max_size=6))
def test_psd_spectrum_and_psd_sqrt_of_a_stack_equal_each_row_alone(rows):
    # states of every rank, each scaled by its own power of ten
    matrices = np.array([random_density(np.random.default_rng(seed), (2, 2), rank=rank).matrix
                         * 10.0 ** exponent for seed, rank, exponent in rows])
    evals = np.linalg.eigvalsh(matrices)
    for stacked, row in zip(psd_spectrum(evals), evals):
        assert np.array_equal(stacked, psd_spectrum(row))
    for stacked, m in zip(psd_sqrt(matrices), matrices):
        assert np.array_equal(stacked, psd_sqrt(m))


def test_psd_sqrt_squares_back(rng=np.random.default_rng(4)):
    m = random_density(rng, (2, 2)).matrix
    root = psd_sqrt(m)
    assert np.max(np.abs(root @ root - m)) < 1e-8


STATE_DIMS = st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3)])


def _random_state_of_any_rank(seed, dims, data) -> DensityMatrix:
    rank = data.draw(st.integers(min_value=1, max_value=int(np.prod(dims))))
    return random_density(np.random.default_rng(seed), dims, rank=rank)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), STATE_DIMS, st.data())
def test_psd_sqrt_is_a_hermitian_square_root_at_every_rank(seed, dims, data):
    rho = _random_state_of_any_rank(seed, dims, data)
    root = psd_sqrt(rho.matrix)
    assert np.max(np.abs(root - root.conj().T)) <= 1e-12
    assert np.max(np.abs(root @ root - rho.matrix)) <= 1e-12


def test_psd_sqrt_rejects_negative_matrix():
    with pytest.raises(DomainError):
        psd_sqrt(np.diag([1.0, -0.5]))


# ---------------------------------------------------------------------------
# value-type validation
# ---------------------------------------------------------------------------

def test_density_matrix_validation():
    rho = DensityMatrix(np.array([2, 2]), np.eye(4) / 4)         # dims stored as python ints
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    with pytest.raises(DomainError):
        DensityMatrix((2,), np.array([[0.5, 0.5], [0.0, 0.5]]))          # not hermitian
    with pytest.raises(DomainError):
        DensityMatrix((2,), np.eye(2))                                    # trace 2
    with pytest.raises(DomainError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))                         # negative eigenvalue
    # a non-finite entry in either part, on or off the diagonal, is named
    # before any arithmetic on it can warn
    for bad, part, (i, j) in itertools.product(
            (np.nan, np.inf, -np.inf), (1.0, 1j), ((0, 0), (1, 1), (0, 1), (2, 1))):
        m = np.eye(3, dtype=complex) / 3
        m[i, j] += bad * part
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="non-finite entry"):
                DensityMatrix((3,), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_states_reject_non_finite_entries(bad):
    with pytest.raises(DomainError, match="non-finite"):
        DensityMatrix((2,), [[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="non-finite"):
        DensityMatrix((2,), [[0.5, bad], [bad, 0.5]])
    with pytest.raises(DomainError, match="not normalised"):
        PureState((2,), [bad, 0.0])


def test_intermediate_states_build_no_density_matrix(monkeypatch):
    # a state is built, and validated, only where one is returned
    joint = cloning.qutrit_cloned_pair(0.45).joint
    filt = cloning.distillation_filter(joint)
    built, validate = [], DensityMatrix.__post_init__

    def counted(self):
        built.append(self.dims)
        validate(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    cloning.reduction_check(joint)
    cloning.distillation_filter(joint)
    assert built == []
    cloning.distill(joint, filt)
    assert built == [(3, 3)]
    protocols.secret_share_run(np.sqrt(2.0 / 3.0), 0, "-")
    assert built == [(3, 3)]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).view(np.int64)


VALIDATED_DIMS = st.sampled_from([(2, 2), (3, 3)])


def _states_of_every_rank(dims, data) -> list:
    d = int(np.prod(dims))
    drawn = data.draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, d)),
                               min_size=1, max_size=5))
    return [random_density(np.random.default_rng(seed), dims, rank=rank).matrix
            for seed, rank in drawn]


@settings(max_examples=60, deadline=None)
@given(VALIDATED_DIMS, st.data())
def test_stacked_validation_gives_each_state_its_bits_alone(dims, data):
    matrices = _states_of_every_rank(dims, data)
    order = data.draw(st.lists(st.integers(0, len(matrices) - 1), min_size=1, max_size=10))
    stack = np.array([matrices[i] for i in order])
    spectra = qcore._density_spectra(dims, stack)
    for m, row in zip(stack, spectra):
        alone = DensityMatrix(dims, m)
        assert (_bits(m) == _bits(alone.matrix)).all()
        assert (_bits(row) == _bits(alone.spectrum)).all()
        assert (_bits(row) == _bits(psd_spectrum(np.linalg.eigvalsh(m)))).all()


def _spoiled(m: np.ndarray, fault: str, data) -> np.ndarray:
    """m made non-finite, non-hermitian, of trace != 1 or non-PSD."""
    d = len(m)
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    m = m.copy()
    if fault == "non-finite":
        m[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan)]))
    elif fault == "non-hermitian":
        m[i, (i + 1 + j % (d - 1)) % d] += 0.01
    elif fault == "trace":
        m *= 1.01
    else:
        m[i, i] += 2.0
        m[(i + 1) % d, (i + 1) % d] -= 2.0
    return m


@settings(max_examples=80, deadline=None)
@given(VALIDATED_DIMS, st.sampled_from(["non-finite", "non-hermitian", "trace", "non-PSD"]),
       st.data())
def test_a_stack_with_one_bad_matrix_raises_what_it_raises_alone(dims, fault, data):
    good = _states_of_every_rank(dims, data)
    bad = _spoiled(good.pop(), fault, data)
    at = data.draw(st.integers(0, len(good)))
    with pytest.raises(DomainError) as alone:
        DensityMatrix(dims, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError) as stacked:
            qcore._density_spectra(dims, np.array(good[:at] + [bad] + good[at:]))
    assert str(stacked.value) == str(alone.value)


def test_pure_state_validation():
    psi = PureState([2, 2], np.array([1.0, 0.0, 0.0, 0.0]))        # dims stored as python ints
    assert psi.dims == (2, 2) and all(type(d) is int for d in psi.dims)
    with pytest.raises(DomainError):
        PureState((2,), np.array([1.0, 1.0]))                            # not normalised
    with pytest.raises(DomainError):
        PureState((2, 2), np.array([1.0, 0.0]))                          # wrong length


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_density_matrix_spectrum_is_its_validation_spectrum(seed, rank):
    rho = random_density(np.random.default_rng(seed), (2, 3), rank=rank)
    assert np.array_equal(rho.spectrum, psd_spectrum(np.linalg.eigvalsh(rho.matrix)))
    assert np.count_nonzero(rho.spectrum) == rank
    assert not rho.spectrum.flags.writeable


def test_density_matrix_matrix_cannot_drift_from_its_spectrum():
    m = np.diag([0.75, 0.25]).astype(complex)
    rho = DensityMatrix((2,), m)
    m[0, 0], m[1, 1] = 0.5, 0.5                                   # the caller's array
    assert np.array_equal(rho.matrix, np.diag([0.75, 0.25]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.5
    assert np.array_equal(rho.spectrum, [0.25, 0.75])


def test_states_hold_no_instance_dict_and_no_extra_view():
    vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    psi = PureState((2, 2), vec)
    assert psi.vector is vec
    for state in (psi, psi.density()):
        assert not hasattr(state, "__dict__")


def test_density_matrix_spectrum_is_not_an_init_argument():
    with pytest.raises(TypeError):
        DensityMatrix((2,), np.eye(2) / 2, np.ones(2))
    assert "spectrum" not in repr(DensityMatrix((2,), np.eye(2) / 2))
