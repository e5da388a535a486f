"""Cloning machine tests: parameters, outputs, distillation, dense coding."""
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import cloning, measures, statezoo
from entkit.qcore import (
    DensityMatrix,
    DomainError,
    PureState,
    ket,
    partial_trace,
    partial_transpose,
    tensor,
)
from util import (assert_columns_match_points, clone_pair, random_density, random_pure,
                  random_unitary)

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "cloning_dense_coding.json").read_text())
D_OPT = np.sqrt(1.0 / 8.0)


# ---------------------------------------------------------------------------
# machine parameters and the isometry
# ---------------------------------------------------------------------------

def test_optimal_parameters_qutrit():
    p = cloning.uqcm_params(3)
    assert p.c ** 2 == pytest.approx(0.5, abs=1e-12)
    assert p.d ** 2 == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert p.s == pytest.approx(5.0 / 8.0, abs=1e-12)


def test_optimal_parameters_qubit_clone_fidelity():
    p = cloning.uqcm_params(2)
    assert p.s == pytest.approx(2.0 / 3.0, abs=1e-12)
    # fidelity of each clone with the input: s + (1 - s)/2 = 5/6
    assert p.s + (1 - p.s) / 2 == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_wootters_zurek_limit():
    p = cloning.uqcm_params(2, d=0.0)
    assert p.c == pytest.approx(1.0)
    assert p.s == pytest.approx(1.0)
    full, marginal = _clone(ket(1, 2), p)
    # basis states are copied exactly: |1>|1>|X_1> has index 7
    assert_allclose(marginal.matrix, np.diag([0.0, 1.0]), atol=1e-12)
    assert abs(full.vector[7]) == pytest.approx(1.0)


def test_uqcm_params_range():
    for d in (0.8, -1e-300, np.nan):
        with pytest.raises(DomainError):
            cloning.uqcm_params(2, d=d)
    with pytest.raises(DomainError):
        cloning.uqcm_params(1)


@pytest.mark.parametrize("n", range(2, 10))
def test_uqcm_params_accepts_its_endpoint(n):
    # at d = sqrt(1/(2(n-1))) c^2 = 1 - 2(n-1)d^2 rounds below 0 for n = 2, 5 and 8
    # and above 0 for n = 4 and 7; c is 0 there all the same
    d = np.sqrt(1.0 / (2.0 * (n - 1)))
    params = cloning.uqcm_params(n, d)
    assert params.c == 0.0
    v = cloning.cloning_isometry(params)
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
    with pytest.raises(DomainError, match="outside"):
        cloning.uqcm_params(n, np.nextafter(d, 1.0))


@pytest.mark.parametrize("n,d", [(2, None), (2, 0.3), (3, None), (3, 0.2), (3, 0.5)])
def test_cloning_transformation_is_an_isometry(n, d):
    v = cloning.cloning_isometry(cloning.uqcm_params(n, d))
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10


# ---------------------------------------------------------------------------
# single-input cloning
# ---------------------------------------------------------------------------

def _clone(vector, params):
    """The machine's (a, b, machine) output on an input vector, and clone a."""
    full = PureState((params.n,) * 3, cloning.cloning_isometry(params) @ vector)
    return full, partial_trace(full, keep=(0,))


def test_clone_marginal_qubit_basis_state():
    full, marginal = _clone(ket(0, 2), cloning.uqcm_params(2))
    assert_allclose(marginal.matrix.real, np.diag([5.0 / 6.0, 1.0 / 6.0]), atol=1e-12)


def test_clone_marginal_qutrit_scaling_form():
    psi = PureState((3,), np.ones(3) / np.sqrt(3))
    _, marginal = _clone(psi.vector, cloning.uqcm_params(3))
    expected = 5.0 / 8.0 * np.outer(psi.vector, psi.vector.conj()) + np.eye(3) / 8.0
    assert np.max(np.abs(marginal.matrix - expected)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_clone_scaling_form_for_random_inputs(n):
    rng = np.random.default_rng(100 + n)
    params = cloning.uqcm_params(n)
    for _ in range(50):
        psi = random_pure(rng, (n,))
        full, marginal = _clone(psi.vector, params)
        expected = params.s * np.outer(psi.vector, psi.vector.conj()) \
            + (1 - params.s) / n * np.eye(n)
        assert np.max(np.abs(marginal.matrix - expected)) <= 1e-10
        other = partial_trace(full.density(), keep=(1,))
        assert np.max(np.abs(marginal.matrix - other.matrix)) <= 1e-12


# ---------------------------------------------------------------------------
# two-qutrit clone pair
# ---------------------------------------------------------------------------

def test_clone_pair_marginals_equal_on_grid():
    for d in np.linspace(0.05, 0.5, 10):
        joint = cloning.qutrit_cloned_pair(d).joint
        a = partial_trace(joint, keep=(0,))
        b = partial_trace(joint, keep=(1,))
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12


def test_clone_pair_pt_eigenvalues_match_closed_forms():
    for d in np.linspace(0.01, 0.5, 50):
        joint = cloning.qutrit_cloned_pair(d).joint
        evals = np.linalg.eigvalsh(partial_transpose(joint, 0))
        for closed in (cloning.pt_eigenvalue_1(d), cloning.pt_eigenvalue_2(d)):
            assert np.min(np.abs(evals - closed)) <= 1e-9, d


def test_clone_pair_is_npt_everywhere():
    for d in np.linspace(0.01, 0.5, 50):
        joint = cloning.qutrit_cloned_pair(d).joint
        assert np.linalg.eigvalsh(partial_transpose(joint, 0)).min() < -1e-10


def test_clone_pair_optimal_preset_and_range():
    # the optimal machine has d^2 = 1/(2(n+1)) = 1/8
    assert cloning.qutrit_cloned_pair(D_OPT).params.d ** 2 == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert cloning.qutrit_cloned_pair(0.2).params.d ** 2 != pytest.approx(1.0 / 8.0, abs=1e-12)
    with pytest.raises(DomainError):
        cloning.qutrit_cloned_pair(0.0)
    with pytest.raises(DomainError):
        cloning.qutrit_cloned_pair(0.51)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 0.5, exclude_min=True) | st.just(0.5), min_size=1, max_size=8))
@example([0.5, 1e-3, 0.5])
def test_qutrit_cloned_pairs_rows_are_one_row_calls(ds):
    matrices, spectra = cloning.qutrit_cloned_pairs(ds)
    assert matrices.shape == (len(ds), 9, 9) and spectra.shape == (len(ds), 9)
    assert not (matrices.flags.writeable or spectra.flags.writeable)
    for r, d in enumerate(ds):
        pair = cloning.qutrit_cloned_pair(d)
        assert matrices[r].tobytes() == pair.joint.matrix.tobytes()
        assert spectra[r].tobytes() == pair.joint.spectrum.tobytes()
        # and the bits of the one-state path: isometry, PureState, partial_trace
        psi = cloning.cloning_isometry(pair.params) @ (np.ones(3) / np.sqrt(3.0))
        alone = partial_trace(PureState((3, 3, 3), psi), keep=(0, 1))
        assert matrices[r].tobytes() == alone.matrix.tobytes()
        assert spectra[r].tobytes() == alone.spectrum.tobytes()
        if d == 0.5:
            assert pair.params.c == 0.0 and matrices[r, 0, 0] == 0.0


@pytest.mark.parametrize("ds,first_bad", [
    ((0.3, 0.0, 0.7), 0.0),
    ((0.2, -0.1), -0.1),
    ((0.5, 0.5000001), 0.5000001),
    ((0.1, float("nan"), -1.0), float("nan")),
])
def test_qutrit_cloned_pairs_domain(ds, first_bad):
    with pytest.raises(DomainError) as one_row:
        cloning.qutrit_cloned_pair(first_bad)
    with pytest.raises(DomainError) as stacked:
        cloning.qutrit_cloned_pairs(ds)
    assert str(stacked.value) == str(one_row.value)


def test_reduced_clone_matches_closed_form():
    # single-clone marginal (1/3)[[1, k, k], [k, 1, k], [k, k, 1]] with
    # k = d (2 sqrt(1 - 4 d^2) + d)
    for d in (0.2, 0.35, 0.5):
        joint = cloning.qutrit_cloned_pair(d).joint
        k = d * (2 * np.sqrt(1 - 4 * d * d) + d)
        expected = (np.eye(3) * (1 - k) + k * np.ones((3, 3))) / 3.0
        got = partial_trace(joint, keep=(1,)).matrix
        assert np.max(np.abs(got - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# reduction criterion and filters
# ---------------------------------------------------------------------------

def test_reduction_holds_for_separable_product():
    rng = np.random.default_rng(200)
    a = np.diag([0.6, 0.3, 0.1])
    b = np.diag([0.5, 0.25, 0.25])
    rho = DensityMatrix((3, 3), tensor(a, b))
    assert not cloning.reduction_check(rho).violated
    _ = rng


def test_reduction_violated_by_cloned_outputs():
    assert cloning.reduction_check(cloning.qutrit_cloned_pair(D_OPT).joint).violated
    for d in (0.45, 0.5):
        res = cloning.reduction_check(cloning.qutrit_cloned_pair(d).joint)
        assert res.violated
        assert res.eigenvalue == pytest.approx(
            cloning.reduction_eigenvalue_nonopt(d), abs=1e-9)


def test_a_state_just_above_1_over_n_violates_the_reduction_criterion():
    # the 3x3 isotropic state at F = 1/3 + 5e-11: its reduction eigenvalue is
    # 1/3 - F at |Phi+>, and fef_bounds certifies F > 1/3
    phi = np.eye(3).reshape(9) / np.sqrt(3.0)
    p = (1.0 / 3.0 + 5e-11 - 1.0 / 9.0) * 9.0 / 8.0
    rho = DensityMatrix((3, 3), p * np.outer(phi, phi) + (1.0 - p) * np.eye(9) / 9.0)
    assert measures.fef_bounds(rho)[0] > 1.0 / 3.0
    res = cloning.reduction_check(rho)
    assert res.eigenvalue == pytest.approx(-5e-11, rel=1e-3)
    assert res.violated


def test_reduction_eigenvalue_closed_form_on_grid():
    for d in np.linspace(cloning.NONOPT_FILTER_D_MIN + 1e-6, 0.5, 20):
        joint = cloning.qutrit_cloned_pair(d).joint
        rho_a = partial_trace(joint, keep=(0,)).matrix
        evals = np.linalg.eigvalsh(tensor(rho_a, np.eye(3)) - joint.matrix)
        assert np.min(np.abs(evals - cloning.reduction_eigenvalue_nonopt(d))) <= 1e-9


def test_reduction_eigenvector_owns_its_data():
    # a view would keep the whole n^2 x n^2 eigenbasis alive
    for d in (0.2, D_OPT, 0.5):
        res = cloning.reduction_check(cloning.qutrit_cloned_pair(d).joint)
        assert res.eigenvector.base is None
        assert res.eigenvector.shape == (9,)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]),
       st.integers(min_value=1, max_value=9))
def test_reduction_check_stacked_eigh_is_separate_eigh_bitwise(seed, n, rank):
    # one eigh over both reduction operators gives each operator's own eigh, bit for bit
    rho = random_density(np.random.default_rng(seed), (n, n), rank=min(rank, n * n))
    ops = {"A": tensor(partial_trace(rho, keep=(0,)).matrix, np.eye(n)) - rho.matrix,
           "B": tensor(np.eye(n), partial_trace(rho, keep=(1,)).matrix) - rho.matrix}
    stacked = np.linalg.eigh(np.stack([ops["A"], ops["B"]]))
    for k, op in enumerate(ops.values()):
        evals, evecs = np.linalg.eigh(op)
        assert np.array_equal(stacked[0][k], evals) and np.array_equal(stacked[1][k], evecs)
    lowest = {side: cloning._lowest_eigenpair(*np.linalg.eigh(op)) for side, op in ops.items()}
    res = cloning.reduction_check(rho)
    side = "B" if lowest["B"][0] < lowest["A"][0] - cloning.REDUCTION_TIE else "A"
    assert res.side == side
    assert res.eigenvalue == lowest[side][0]
    assert np.array_equal(res.eigenvector, lowest[side][1])


def _ulps_from(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def test_distillation_does_not_follow_the_last_bit_of_d():
    # sides A and B tie on the swap-symmetric clone pair, and each side's
    # minimum is doubly degenerate; 1/np.sqrt(8), one ulp below np.sqrt(1/8),
    # used to pick side B and distil to FEF 0.22086
    assert _ulps_from(D_OPT, -1) == 1.0 / np.sqrt(8.0)
    reference = None
    for k in range(-3, 4):
        joint = cloning.qutrit_cloned_pair(_ulps_from(D_OPT, k)).joint
        filt = cloning.distillation_filter(joint)
        assert filt.side == "A"
        dist = cloning.distill(joint, filt)
        if reference is None:
            reference = dist.matrix
        assert np.max(np.abs(dist.matrix - reference)) <= 1e-12
        f = measures.bell_enumeration(dist)
        assert f == pytest.approx(FIXTURE["singlet_fraction_distilled_optimal"], abs=1e-12)
        assert (3 * f + 1) / 4 == pytest.approx(FIXTURE["fidelity_distilled_optimal"], abs=1e-12)
        assert cloning.dense_coding_advantage(dist) == pytest.approx(
            FIXTURE["advantage_distilled_optimal"], abs=1e-12)


def test_filter_side_b_mirrors_side_a_under_swap():
    # a state whose B-side reduction operator is clearly lower is filtered on
    # B, and the result is the swap of filtering the swapped state on A
    joint = cloning.qutrit_cloned_pair(0.3).joint.matrix
    lean = tensor(np.eye(3) / 3, np.diag([0.1, 0.2, 0.7]))
    rho = DensityMatrix((3, 3), 0.9 * joint + 0.1 * lean)
    swapped = DensityMatrix(
        (3, 3), rho.matrix.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9))
    res, mirror = cloning.reduction_check(rho), cloning.reduction_check(swapped)
    assert (res.side, mirror.side) == ("B", "A")
    assert res.eigenvalue == pytest.approx(mirror.eigenvalue, abs=1e-12)
    assert res.eigenvalue < -0.01
    filt = cloning.distillation_filter(rho)
    assert filt.side == "B"
    out = cloning.distill(rho, filt).matrix
    back = cloning.distill(swapped, cloning.distillation_filter(swapped)).matrix
    assert_allclose(out, back.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9), atol=1e-10)


def test_filter_side_must_be_a_or_b():
    with pytest.raises(DomainError):
        cloning.FilterMatrix(np.eye(3, dtype=complex), side="C")


def test_identity_filter_leaves_state_unchanged():
    rho = cloning.qutrit_cloned_pair(0.3).joint
    filt = cloning.FilterMatrix(np.eye(3, dtype=complex))
    out = cloning.distill(rho, filt)
    assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


def test_filter_from_eigenvector_validation():
    with pytest.raises(DomainError):
        cloning.filter_from_eigenvector(np.zeros(9), 3)
    with pytest.raises(DomainError):
        cloning.filter_from_eigenvector(np.ones(8), 3)


def test_distill_annihilation():
    rho = PureState((2, 2), ket(3, 4)).density()     # |11><11|
    filt = cloning.FilterMatrix(np.sqrt(2) * np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(DomainError):
        cloning.distill(rho, filt)


def test_published_optimal_filter_spans_the_negative_eigenspace():
    # the most negative reduction eigenvalue is doubly degenerate; the
    # published filter is one eigenvector of that subspace, and distilling
    # with it gives exactly the same state as the computed filter
    joint = cloning.qutrit_cloned_pair(D_OPT).joint
    rho_a = partial_trace(joint, keep=(0,)).matrix
    op = tensor(rho_a, np.eye(3)) - joint.matrix
    evals, _ = np.linalg.eigh(op)
    assert evals[0] == pytest.approx(evals[1], abs=1e-12)

    s29 = np.sqrt(29.0)
    published = np.sqrt(3) * np.array(
        [[1.5 - s29 / 2, -3.5 + s29 / 2, -1.0],
         [3.5 - s29 / 2, -1.5 + s29 / 2, 1.0],
         [2.5 - s29 / 2, -2.5 + s29 / 2, 0.0]])
    vec = published.reshape(-1) / np.linalg.norm(published)
    assert np.max(np.abs(op @ vec - evals[0] * vec)) <= 1e-12

    # any filter from the degenerate subspace distills to the same state up
    # to local rotations: identical spectrum, singlet fraction and advantage
    mine = cloning.distill(joint, cloning.distillation_filter(joint))
    theirs = cloning.distill(joint, cloning.FilterMatrix(published.astype(complex)))
    assert_allclose(np.linalg.eigvalsh(mine.matrix),
                    np.linalg.eigvalsh(theirs.matrix), atol=1e-10)
    assert measures.bell_enumeration(mine) == pytest.approx(
        measures.bell_enumeration(theirs), abs=1e-10)
    assert cloning.dense_coding_advantage(mine) == pytest.approx(
        cloning.dense_coding_advantage(theirs), abs=1e-10)


def test_distilled_optimal_chain_frozen_values():
    joint = cloning.qutrit_cloned_pair(D_OPT).joint
    dist = cloning.distill(joint, cloning.distillation_filter(joint))
    f = measures.bell_enumeration(dist)
    assert f == pytest.approx(FIXTURE["singlet_fraction_distilled_optimal"], abs=1e-12)
    assert f > 1.0 / 3.0
    assert (3 * f + 1) / 4 == pytest.approx(FIXTURE["fidelity_distilled_optimal"], abs=1e-12)
    assert cloning.dense_coding_advantage(dist) == pytest.approx(
        FIXTURE["advantage_distilled_optimal"], abs=1e-12)


def test_distillation_never_lowers_the_bell_basis_enumeration_on_the_worked_cases():
    for d in (D_OPT, 0.45, 0.5):
        joint = cloning.qutrit_cloned_pair(d).joint
        dist = cloning.distill(joint, cloning.distillation_filter(joint))
        f_in = measures.bell_enumeration(joint)
        f_out = measures.bell_enumeration(dist)
        assert f_out >= f_in - 1e-10


def test_fef_of_the_half_clone_pair_is_16_27():
    # the d = 1/2 pair's FEF, reached at (I x W)|Phi+> with the real
    # reflection W = I - (2/3) J, J the all-ones matrix
    joint = cloning.qutrit_cloned_pair(0.5).joint
    assert measures.singlet_fraction(joint) == pytest.approx(
        16.0 / 27.0, abs=1e-12)


# d over (0, 1/2], with the branch switch at 1/sqrt(8) and the filter's onset
CLONE_FEF_GRID = np.r_[np.linspace(0.01, 0.5, 50), D_OPT, cloning.NONOPT_FILTER_D_MIN]


def test_clone_pair_fef_is_the_ascent_value_inside_the_certified_bracket():
    closed = cloning.clone_pair_fef(CLONE_FEF_GRID)
    stack = np.array([cloning.qutrit_cloned_pair(d).joint.matrix for d in CLONE_FEF_GRID])
    # lower is singlet_fraction(rho)
    lower, upper = measures._fef_brackets(stack, 3)
    assert_allclose(lower, closed, rtol=0, atol=1e-12)
    assert (closed <= upper).all()
    assert (upper - lower <= 1e-12).all()


def test_every_qutrit_clone_pair_closes_at_the_leaders_step(monkeypatch):
    # the best Bell start's first polar step reaches each pair's FEF and its
    # certificate closes there, so the stack takes that one svd and no descent;
    # at d <= 0.3 the best row after every start's first step lies at a second
    # optimum, whose certificate stays open
    grid = np.r_[CLONE_FEF_GRID, 0.2, 0.21, 0.22, 0.23, 0.3]
    stacked = []
    step = measures._polar_step

    def counted(g):
        stacked.append(g.shape[:-2])
        return step(g)

    monkeypatch.setattr(measures, "_polar_step", counted)
    stack = cloning.qutrit_cloned_pairs(grid)[0]
    lower, upper = measures._fef_brackets(stack, 3)
    assert stacked == [(len(grid),)]
    assert (upper - lower <= 1e-12).all()


# fractions of d_max(n) = sqrt(1/(2(n - 1))) at which the n-level pair is tested
N_LEVEL_D_FRACTIONS = (0.1, 0.3, 0.5, 0.8, 1.0)


# (n, fraction) whose fef_bounds descent runs all its steps, about 1 s: its
# singlet_fraction is checked, its bracket is not
SLOW_CLONE_BRACKETS = {(6, 0.3)}


@pytest.mark.parametrize("n", range(2, 10))
def test_the_n_level_clone_pair_fef_is_the_closed_form(n):
    # max(c^2/n, (c(n - 2) - 4d(n - 1))^2/n^3): W = I and the reflection
    # W = I - (2/n)J give the two branches, as clone_pair_fef derives at n = 3.
    # Both ends of fef_bounds, the lower one being singlet_fraction, lie
    # within 1e-12 of it
    for fraction in N_LEVEL_D_FRACTIONS:
        d = fraction * np.sqrt(1.0 / (2.0 * (n - 1)))
        rho, c = clone_pair(n, d)
        form = max(c * c / n, (c * (n - 2) - 4.0 * d * (n - 1)) ** 2 / n ** 3)
        if (n, fraction) in SLOW_CLONE_BRACKETS:
            bracket = (measures.singlet_fraction(rho),)
        else:
            bracket = measures.fef_bounds(rho)
        assert bracket == pytest.approx((form,) * len(bracket), abs=1e-12), (n, d)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.floats(min_value=1e-3, max_value=1.0))
@example(3, 1.0)
@example(4, 1.0)
@example(5, 1.0)
def test_the_clone_pair_fef_never_falls_below_the_closed_form(n, fraction):
    # the test above at any d in (0, d_max(n)] at n = 3, 4 and 5, where small
    # d leaves the maximum degenerate between the two branches' W
    d = fraction * np.sqrt(1.0 / (2.0 * (n - 1)))
    rho, c = clone_pair(n, d)
    form = max(c * c / n, (c * (n - 2) - 4.0 * d * (n - 1)) ** 2 / n ** 3)
    assert measures.singlet_fraction(rho) >= form - 1e-12


def test_clone_pair_fef_branches():
    assert cloning.clone_pair_fef(0.5) == pytest.approx(16.0 / 27.0, abs=1e-15)
    assert cloning.clone_pair_fef(cloning.NONOPT_FILTER_D_MIN) == pytest.approx(1.0 / 3.0,
                                                                                 abs=1e-12)
    assert cloning.clone_pair_fef(D_OPT) == pytest.approx(1.0 / 6.0, abs=1e-15)
    below, above = D_OPT - 1e-3, D_OPT + 1e-3
    assert cloning.clone_pair_fef(below) == (1.0 - 4.0 * below ** 2) / 3.0
    assert cloning.clone_pair_fef(above) > (1.0 - 4.0 * above ** 2) / 3.0
    # the second branch is the overlap at W = I - (2/3) J
    w = np.eye(3) - 2.0 / 3.0 * np.ones((3, 3))
    psi = w.reshape(9) / np.sqrt(3.0)
    rho = cloning.qutrit_cloned_pair(above).joint.matrix
    assert cloning.clone_pair_fef(above) == pytest.approx((psi @ rho @ psi).real, abs=1e-15)
    assert_columns_match_points(cloning.clone_pair_fef, [(d,) for d in CLONE_FEF_GRID])


@pytest.mark.parametrize("d", [0.0, -0.1, 0.5000001, float("nan")])
def test_clone_pair_fef_domain(d):
    with pytest.raises(DomainError, match="machine parameter d"):
        cloning.clone_pair_fef(d)


# a public closed form just outside its domain, where its formula gives NaN,
# divides by zero or returns a negative weight: d in (0, 1/2], l1 in [0, 1]
# and the werner_derivative F in (1/2, 1]
OUTSIDE = {
    "werner_derivative_entangled_bound(1/2)": (statezoo.werner_derivative_entangled_bound, 0.5),
    "werner_derivative_entangled_bound(1/4)": (statezoo.werner_derivative_entangled_bound, 0.25),
    "pt_eigenvalue_1": (cloning.pt_eigenvalue_1, 0.5000001),
    "pt_eigenvalue_2": (cloning.pt_eigenvalue_2, 0.5000001),
    "reduction_eigenvalue_nonopt": (cloning.reduction_eigenvalue_nonopt, 0.5000001),
    "local_closed_form": (cloning.local_closed_form, -1e-7, cloning.uqcm_params(2)),
    "nonlocal_closed_form": (cloning.nonlocal_closed_form, 1.0000001, cloning.uqcm_params(2)),
}


@pytest.mark.parametrize("call", OUTSIDE)
def test_a_closed_form_raises_just_outside_its_domain(call):
    closed_form, *args = OUTSIDE[call]
    with pytest.raises(DomainError, match="must lie in"):
        closed_form(*args)


# d on figure 4.2's grid, where the lowest reduction eigenvalue is simple, and
# the optimal pair; below NONOPT_FILTER_D_MIN the minimum is degenerate and
# the distilled advantage depends on the local frame
FILTER_GRID = tuple(np.linspace(cloning.NONOPT_FILTER_D_MIN + 1e-6, 0.5, 12)) + (D_OPT,)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(FILTER_GRID),
       st.sampled_from(["A", "B", "both"]))
def test_distillation_filter_is_invariant_under_local_unitaries(seed, d, where):
    rng = np.random.default_rng(seed)
    joint = cloning.qutrit_cloned_pair(d).joint
    ua = random_unitary(rng, 3) if where != "B" else np.eye(3)
    ub = random_unitary(rng, 3) if where != "A" else np.eye(3)
    u = tensor(ua, ub)
    rotated = DensityMatrix((3, 3), u @ joint.matrix @ u.conj().T)
    res, ref = cloning.reduction_check(rotated), cloning.reduction_check(joint)
    assert res.side == ref.side
    assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-12)
    advantage = [cloning.dense_coding_advantage(cloning.distill(r, cloning.distillation_filter(r)))
                 for r in (rotated, joint)]
    assert advantage[0] == pytest.approx(advantage[1], abs=1e-12)


# ---------------------------------------------------------------------------
# dense coding and the teleportation witness
# ---------------------------------------------------------------------------

def test_dense_coding_capacity_maximally_entangled_qutrits():
    rho = statezoo.generalized_max_entangled(3).density()
    assert cloning.dense_coding_capacity(rho) == pytest.approx(
        2 * np.log2(3), abs=1e-10)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_stacked_entropies_and_advantages_are_one_row_calls(dims):
    n = dims[0] * dims[1]
    rng = np.random.default_rng(n)
    states = [random_density(rng, dims, rank=rank) for rank in range(1, n + 1) for _ in range(4)]
    matrices = np.array([rho.matrix for rho in states])
    spectra = np.array([rho.spectrum for rho in states])
    entropies = measures._von_neumann_entropies(spectra)
    advantages = cloning.dense_coding_advantages(dims, matrices, spectra)
    for rho, entropy, advantage in zip(states, entropies, advantages):
        assert entropy.tobytes() == np.float64(measures.entropy(rho)).tobytes()
        assert advantage.tobytes() == np.float64(cloning.dense_coding_advantage(rho)).tobytes()
        positive = rho.spectrum[rho.spectrum > 0.0]
        if positive.size == 1:
            assert entropy == 0.0
            assert advantage == measures.entropy(partial_trace(rho, keep=(1,)))
        else:
            # the sum over the zero-padded row may group the terms otherwise
            reference = -np.sum(positive * np.log2(positive))
            assert abs(entropy - reference) <= 4 * np.spacing(reference)


def test_optimal_output_is_not_dense_codeable():
    joint = cloning.qutrit_cloned_pair(D_OPT).joint
    adv = cloning.dense_coding_advantage(joint)
    assert adv == pytest.approx(FIXTURE["advantage_optimal"], abs=1e-12)
    assert adv < 0


def test_undistilled_advantage_sign_profile():
    # negative through most of the range, positive close to d = 1/2
    for d in (0.1, 0.3, D_OPT, 0.45):
        assert cloning.dense_coding_advantage(cloning.qutrit_cloned_pair(d).joint) < 0
    assert cloning.dense_coding_advantage(
        cloning.qutrit_cloned_pair(0.5).joint) == pytest.approx(
            FIXTURE["advantage_undistilled_d_half"], abs=1e-12)


def test_distilled_nonopt_at_half_is_dense_codeable():
    joint = cloning.qutrit_cloned_pair(0.5).joint
    dist = cloning.distill(joint, cloning.distillation_filter(joint))
    chi = cloning.dense_coding_capacity(dist)
    assert chi == pytest.approx(FIXTURE["chi_distilled_nonopt_d_half"], abs=1e-12)
    assert cloning.dense_coding_advantage(dist) > 0
    assert (chi > 2.0) == FIXTURE["chi_exceeds_two_at_d_half"]


def test_teleportation_witness_qutrit_values():
    phi = statezoo.generalized_max_entangled(3).density()
    assert cloning.teleportation_witness_qutrit(phi) == pytest.approx(-2.0 / 3.0, abs=1e-12)
    mixed = DensityMatrix((3, 3), np.eye(9) / 9)
    assert cloning.teleportation_witness_qutrit(mixed) == pytest.approx(2.0 / 9.0, abs=1e-12)
    for d in (0.2, 0.35, 0.5):
        got = cloning.teleportation_witness_qutrit(cloning.qutrit_cloned_pair(d).joint)
        assert got == pytest.approx(4.0 * d * d / 3.0, abs=1e-10)
        assert got >= -1e-12


def test_witness_dimension_check():
    with pytest.raises(DomainError):
        cloning.teleportation_witness_qutrit(statezoo.werner(0.9))


# ---------------------------------------------------------------------------
# bipartite cloning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,d", [(0.5, None), (0.3, 0.35), (0.8, 0.2), (1.0, None)])
def test_clone_bipartite_matches_closed_forms(lam, d):
    params = cloning.uqcm_params(2, d)
    local, nonlocal_, pqrs = cloning.clone_bipartite(lam, params)
    assert np.max(np.abs(local.matrix - cloning.local_closed_form(lam, params))) <= 1e-12
    assert np.max(np.abs(nonlocal_.matrix - cloning.nonlocal_closed_form(lam, params))) <= 1e-12
    p, q, r, s = pqrs
    assert p + s + 2 * r == pytest.approx(1.0, abs=1e-12)       # unit trace


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from((1.0, -1.0))),
                min_size=1, max_size=5),
       st.floats(0.0, 0.7))
def test_clone_bipartite_stack_rows_are_one_row_calls(rows, d):
    params = cloning.uqcm_params(2, d)
    lams, signs = zip(*rows)
    matrices, spectra = cloning.clone_bipartite_stack(lams, signs, params)
    assert matrices.shape == (2, len(rows), 4, 4) and spectra.shape == (2, len(rows), 4)
    assert not (matrices.flags.writeable or spectra.flags.writeable)
    for r, (lam, sign) in enumerate(rows):
        pairs = cloning.clone_bipartite(lam, params, sign=sign)[:2]
        for k, rho in enumerate(pairs):
            assert matrices[k, r].tobytes() == rho.matrix.tobytes()
            assert spectra[k, r].tobytes() == rho.spectrum.tobytes()
        nonlocal_ = cloning.nonlocal_closed_form(lam, params)
        nonlocal_[0, 3] *= sign
        nonlocal_[3, 0] *= sign
        assert np.abs(matrices[0, r] - cloning.local_closed_form(lam, params)).max() <= 1e-12
        assert np.abs(matrices[1, r] - nonlocal_).max() <= 1e-12


def test_clone_bipartite_stack_builds_only_the_requested_pair():
    params = cloning.uqcm_params(2, 0.3)
    both, spectra = cloning.clone_bipartite_stack((0.2, 0.7), (1.0, -1.0), params)
    (nonlocal_,), (spectrum,) = cloning.clone_bipartite_stack(
        (0.2, 0.7), (1.0, -1.0), params, pairs=("nonlocal",))
    assert nonlocal_.tobytes() == both[1].tobytes()
    assert spectrum.tobytes() == spectra[1].tobytes()


@pytest.mark.parametrize("lams,signs,kwargs,message", [
    ((0.5, -0.1, 1.5), (1.0, 1.0, 1.0), {}, "lambda1 must lie in \\[0, 1\\], got -0.1"),
    ((0.5, float("nan")), (1.0, 1.0), {}, "got nan"),
    ((0.5,), (0.5,), {}, "signs must be"),
    ((0.5, 0.2), (1.0,), {}, "signs must be"),
    ((0.5,), (1.0,), {"pairs": ("joint",)}, "pairs must be"),
])
def test_clone_bipartite_stack_domain(lams, signs, kwargs, message):
    with pytest.raises(DomainError, match=message):
        cloning.clone_bipartite_stack(lams, signs, cloning.uqcm_params(2), **kwargs)


def test_clone_bipartite_pair_symmetries():
    params = cloning.uqcm_params(2, 0.3)
    lam = 0.4
    iso = cloning.cloning_isometry(params)
    amp = np.diag([np.sqrt(lam), np.sqrt(1 - lam)])
    full = np.einsum("ai,bj,ij->ab", iso, iso, amp).reshape((2,) * 6)
    full = full.transpose(0, 3, 1, 4, 2, 5).reshape(-1)
    state = DensityMatrix((2,) * 6, np.outer(full, full.conj()))
    clones = partial_trace(state, keep=(0, 1, 2, 3))
    rho13 = partial_trace(clones, keep=(0, 2)).matrix
    rho24 = partial_trace(clones, keep=(1, 3)).matrix
    rho14 = partial_trace(clones, keep=(0, 3)).matrix
    rho23 = partial_trace(clones, keep=(1, 2)).matrix
    assert np.max(np.abs(rho13 - rho24)) <= 1e-12
    assert np.max(np.abs(rho14 - rho23)) <= 1e-12


def test_clone_bipartite_werner_family_point():
    c = np.sqrt(2.0 / 3.0)
    params = cloning.uqcm_params(2, np.sqrt((1 - c * c) / 2))
    _, nonlocal_, pqrs = cloning.clone_bipartite(0.5, params)
    assert np.max(np.abs(nonlocal_.matrix - statezoo.cloned_mems(2.0 / 3.0).matrix)) <= 1e-12
    assert pqrs[1] == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_nonlocal_critical_concurrence():
    assert cloning.nonlocal_critical_concurrence(1.0) == pytest.approx(0.5)
    # towards c = 1/sqrt(3) only maximal input entanglement survives
    assert cloning.nonlocal_critical_concurrence(1 / np.sqrt(3) + 1e-9) == pytest.approx(
        1.0, abs=1e-6)
    with pytest.raises(DomainError):
        cloning.nonlocal_critical_concurrence(0.5)


def test_clone_bipartite_entanglement_threshold():
    # concurrence of the non-local output flips sign exactly at the critical
    # input concurrence
    c = 0.9
    params = cloning.uqcm_params(2, np.sqrt((1 - c * c) / 2))
    crit = cloning.nonlocal_critical_concurrence(c)
    lam_crit = 0.5 * (1 - np.sqrt(1 - crit * crit))
    for lam, expect in ((lam_crit - 0.02, False), (lam_crit + 0.02, True)):
        _, nonlocal_, _ = cloning.clone_bipartite(lam, params)
        assert (measures.concurrence(nonlocal_) > 1e-9) == expect


def test_local_output_witness_and_separability():
    params = cloning.uqcm_params(2)          # universal machine, d^2 = 1/6
    local, _, _ = cloning.clone_bipartite(0.5, params)
    from entkit.protocols import W_A1

    got = np.trace(W_A1 @ local.matrix).real
    assert got == pytest.approx(1.0 / (3.0 * np.sqrt(3.0)), abs=1e-12)
    assert measures.peres_horodecki(local) == "separable"
