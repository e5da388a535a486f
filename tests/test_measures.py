"""Entanglement and mixedness measure tests with independent oracles."""
import inspect
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import channel, measures, statezoo
from entkit.qcore import DensityMatrix, DomainError, PureState, Y, partial_transpose, tensor
from fixtures import make_fef_values
from util import (bell_mixture, concurrence_x_form, fef_closed_form, random_density, random_pure,
                  random_unitary, x_form_matrix)

P_STAR = 7.0 - 3.0 * np.sqrt(5.0)   # root of (1-p)/3 = sqrt(p(p+2)/12)


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_concurrence_bell_state():
    assert measures.concurrence(statezoo.bell(3).density()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_werner_three_quarters():
    assert measures.concurrence(statezoo.werner(0.75)) == pytest.approx(0.5, abs=1e-10)


def test_concurrence_x_form_against_eigenvalue_route():
    # diag (1/8, 1/2, 1/8... ) X-form with coherence 1/4: closed form gives
    # 2 max(1/4 - sqrt(1/64), 0) = 1/4
    a = e = 1 / 8
    b = d = (1 - a - e) / 2
    c = 1 / 4
    closed = concurrence_x_form(a, b, c, d, e)
    assert closed == pytest.approx(0.25, abs=1e-14)
    wootters = measures.concurrence(x_form_matrix(a, b, c, d, e))
    assert abs(closed - wootters) <= 1e-10


def test_concurrence_x_form_no_coherence():
    assert concurrence_x_form(0.25, 0.25, 0.0, 0.25, 0.25) == 0.0


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
def test_concurrence_x_form_matches_nmems(p):
    rho = statezoo.nmems(p)
    closed = 2.0 * max((1 - p) / 3 - np.sqrt(p * (p + 2) / 12), 0.0)
    assert abs(measures.concurrence(rho) - closed) <= 1e-10
    m = rho.matrix
    assert abs(concurrence_x_form(
        m[0, 0].real, m[1, 1].real, m[1, 2], m[2, 2].real, m[3, 3].real) - closed) <= 1e-12


def test_nmems_concurrence_vanishes_at_exact_root():
    assert measures.concurrence(statezoo.nmems(P_STAR + 1e-6)) == 0.0
    assert measures.concurrence(statezoo.nmems(P_STAR - 1e-6)) > 0.0
    assert measures.concurrence(statezoo.nmems(0.0)) == pytest.approx(2 / 3, abs=1e-12)


def test_separable_wei_state_has_exactly_zero_concurrence():
    # the closed form gamma - 2 sqrt(ab) is 0.4 - 2 (0.2) = 0 exactly, not rounding noise
    rho = statezoo.wei(0.1, 0.1, 0.2, 0.2, 0.4)
    assert measures.concurrence(rho) == 0.0
    assert measures.tangle(rho) == 0.0


def test_concurrence_requires_two_qubits():
    with pytest.raises(DomainError):
        measures.concurrence(random_density(np.random.default_rng(0), (3, 3)))


def test_spin_flip_construction():
    # the spin-flipped singlet is the singlet itself
    rho = statezoo.bell(4).density().matrix
    yy = tensor(Y, Y)
    assert_allclose(yy @ rho.conj() @ yy, rho, atol=1e-14)


# ---------------------------------------------------------------------------
# negativity and the Peres-Horodecki test
# ---------------------------------------------------------------------------

def test_negativity_extremes():
    assert measures.negativity(statezoo.bell(3).density()) == pytest.approx(1.0, abs=1e-12)
    v = np.zeros(4)
    v[0] = 1.0
    assert measures.negativity(PureState((2, 2), v).density()) == pytest.approx(0.0, abs=1e-12)


def test_negativity_werner_against_partial_transpose_oracle():
    rho = statezoo.werner(0.9)
    evals = np.linalg.eigvalsh(partial_transpose(rho, 0))
    oracle = 2.0 * max(0.0, -evals[evals < 0].sum())
    assert measures.negativity(rho) == pytest.approx(oracle, abs=1e-12)
    assert measures.negativity(rho) <= measures.concurrence(rho) + 1e-10


def test_negativity_three_level():
    rho = statezoo.generalized_max_entangled(3).density()
    assert measures.negativity(rho) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 6))
def test_negativity_of_a_mixture_of_product_states_is_plain_zero(seed, n, terms):
    # the partial transpose of a separable state has no eigenvalue below its
    # rounding, so the value is exactly +0.0: no rounding noise, no -0.0
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    m = sum(w * tensor(random_pure(rng, (n,)).density().matrix, random_pure(rng, (n,)).density().matrix)
            for w in weights)
    value = measures.negativity(DensityMatrix((n, n), m))
    assert value == 0.0 and not np.signbit(value)


def test_peres_horodecki_verdicts():
    v = np.zeros(4)
    v[0] = 1.0
    assert measures.peres_horodecki(PureState((2, 2), v).density()) == "separable"
    assert measures.peres_horodecki(statezoo.werner(0.9)) == "entangled"
    assert measures.peres_horodecki(statezoo.werner(0.4)) == "separable"


def test_peres_horodecki_agrees_with_negativity_at_the_werner_boundary():
    # the minors' band scales with the state, so a negativity of 2e-13 already reads
    # entangled; an absolute 1e-12 band on det(rho^T) ~ -3.7e-13 read it separable
    for k in range(1, 13):
        rho = statezoo.werner(0.5 + 10.0 ** -k)
        assert (measures.peres_horodecki(rho) == "entangled") == (measures.negativity(rho) > 0.0)
    for F in (0.5, 0.5 - 1e-12, 0.4):
        assert measures.peres_horodecki(statezoo.werner(F)) == "separable"


def test_peres_horodecki_iff_negativity_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        verdict = measures.peres_horodecki(rho)
        assert (verdict == "entangled") == (measures.negativity(rho) > 1e-9)


# ---------------------------------------------------------------------------
# entanglement of formation
# ---------------------------------------------------------------------------

def test_eof_extremes():
    assert measures.entanglement_of_formation(statezoo.bell(1).density()) == pytest.approx(1.0)
    v = np.zeros(4)
    v[0] = 1.0
    assert measures.entanglement_of_formation(PureState((2, 2), v).density()) == 0.0


def test_eof_werner_against_binary_entropy():
    c = 0.5
    x = (1 + np.sqrt(1 - c * c)) / 2
    oracle = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
    assert measures.entanglement_of_formation(statezoo.werner(0.75)) == pytest.approx(
        oracle, abs=1e-12)


def test_eof_monotone_in_concurrence():
    values = [measures.entanglement_of_formation(statezoo.mjwk(c))
              for c in np.linspace(0.0, 1.0, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropy_pure_state_is_zero():
    rho = statezoo.bell(1).density()
    assert measures.entropy(rho, "von_neumann", 2) == pytest.approx(0.0, abs=1e-10)
    assert measures.entropy(rho, "linear") == pytest.approx(0.0, abs=1e-10)


def test_entropy_maximally_mixed():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    assert measures.entropy(rho, "von_neumann", 4) == pytest.approx(1.0, abs=1e-12)
    assert measures.entropy(rho, "linear") == pytest.approx(1.0, abs=1e-12)


def test_entropy_base_validation():
    with pytest.raises(DomainError):
        measures.entropy(statezoo.werner(0.8), "von_neumann", 1.0)
    for base in (np.inf, np.nan):
        with pytest.raises(DomainError, match=f"got {base}"):
            measures.entropy(statezoo.werner(0.8), "von_neumann", base)
    with pytest.raises(DomainError):
        measures.entropy(statezoo.werner(0.8), "nonsense")


@pytest.mark.parametrize("F", [0.6, 0.75, 0.9])
def test_werner_linear_entropy_fraction_roundtrip(F):
    s_l = measures.entropy(statezoo.werner(F), "linear")
    assert (1 + 3 * np.sqrt(1 - s_l)) / 4 == pytest.approx(F, abs=1e-10)


def test_entropy_of_entanglement_examples():
    assert measures.entropy_of_entanglement(statezoo.bell(3)) == pytest.approx(1.0, abs=1e-10)
    v = np.zeros(4)
    v[0] = 1.0
    assert measures.entropy_of_entanglement(PureState((2, 2), v)) == pytest.approx(0.0, abs=1e-10)


def test_entropy_of_entanglement_schmidt_route():
    v = np.zeros(4)
    v[0] = np.sqrt(0.9)
    v[3] = np.sqrt(0.1)
    psi = PureState((2, 2), v)
    marginal_route = measures.entropy_of_entanglement(psi)
    schmidt_route = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)
    assert marginal_route == pytest.approx(schmidt_route, abs=1e-12)


def test_entropy_of_entanglement_rejects_mixed_input():
    with pytest.raises(DomainError):
        measures.entropy_of_entanglement(statezoo.werner(0.8))


# ---------------------------------------------------------------------------
# singlet fraction
# ---------------------------------------------------------------------------

def test_singlet_fraction_trivial_cases():
    assert measures.bell_enumeration(statezoo.bell(3).density()) == pytest.approx(1.0)
    rho9 = DensityMatrix((3, 3), np.eye(9) / 9)
    assert measures.bell_enumeration(rho9) == pytest.approx(1 / 9, abs=1e-12)
    rho4 = DensityMatrix((2, 2), np.eye(4) / 4)
    assert measures.singlet_fraction(rho4) == pytest.approx(0.25, abs=1e-9)


def test_singlet_fraction_werner_is_its_parameter():
    assert measures.singlet_fraction(statezoo.werner(0.8)) == pytest.approx(
        0.8, abs=1e-9)


def test_singlet_fraction_mjwk_closed_form():
    for c in (0.3, 0.7):
        expected = statezoo.mjwk_h(c) + c / 2
        assert measures.singlet_fraction(statezoo.mjwk(c)) == pytest.approx(
            expected, abs=1e-9)


def test_singlet_fraction_never_below_bell_basis_enumeration():
    rng = np.random.default_rng(11)
    for i in range(5):
        rho = random_density(rng, (2, 2))
        enum = measures.bell_enumeration(rho)
        assert measures.singlet_fraction(rho) >= enum - 1e-12


def test_a_locally_rotated_bell_state_has_fef_1_and_enumeration_one_half():
    # (I x H)|Phi+> = (|00> + |01> + |10> - |11>)/2 is maximally entangled,
    # and overlaps Phi- and Psi+ with amplitude 1/sqrt(2), Phi+ and Psi- with 0
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    psi = PureState((2, 2), np.kron(np.eye(2), hadamard) @ statezoo.bell(1).vector)
    assert measures.bell_enumeration(psi.density()) == pytest.approx(0.5, abs=1e-15)
    assert measures.singlet_fraction(psi.density()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("restarts", [0, 6, 32])
def test_the_restarts_keyword_changes_no_bit(restarts):
    # kept only for the perfbench calls; it selects nothing
    rng = np.random.default_rng(restarts)
    for n in (2, 3):
        rho = random_density(rng, (n, n), rank=n)
        assert np.float64(measures.singlet_fraction(rho, restarts=restarts)).view(np.int64) == \
            np.float64(measures.singlet_fraction(rho)).view(np.int64)
    grid = np.linspace(0.3, 1.0, 8)
    assert repr(channel.analyze_family("werner", grid, restarts=restarts)) == \
        repr(channel.analyze_family("werner", grid))


def haar_starts(rng, n: int, count: int) -> np.ndarray:
    """vec W, as (n^2, 1) columns, of the n^2 generalised Bell unitaries and
    `count` Haar unitaries drawn from rng: more starts than singlet_fraction
    takes, an oracle for its value from the Bell starts alone."""
    haar = [random_unitary(rng, n).reshape(1, n * n, 1) for _ in range(count)]
    return np.concatenate([measures._polar_starts(n), *haar])


def test_singlet_fraction_ascent_agrees_with_algebraic_oracle():
    # three routes to the two-qubit FEF: the polar ascent from the Bell and
    # 12 Haar starts, the T-matrix closed form and the magic-basis eigenvalue
    # singlet_fraction returns
    rng = np.random.default_rng(13)
    for _ in range(5):
        for rank in range(1, 5):
            rho = random_density(rng, (2, 2), rank=rank)
            ascent = measures._polar_ascent(rho.matrix, haar_starts(rng, 2, 12))[0]
            closed = fef_closed_form(rho)
            value = measures.singlet_fraction(rho)
            assert ascent == pytest.approx(closed, abs=1e-12)
            assert value == pytest.approx(closed, abs=1e-12)
            assert value == pytest.approx(ascent, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
def test_two_qubit_singlet_fraction_is_bounded_and_reads_no_seed(seed, rank):
    # a two-qubit state of every rank: the FEF lies at or above the
    # enumeration and below the free bounds, and no seed can be passed
    rho = random_density(np.random.default_rng(seed), (2, 2), rank=rank)
    value = measures.singlet_fraction(rho)
    assert value >= measures.bell_enumeration(rho)
    pt_norm = np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho, 1))))
    assert value <= min(rho.spectrum[-1], pt_norm / 2.0) + 1e-12
    assert "seed" not in inspect.signature(measures.singlet_fraction).parameters
    with pytest.raises(TypeError):
        measures.singlet_fraction(rho, seed=seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([3, 4, 5, 6]))
@example(1, 7)
@example(2, 7)
@example(1, 8)
@example(2, 8)
@example(1, 9)   # about 0.1 s a state at n = 9
@example(2, 9)
def test_the_singlet_fraction_lies_between_the_enumeration_and_the_free_bounds(seed, n):
    # the test above at n = 3 to 9, a state of every rank, few of them at
    # n >= 7: the enumeration <= F <= min(lambda_max, ||rho^T||_1 / n)
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
    value = measures.singlet_fraction(rho)
    assert value >= measures.bell_enumeration(rho)
    pt_norm = np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho, 1))))
    assert value <= min(rho.spectrum[-1], pt_norm / n) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 4, 5]),
       st.sampled_from(["random", "isotropic", "bell"]))
@example(1, 3, "distilled")
def test_the_singlet_fraction_is_the_larger_of_the_enumeration_and_the_ascent(seed, n, kind):
    # the enumeration is the largest overlap at the ascent's starts (at n = 2
    # the largest diagonal entry of Re(M^dag rho M)), bit for bit, and
    # singlet_fraction the larger of it and the ascent's value (that
    # matrix's top eigenvalue at n = 2) capped at 1, bit for bit, on states
    # of every rank and on Bell-diagonal ones (isotropic, generalised-Bell
    # mixtures, the distilled d = 1/2 pair), where the enumeration is F and
    # the ascent does not rise above a start
    rng = np.random.default_rng(seed)
    if kind == "random":
        rho = random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
    elif kind == "isotropic":
        p = rng.uniform()
        phi_plus = statezoo.generalized_max_entangled(n).density().matrix
        rho = DensityMatrix((n, n), p * phi_plus + (1.0 - p) * np.eye(n * n) / n ** 2)
    elif kind == "bell":
        rho = bell_mixture(rng, n)
    else:
        rho = QUTRIT_PAIRS["distilled-d=0.5"]
    value = measures.singlet_fraction(rho)
    enumeration = measures.bell_enumeration(rho)
    if n == 2:
        magic = measures._MAGIC
        r = (magic.conj().T @ rho.matrix[None] @ magic).real
        found, start = np.linalg.eigvalsh(r)[0, -1], np.diagonal(r, axis1=1, axis2=2).max()
    else:
        found, *_, start = measures._polar_ascent(rho.matrix, measures._polar_starts(n))
    assert np.float64(enumeration).view(np.int64) == np.float64(start).view(np.int64)
    # the definition, max <v|rho|v> over the basis, as a reference: each
    # evaluation sums n nonzero products twice, so they differ by < 8 n^2 eps
    reference = max((v.conj() @ rho.matrix @ v).real for v in measures.maximally_entangled_bases(n))
    assert abs(enumeration - reference) <= 8 * n * n * np.finfo(float).eps
    assert value >= min(enumeration, 1.0)
    larger = min(max(enumeration, found), 1.0)
    assert np.float64(value).view(np.int64) == np.float64(larger).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(0)
def test_the_two_qubit_fef_is_at_most_1_and_never_below_a_bell_overlap(seed):
    # a two-qubit state of each rank 1-4, alone and in one stack: F <= 1,
    # and F is not below <v|rho|v> for any Bell state v of the definition
    # (computed as a plain loop) by more than the 8 n^2 eps of rounding
    rng = np.random.default_rng(seed)
    states = [random_density(rng, (2, 2), rank=rank) for rank in (1, 2, 3, 4)]
    stacked = measures._two_qubit_fractions(np.array([rho.matrix for rho in states]))[0]
    for rho, in_stack in zip(states, stacked):
        overlaps = [(v.conj() @ rho.matrix @ v).real for v in measures.maximally_entangled_bases(2)]
        for value in (measures.singlet_fraction(rho), in_stack):
            assert value <= 1.0
            assert value >= max(overlaps) - 8 * 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", range(2, 10))
def test_the_singlet_fraction_of_phi_plus_is_1_and_never_above(n):
    # rounding lifts the overlap of |Phi+> to 1 + 2.2e-16 at n = 3, 6 and 9
    value = measures.singlet_fraction(statezoo.generalized_max_entangled(n).density())
    assert 1.0 - 4 * np.finfo(float).eps <= value <= 1.0


@pytest.mark.parametrize("n", range(3, 8))
def test_the_fef_of_a_product_basis_diagonal_state_is_bracketed_without_error(n):
    # rho = sum p_ij |ij><ij| has overlap sum_ij p_ij |W_ji|^2 / n with
    # (I x W)|Phi+>, largest at a permutation W (Birkhoff): F is the best
    # assignment max_s sum_i p_{i,s(i)} / n.  Every Bell start is a stationary
    # point of the ascent there, with a singular Hessian.  Three such states,
    # dense, sparse and pure: no solve fails, the value stays at or below F
    # and the certified upper end at or above it
    rng = np.random.default_rng(n)
    sparse = rng.dirichlet(np.ones(n * n)) * (rng.uniform(size=n * n) < 0.5)
    weights = np.array([rng.dirichlet(np.ones(n * n)), sparse / sparse.sum(), np.eye(n * n)[0]])
    for p in weights:
        rho = DensityMatrix((n, n), np.diag(p))
        low, up = measures.fef_bounds(rho)
        exact = max(p.reshape(n, n)[np.arange(n), list(s)].sum()
                    for s in itertools.permutations(range(n))) / n
        assert measures.singlet_fraction(rho) == low <= exact + 1e-12
        assert up >= exact - 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_maximally_entangled_bases_are_built_once_and_read_only(n):
    bases = measures.maximally_entangled_bases(n)
    assert measures.maximally_entangled_bases(n) is bases
    assert isinstance(bases, tuple) and len(bases) == n * n
    gram = np.array(bases).conj() @ np.array(bases).T
    assert np.max(np.abs(gram - np.eye(n * n))) <= 1e-12
    for v in bases:
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 4]))
def test_polar_step_never_lowers_any_row_overlap(seed, n):
    # a stack of states, each broadcast over its starts, ascended several
    # steps from Haar unitaries; the overlap of every row rises.  It is read
    # as the Rayleigh quotient <w|rho|w>/<w|w> in extended precision, so that
    # only the step's own rounding shows, not the reading's
    rng = np.random.default_rng(seed)
    rows = np.array([random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1))).matrix
                     for _ in range(3)])[:, None]
    w = np.array([random_unitary(rng, n).reshape(-1, 1) for _ in range(4)])

    def overlaps(w):
        w = w.astype(np.clongdouble)
        return (np.einsum("...ai,...ab,...bi->...", w.conj(), rows.astype(np.clongdouble), w).real
                / np.einsum("...ai,...ai->...", w.conj(), w).real)

    before = overlaps(w)
    for _ in range(8):
        w = measures._polar_step(rows @ w)
        after = overlaps(w)
        assert w.shape == (3, 4, n * n, 1)
        unitaries = w.reshape(3, 4, n, n)
        assert np.allclose(unitaries.conj().swapaxes(-1, -2) @ unitaries, np.eye(n),
                           rtol=0.0, atol=1e-13)
        assert np.all(after >= before - 1e-15)
        before = after


def test_singlet_fraction_requires_square_bipartite():
    rho = random_density(np.random.default_rng(0), (2, 3))
    text = r"^singlet fraction needs an n x n bipartite state, got \(2, 3\)$"
    with pytest.raises(DomainError, match=text):
        measures.singlet_fraction(rho)
    with pytest.raises(DomainError, match=text):
        measures.fef_bounds(rho)
    with pytest.raises(DomainError, match=r"^Bell enumeration needs an n x n bipartite state, "
                                         r"got \(2, 3\)$"):
        measures.bell_enumeration(rho)


# ---------------------------------------------------------------------------
# witness expectation
# ---------------------------------------------------------------------------

def test_witness_expectation_examples():
    from entkit.protocols import W_A1

    psi_plus = statezoo.bell(1).density()
    assert np.trace(W_A1 @ psi_plus.matrix).real == pytest.approx(
        -1.0 / np.sqrt(3.0), abs=1e-12)
    mixed = DensityMatrix((2, 2), np.eye(4) / 4)
    assert np.trace(W_A1 @ mixed.matrix).real == pytest.approx(
        np.trace(W_A1).real / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# ordering property (small sample; the full 1000-state suite runs in acceptance)
# ---------------------------------------------------------------------------

def test_negativity_never_exceeds_concurrence_random():
    rng = np.random.default_rng(29)
    for _ in range(300):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        neg = measures.negativity(rho)
        con = measures.concurrence(rho)
        assert -1e-10 <= neg <= con + 1e-9 <= 1.0 + 1e-9


def test_scipy_is_never_imported():
    src = str(pathlib.Path(measures.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, entkit.cli; from entkit import channel, measures, statezoo\n"
            "rho = statezoo.werner(0.8)\n"
            "measures.bell_enumeration(rho)\n"
            "measures.singlet_fraction(rho)\n"
            "channel.analyze_family('werner', [0.6, 0.9])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.split() == ["[]"]


# ---------------------------------------------------------------------------
# invariants, one property test each
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# name -> the qutrit clone pair or its distilled pair at d = 1/sqrt(8), 0.45 and 1/2
QUTRIT_PAIRS = {name: rho for name, rho in make_fef_values.floor_states().items()
                if not name.startswith("ginibre")}


def drawn_states(seed: int, count: int) -> list:
    """The first `count` states drawn from rng = default_rng(seed) as
    random_density(rng, (3, 3), rank=int(rng.integers(1, 10)))."""
    rng = np.random.default_rng(seed)
    return [random_density(rng, (3, 3), rank=int(rng.integers(1, 10))) for _ in range(count)]


# two rank-6 states, the second draw of seed 89, whose ascent converges
# slowly, and the 118th of seed 7, where fef_bounds stays open; and the sixth
# draw of seed 10 (full rank), the last of tests/fixtures/ascent_budget.py's
# states to reach its value before the ascent took Newton steps (at step 30;
# since then at step 15, and seed-59 draw 5 and seed-101 draw 8 last, at 18)
SLOW_STATES = {"seed-89 draw 2": drawn_states(89, 2)[-1],
               "seed-7 draw 118": drawn_states(7, 118)[-1],
               "seed-10 draw 6": drawn_states(10, 6)[-1]}


# n of the local-unitary draws: mostly two qubits, few at n = 4, where a
# fef_bounds call takes about 30 ms
LOCAL_UNITARY_SIZES = [2, 2, 2, 3, 3, 4]


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from(LOCAL_UNITARY_SIZES))
@example(0, 5)
@example(0, 6)
@example(0, 7)
@example(0, 8)
@example(0, 9)
def test_measures_are_invariant_under_local_unitaries(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
    u = tensor(random_unitary(rng, n), random_unitary(rng, n))
    rotated = DensityMatrix((n, n), u @ rho.matrix @ u.conj().T)
    invariants = [measures.negativity, lambda r: measures.entropy(r, "von_neumann"),
                  lambda r: measures.entropy(r, "linear")]
    if n == 2:
        invariants += [measures.concurrence, measures.singlet_fraction]
    for measure in invariants:
        assert measure(rotated) == pytest.approx(measure(rho), abs=1e-12)
    if n > 2:
        # both brackets hold the one F of the two states, so they meet
        (lower, upper), (lower_r, upper_r) = measures.fef_bounds(rho), measures.fef_bounds(rotated)
        assert max(lower, lower_r) <= min(upper, upper_r)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_linear_entropy_lies_in_the_unit_interval(seed, dims):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, int(np.prod(dims)) + 1))
    assert 0.0 <= measures.entropy(random_density(rng, dims, rank=rank), "linear") <= 1.0


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([(2, 2), (3, 3)]))
def test_entropies_of_pure_states_are_exactly_zero(seed, dims):
    rho = random_pure(np.random.default_rng(seed), dims).density()
    assert measures.entropy(rho, "von_neumann") == 0.0
    assert measures.entropy(rho, "linear") == 0.0


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_concurrence_equals_the_x_form_closed_form(seed):
    rng = np.random.default_rng(seed)
    a, b, d, e = rng.dirichlet(np.ones(4))
    c = np.sqrt(b * d) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    closed = concurrence_x_form(a, b, c, d, e)
    assert measures.concurrence(x_form_matrix(a, b, c, d, e)) == pytest.approx(
        closed, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_eof_is_monotone_in_the_concurrence(seed):
    rng = np.random.default_rng(seed)
    states = [random_pure(rng, (2, 2)).density()] + [
        random_density(rng, (2, 2), rank=r) for r in (2, 2, 3)]
    pairs = sorted((measures.concurrence(r), measures.entanglement_of_formation(r))
                   for r in states)
    assert all(e1 <= e2 for (_, e1), (_, e2) in zip(pairs, pairs[1:]))


@settings(max_examples=15, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]))
def test_refining_a_stack_gives_each_state_its_bits_alone(seed, n):
    # two states of random rank and, at n = 3, the d = 1/2 clone pair, a
    # full-rank state and a generalised-Bell mixture; each state at least
    # once, in random order with repeats.  singlet_fraction (at n = 2 one
    # stack of them) and the ascent from the Bell and 1 to 8 Haar starts,
    # run on the states in that order, give each the bits of its run in the
    # states' own order
    rng = np.random.default_rng(seed)
    states = [random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
              for _ in range(2)]
    if n == 3:
        states += [QUTRIT_PAIRS["clone-d=0.5"], random_density(rng, (3, 3)), bell_mixture(rng, 3)]
    order = rng.permutation(np.r_[np.arange(len(states)), rng.integers(0, len(states), 2)])
    stack = np.array([states[i].matrix for i in order])
    alone = [measures.singlet_fraction(rho) for rho in states]
    if n == 2:
        got = measures._two_qubit_fractions(stack)[0]
    else:
        got = [measures.singlet_fraction(states[i]) for i in order]
    assert np.array(got).view(np.int64).tolist() == [
        np.float64(alone[i]).view(np.int64) for i in order]
    starts = haar_starts(rng, n, int(rng.integers(1, 9)))
    alone = [np.float64(measures._polar_ascent(rho.matrix, starts)[0]) for rho in states]
    got = [np.float64(measures._polar_ascent(matrix, starts)[0]) for matrix in stack]
    assert np.array(got).view(np.int64).tolist() == [alone[i].view(np.int64) for i in order]


@settings(max_examples=10, deadline=None)
@given(SEEDS, st.sampled_from([*range(1, 10), *QUTRIT_PAIRS]))
@example(1, "clone-d=sqrt(1/8)")
@example(1, "clone-d=0.45")
@example(1, "clone-d=0.5")
@example(1, "distilled-d=sqrt(1/8)")
@example(1, "distilled-d=0.45")
@example(1, "distilled-d=0.5")
@example(108, 6)       # converges slowly: 300 plain steps fall 2e-8 short, 500 fall 8e-10
@example(89, "seed-89 draw 2")
@example(7, "seed-7 draw 118")
@example(10, "seed-10 draw 6")
@example(1, (4, 8))    # (n, rank): closes at step 12
@example(4, (4, 16))   # at n = 4 and 5 most random states stop on a stall, here at step 24
@example(1, (5, 25))   # and at step 36
def test_the_step_budget_reaches_the_value_of_a_longer_ascent(seed, state):
    # a random 3x3 state of rank `state`, an n x n one of (n, rank), or the
    # named qutrit pair or slow state; the Bell and 6 Haar starts, each run
    # for 1,000 plain polar steps, reach no higher than the ascent's
    # _POLAR_STEPS from the Bell starts with Newton steps, beyond rounding,
    # whether it stops on a stall, its certificate or the budget; and a state
    # that stops on its certificate has a bracket closed to rounding
    named = {**QUTRIT_PAIRS, **SLOW_STATES}
    rng = np.random.default_rng(seed)
    if isinstance(state, tuple):
        rho = random_density(rng, (state[0], state[0]), rank=state[1])
    else:
        rho = named[state] if state in named else random_density(rng, (3, 3), rank=state)
    n = rho.dims[0]
    w = haar_starts(rng, n, 6)
    for _ in range(1000):
        w = measures._polar_step(rho.matrix @ w)
    longer = measures._overlaps(w, rho.matrix @ w, n).max()
    value, (_, _, top, margin) = measures._singlet_fraction(rho.matrix, n)
    assert value >= longer - 1e-12
    if top <= margin:
        lower, upper = measures.fef_bounds(rho)
        assert upper - lower <= 1e-12


def test_each_state_runs_polar_steps_until_its_certificate_closes(monkeypatch):
    # the clone pair and a rank-1 state close at the leader's step, 1 svd of
    # their best start alone.  The open rank-6 state then steps from all 9
    # starts and stops on a stall (a rise of at most n^2 eps times its
    # overlap) at the check after step 15: 15 steps of its 9 rows and a
    # Newton trial on its best row after every 3rd, whose retraction is one
    # svd, 21 svd calls in all.  The perfbench seed-1 and seed-4
    # fef3:ginibre-full states, whose Z = 0 certificate stays open too,
    # stall after step 12: 17 svd calls each, 4 of them Newton trials.  Each
    # step's svd is stacked over the 9 starts, and the leader's step and each
    # Newton trial take one svd of one row
    stacked, trials = [], []   # the rows of each stacked svd and Newton trial
    step, newton = measures._polar_step, measures._newton_step

    def counted(g):
        stacked.append(g.shape[:-2])
        return step(g)

    def counted_trial(rho, w, g):
        trials.append(w.shape[:-2])
        return newton(rho, w, g)

    monkeypatch.setattr(measures, "_polar_step", counted)
    monkeypatch.setattr(measures, "_newton_step", counted_trial)
    states = (QUTRIT_PAIRS["clone-d=0.5"], random_density(np.random.default_rng(5), (3, 3), rank=1),
              SLOW_STATES["seed-7 draw 118"], make_fef_values.workload_states(1)["fef3:ginibre-full"],
              make_fef_values.workload_states(4)["fef3:ginibre-full"])
    shapes = []
    for rho in states:
        stacked.clear()
        trials.clear()
        measures.singlet_fraction(rho)
        shapes.append((list(stacked), list(trials)))
    assert [(len(svds), len(newton)) for svds, newton in shapes] == [
        (1, 0), (1, 0), (21, 5), (17, 4), (17, 4)]
    assert shapes[:3] == [([()], []), ([()], []), ([()] + ([(9,)] * 3 + [()]) * 5, [()] * 5)]


@pytest.mark.parametrize("seed,rank", [(1, 4), (0, 8)])
def test_the_singlet_fraction_is_at_least_every_check_of_the_ascent(monkeypatch, seed, rank):
    # rounding reads a later check of these two states an ulp below an
    # earlier one; the value is the highest check, not the last
    rho = random_density(np.random.default_rng(seed), (3, 3), rank=rank)
    checks, certificate = [], measures._certificate

    def recorded(rho, w, g, open_skew, stop):
        checks.append(measures._overlaps(w, g, 3))
        return certificate(rho, w, g, open_skew, stop)

    monkeypatch.setattr(measures, "_certificate", recorded)
    value = measures.singlet_fraction(rho)
    assert len(checks) > 1
    assert value >= max(checks)


def test_the_ascent_budget_script_judges_three_states():
    # tests/fixtures/ascent_budget.py's judging code, against a 300-step
    # reference in place of its 3,000: the clone pair closes at the leader's
    # step, the two slow states stall within TOL of the reference
    from fixtures import ascent_budget

    named = {**QUTRIT_PAIRS, **SLOW_STATES}
    names = ["clone-d=0.5", "seed-10 draw 6", "seed-7 draw 118"]
    matrices = np.array([named[name].matrix for name in names])
    lines, status = ascent_budget.judge(names, matrices, ascent_budget.plain_ascent(matrices, 300))
    assert lines == [
        "clone-d=0.5: 1", "seed-10 draw 6: 10", "seed-7 draw 118: 11",
        "3 states; 1 closed at the leader's step; median step 10; slowest seed-7 draw 118 at "
        "step 11; budget 60 steps; "
        "margin 5.45 (at least 2 needed); 0 certified more than TOL below the reference; "
        "2 stalled, 0 of them more than TOL below it"]
    assert status == 0


def test_half_the_step_budget_reaches_the_full_budget_value(monkeypatch):
    # the budget keeps a margin of 2 on the slow states and the qutrit pairs
    named = {**SLOW_STATES, **QUTRIT_PAIRS}
    full = {name: measures.singlet_fraction(rho) for name, rho in named.items()}
    monkeypatch.setattr(measures, "_POLAR_STEPS", measures._POLAR_STEPS // 2)
    half = {name: measures.singlet_fraction(rho) for name, rho in named.items()}
    assert {name: half[name] - full[name] for name in named
            if abs(half[name] - full[name]) > 1e-15} == {}


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]))
def test_fef_bounds_hold_every_maximally_entangled_overlap(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
    lower, upper = measures.fef_bounds(rho)
    assert lower == measures.singlet_fraction(rho)
    # exact at n = 2; at n >= 3 the rounding margin keeps the bracket open
    assert upper > lower if n > 2 else upper == lower
    for v in measures.maximally_entangled_bases(n):
        assert (v.conj() @ rho.matrix @ v).real <= upper
    phi_plus = np.eye(n).reshape(n * n) / np.sqrt(n)
    for _ in range(20):
        psi = np.kron(np.eye(n), random_unitary(rng, n)) @ phi_plus
        assert (psi.conj() @ rho.matrix @ psi).real <= upper


@settings(max_examples=8, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 4]))
@example(5, 5)
@example(6, 6)
@example(7, 7)
@example(8, 8)
@example(9, 9)
def test_fef_bounds_meet_the_schmidt_value_and_the_free_bounds(seed, n):
    rng = np.random.default_rng(seed)
    # a pure state's FEF is (sum of its Schmidt coefficients)^2 / n, and that
    # of p |Phi+><Phi+| + (1 - p) I / n^2 is p + (1 - p) / n^2; both close at
    # the first certificate, in 2-20 ms at n = 5..9
    psi = random_pure(rng, (n, n))
    schmidt = np.linalg.svd(psi.vector.reshape(n, n), compute_uv=False)
    for end in measures.fef_bounds(psi.density()):
        assert abs(end - schmidt.sum() ** 2 / n) <= 1e-12
    p = rng.uniform()
    phi_plus = statezoo.generalized_max_entangled(n).density().matrix
    isotropic = DensityMatrix((n, n), p * phi_plus + (1.0 - p) * np.eye(n * n) / n ** 2)
    for end in measures.fef_bounds(isotropic):
        assert abs(end - (p + (1.0 - p) / n ** 2)) <= 1e-12
    if n > 4:
        return   # the ascent on a random state runs its budget there, 0.3 s at n = 9
    # Tr(rho sigma) <= ||rho^T||_1 ||sigma^T||_inf = ||rho^T||_1 / n for a
    # maximally entangled sigma, so a PPT state is never certified useful;
    # 1e-12 is the rounding margin, and the bound is tight on rank 1
    rho = random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
    lower, _ = measures.fef_bounds(rho)
    assert lower <= rho.spectrum[-1] + 1e-12
    assert lower <= (1.0 + (n - 1) * measures.negativity(rho)) / n + 1e-12


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=4))
def test_negativity_never_exceeds_the_concurrence(seed, rank):
    # Verstraete, Audenaert, Dehaene & De Moor, J. Phys. A 34, 10327 (2001)
    rho = random_density(np.random.default_rng(seed), (2, 2), rank=rank)
    assert measures.negativity(rho) <= measures.concurrence(rho) + 1e-12


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 4]))
@example(0, 5)   # seed 0 gives F > 1/n at each n = 5..9
@example(0, 6)
@example(0, 7)
@example(0, 8)
@example(0, 9)
def test_a_fef_above_1_over_n_violates_the_reduction_criterion(seed, n):
    # <psi|rho_A x I - rho|psi> = 1/n - F at the maximally entangled psi
    # reaching F, so F > 1/n makes rho_A x I - rho indefinite (M. Horodecki &
    # P. Horodecki, PRA 59, 4206 (1999)).  A random state mixed with |Phi+>
    # at a uniform weight w has F >= w, so F > 1/n on at least half the draws
    from entkit import cloning

    rng = np.random.default_rng(seed)
    sigma = random_density(rng, (n, n), rank=int(rng.integers(1, n * n + 1)))
    w = rng.uniform()
    phi_plus = statezoo.generalized_max_entangled(n).density().matrix
    rho = DensityMatrix((n, n), (1.0 - w) * sigma.matrix + w * phi_plus)
    if measures.singlet_fraction(rho) > 1.0 / n + 1e-12:
        assert cloning.reduction_check(rho).violated


# name -> width of each state below whose fef_bounds bracket stays open
OPEN_STATES = {"seed-7 draw 118": 8.9e-4}


def bracket_width(rho: DensityMatrix) -> float:
    lower, upper = measures.fef_bounds(rho)
    return upper - lower


def test_fef_bounds_close_to_rounding_on_all_but_the_listed_states():
    # the eight floor states, the perfbench fef3 Ginibre states of seeds
    # 1-10 and the first 120 states drawn from seed 7
    states = dict(make_fef_values.floor_states())
    for seed in range(1, 11):
        states.update((f"seed-{seed} {name}", rho)
                      for name, rho in make_fef_values.workload_states(seed).items()
                      if name.startswith("fef3:ginibre"))
    states.update((f"seed-7 draw {k}", rho) for k, rho in enumerate(drawn_states(7, 120), 1))
    widths = {name: bracket_width(rho) for name, rho in states.items()}
    assert {name for name, width in widths.items() if width > 1e-12} == set(OPEN_STATES)
    for name, width in OPEN_STATES.items():
        assert widths[name] == pytest.approx(width, rel=0.1)


def test_fef_bounds_close_to_rounding_on_every_slow_state_not_listed_open():
    # seed-10 draw 6 leaves the ascent open and its descent closes only
    # between steps 160 and 180 of _DUAL_STEPS = 200
    names = [name for name in SLOW_STATES if name not in OPEN_STATES]
    assert {name: bracket_width(SLOW_STATES[name]) for name in names} == {
        name: pytest.approx(0.0, abs=1e-12) for name in names}


def test_fef_bounds_stay_open_on_a_rank_6_state():
    rho = SLOW_STATES["seed-7 draw 118"]
    lower, upper = measures.fef_bounds(rho)
    assert lower == measures.singlet_fraction(rho)
    assert upper - lower > 1e-4
