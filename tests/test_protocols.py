"""Protocol tests: collective unitaries, CDC runs, secret sharing, Monte Carlo."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import cloning, protocols, statezoo
from entkit.qcore import DomainError
from util import (assert_columns_match_points, extraction_unitaries, is_unitary,
                  qutrit_projected_states, w4_branch_amplitudes)


# ---------------------------------------------------------------------------
# measurement bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", np.linspace(0.0, np.pi / 2, 9))
def test_controller_bases_orthonormal(theta):
    protocols.controller_basis(theta)          # raises if not orthonormal
    protocols.qutrit_controller_basis(theta)


def test_measurement_basis_is_a_read_only_array():
    basis = protocols.qutrit_controller_basis(1.1)
    assert basis.vectors.shape == (3, 3) and not basis.vectors.flags.writeable
    with pytest.raises(DomainError, match="not orthonormal"):
        protocols.MeasurementBasis([[1.0, 0.0], [1.0, 1e-6]], ("+", "-"))


def _outcome_probabilities(psi, subsystem, basis) -> list:
    """Born probability of each basis vector on one subsystem of psi."""
    rests = protocols._project(psi.vector[None], psi.dims, subsystem, basis.vectors)
    return [np.vdot(rest, rest).real for rest in rests]


def test_controller_outcome_probabilities_sum_to_one():
    for psi in (statezoo.ghz3(), statezoo.pati(2.5), statezoo.w3_prototype()):
        probs = _outcome_probabilities(psi, 2, protocols.controller_basis(0.6))
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    basis = protocols.qutrit_controller_basis(1.1)
    probs = _outcome_probabilities(statezoo.qutrit_ghz3(), 2, basis)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    probs = _outcome_probabilities(statezoo.ghz4(), 3, protocols.controller_basis(0.5))
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# collective unitaries
# ---------------------------------------------------------------------------

def test_unitaries_on_their_angle_domains():
    # every extraction unitary the pipeline applies, on a grid inside each
    # family's domain: U1 (X-conjugated where the sender's |1> dominates), U2,
    # V1 and its mirror for the qutrit 'down' branch
    families = set()
    for family, kwargs, outcome, unitary in extraction_unitaries():
        assert is_unitary(unitary, 1e-12), (family, kwargs, outcome)
        families.add(family)
    assert families == set(protocols._FAMILIES) - {"liqiu_w"}   # liqiu_w hands over


def test_u1_degenerate_maximal_angle():
    u = protocols._u1(np.pi / 4)
    assert u[0, 0] == pytest.approx(1.0, abs=1e-12)    # sin/cos = 1
    assert abs(u[0, 2]) <= 1e-6                        # radical vanishes


def test_u2_domain_seam():
    u = protocols._u2(np.pi / 4, np.pi / 4)
    assert u[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_v1_published_entries():
    theta = np.pi / 3
    v = protocols._v1(theta)
    assert v[0, 0] == pytest.approx(np.cos(theta) / np.sin(theta), abs=1e-12)
    assert v[0, 8] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)


def test_unitary_domain_errors_name_the_radical():
    with pytest.raises(DomainError, match="sin\\^2/cos\\^2"):
        protocols._u1(1.2)
    with pytest.raises(DomainError, match="cos\\^2/sin\\^2"):
        protocols._v1(0.3)
    with pytest.raises(DomainError, match="sin t sin e"):
        protocols._u2(0.8, 0.8)


# ---------------------------------------------------------------------------
# GHZ / GHZ-class / pati runs
# ---------------------------------------------------------------------------

def test_ghz_run_at_quarter_pi():
    r = protocols.cdc_run("ghz", theta=np.pi / 4)
    assert r.success_probability == pytest.approx(1.0, abs=1e-12)
    assert r.bits_transmitted_avg == pytest.approx(2.0, abs=1e-12)
    assert r.maximally_entangled
    assert_allclose(np.abs(r.shared_state.vector), statezoo.bell(1).vector.real, atol=1e-12)


def test_ghz_bits_closed_form():
    for theta in np.linspace(0.05, np.pi / 4, 9):
        r = protocols.cdc_run("ghz", theta=theta)
        assert r.bits_transmitted_avg == pytest.approx(
            1.0 + 2.0 * np.sin(theta) ** 2, abs=1e-12)
        assert protocols.cdc_closed_forms("ghz", theta=theta)["success"] == pytest.approx(
            2 * np.sin(theta) ** 2, abs=1e-12)


def test_ghz_both_outcomes_extract_bell_states():
    for outcome in ("+", "-"):
        r = protocols.cdc_run("ghz", theta=0.4, controller_outcome=outcome)
        assert protocols._schmidt_concurrence(r.shared_state.vector, 2) == pytest.approx(
            1.0, abs=1e-10)


def test_ghz_failure_branch_is_product():
    r = protocols.cdc_run("ghz", theta=0.4, aux_outcome=1)
    assert protocols._schmidt_concurrence(r.shared_state.vector, 2) <= 1e-12


@pytest.mark.parametrize("idx", range(1, 8))
def test_ghz_class_bits_reproduce_both_curves(idx):
    sin_family = idx in (1, 4, 6)
    thetas = np.linspace(0.05, np.pi / 4, 7) if sin_family else \
        np.linspace(np.pi / 4, np.pi / 2 - 0.05, 7)
    for theta in thetas:
        r = protocols.cdc_run("ghz_class", theta=theta, class_index=idx)
        expected = 1 + 2 * np.sin(theta) ** 2 if sin_family else \
            1 + 2 * np.cos(theta) ** 2
        assert r.bits_transmitted_avg == pytest.approx(expected, abs=1e-12)
        assert protocols._schmidt_concurrence(r.shared_state.vector, 2) == pytest.approx(
            1.0, abs=1e-10)


def test_pati_success_table():
    assert protocols.cdc_closed_forms("pati", l=0.0)["success"] == 0.0
    assert protocols.cdc_closed_forms("pati", l=1.0)["success"] == pytest.approx(1.0)
    r = protocols.cdc_run("pati", l=1.0)
    assert r.theta == pytest.approx(np.pi / 4)
    assert r.success_probability == pytest.approx(1.0)
    r = protocols.cdc_run("pati", l=3.0)
    expected = statezoo.pati(3.0)
    # shared pair keeps the state's own weights
    v = r.shared_state.vector
    assert abs(v[0]) == pytest.approx(1 / np.sqrt(10), abs=1e-10)
    assert abs(v[3]) == pytest.approx(3 / np.sqrt(10), abs=1e-10)
    assert r.shared_concurrence == pytest.approx(2 * 3 / 10, abs=1e-12)
    del expected


def test_pati_concurrence_angle_relation():
    for l in (1.0, 2.0, 5.0):
        forms = protocols.cdc_closed_forms("pati", l=l)
        assert forms["concurrence"] == pytest.approx(
            abs(np.sin(2 * forms["theta"])), abs=1e-12)


# ---------------------------------------------------------------------------
# closed forms over arrays
# ---------------------------------------------------------------------------

ANGLE = st.floats(0.0, np.pi / 2)
# where sin(t)**2 and cos(t)**2 on an array (x * x) and on a scalar (libm pow) differ
SIN2, COS2 = 0.33819703275213564, 0.5015497556299001
# angle rows always evaluated: the ends of the domain, a signed zero, pi/4, SIN2 and COS2
ANGLES = [(0.0,), (-0.0,), (np.pi / 4,), (np.pi / 2,), (SIN2,), (COS2,)]
ANGLE_PAIRS = [(0.0, 0.0), (np.pi / 4, np.pi / 4), (np.pi / 2, np.pi / 4), (np.pi / 2, np.pi / 2),
               (SIN2, COS2), (COS2, SIN2)]

# name -> (closed forms of the argument columns, one strategy per argument,
# the rows always evaluated)
CDC_CLOSED_FORMS = {
    "ghz": (lambda t: protocols.cdc_closed_forms("ghz", theta=t), [ANGLE], ANGLES),
    "ghz_class_sin": (lambda t: protocols.cdc_closed_forms("ghz_class", theta=t, class_index=1),
                      [ANGLE], ANGLES),
    "ghz_class_cos": (lambda t: protocols.cdc_closed_forms("ghz_class", theta=t, class_index=2),
                      [ANGLE], ANGLES),
    "pati": (lambda l: protocols.cdc_closed_forms("pati", l=l), [st.floats(0.0, 5.0)],
             [(0.0,), (1.0,), (np.nextafter(1.0, 2.0),), (5.0,)]),
    "ghz4": (lambda t, e: protocols.cdc_closed_forms("ghz4", theta=t, epsilon=e),
             [ANGLE, ANGLE], ANGLE_PAIRS),
    "w3": (lambda t: protocols.cdc_closed_forms("w3", theta=t), [ANGLE], ANGLES),
    "w4": (lambda t, e: protocols.cdc_closed_forms("w4", theta=t, epsilon=e),
           [ANGLE, ANGLE], ANGLE_PAIRS),
    "liqiu_w": (lambda n: protocols.cdc_closed_forms("liqiu_w", n=n), [st.integers(1, 1000)],
                [(1,), (2,), (1000,)]),
    "qutrit_ghz": (lambda t: protocols.cdc_closed_forms("qutrit_ghz", theta=t), [ANGLE], ANGLES),
}


@pytest.mark.parametrize("family,kwargs,message", [
    ("pati", {"l": np.array([0.5, -1e-3])}, "pati needs l >= 0"),
    ("liqiu_w", {"n": np.array([2, 0])}, "liqiu_w needs n >= 1"),
])
def test_cdc_closed_form_domain_checks_cover_every_element(family, kwargs, message):
    with pytest.raises(DomainError, match=message):
        protocols.cdc_closed_forms(family, **kwargs)


def test_cdc_closed_form_cases_cover_every_family():
    assert {name.removesuffix("_sin").removesuffix("_cos") for name in CDC_CLOSED_FORMS} \
        == set(protocols._FAMILIES)


@pytest.mark.parametrize("name", sorted(CDC_CLOSED_FORMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cdc_closed_forms_over_arrays_match_them_point_by_point(name, data):
    form, arguments, always = CDC_CLOSED_FORMS[name]
    drawn = data.draw(st.lists(st.tuples(*arguments), max_size=20))
    assert_columns_match_points(form, always + drawn)


# ---------------------------------------------------------------------------
# four-party GHZ and the W families
# ---------------------------------------------------------------------------

def test_ghz4_run_and_convention():
    for theta in np.linspace(0.1, np.pi / 4, 5):
        for eps in np.linspace(0.1, np.pi / 4, 5):
            r = protocols.cdc_run("ghz4", theta=theta, epsilon=eps,
                                  controller_outcome="++")
            # simulated branch: the aux-0 component of mu carries weight
            # sin(t) sin(e) on each of |00> and |11>; the published
            # concurrence is 2 |ad - bc| of that unnormalised vector
            raw = np.zeros(4)
            raw[0] = raw[3] = np.sin(theta) * np.sin(eps)
            assert 2 * abs(raw[0] * raw[3]) == pytest.approx(
                r.shared_concurrence, abs=1e-12)
            assert protocols._schmidt_concurrence(r.shared_state.vector, 2) == pytest.approx(
                1.0, abs=1e-10)


def test_ghz4_published_surface_and_domain_edge():
    # the published surface 2 sin^2(t) sin^2(e) peaks at 1 for t = pi/4,
    # e = pi/2, but there the pre-extraction branch is the product |11> and
    # the collective unitary's radical goes negative: the run refuses
    forms = protocols.cdc_closed_forms("ghz4", theta=np.pi / 4, epsilon=np.pi / 2)
    assert forms["concurrence"] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        protocols.cdc_run("ghz4", theta=np.pi / 4, epsilon=np.pi / 2 - 1e-9,
                          controller_outcome="++")


def test_w3_branch_matches_published_amplitudes():
    for theta in np.linspace(0.1, np.pi / 4, 8):
        r = protocols.cdc_run("w3", theta=theta)
        s, c = np.sin(theta), np.cos(theta)
        printed = np.array([s * s / c, s, c, 0.0])
        printed = printed / np.linalg.norm(printed)
        assert_allclose(r.shared_state.vector.real, printed, atol=1e-12)
        assert r.shared_concurrence == pytest.approx(np.sqrt(2) * s * c, abs=1e-12)
        assert not r.maximally_entangled


def test_w3_concurrence_curve_peaks_below_one():
    thetas = np.linspace(0.0, np.pi / 2, 201)
    curve = [protocols.cdc_closed_forms("w3", theta=t)["concurrence"] for t in thetas]
    assert max(curve) == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
    assert thetas[int(np.argmax(curve))] == pytest.approx(np.pi / 4, abs=0.01)
    assert all(c < 1.0 - 0.29 for c in curve)


def test_w4_convention_identity():
    for theta in np.linspace(np.pi / 4, np.pi / 2 - 0.05, 6):
        for eps in np.linspace(np.pi / 4, np.pi / 2 - 0.05, 6):
            amps = w4_branch_amplitudes(theta, eps)
            raw = 2 * abs(amps[0] * 0.0 - amps[1] * amps[2])
            closed = protocols.cdc_closed_forms("w4", theta=theta, epsilon=eps)["concurrence"]
            assert raw == pytest.approx(closed, abs=1e-12)


def test_w4_surface_maximum_is_half():
    grid = np.linspace(np.pi / 4, np.pi / 2, 41)
    values = [protocols.cdc_closed_forms("w4", theta=t, epsilon=e)["concurrence"]
              for t in grid for e in grid]
    assert max(values) == pytest.approx(0.5, abs=1e-9)
    assert all(v < 1.0 for v in values)


def test_w4_run_executes():
    r = protocols.cdc_run("w4", theta=np.pi / 3, epsilon=np.pi / 3,
                          controller_outcome="++")
    assert not r.maximally_entangled
    assert r.bits_transmitted_avg == 1.0


def test_w_families_never_maximally_entangled_on_grids():
    for theta in np.linspace(0.05, np.pi / 4, 9):
        assert not protocols.cdc_run("w3", theta=theta).maximally_entangled
    for theta in np.linspace(np.pi / 4, np.pi / 2 - 0.05, 5):
        for eps in np.linspace(np.pi / 4, np.pi / 2 - 0.05, 5):
            r = protocols.cdc_run("w4", theta=theta, epsilon=eps,
                                  controller_outcome="++")
            assert not r.maximally_entangled


def test_liqiu_runs():
    r = protocols.cdc_run("liqiu_w", n=1, controller_outcome="0")
    assert r.maximally_entangled
    assert r.shared_concurrence == pytest.approx(1.0)
    r = protocols.cdc_run("liqiu_w", n=4, controller_outcome="0")
    assert r.shared_concurrence == pytest.approx(2 * 2 / 5, abs=1e-12)
    r = protocols.cdc_run("liqiu_w", n=4, controller_outcome="1")
    assert r.shared_concurrence == 0.0
    assert r.bits_transmitted_avg == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# qutrit CDC
# ---------------------------------------------------------------------------

def test_qutrit_run_quarter_pi():
    r = protocols.cdc_run("qutrit_ghz", np.pi / 4, controller_outcome="up", aux_outcome=0)
    v = r.shared_state.vector
    assert abs(v[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(v[8]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.sign(v[0].real) != np.sign(v[8].real)
    assert r.bits_transmitted_avg == 2.0
    assert r.success_probability == pytest.approx(1.0, abs=1e-12)


def test_qutrit_side_outcome_is_separable_one_bit():
    r = protocols.cdc_run("qutrit_ghz", np.pi / 3, controller_outcome="side")
    assert r.bits_transmitted_avg == 1.0
    assert r.shared_concurrence == 0.0


def test_qutrit_failure_branch_unentangled():
    r = protocols.cdc_run("qutrit_ghz", np.pi / 3, controller_outcome="up", aux_outcome=2)
    assert protocols._schmidt_concurrence(r.shared_state.vector, 3) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_schmidt_concurrence_of_random_product_states_is_exactly_zero(d):
    rng = np.random.default_rng(37)
    for _ in range(50):
        a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2))
        vec = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert protocols._schmidt_concurrence(vec, d) == 0.0


def test_qutrit_success_probability_curve():
    for theta in np.linspace(np.pi / 4, np.pi / 2 - 0.05, 8):
        r = protocols.cdc_run("qutrit_ghz", theta, controller_outcome="up", aux_outcome=0)
        assert r.success_probability == pytest.approx(
            2 * np.cos(theta) ** 2, abs=1e-12)


def test_qutrit_domain_error_below_quarter_pi():
    with pytest.raises(DomainError):
        protocols.cdc_run("qutrit_ghz", 0.3, controller_outcome="up", aux_outcome=0)


def test_qutrit_projected_states():
    r = protocols.cdc_run("qutrit_ghz", np.pi / 4, controller_outcome="up", aux_outcome=0)
    shared = r.shared_state.vector
    states = qutrit_projected_states(shared)
    expected_supports = [(0, 8), (2, 6), (2, 6), (0, 8)]
    for v, support in zip(states, expected_supports):
        assert tuple(np.flatnonzero(np.abs(v) > 1e-9)) == support
        assert np.linalg.norm(v) == pytest.approx(1.0)
    # the four encoded states are mutually orthogonal
    gram = np.array([[abs(np.vdot(a, b)) for b in states] for a in states])
    assert_allclose(gram, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# secret sharing
# ---------------------------------------------------------------------------

def test_povm_statistics_pattern_over_c_grid():
    for c in np.linspace(1 / np.sqrt(3) + 0.01, 1.0, 12):
        q = 2 * c * c * (1 - c * c)
        e1, e2, _ = protocols.povm_elements(q)
        bob_p0 = protocols.secret_share_run(c, 0, "+").bob_state
        bob_m0 = protocols.secret_share_run(c, 1, "+").bob_state
        assert abs(np.trace(e1 @ bob_m0.matrix).real) <= 1e-12
        assert abs(np.trace(e2 @ bob_p0.matrix).real) <= 1e-12
        assert np.trace(e1 @ bob_p0.matrix).real == pytest.approx(q, abs=1e-12)
        assert np.trace(e2 @ bob_m0.matrix).real == pytest.approx(q, abs=1e-12)


def test_secret_share_success_values():
    assert protocols.secret_share_run(np.sqrt(2 / 3)).success_probability == pytest.approx(
        4.0 / 9.0, abs=1e-12)
    assert protocols.secret_share_run(1.0).success_probability == pytest.approx(
        0.0, abs=1e-12)
    assert protocols.secret_share_run(np.sqrt(0.5)).success_probability == pytest.approx(
        0.5, abs=1e-12)


def test_secret_share_success_maximised_at_half():
    grid = np.linspace(1 / np.sqrt(3) + 0.005, 1.0, 201)
    succ = [protocols.secret_share_run(c).success_probability for c in grid]
    best = grid[int(np.argmax(succ))]
    assert best * best == pytest.approx(0.5, abs=0.01)
    assert max(succ) <= 0.5 + 1e-12


def test_secret_share_bob_states():
    c = 0.9
    q = 2 * c * c * (1 - c * c)
    rep = protocols.secret_share_run(c, 0, "+")
    expected = 0.5 * np.array([[1.0, q], [q, 1.0]])
    assert_allclose(rep.bob_state.matrix.real, expected, atol=1e-12)
    rep = protocols.secret_share_run(c, 1, "+")
    expected = 0.5 * np.array([[1.0, -q], [-q, 1.0]])
    assert_allclose(rep.bob_state.matrix.real, expected, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0 / 3.0, 1.0, exclude_min=True), st.sampled_from((0, 1)))
@example(0.33333333333333337, 0)     # its c rounds to 1/sqrt(3)
def test_secret_share_run_matches_its_closed_forms(c2, bit):
    c = protocols.cloning_amplitude(c2)
    assert protocols.secret_share_witness_checks(c, 0.5).critical_concurrence <= 1.0 + 1e-15
    rep = protocols.secret_share_run(c, bit, "+")
    q = 2.0 * c * c * (1.0 - c * c)
    assert abs(rep.success_probability - q) <= 1e-12
    sign = 1.0 if bit == 0 else -1.0
    expected = 0.5 * np.array([[1.0, sign * q], [sign * q, 1.0]])
    assert np.abs(rep.bob_state.matrix - expected).max() <= 1e-12
    assert abs(rep.helstrom_success - (0.5 + c * c * (1.0 - c * c))) <= 1e-12


@pytest.mark.parametrize("c2,helstrom,published", [
    (2 / 3, 13 / 18, 4 / 9), (1 / 2, 3 / 4, 1 / 2), (0.9, 0.59, 0.18), (1.0, 0.5, 0.0)])
def test_secret_share_helstrom_success_beside_the_published_q(c2, helstrom, published):
    # Helstrom on Bob's two '+' states, 1/2 + ||rho_0 - rho_1||_1 / 4 = 1/2 + c^2 (1 - c^2)
    for bit in (0, 1):
        for outcome in ("+", "-"):
            rep = protocols.secret_share_run(np.sqrt(c2), bit, outcome)
            assert rep.helstrom_success == pytest.approx(helstrom, abs=1e-12)
            assert rep.success_probability == pytest.approx(published, abs=1e-12)


def test_secret_share_run_clones_each_bit_once(monkeypatch):
    calls = []
    real = cloning.clone_bipartite_stack

    def counting(lambda1, signs, *args, **kwargs):
        calls.append(sorted(signs))
        return real(lambda1, signs, *args, **kwargs)

    monkeypatch.setattr(cloning, "clone_bipartite_stack", counting)
    for bit in (0, 1):
        calls.clear()
        rep = protocols.secret_share_run(0.9, bit, "-")
        assert calls == [[-1.0, 1.0]]
        # row `bit` of the stack has the bits of the one-row clone of |Phi+/->
        alone = cloning.clone_bipartite(0.5, protocols._cloning_machine(0.9), 1.0 - 2.0 * bit)[1]
        assert np.array_equal(rep.channel.matrix, alone.matrix)


def test_secret_share_channel_werner_point():
    chan = protocols.secret_share_run(np.sqrt(2 / 3), 0).channel
    assert np.max(np.abs(chan.matrix - statezoo.cloned_mems(2 / 3).matrix)) <= 1e-12


def test_secret_share_domain():
    with pytest.raises(DomainError):
        protocols.secret_share_run(0.5)
    with pytest.raises(DomainError):
        protocols.secret_share_run(0.9, charlie_bit=2)
    with pytest.raises(DomainError):
        protocols.secret_share_run(0.9, alice_outcome="x")


def test_povm_validity_probe():
    e1, e2, e3 = protocols.povm_elements(0.4)
    assert np.max(np.abs(e1 - e1.conj().T)) > 1e-12
    assert np.max(np.abs(e2 - e2.conj().T)) > 1e-12
    assert np.max(np.abs(e3 - e3.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(e3).min() >= -1e-12


def test_witness_checks():
    wc = protocols.secret_share_witness_checks(np.sqrt(2 / 3), 0.5)
    q, r = 4.0 / 9.0, 5.0 / 36.0
    assert wc.w1_value == pytest.approx(-2 / np.sqrt(3) * (q * 0.5 - r), abs=1e-12)
    assert wc.critical_concurrence == pytest.approx(0.625, abs=1e-12)
    assert wc.entangled
    assert wc.w2_value < 0
    # witness sign flips exactly at the critical concurrence
    c = 0.9
    crit = protocols.secret_share_witness_checks(c, 0.5).critical_concurrence
    lam_crit = 0.5 * (1 - np.sqrt(1 - crit * crit))
    below = protocols.secret_share_witness_checks(c, lam_crit - 0.02)
    above = protocols.secret_share_witness_checks(c, lam_crit + 0.02)
    assert below.w1_value > 0 and not below.entangled
    assert above.w1_value < 0 and above.entangled


# ---------------------------------------------------------------------------
# Monte Carlo wrappers
# ---------------------------------------------------------------------------

def test_monte_carlo_cdc_deterministic_and_consistent():
    a = protocols.monte_carlo_cdc("ghz", 0.6, 4000, seed=11)
    b = protocols.monte_carlo_cdc("ghz", 0.6, 4000, seed=11)
    assert a == b
    assert a["empirical_success"] == pytest.approx(a["exact_success"], abs=0.03)
    assert sum(a["counts"].values()) == 4000


def test_monte_carlo_secret_share():
    out = protocols.monte_carlo_secret_share(np.sqrt(2 / 3), 5000, seed=3)
    assert out["empirical_success"] == pytest.approx(4.0 / 9.0, abs=0.03)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_monte_carlo_needs_at_least_one_sample(n_samples):
    with pytest.raises(DomainError, match="sample count"):
        protocols.monte_carlo_cdc("ghz", 0.6, n_samples, seed=1)
    with pytest.raises(DomainError, match="sample count"):
        protocols.monte_carlo_secret_share(np.sqrt(2 / 3), n_samples, seed=1)


def test_monte_carlo_negative_seed_is_a_domain_error_naming_it():
    with pytest.raises(DomainError, match="seed must be >= 0, got -1$"):
        protocols.monte_carlo_cdc("ghz", 0.6, 10, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1$"):
        protocols.monte_carlo_secret_share(np.sqrt(2 / 3), 10, seed=-1)


def test_monte_carlo_cdc_propagates_domain_errors():
    with pytest.raises(DomainError, match="admissible domain"):
        protocols.monte_carlo_cdc("w3", 1.0, 100, seed=1)


@pytest.mark.parametrize("family,kwargs", [
    ("ghz", {}), ("ghz_class", {"class_index": 1}), ("ghz4", {"epsilon": 0.5}),
    ("w3", {}), ("w4", {"epsilon": 1.0}), ("qutrit_ghz", {})])
def test_cdc_without_the_controller_angle_is_a_domain_error_naming_it(family, kwargs):
    # only pati has a default angle, arctan(1/l) (test_pati_success_table)
    message = f"{family} needs the controller angle theta"
    with pytest.raises(DomainError, match=message):
        protocols.cdc_run(family, theta=None, **kwargs)
    with pytest.raises(DomainError, match=message):
        protocols.monte_carlo_cdc(family, None, 100, seed=1, **kwargs)
    with pytest.raises(DomainError, match=message):
        protocols.cdc_closed_forms(family, **kwargs)


def test_a_family_parameter_is_named_before_the_missing_angle():
    with pytest.raises(DomainError, match="ghz4 needs both theta"):
        protocols.cdc_closed_forms("ghz4")
    with pytest.raises(DomainError, match="ghz_class index must be 1..7"):
        protocols.cdc_closed_forms("ghz_class", class_index=9)


def test_monte_carlo_cdc_zero_probability_outcome_is_a_zero_weight_leaf():
    # at theta = 0, epsilon = pi/2 the outcomes '++' and '--' never happen
    out = protocols.monte_carlo_cdc("ghz4", 0.0, 1000, seed=5, epsilon=np.pi / 2)
    assert {leaf.split("/")[0] for leaf in out["counts"]} == {"+-", "-+"}
    assert sum(out["counts"].values()) == 1000


# (family, theta, keyword arguments, Born average, published closed form)
MC_REGRESSION = [
    ("ghz4", 0.6, {"epsilon": 0.5}, 0.5698, 0.1466),
    ("qutrit_ghz", 0.9, {}, 0.5152, 0.7728),
    ("liqiu_w", None, {"n": 3}, 0.25, 0.5),
]


@pytest.mark.parametrize("family,theta,kwargs,born,published", MC_REGRESSION,
                         ids=[r[0] for r in MC_REGRESSION])
def test_monte_carlo_cdc_exact_is_born_average_not_published(family, theta, kwargs, born,
                                                            published):
    out = protocols.monte_carlo_cdc(family, theta, 100, seed=1, **kwargs)
    assert out["exact_success"] == pytest.approx(born, abs=5e-5)
    assert out["published_success"] == pytest.approx(published, abs=5e-5)


# the protocol-mc benchmark's parameters for all eight families, every controller outcome
PAIRS = ("++", "+-", "-+", "--")
MC_FAMILIES = [
    ("ghz", 0.6, {}, "+-"), ("ghz_class", 0.6, {"class_index": 1}, "+-"),
    ("pati", None, {"l": 0.5}, "+-"), ("ghz4", 0.6, {"epsilon": 0.5}, PAIRS),
    ("w3", 0.6, {}, "+-"), ("w4", 1.0, {"epsilon": 1.0}, PAIRS), ("liqiu_w", None, {"n": 3}, "+-"),
    ("qutrit_ghz", 0.9, {}, ("up", "side", "down")),
]


@pytest.mark.parametrize("family,theta,kwargs,outcomes", MC_FAMILIES,
                         ids=[r[0] for r in MC_FAMILIES])
def test_monte_carlo_cdc_samples_the_born_weights(family, theta, kwargs, outcomes):
    born = sum(r.branch_probability * r.success_probability
               for r in (protocols.cdc_run(family, theta=theta, controller_outcome=o, **kwargs)
                         for o in outcomes))
    n = 20_000
    out = protocols.monte_carlo_cdc(family, theta, n, seed=2024, **kwargs)
    sigma = np.sqrt(born * (1.0 - born) / n)
    assert abs(out["empirical_success"] - born) <= 5.0 * sigma + 1e-12


@pytest.mark.parametrize("c2", [2 / 3, 1 / 2, 0.9, 0.34])
def test_monte_carlo_secret_share_samples_the_protocol_tree(c2):
    c = np.sqrt(c2)
    out = protocols.monte_carlo_secret_share(c, 4000, seed=7)
    q = 4.0 * c2 * (1.0 - c2) / 2.0
    assert out["exact_success"] == pytest.approx(q, abs=1e-12)
    assert "published" in out["discrimination"]
    assert sum(out["counts"].values()) == 4000
    assert not any(leaf.endswith("conclusive_wrong") for leaf in out["counts"])
    # both of Charlie's bits and both of Alice's outcomes are drawn
    assert {leaf.rsplit("/", 1)[0] for leaf in out["counts"]} == {"0/+", "0/-", "1/+", "1/-"}
