"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Each check prints one `[PASS]/[FAIL]` line (run with `pytest -s` to see them
all).  Three checks assert reference values that a correct implementation of
the underlying definitions cannot reproduce; they are kept faithful to the
stated values and are expected to fail (see the README for details):

  * criterion 2: the MJWK Bell-violation onset quoted as (sqrt(153)-3)/18
    follows from a correlation-matrix entry that is inconsistent with
    t_xx = Tr(rho sx sx); the honest onset is 1/sqrt(2).
  * criterion 4: the check reads the non-optimal clone pair's generalised
    Bell enumeration, max((1 - 4 d^2)/3, 4 d^2/3), which equals the
    published 4 d^2/3 only for d >= 1/sqrt(8); below that |phi_00> overlaps
    more, at (1 - 4 d^2)/3.  The pair's fully entangled fraction,
    cloning.clone_pair_fef, equals the enumeration up to 1/sqrt(8) and lies
    above it beyond (16/27 against 4 d^2/3 = 1/3 at d = 1/2), so 4 d^2/3 is
    not the FEF there either.
  * criterion 5: the undistilled non-optimal output IS dense-codeable for
    d above 0.48507, so "not dense-codeable anywhere" cannot hold.
"""
import json
import pathlib

import numpy as np
import pytest

from entkit import channel, cloning, measures, protocols, statezoo
from entkit.qcore import DensityMatrix, partial_transpose
from util import bisect_predicate, extraction_unitaries, is_unitary, random_density

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "cloning_dense_coding.json").read_text())

D_OPT = np.sqrt(1.0 / 8.0)
P_STAR = 7.0 - 3.0 * np.sqrt(5.0)
WERNER_BELL_BOUNDARY = (3.0 + np.sqrt(2.0)) / (4.0 * np.sqrt(2.0))
MJWK_QUOTED_ONSET = (np.sqrt(153.0) - 3.0) / 18.0


def check(name, condition, detail=""):
    print(f"[{'PASS' if condition else 'FAIL'}] {name} {detail}".rstrip())
    assert condition, f"{name} {detail}"


# ---------------------------------------------------------------------------
# criterion 1: Werner family
# ---------------------------------------------------------------------------

def test_criterion_1_werner_family():
    for F in np.round(np.arange(0.3, 1.0001, 0.1), 12):
        got = measures.concurrence(statezoo.werner(min(F, 1.0)))
        check(f"1a werner concurrence F={F:.1f}",
              abs(got - max(0.0, 2 * F - 1)) <= 1e-10, f"got {got:.12f}")
    for F in np.linspace(0.51, WERNER_BELL_BOUNDARY, 12):
        rep = channel.analyze_channel(statezoo.werner(F), restarts=0)
        check(f"1b werner Bell-satisfied-yet-useful F={F:.4f}",
              (not rep.violates_bell_chsh) and rep.fidelity_opt > 2.0 / 3.0,
              f"M={rep.m_value:.6f} f={rep.fidelity_opt:.6f}")
    boundary = bisect_predicate(
        lambda F: channel.m_value(statezoo.werner(F)) <= 1.0, 0.6, 0.95, tol=1e-10)
    check("1c werner Bell boundary by bisection",
          abs(boundary - WERNER_BELL_BOUNDARY) <= 1e-9,
          f"located {boundary:.10f}, expected {WERNER_BELL_BOUNDARY:.10f}")


# ---------------------------------------------------------------------------
# criterion 2: MJWK family
# ---------------------------------------------------------------------------

def test_criterion_2_mjwk_useful_threshold():
    onset = bisect_predicate(
        lambda C: channel.n_value(statezoo.mjwk(C)) > 1.0, 0.9, 0.05, tol=1e-10)
    check("2a mjwk useful iff C > 1/3",
          abs(onset - 1.0 / 3.0) <= 1e-9, f"located {onset:.10f}")


def test_criterion_2_mjwk_bell_onset_quoted_value():
    onset = bisect_predicate(
        lambda C: channel.m_value(statezoo.mjwk(C)) > 1.0, 0.99, 0.35, tol=1e-10)
    # faithful to the quoted reference value; the honest onset is 1/sqrt(2)
    check("2b mjwk Bell-violation onset at (sqrt(153)-3)/18",
          abs(onset - MJWK_QUOTED_ONSET) <= 1e-9,
          f"located {onset:.10f}, quoted {MJWK_QUOTED_ONSET:.10f}, "
          f"1/sqrt(2) = {1 / np.sqrt(2):.10f}")


def test_criterion_2_werner_dominates_mjwk():
    for c in np.linspace(0.0, 1.0, 41):
        f_w = channel.closed_forms("werner", F=(1 + c) / 2)["fidelity_opt"]
        f_m = channel.closed_forms("mjwk", C=c)["fidelity_opt"]
        assert f_w >= f_m - 1e-12, c
    check("2c werner fidelity dominates mjwk at equal concurrence", True)


# ---------------------------------------------------------------------------
# criterion 3: the GHZ/W mixture family
# ---------------------------------------------------------------------------

def test_criterion_3_nmems_thresholds():
    grid = np.linspace(0.0, 1.0, 1001)
    conc = np.array([measures.concurrence(statezoo.nmems(p)) for p in grid])
    n_vals = np.array([channel.n_value(statezoo.nmems(p)) for p in grid])
    m_vals = np.array([channel.m_value(statezoo.nmems(p)) for p in grid])

    check("3a entanglement region is exactly p < p*",
          bool(np.all((conc > 0) == (grid < P_STAR - 1e-12)) or
               np.all((conc > 1e-12) == (grid < P_STAR))),
          f"p* = {P_STAR:.9f}")
    root = bisect_predicate(
        lambda p: measures.concurrence(statezoo.nmems(p)) > 0.0, 0.2, 0.4, tol=1e-12)
    check("3b concurrence root equals 7 - 3 sqrt(5)",
          abs(root - P_STAR) <= 1e-9, f"located {root:.10f}")
    useful_edge = bisect_predicate(
        lambda p: channel.n_value(statezoo.nmems(p)) > 1.0 + 1e-9, 0.1, 0.4, tol=1e-10)
    check("3c teleportation usefulness ends at p = 1/4",
          abs(useful_edge - 0.25) <= 1e-8, f"located {useful_edge:.10f}")
    check("3d Bell-CHSH never violated on the grid",
          bool(np.all(m_vals <= 1.0 + 1e-9)), f"max M = {m_vals.max():.9f}")
    check("3e N matches (5-8p)/3 below p = 1/4",
          bool(np.all(np.abs(
              n_vals[grid < 0.25] - (5 - 8 * grid[grid < 0.25]) / 3) <= 1e-9)))


# ---------------------------------------------------------------------------
# criterion 4: qutrit cloning
# ---------------------------------------------------------------------------

def test_criterion_4_optimal_chain():
    joint = cloning.qutrit_cloned_pair(D_OPT).joint
    f_opt = measures.singlet_fraction(joint)
    check("4a optimal singlet fraction = 1/6",
          abs(f_opt - 1.0 / 6.0) <= 1e-9, f"got {f_opt:.12f}")

    adv = cloning.dense_coding_advantage(joint)
    check("4b optimal entropy advantage = -0.43872 (base 2)",
          abs(adv - (-0.43872)) <= 1e-4, f"got {adv:.6f}")

    dist = cloning.distill(joint, cloning.distillation_filter(joint))
    f_dist = measures.singlet_fraction(dist)
    check("4c distilled optimal singlet fraction = 0.38789 +/- 1e-4",
          abs(f_dist - 0.38789) <= 1e-4, f"got {f_dist:.6f}")
    check("4d distilled optimal teleportation fidelity = 0.5409 +/- 1e-3",
          abs((3 * f_dist + 1) / 4 - 0.5409) <= 1e-3, f"got {(3 * f_dist + 1) / 4:.6f}")
    adv_dist = cloning.dense_coding_advantage(dist)
    check("4e distilled optimal entropy advantage = -0.3327 +/- 1e-3",
          abs(adv_dist - (-0.3327)) <= 1e-3, f"got {adv_dist:.6f}")


def test_criterion_4_nonopt_fef_published_form():
    worst_d, worst = None, 0.0
    for d in np.linspace(0.05, 0.5, 19):
        joint = cloning.qutrit_cloned_pair(d).joint
        f = measures.singlet_fraction(joint, restarts=0)
        diff = abs(f - 4 * d * d / 3)
        if diff > worst:
            worst_d, worst = d, diff
    # faithful to the reference form on all of (0, 1/2]; the Bell enumeration
    # checked here is max((1 - 4 d^2)/3, 4 d^2/3), which equals 4 d^2/3 only
    # for d >= 1/sqrt(8).  The FEF itself is cloning.clone_pair_fef (16/27
    # against 4 d^2/3 = 1/3 at d = 1/2)
    check("4f non-optimal singlet fraction = 4 d^2/3 across (0, 1/2]",
          worst <= 1e-10, f"worst |diff| = {worst:.6f} at d = {worst_d:.4f}")


def test_criterion_4_nonopt_fef_upper_branch():
    for d in np.linspace(D_OPT, 0.5, 9):
        joint = cloning.qutrit_cloned_pair(d).joint
        f = measures.singlet_fraction(joint, restarts=0)
        assert abs(f - 4 * d * d / 3) <= 1e-10, d
    check("4g non-optimal Bell-basis enumeration = 4 d^2/3 for d >= 1/sqrt(8)", True)


# ---------------------------------------------------------------------------
# criterion 5: dense coding after distillation
# ---------------------------------------------------------------------------

def test_criterion_5_distilled_half_is_dense_codeable():
    joint = cloning.qutrit_cloned_pair(0.5).joint
    dist = cloning.distill(joint, cloning.distillation_filter(joint))
    adv = cloning.dense_coding_advantage(dist)
    chi = cloning.dense_coding_capacity(dist)
    check("5a distilled non-optimal output at d = 1/2 is dense-codeable",
          adv > 0, f"advantage {adv:.6f}")
    check("5b measured chi matches the frozen fixture",
          abs(chi - FIXTURE["chi_distilled_nonopt_d_half"]) <= 1e-9,
          f"chi = {chi:.9f}")
    claim_holds = chi > 2.0
    print(f"[INFO] reference claim 'chi > 2' at d = 1/2 evaluates {claim_holds} "
          f"(chi = {chi:.6f}, dense-codeable threshold log2(3) = {np.log2(3):.6f})")
    check("5c truth value of the chi > 2 claim is recorded in the fixture",
          claim_holds == FIXTURE["chi_exceeds_two_at_d_half"])


def test_criterion_5_undistilled_never_dense_codeable():
    worst_d, worst = None, -np.inf
    for d in np.linspace(0.02, 0.5, 25):
        adv = cloning.dense_coding_advantage(cloning.qutrit_cloned_pair(d).joint)
        if adv > worst:
            worst_d, worst = d, adv
    # faithful to the reference claim; the advantage turns positive at
    # d = 0.48507 (bisected)
    check("5d undistilled output not dense-codeable for any d in (0, 1/2]",
          worst <= 0.0, f"max advantage {worst:.6f} at d = {worst_d:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: controlled dense coding
# ---------------------------------------------------------------------------

def test_criterion_6_cdc():
    r = protocols.cdc_run("ghz", theta=np.pi / 4)
    check("6a GHZ at pi/4 gives success 1 and 2 bits",
          abs(r.success_probability - 1) <= 1e-12 and
          abs(r.bits_transmitted_avg - 2) <= 1e-12)

    ok = True
    for idx in range(1, 8):
        sin_family = idx in (1, 4, 6)
        thetas = np.linspace(0.02, np.pi / 4, 9) if sin_family else \
            np.linspace(np.pi / 4, np.pi / 2 - 0.02, 9)
        for theta in thetas:
            r = protocols.cdc_run("ghz_class", theta=theta, class_index=idx)
            expected = 1 + 2 * (np.sin(theta) ** 2 if sin_family else np.cos(theta) ** 2)
            ok = ok and abs(r.bits_transmitted_avg - expected) <= 1e-12
    check("6b GHZ-class bit curves 1+2sin^2 / 1+2cos^2", ok)

    check("6c pati success table",
          protocols.cdc_closed_forms("pati", l=0.0)["success"] == 0.0 and
          abs(protocols.cdc_closed_forms("pati", l=1.0)["success"] - 1.0) <= 1e-12)

    thetas = np.linspace(0.0, np.pi / 2, 501)
    w3 = [protocols.cdc_closed_forms("w3", theta=t)["concurrence"] for t in thetas]
    check("6d w3 concurrence peaks at sqrt(2)/2 at pi/4, never 1",
          abs(max(w3) - np.sqrt(2) / 2) <= 1e-9 and max(w3) < 1.0 and
          abs(thetas[int(np.argmax(w3))] - np.pi / 4) <= 0.01)

    grid = np.linspace(np.pi / 4, np.pi / 2, 51)
    w4 = [protocols.cdc_closed_forms("w4", theta=t, epsilon=e)["concurrence"]
          for t in grid for e in grid]
    check("6e w4 concurrence peaks at 0.5, never 1",
          abs(max(w4) - 0.5) <= 1e-9 and max(w4) < 1.0)

    r = protocols.cdc_run("qutrit_ghz", np.pi / 4, controller_outcome="up", aux_outcome=0)
    v = r.shared_state.vector
    balanced = (abs(abs(v[0]) - 1 / np.sqrt(2)) <= 1e-12 and
                abs(abs(v[8]) - 1 / np.sqrt(2)) <= 1e-12 and
                abs(v[0] + v[8]) <= 1e-12)
    check("6f qutrit CDC at pi/4 shares (|00> - |22>)/sqrt(2)", balanced)


# ---------------------------------------------------------------------------
# criterion 7: secret sharing
# ---------------------------------------------------------------------------

def test_criterion_7_secret_sharing():
    ok_zero, ok_q = True, True
    for c in np.linspace(1 / np.sqrt(3) + 0.01, 1.0, 15):
        q = 2 * c * c * (1 - c * c)
        e1, e2, _ = protocols.povm_elements(q)
        bob_p0 = protocols.secret_share_run(c, 0, "+").bob_state
        bob_m0 = protocols.secret_share_run(c, 1, "+").bob_state
        ok_zero = ok_zero and abs(np.trace(e1 @ bob_m0.matrix).real) <= 1e-12 \
            and abs(np.trace(e2 @ bob_p0.matrix).real) <= 1e-12
        rep = protocols.secret_share_run(c)
        ok_q = ok_q and abs(rep.success_probability - q) <= 1e-12
    check("7a unambiguous-discrimination zeros hold", ok_zero)
    check("7b success probability equals Q = 4 c^2 d^2", ok_q)

    check("7c success extremes",
          abs(protocols.secret_share_run(np.sqrt(0.5)).success_probability - 0.5) <= 1e-12
          and abs(protocols.secret_share_run(np.sqrt(2 / 3)).success_probability - 4 / 9) <= 1e-12
          and protocols.secret_share_run(1.0).success_probability <= 1e-12)

    chan = protocols.secret_share_run(np.sqrt(2 / 3), 0).channel
    expected = statezoo.cloned_mems(2.0 / 3.0).matrix
    check("7d non-local output at c^2 = 2/3 equals the Werner-family matrix",
          np.max(np.abs(chan.matrix - expected)) <= 1e-12)

    ok = True
    # at c = 1 exactly the machine copies perfectly (d = 0), every weight in
    # the witness expectation vanishes, and the non-local state is separable;
    # the sweep therefore stops just short of that degenerate endpoint
    for c in np.linspace(1 / np.sqrt(3) + 0.02, 0.99, 8):
        crit = cloning.nonlocal_critical_concurrence(c)
        if crit >= 1.0:
            continue
        lam_crit = 0.5 * (1 - np.sqrt(1 - crit * crit))
        for lam, expect in ((max(lam_crit - 0.03, 0.0), False),
                            (min(lam_crit + 0.03, 0.5), True)):
            wc = protocols.secret_share_witness_checks(c, lam)
            ok = ok and (wc.w1_value < 0) == expect and wc.entangled == expect
    check("7e witness sign flips at the critical concurrence", ok)
    wc = protocols.secret_share_witness_checks(1.0, 0.5)
    check("7f c = 1 endpoint: witness degenerates to zero on a separable state",
          abs(wc.w1_value) <= 1e-12 and
          measures.peres_horodecki(protocols.secret_share_run(1.0, 0).channel) == "separable"
          and abs(wc.critical_concurrence - 0.5) <= 1e-12)


# ---------------------------------------------------------------------------
# criterion 8: property suites
# ---------------------------------------------------------------------------

def test_criterion_8_random_state_properties():
    rng = np.random.default_rng(20260810)
    ok_order, ok_iff, ok_nbound, ok_chsh = True, True, True, True
    for _ in range(1000):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        neg = measures.negativity(rho)
        con = measures.concurrence(rho)
        ok_order = ok_order and -1e-10 <= neg <= con + 1e-9 and con <= 1 + 1e-9
        ok_iff = ok_iff and (measures.peres_horodecki(rho) == "entangled") == (neg > 1e-9)
        ok_nbound = ok_nbound and channel.n_value(rho) <= 1 + 2 * neg + 1e-9
        ok_chsh = ok_chsh and channel.chsh_supremum(rho) <= 2 * np.sqrt(2) + 1e-9
    check("8a negativity <= concurrence on 1000 random states", ok_order)
    check("8b Peres-Horodecki iff negativity > 0", ok_iff)
    check("8c N(rho) <= 1 + 2 negativity", ok_nbound)
    check("8d CHSH supremum <= 2 sqrt(2)", ok_chsh)


def test_criterion_8_unitaries_and_isometries():
    ok = all(is_unitary(unitary, 1e-10) for *_, unitary in extraction_unitaries())
    check("8e every extraction unitary the CDC pipeline applies passes unitarity", ok)

    ok = True
    for n, d in ((2, None), (2, 0.25), (3, None), (3, 0.4)):
        v = cloning.cloning_isometry(cloning.uqcm_params(n, d))
        ok = ok and np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
    check("8f cloning transformation is an isometry on its domain", ok)


def test_criterion_8_constructed_states_pass_invariants():
    # constructors raise on any invariant violation; touch every family
    states = [statezoo.werner(0.7), statezoo.mjwk(0.5),
              statezoo.wei(0.1, 0.1, 0.2, 0.2, 0.4),
              statezoo.werner_derivative(0.8, 0.7), statezoo.nmems(0.4),
              statezoo.ih_mems(0.4, 0.3, 0.2, 0.1), statezoo.cloned_mems(0.8),
              cloning.qutrit_cloned_pair(0.3).joint,
              protocols.secret_share_run(0.8, 1).channel]
    for rho in states:
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals.min() >= -1e-9 and abs(np.trace(rho.matrix).real - 1) <= 1e-10
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-10
    pt = partial_transpose(DensityMatrix((2, 2), np.eye(4) / 4), 0)
    assert np.max(np.abs(pt - np.eye(4) / 4)) <= 1e-12
    check("8g all constructed density matrices satisfy the state invariants", True)
