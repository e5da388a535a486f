"""The controlled-dense-coding pipeline: controller outcome labels,
zero-probability controller branches, the Born-weight invariants of every
family, the outcome tree that cdc_run and the Monte-Carlo sampler share, and
the sampler over it."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import protocols
from entkit.qcore import DomainError

@pytest.mark.parametrize("theta,epsilon,outcome", [
    (0.0, np.pi / 2, "--"),     # 1e-33 branch that used to report success 1, 2 bits
    (0.0, 0.0, "+-"),           # used to divide by zero and blame the aux outcome
])
def test_zero_probability_controller_branch_raises(theta, epsilon, outcome):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="controller outcome"):
            protocols.cdc_run("ghz4", theta=theta, epsilon=epsilon, controller_outcome=outcome)


@pytest.mark.parametrize("family,kwargs,outcome", [
    ("ghz", {"theta": 0.6}, "x"),
    ("ghz", {"theta": 0.6}, ""),
    ("ghz4", {"theta": 0.6, "epsilon": 0.5}, "xy"),
    ("ghz4", {"theta": 0.6, "epsilon": 0.5}, "+-+"),
    ("w4", {"theta": 1.0, "epsilon": 1.0}, "+x"),
    ("liqiu_w", {"n": 3}, "q"),
    ("qutrit_ghz", {"theta": 0.9}, "0"),
])
def test_unknown_controller_outcome_raises(family, kwargs, outcome):
    with pytest.raises(DomainError, match="unknown controller outcome"):
        protocols.cdc_run(family, controller_outcome=outcome, **kwargs)


ANGLE = st.floats(0.01, np.pi / 2 - 0.01)


@st.composite
def runs(draw):
    """(family, parameters, every controller outcome) at admissible angles."""
    family = draw(st.sampled_from(sorted(protocols._FAMILIES)))
    theta = draw(ANGLE)
    p = {"theta": theta, "epsilon": None, "l": None, "n": None, "class_index": None}
    outcomes = ("+", "-")
    if family == "ghz_class":
        p["class_index"] = draw(st.integers(1, 7))
    elif family == "pati":
        p["l"] = draw(st.floats(0.05, 5.0))
    elif family == "w3":
        p["theta"] = draw(st.floats(0.01, np.pi / 4))
    elif family == "ghz4":
        # U2 needs tan(theta) tan(epsilon) <= 1, i.e. theta + epsilon <= pi/2
        p["epsilon"] = draw(st.floats(0.01, 0.99)) * (np.pi / 2 - theta)
        outcomes = ("++", "+-", "-+", "--")
    elif family == "w4":
        p["epsilon"] = draw(ANGLE)
        outcomes = ("++", "+-", "-+", "--")
    elif family == "liqiu_w":
        p["n"] = draw(st.integers(1, 50))
    elif family == "qutrit_ghz":
        p["theta"] = draw(st.floats(np.pi / 4, np.pi / 2 - 0.01))
        outcomes = ("up", "side", "down")
    return family, p, outcomes


@settings(max_examples=200, deadline=None)
@given(runs())
def test_born_weights_of_every_branch_sum_to_one(run):
    family, p, outcomes = run
    total, tree = 0.0, protocols._tree(family, p, outcomes)
    for outcome in outcomes:
        prob, _, _, branches = tree[outcome]
        total += prob
        if branches is not None:        # the branch went through an extraction unitary
            weights = [np.vdot(w, w).real for w in branches.values()]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12), (outcome, weights)
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(runs())
def test_outcome_tree_matches_every_cdc_run_exactly(run):
    family, p, outcomes = run
    fam = protocols._FAMILIES[family]
    closed = protocols.cdc_closed_forms(family, **{k: p[k] for k in fam.params})
    tree = protocols._tree(family, p, outcomes)
    born = 0.0
    for outcome in outcomes:
        report = protocols.cdc_run(family, controller_outcome=outcome, **p)
        prob, vec, d, branches = tree[outcome]
        got = (prob, protocols._success(fam, closed, vec, d, branches)[0])
        assert got == (report.branch_probability, report.success_probability), outcome
        born += report.branch_probability * report.success_probability
    kwargs = {k: v for k, v in p.items() if k != "theta"}
    assert protocols.monte_carlo_cdc(family, p["theta"], 10, 0, **kwargs)["exact_success"] == born


# (family, theta, keyword arguments, its number of controllers)
MC_CALLS = [
    ("ghz", 0.6, {}, 1), ("ghz_class", 0.6, {"class_index": 1}, 1), ("pati", None, {"l": 0.5}, 1),
    ("ghz4", 0.6, {"epsilon": 0.5}, 2), ("w3", 0.6, {}, 1), ("w4", 1.0, {"epsilon": 1.0}, 2),
    ("liqiu_w", None, {"n": 3}, 1), ("qutrit_ghz", 0.9, {}, 1),
]


@pytest.mark.parametrize("family,theta,kwargs,bases", MC_CALLS)
def test_monte_carlo_builds_the_state_and_each_basis_once(monkeypatch, family, theta, kwargs,
                                                          bases):
    fam, states, built = protocols._FAMILIES[family], [], []
    validate = protocols.MeasurementBasis.__post_init__

    def state(p):
        states.append(p)
        return fam.state(p)

    def counted(self):
        built.append(self.labels)
        validate(self)

    monkeypatch.setitem(protocols._FAMILIES, family, dataclasses.replace(fam, state=state))
    monkeypatch.setattr(protocols.MeasurementBasis, "__post_init__", counted)
    protocols.monte_carlo_cdc(family, theta, 500, 1, **kwargs)
    assert len(states) == 1
    assert len(built) == bases, built


@pytest.mark.parametrize("family,theta,kwargs,bases", MC_CALLS)
def test_a_cdc_call_reports_the_closed_forms_bit_for_bit(family, theta, kwargs, bases):
    # every closed-form field of a run is cdc_closed_forms' value: the
    # concurrence (simulated and published conventions), the published success
    # and bits, pati's angle when theta is omitted, and the Monte-Carlo
    # published_success in every family
    convention = protocols._FAMILIES[family].convention
    closed = {k: v.hex() for k, v in protocols.cdc_closed_forms(family, theta=theta, **kwargs).items()}
    r = protocols.cdc_run(family, theta, **kwargs)
    if convention != "per_outcome":
        assert r.shared_concurrence.hex() == closed["concurrence"]
    if convention == "published":
        assert (r.success_probability.hex(), r.bits_transmitted_avg.hex()) == (closed["success"],
                                                                               closed["bits"])
    if family == "pati":
        assert r.theta.hex() == closed["theta"]
    out = protocols.monte_carlo_cdc(family, theta, 10, 1, **kwargs)
    assert out["published_success"].hex() == closed["success"]


@settings(max_examples=100, deadline=None)
@given(runs(), st.integers(1, 5000), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_monte_carlo_samples_the_outcome_tree(run, n_samples, seed, other_seed):
    family, p, outcomes = run
    assert protocols._FAMILIES[family].outcomes == outcomes
    reports = [protocols.cdc_run(family, controller_outcome=o, **p) for o in outcomes]
    born = sum(r.branch_probability * r.success_probability for r in reports)
    kwargs = {k: v for k, v in p.items() if k != "theta"}

    out = protocols.monte_carlo_cdc(family, p["theta"], n_samples, seed, **kwargs)
    assert out["exact_success"] == pytest.approx(born, abs=1e-12)
    assert out["published_success"] == protocols.cdc_closed_forms(family, **p)["success"]
    assert sum(out["counts"].values()) == n_samples
    assert out == protocols.monte_carlo_cdc(family, p["theta"], n_samples, seed, **kwargs)

    other = protocols.monte_carlo_cdc(family, p["theta"], n_samples, other_seed, **kwargs)
    leaves = {f"{o}/{end}" for o in outcomes for end in ("aux0", "fail")}
    merged = {}
    for chain in (out, other):
        assert set(chain["counts"]) <= leaves
        assert all(k > 0 for k in chain["counts"].values())
        for leaf, k in chain["counts"].items():
            merged[leaf] = merged.get(leaf, 0) + k
    assert sum(merged.values()) == 2 * n_samples
    hits = sum(k for leaf, k in merged.items() if leaf.endswith("/aux0"))
    assert hits / (2 * n_samples) == pytest.approx(
        (out["empirical_success"] + other["empirical_success"]) / 2.0, abs=1e-12)
