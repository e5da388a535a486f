"""Channel analysis tests: correlation matrices, N/M, teleportation, CHSH."""
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entkit import channel, measures, statezoo
from entkit.qcore import DensityMatrix, DomainError
from fixtures import make_channel_reports
from util import (assert_columns_match_points, bisect_predicate, chsh_max, fef_closed_form,
                  input_qubit, random_density, teleport_through, wei_slice)

WERNER_BELL_BOUNDARY = (3.0 + np.sqrt(2.0)) / (4.0 * np.sqrt(2.0))


# ---------------------------------------------------------------------------
# correlation matrix and N/M
# ---------------------------------------------------------------------------

def test_correlation_matrix_maximally_mixed_is_zero():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    assert_allclose(channel.correlation_matrix(rho), np.zeros((3, 3)), atol=1e-14)


@pytest.mark.parametrize("F", [0.4, 0.75, 1.0])
def test_correlation_matrix_werner_is_isotropic(F):
    t = channel.correlation_matrix(statezoo.werner(F))
    assert_allclose(t, -(4 * F - 1) / 3 * np.eye(3), atol=1e-12)


@pytest.mark.parametrize("C", [0.2, 0.5, 0.8])
def test_correlation_matrix_mjwk_diagonal(C):
    # t_xx picks up twice the real corner coherence, t_zz the populations
    h = statezoo.mjwk_h(C)
    t = channel.correlation_matrix(statezoo.mjwk(C))
    assert_allclose(t, np.diag([C, -C, 4 * h - 1]), atol=1e-12)


def test_n_and_m_values():
    assert channel.n_value(statezoo.werner(1.0)) == pytest.approx(3.0, abs=1e-12)
    assert channel.m_value(statezoo.werner(1.0)) == pytest.approx(2.0, abs=1e-12)
    assert channel.n_value(statezoo.nmems(0.0)) == pytest.approx(5 / 3, abs=1e-12)
    mixed = DensityMatrix((2, 2), np.eye(4) / 4)
    assert channel.n_value(mixed) == pytest.approx(0.0, abs=1e-12)
    assert channel.m_value(mixed) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_closed_forms():
    assert channel.optimal_fidelity(statezoo.werner(0.75)) == pytest.approx(
        (2 * 0.75 + 1) / 3, abs=1e-12)
    mixed = DensityMatrix((2, 2), np.eye(4) / 4)
    assert channel.optimal_fidelity(mixed) == pytest.approx(0.5, abs=1e-12)


def test_optimal_fidelity_dimension_checks():
    with pytest.raises(DomainError, match=r"^optimal fidelity needs an n x n bipartite state, "
                                          r"got \(2, 3\)$"):
        channel.optimal_fidelity(random_density(np.random.default_rng(0), (2, 3)))


# ---------------------------------------------------------------------------
# explicit teleportation
# ---------------------------------------------------------------------------

def test_perfect_channels_teleport_exactly():
    rin = input_qubit(0.7, 0.2 + 0.1j)
    for k in range(1, 5):
        for out in teleport_through(rin, statezoo.bell(k).density()):
            assert out.hs_distance == pytest.approx(0.0, abs=1e-12)
            assert out.fidelity == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_bell_branches_are_omitted():
    rin = input_qubit(1.0, 0)
    product = DensityMatrix((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = teleport_through(rin, product)
    assert [o.bell_outcome for o in outs] == [1, 2]          # the Psi branches never occur
    assert all(o.probability > 0.0 for o in outs)
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)


def _mjwk_case1(x, y, C):
    n = x * (1 - C / 2) + (1 - x) * C / 2
    n1 = x * C / 2 + (1 - x) * (1 - C / 2)
    b1 = np.array([[x * C / (2 * n), y * C / (2 * n)],
                   [np.conj(y) * C / (2 * n), (x * (2 - 3 * C) + C) / (2 * n)]])
    b3 = np.array([[((3 * x - 2) * C + 2 * (1 - x)) / (2 * n1), y * C / (2 * n1)],
                   [np.conj(y) * C / (2 * n1), (1 - x) * C / (2 * n1)]])
    d1 = (x ** 2 * (1 - C / (2 * n)) ** 2 + 2 * abs(y) ** 2 * (1 - C / (2 * n)) ** 2
          + ((1 - x) - (x * (2 - 3 * C) + C) / (2 * n)) ** 2)
    d3 = ((x - ((3 * x - 2) * C + 2 * (1 - x)) / (2 * n1)) ** 2
          + 2 * abs(y) ** 2 * (1 - C / (2 * n1)) ** 2
          + (1 - x) ** 2 * (1 - C / (2 * n1)) ** 2)
    return b1, b3, d1, d3


def _mjwk_case2(x, y, C):
    n = (1 + x) / 3.0
    n1 = x / 3.0 + 2 * (1 - x) / 3.0
    b1 = np.array([[x / (3 * n), y * C / (2 * n)],
                   [np.conj(y) * C / (2 * n), 1 / (3 * n)]])
    b3 = np.array([[1 / (3 * n1), y * C / (2 * n1)],
                   [np.conj(y) * C / (2 * n1), (1 - x) / (3 * n1)]])
    d1 = (x ** 2 * (1 - 1 / (3 * n)) ** 2 + 2 * abs(y) ** 2 * (1 - C / (2 * n)) ** 2
          + ((1 - x) - 1 / (3 * n)) ** 2)
    return b1, b3, d1


@pytest.mark.parametrize("C,x,y", [(0.8, 1.0, 0.0), (0.9, 0.6, 0.3 + 0.2j),
                                   (0.7, 0.25, 0.1 - 0.35j)])
def test_mjwk_teleport_strong_coherence(C, x, y):
    outs = teleport_through(input_qubit(x, y), statezoo.mjwk(C))
    b1, b3, d1, d3 = _mjwk_case1(x, y, C)
    assert np.max(np.abs(outs[0].output_state.matrix - b1)) < 1e-12
    assert np.max(np.abs(outs[1].output_state.matrix - b1)) < 1e-12
    assert np.max(np.abs(outs[2].output_state.matrix - b3)) < 1e-12
    assert np.max(np.abs(outs[3].output_state.matrix - b3)) < 1e-12
    assert outs[0].hs_distance == pytest.approx(d1, abs=1e-10)
    assert outs[2].hs_distance == pytest.approx(d3, abs=1e-10)
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("C,x,y", [(0.5, 0.6, 0.3 + 0.2j), (0.3, 0.9, 0.2j)])
def test_mjwk_teleport_weak_coherence(C, x, y):
    outs = teleport_through(input_qubit(x, y), statezoo.mjwk(C))
    b1, b3, d1 = _mjwk_case2(x, y, C)
    assert np.max(np.abs(outs[0].output_state.matrix - b1)) < 1e-12
    assert np.max(np.abs(outs[2].output_state.matrix - b3)) < 1e-12
    assert outs[0].hs_distance == pytest.approx(d1, abs=1e-10)


def test_input_qubit_validation():
    with pytest.raises(DomainError):
        input_qubit(1.2, 0.0)
    with pytest.raises(DomainError):
        input_qubit(0.5, 0.6)          # coherence too large


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

STANDARD_SETTINGS = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([1.0, 1.0, 0.0]) / np.sqrt(2),
    np.array([1.0, -1.0, 0.0]) / np.sqrt(2),
)


def test_chsh_bell_state_reaches_quantum_maximum():
    rho = statezoo.bell(3).density()
    assert chsh_max(rho, STANDARD_SETTINGS) == pytest.approx(
        2 * np.sqrt(2), abs=1e-12)
    assert channel.chsh_supremum(rho) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_chsh_product_state_classical_bound():
    rng = np.random.default_rng(31)
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    rho = DensityMatrix((2, 2), np.kron(a.matrix, b.matrix))
    for _ in range(20):
        settings = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 3))]
        assert chsh_max(rho, settings) <= 2.0 + 1e-9


def test_werner_bell_violation_boundary_located_by_bisection():
    boundary = bisect_predicate(
        lambda F: channel.m_value(statezoo.werner(F)) <= 1.0, 0.6, 0.95, tol=1e-10)
    assert boundary == pytest.approx(WERNER_BELL_BOUNDARY, abs=1e-9)


def test_chsh_supremum_cirelson_random():
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        assert channel.chsh_supremum(rho) <= 2 * np.sqrt(2) + 1e-9


# ---------------------------------------------------------------------------
# family analyzers and their closed forms
# ---------------------------------------------------------------------------

# the five 401-point grids cover each family's whole domain; MJWK for
# C >= 2/3 and werner at F = 1 are rank deficient there; the last grid is the
# nmems singlet fraction's second branch
@pytest.mark.parametrize("family,grid,fixed", [
    ("werner", np.linspace(0.3, 1.0, 15), {}),
    ("mjwk", np.linspace(0.0, 1.0, 15), {}),
    ("nmems", np.linspace(0.0, 1.0, 15), {}),
    ("werner_derivative", np.linspace(0.5, 0.95, 10), {"F": 0.85}),
    ("wei", np.linspace(0.1, 0.6, 8), {"a": 0.2, "b": 0.2}),
    ("werner", np.linspace(0.25, 1.0, 402)[1:], {}),
    ("mjwk", np.linspace(0.0, 1.0, 401), {}),
    ("nmems", np.linspace(0.0, 1.0, 401), {}),
    ("wei", np.linspace(0.0, 0.9, 401), {"a": 0.05, "b": 0.05}),
    ("werner_derivative", np.linspace(0.5, 1.0, 401), {"F": 0.8}),
    ("nmems", np.array([0.3, 0.5, 0.7, 0.9, 1.0]), {}),
])
def test_numeric_pipeline_matches_closed_forms(family, grid, fixed):
    for value, report, forms in channel.analyze_family(family, grid, **fixed):
        for key, expected in forms.items():
            if expected is None or np.isnan(expected) or key == "entangled_a_bound":
                continue
            got = getattr(report, key, None)
            if got is None:
                continue
            assert got == pytest.approx(expected, abs=1e-12), (family, value, key)


@pytest.mark.parametrize("family,values,kwargs,name", [
    ("wei", [0.5], {}, "a"),
    ("wei", [0.5], {"a": 0.1}, "b"),
    ("werner_derivative", [0.7], {}, "F"),
    ("werner", [0.5], {"F": 0.8}, "F"),
    ("werner_derivative", [0.7], {"F": 0.8, "a": 0.6}, "a"),
    ("werner", [0.5], {"bogus": 1.0}, "bogus"),
    ("wei", [0.5], {"a": 0.1, "b": 0.1, "x": 0.2}, "x"),
])
def test_analyze_family_argument_errors_name_the_parameter(family, values, kwargs, name):
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        channel.analyze_family(family, values, **kwargs)


# (family, fixed parameters, grid with out-of-domain values, the scalar
# constructor call at the first bad value in sorted order)
@pytest.mark.parametrize("family,fixed,values,first_bad", [
    ("werner", {}, [0.9, 0.2, 0.1], lambda: statezoo.werner(0.1)),
    ("werner", {}, [1.5, 0.7, 1.2], lambda: statezoo.werner(1.2)),
    ("mjwk", {}, [0.5, 1.2, -0.1], lambda: statezoo.mjwk(-0.1)),
    ("nmems", {}, [2.0, 0.5, 1.5], lambda: statezoo.nmems(1.5)),
    ("werner_derivative", {"F": 0.8}, [0.7, 1.2, 0.4],
     lambda: statezoo.werner_derivative(0.8, 0.4)),
    ("werner_derivative", {"F": 0.4}, [0.7, 0.6], lambda: statezoo.werner_derivative(0.4, 0.6)),
    # a negative gamma sorts before the x = y < 0 it leaves at 0.95
    ("wei", {"a": 0.05, "b": 0.05}, [0.95, 0.5, -0.1], lambda: wei_slice(-0.1, 0.05, 0.05)),
    ("wei", {"a": 0.05, "b": 0.05}, [0.97, 0.3, 0.95], lambda: wei_slice(0.95, 0.05, 0.05)),
    ("wei", {"a": -0.1, "b": 0.05}, [0.5, 0.3], lambda: wei_slice(0.3, -0.1, 0.05)),
])
def test_analyze_family_raises_the_first_bad_sorted_value(family, fixed, values, first_bad):
    with pytest.raises(DomainError) as alone:
        first_bad()
    with pytest.raises(DomainError) as grid:
        channel.analyze_family(family, values, **fixed)
    assert str(grid.value) == str(alone.value)


# (family, closed-form parameters, the statezoo constructor call at the first
# bad entry); mjwk, nmems and werner_derivative once returned a concurrence
# above 1, a negative entropy or NaN there
@pytest.mark.parametrize("family,params,constructor", [
    ("werner", {"F": 0.25}, lambda: statezoo.werner(0.25)),
    ("werner", {"C": 1.5}, lambda: statezoo.werner(1.25)),
    ("mjwk", {"C": 1.5}, lambda: statezoo.mjwk(1.5)),
    ("wei", {"gamma": 1.2}, lambda: statezoo.wei(0.0, 0.0, (1.0 - 1.2) / 2.0, (1.0 - 1.2) / 2.0,
                                                 1.2)),
    ("wei", {"gamma": 0.9, "a": 0.2, "b": 0.1}, lambda: wei_slice(0.9, 0.2, 0.1)),
    ("werner_derivative", {"F": 0.3, "a": 0.7}, lambda: statezoo.werner_derivative(0.3, 0.7)),
    ("nmems", {"p": -0.5}, lambda: statezoo.nmems(-0.5)),
    ("nmems", {"p": np.array([0.5, np.nan, 2.0])}, lambda: statezoo.nmems(np.nan)),
])
def test_closed_forms_outside_the_domain_raise_the_constructor_error(family, params, constructor):
    with pytest.raises(DomainError) as alone:
        constructor()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as forms:
            channel.closed_forms(family, **params)
    assert str(forms.value) == str(alone.value)


# family -> (fixed parameters, sweep interval ends) for the counter test
COUNTED_FAMILIES = {
    "werner": ({}, 0.3, 1.0),
    "mjwk": ({}, 0.0, 1.0),
    "nmems": ({}, 0.0, 1.0),
    "werner_derivative": ({"F": 0.8}, 0.5, 1.0),
    "wei": ({"a": 0.05, "b": 0.05}, 0.0, 0.9),
}


@pytest.mark.parametrize("family", sorted(COUNTED_FAMILIES))
def test_analyze_family_analyzes_the_whole_grid_at_once(family, monkeypatch):
    fixed, lo, hi = COUNTED_FAMILIES[family]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(channel, "closed_forms", counted("closed_forms", channel.closed_forms))
    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        counted("DensityMatrix", DensityMatrix.__post_init__))
    counts = []
    for points in (5, 50):
        calls.clear()
        rows = channel.analyze_family(family, np.linspace(lo, hi, points), **fixed)
        assert len(rows) == points
        counts.append({name: calls.count(name)
                       for name in ("closed_forms", "svd", "eigvalsh", "DensityMatrix")})
    assert counts[0] == counts[1]
    assert counts[0]["closed_forms"] == 1
    assert counts[0]["eigvalsh"] == 2       # the validation and the magic basis
    assert counts[0]["svd"] > 0
    assert counts[0]["DensityMatrix"] == 0


@settings(max_examples=40, deadline=None)
@given(drawn=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4)),
                      min_size=1, max_size=6),
       data=st.data())
def test_stacked_reports_equal_each_state_alone(drawn, data):
    states = [random_density(np.random.default_rng(seed), (2, 2), rank=rank)
              for seed, rank in drawn]
    order = data.draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=12))
    chosen = [states[i] for i in order]
    stacked = channel._reports(np.array([rho.matrix for rho in chosen]),
                               np.array([rho.spectrum for rho in chosen]))

    def bits(report):   # JSON text: each float's shortest repr, so one ulp shows
        return json.dumps(make_channel_reports._report(report))

    alone = [bits(channel.analyze_channel(rho)) for rho in states]
    assert [bits(report) for report in stacked] == [alone[i] for i in order]


def test_wei_sweep_reaches_the_closed_end_of_its_domain():
    # x = y = (1 - gamma - a - b)/2 rounds to -1.4e-17 here
    [(gamma, report, forms)] = channel.analyze_family("wei", [0.9], a=0.05, b=0.05)
    assert report.m_value == pytest.approx(forms["m_value"], abs=1e-9)


def test_closed_form_parametrisations_of_the_concurrence_figures():
    for c in np.linspace(0.0, 1.0, 21):
        assert channel.closed_forms("werner", C=c) == \
            channel.closed_forms("werner", F=(1.0 + c) / 2.0)
        # wei without a and b is the x = y = 0 slice
        a = (1.0 - c) / 2.0
        assert channel.closed_forms("wei", gamma=c) == \
            channel.closed_forms("wei", a=a, b=a, gamma=c)
        if c > 0.0:
            report = channel.analyze_channel(statezoo.wei(0.0, 0.0, a, a, c))
            forms = channel.closed_forms("wei", gamma=c)
            assert report.n_value == pytest.approx(forms["n_value"], abs=1e-9)
            assert report.m_value == pytest.approx(forms["m_value"], abs=1e-9)


UNIT = st.floats(0.0, 1.0)
HALF = st.floats(0.0, 0.5)
# F where x**2 on an array (x * x) and on a scalar (libm pow) differ: 4F - 1, 1 - F
SQUARE_ROUNDING = [(0.8806810498196802,), (0.9013233658129223,)]

# name -> (closed form of its argument columns, one strategy per argument, the
# rows always evaluated: domain ends, signed zeros, branch points, SQUARE_ROUNDING)
CLOSED_FORMS = {
    "werner_by_F": (lambda F: channel.closed_forms("werner", F=F),
                    [st.floats(0.25, 1.0, exclude_min=True)],
                    [(np.nextafter(0.25, 1.0),), (0.5,), (1.0,), *SQUARE_ROUNDING]),
    "werner_by_C": (lambda C: channel.closed_forms("werner", C=C), [UNIT],
                    [(-0.0,), (0.0,), (1.0,)]),
    "mjwk": (lambda C: channel.closed_forms("mjwk", C=C), [UNIT],
             [(-0.0,), (0.0,), (2.0 / 3.0,), (np.nextafter(2.0 / 3.0, 0.0),), (1.0,),
              (0.6746296046596039,)]),         # (4h - 1)**2 = (2C - 1)**2 rounds apart
    "mjwk_h": (statezoo.mjwk_h, [UNIT], [(0.0,), (2.0 / 3.0,), (1.0,)]),
    "wei": (lambda g: channel.closed_forms("wei", gamma=g), [UNIT],
            [(0.0,), (1.0 / 3.0,), (1.0,)]),
    # a and b drawn as shares of 1 - gamma, so that x = y = (1 - gamma - a - b)/2 >= 0
    "wei_with_a_b": (lambda g, a, b: channel.closed_forms("wei", gamma=g, a=a * (1.0 - g),
                                                          b=b * (1.0 - g)),
                     [UNIT, HALF, HALF],
                     [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.0, 0.5, 0.5)]),
    "werner_derivative": (lambda F, a: channel.closed_forms("werner_derivative", F=F, a=a),
                          [st.floats(0.5, 1.0, exclude_min=True), st.floats(0.5, 1.0)],
                          [(np.nextafter(0.5, 1.0), 0.5), (0.8, 0.75), (1.0, 1.0),
                           (0.8806810498196802, 0.6)]),
    "nmems": (lambda p: channel.closed_forms("nmems", p=p), [UNIT],
              [(-0.0,), (0.0,), (0.25,), (0.5,), (1.0,)]),
    "fidelity_werner": (lambda s: channel.fidelity_from_linear_entropy("werner", s),
                        [st.floats(0.0, 8.0 / 9.0)], [(0.0,), (16.0 / 27.0,), (8.0 / 9.0,)]),
    "fidelity_mjwk": (lambda s: channel.fidelity_from_linear_entropy("mjwk", s),
                      [st.floats(0.0, 8.0 / 9.0)], [(0.0,), (16.0 / 27.0,), (8.0 / 9.0,)]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_forms_over_arrays_match_them_point_by_point(name, data):
    form, arguments, always = CLOSED_FORMS[name]
    drawn = data.draw(st.lists(st.tuples(*arguments), max_size=20))
    assert_columns_match_points(form, always + drawn)


@pytest.mark.parametrize("family,param,grid", [
    ("werner", "F", np.linspace(0.5, 1.0, 101)),
    # both sides of the mjwk branch point C = 2/3 (S_L = 16/27)
    ("mjwk", "C", np.concatenate([np.linspace(0.0, 1.0, 101),
                                  2.0 / 3.0 + np.array([-1e-9, 0.0, 1e-9])])),
])
def test_fidelity_from_linear_entropy_round_trips_closed_forms(family, param, grid):
    for value in grid:
        forms = channel.closed_forms(family, **{param: value})
        f = channel.fidelity_from_linear_entropy(family, forms["linear_entropy"])
        assert f == pytest.approx(forms["fidelity_opt"], abs=1e-12), (family, value)


@pytest.mark.parametrize("family,s", [
    ("werner", -1e-12), ("mjwk", -1e-12), ("werner", 8.0 / 9.0 + 1e-12),
    ("mjwk", 8.0 / 9.0 + 1e-12), ("mjwk", float("nan")), ("nmems", 0.5),
    ("werner", np.array([0.5, -1e-12])), ("mjwk", np.array([0.5, 8.0 / 9.0 + 1e-12])),
])
def test_fidelity_from_linear_entropy_domain(family, s):
    with pytest.raises(DomainError):
        channel.fidelity_from_linear_entropy(family, s)


def test_mjwk_useful_iff_concurrence_above_one_third():
    rows = channel.analyze_family("mjwk", np.linspace(0.0, 1.0, 41))
    for c, report, _ in rows:
        assert report.useful_for_teleportation == (c > 1.0 / 3.0 + 1e-12) or \
            abs(c - 1.0 / 3.0) < 1e-9


def test_nmems_bounds():
    rows = channel.analyze_family("nmems", np.linspace(0.0, 1.0, 101))
    for p, report, _ in rows:
        assert report.m_value <= 1.0 + 1e-9
        assert report.useful_for_teleportation == (p < 0.25 - 1e-12) or \
            abs(p - 0.25) < 1e-9


def test_werner_beats_mjwk_at_equal_concurrence():
    for c in np.linspace(0.01, 1.0, 25):
        f_w = channel.closed_forms("werner", F=(1 + c) / 2)["fidelity_opt"]
        f_m = channel.closed_forms("mjwk", C=c)["fidelity_opt"]
        assert f_w >= f_m - 1e-12


def test_werner_beats_wei_at_equal_gamma():
    for g in np.linspace(0.1, 0.9, 9):
        a = b = (1 - g) / 4            # a + b > 0
        f_w = channel.closed_forms("werner", F=(1 + g) / 2)["fidelity_opt"]
        f_v = channel.closed_forms("wei", a=a, b=b, gamma=g)["fidelity_opt"]
        assert f_v < f_w


def test_werner_derivative_bell_violation_cases():
    F = 0.9                            # above the Bell boundary fraction
    root = np.sqrt(2 * (4 * F - 1) ** 2 - 9) / (4 * F - 1)
    gamma_bound = 0.5 * (1 + root)
    assert channel.m_value(statezoo.werner_derivative(F, 0.55)) > 1.0          # a < gamma
    above = min(gamma_bound + 0.02, 1.0)
    assert channel.m_value(statezoo.werner_derivative(F, above)) < 1.0


def test_singlet_fraction_relation_where_useful():
    for family, grid, fixed in (("werner", np.linspace(0.55, 1.0, 10), {}),
                                ("mjwk", np.linspace(0.4, 1.0, 10), {}),
                                ("nmems", np.linspace(0.0, 0.2, 6), {})):
        for value, report, _ in channel.analyze_family(family, grid, **fixed):
            if report.n_value > 1.0:
                assert report.singlet_fraction == pytest.approx(
                    (1.0 + report.n_value) / 4.0, abs=1e-8)


def test_usefulness_iff_fidelity_beats_classical():
    rng = np.random.default_rng(41)
    for _ in range(100):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        rep = channel.analyze_channel(rho)
        assert rep.useful_for_teleportation == (rep.fidelity_opt > 2.0 / 3.0)
        assert rep.fidelity_opt == pytest.approx(0.5 * (1 + rep.n_value / 3), abs=1e-12)
        assert rep.violates_bell_chsh == (rep.m_value > 1.0)


def test_n_value_bounded_by_negativity():
    rng = np.random.default_rng(43)
    for _ in range(200):
        rho = random_density(rng, (2, 2), rank=int(rng.integers(1, 5)))
        assert channel.n_value(rho) <= 1.0 + 2.0 * measures.negativity(rho) + 1e-9


def test_nmems_linear_entropy_bounds_on_useful_window():
    # S_L = (2/27)(8 + 14p - 13p^2) rises from 16/27 at p = 0 towards
    # 19/24 as p -> 1/4; the closed form is cross-checked by direct purity
    for p in np.linspace(0.0, 0.2499, 20):
        rho = statezoo.nmems(p)
        s_l = measures.entropy(rho, "linear")
        assert s_l == pytest.approx(2.0 / 27.0 * (8 + 14 * p - 13 * p * p), abs=1e-12)
        assert 16.0 / 27.0 - 1e-12 <= s_l < 19.0 / 24.0


def test_optimal_fidelity_qutrit_route_on_distilled_clone():
    from entkit import cloning

    joint = cloning.qutrit_cloned_pair(np.sqrt(1 / 8)).joint
    dist = cloning.distill(joint, cloning.distillation_filter(joint))
    f = channel.optimal_fidelity(dist)
    assert f == pytest.approx(0.5409, abs=1e-3)


def test_report_singlet_fraction_against_oracle():
    rng = np.random.default_rng(47)
    for _ in range(20):
        rho = random_density(rng, (2, 2))
        rep = channel.analyze_channel(rho)
        assert rep.singlet_fraction <= fef_closed_form(rho) + 1e-9
