"""State-family constructor tests: closed-form matrices, ranges, cross-checks."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from entkit import measures, statezoo
from entkit.qcore import DensityMatrix, DomainError, _density_spectra, basis_ket
from util import nmems_from_reductions, wei_slice


def test_bell_indexing():
    s = 1 / np.sqrt(2)
    assert_allclose(statezoo.bell(1).vector.real, [s, 0, 0, s])
    assert_allclose(statezoo.bell(2).vector.real, [s, 0, 0, -s])
    assert_allclose(statezoo.bell(3).vector.real, [0, s, s, 0])
    assert_allclose(statezoo.bell(4).vector.real, [0, s, -s, 0])
    with pytest.raises(DomainError):
        statezoo.bell(5)


def test_bell_states_orthonormal():
    vs = [statezoo.bell(k).vector for k in range(1, 5)]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert_allclose(gram, np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# werner family
# ---------------------------------------------------------------------------

def test_werner_computational_basis_entries():
    F = 0.8
    rho = statezoo.werner(F).matrix
    assert_allclose(rho[0, 0], (1 - F) / 3)
    assert_allclose(rho[3, 3], (1 - F) / 3)
    assert_allclose(rho[1, 1], (1 + 2 * F) / 6)
    assert_allclose(rho[2, 2], (1 + 2 * F) / 6)
    assert_allclose(rho[1, 2], (1 - 4 * F) / 6)


def test_werner_at_unit_fraction_is_the_singlet():
    assert_allclose(statezoo.werner(1.0).matrix,
                    statezoo.bell(4).density().matrix, atol=1e-14)


def test_werner_range():
    for bad in (0.0, 0.25, 1.1):
        with pytest.raises(DomainError):
            statezoo.werner(bad)


@pytest.mark.parametrize("F", np.linspace(0.3, 1.0, 8))
def test_werner_concurrence_closed_form(F):
    assert abs(measures.concurrence(statezoo.werner(F)) - max(0.0, 2 * F - 1)) <= 1e-10


# ---------------------------------------------------------------------------
# mjwk family
# ---------------------------------------------------------------------------

def test_mjwk_branch_seam_is_continuous():
    c = 2.0 / 3.0
    assert statezoo.mjwk_h(c) == pytest.approx(1.0 / 3.0)
    below = statezoo.mjwk(c - 1e-12).matrix
    above = statezoo.mjwk(c).matrix
    assert np.max(np.abs(below - above)) < 1e-10


def test_mjwk_entries():
    C = 0.5
    rho = statezoo.mjwk(C).matrix
    assert_allclose(rho[0, 0], 1 / 3)
    assert_allclose(rho[1, 1], 1 / 3)
    assert_allclose(rho[2, 2], 0.0)
    assert_allclose(rho[0, 3], C / 2)


@pytest.mark.parametrize("C", np.linspace(0.0, 1.0, 11))
def test_mjwk_parameter_is_its_own_concurrence(C):
    assert abs(measures.concurrence(statezoo.mjwk(C)) - C) <= 1e-10


def test_mjwk_range():
    with pytest.raises(DomainError):
        statezoo.mjwk(-0.1)
    with pytest.raises(DomainError):
        statezoo.mjwk(1.1)


# ---------------------------------------------------------------------------
# wei family and werner derivative
# ---------------------------------------------------------------------------

def test_wei_normalisation_enforced():
    with pytest.raises(DomainError):
        statezoo.wei(0.3, 0.3, 0.3, 0.3, 0.3)
    with pytest.raises(DomainError):
        statezoo.wei(-0.1, 0.4, 0.2, 0.2, 0.3)


def test_wei_rounds_tiny_negative_weights_to_zero():
    gamma = 0.9 + 2e-13
    rho = statezoo.wei(-1e-13, -1e-13, 0.05, 0.05, gamma)
    assert rho.matrix[0, 0].real == gamma / 2.0        # x counted as 0
    assert np.min(np.linalg.eigvalsh(rho.matrix)) >= 0.0
    with pytest.raises(DomainError, match="wei parameter x"):
        statezoo.wei(-1e-9, 0.0, 0.05, 0.05, 0.9 + 1e-9)


def test_wei_concurrence_closed_form():
    rho = statezoo.wei(0.1, 0.1, 0.1, 0.1, 0.6)
    assert measures.concurrence(rho) == pytest.approx(0.6 - 2 * 0.1, abs=1e-10)


def test_werner_derivative_reduces_to_werner_at_half():
    F = 0.8
    wd = statezoo.werner_derivative(F, 0.5).matrix
    # same spectrum and same entanglement as the Werner state of that fraction
    w = statezoo.werner(F)
    assert_allclose(np.linalg.eigvalsh(wd), np.linalg.eigvalsh(w.matrix), atol=1e-12)
    assert measures.concurrence(statezoo.werner_derivative(F, 0.5)) == pytest.approx(
        measures.concurrence(w), abs=1e-10)


def test_werner_derivative_entanglement_bound():
    F = 0.8
    bound = statezoo.werner_derivative_entangled_bound(F)
    eps = 1e-4
    assert measures.concurrence(statezoo.werner_derivative(F, bound - eps)) > 0
    assert measures.concurrence(statezoo.werner_derivative(F, min(bound + eps, 1.0))) == 0


def test_werner_derivative_range():
    with pytest.raises(DomainError):
        statezoo.werner_derivative(0.5, 0.6)
    with pytest.raises(DomainError):
        statezoo.werner_derivative(0.8, 0.4)


# ---------------------------------------------------------------------------
# nmems family
# ---------------------------------------------------------------------------

def test_nmems_limit_p0():
    rho = statezoo.nmems(0.0).matrix
    phi = statezoo.bell(3).density().matrix
    base = np.zeros((4, 4), dtype=complex)
    base[0, 0] = 1.0
    expected = base / 3 + 2 * phi / 3
    assert_allclose(rho, expected, atol=1e-14)


def test_nmems_limit_p1():
    rho = statezoo.nmems(1.0).matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert_allclose(rho.real, expected, atol=1e-14)


def test_nmems_corner_entry():
    assert statezoo.nmems(0.2).matrix[0, 0].real == pytest.approx((0.2 + 2) / 6)


def test_nmems_equals_reduction_construction_on_grid():
    grid = np.linspace(0.0, 1.0, 101)
    stack = statezoo.nmems(grid)
    _density_spectra((2, 2), stack)
    for p, c in zip(grid, stack):
        a = statezoo.nmems(p).matrix
        b = nmems_from_reductions(p).matrix
        assert np.max(np.abs(a - b)) <= 1e-12
        assert np.max(np.abs(c - b)) <= 1e-12


def test_nmems_range():
    with pytest.raises(DomainError):
        statezoo.nmems(-0.01)
    with pytest.raises(DomainError):
        statezoo.nmems(1.01)


# ---------------------------------------------------------------------------
# ih mems and cloned mems
# ---------------------------------------------------------------------------

def test_ih_mems_ordering_enforced():
    with pytest.raises(DomainError):
        statezoo.ih_mems(0.2, 0.4, 0.3, 0.1)
    rho = statezoo.ih_mems(0.4, 0.3, 0.2, 0.1)
    assert rho.matrix[1, 1].real == pytest.approx(0.4 / 2 + 0.2 / 2)


def test_ih_mems_validates_only_the_state_it_returns(monkeypatch):
    # its Bell projectors are module constants, not states built per call
    built, validate = [], DensityMatrix.__post_init__

    def counted(self):
        built.append(self.dims)
        validate(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    rho = statezoo.ih_mems(0.4, 0.3, 0.2, 0.1)
    assert built == [(2, 2)]
    assert np.array_equal(rho.matrix, 0.4 * statezoo.bell(4).density().matrix
                          + 0.3 * np.outer(basis_ket((0, 0), (2, 2)), basis_ket((0, 0), (2, 2)))
                          + 0.2 * statezoo.bell(3).density().matrix
                          + 0.1 * np.outer(basis_ket((1, 1), (2, 2)), basis_ket((1, 1), (2, 2))))


def test_cloned_mems_is_werner_family_member_at_two_thirds():
    rho = statezoo.cloned_mems(2.0 / 3.0).matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 13.0 / 36.0
    expected[1, 1] = expected[2, 2] = 5.0 / 36.0
    expected[0, 3] = expected[3, 0] = 2.0 / 9.0
    assert_allclose(rho.real, expected, atol=1e-14)
    psi_plus = statezoo.bell(1).density().matrix
    assert_allclose(rho, 4.0 / 9.0 * psi_plus + 5.0 / 36.0 * np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# pure families
# ---------------------------------------------------------------------------

def test_pati_at_one_is_ghz():
    assert_allclose(statezoo.pati(1.0).vector, statezoo.ghz3().vector, atol=1e-14)
    with pytest.raises(DomainError):
        statezoo.pati(0.0)


def test_w3_prototype_vector():
    v = statezoo.w3_prototype().vector
    expected = (basis_ket((1, 0, 0), (2, 2, 2)) + basis_ket((0, 1, 0), (2, 2, 2))
                + basis_ket((0, 0, 1), (2, 2, 2))) / np.sqrt(3)
    assert_allclose(v, expected, atol=1e-14)


def test_w3_nonprototype_vector():
    v = statezoo.w3_nonprototype().vector
    assert v[1].real == pytest.approx(np.sqrt(2) / 2)
    assert v[2].real == pytest.approx(0.5)
    assert v[4].real == pytest.approx(0.5)


def test_qutrit_ghz_vector():
    v = statezoo.qutrit_ghz3().vector
    assert v.size == 27
    for i in range(3):
        assert v[i * 9 + i * 3 + i].real == pytest.approx(1 / np.sqrt(3))
    # the bits of (|000> + |111> + |222>)/sqrt(3) summed from its basis kets
    kets = sum(basis_ket((i, i, i), (3, 3, 3)).real for i in range(3))
    assert v.tobytes() == (kets / np.sqrt(3)).astype(complex).tobytes()


def test_ghz_class_mutually_orthogonal_and_orthogonal_to_ghz():
    states = [statezoo.ghz_class(i).vector for i in range(1, 8)]
    states.append(statezoo.ghz3().vector)
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert_allclose(gram, np.eye(8), atol=1e-14)


def test_liqiu_w_components():
    psi = statezoo.liqiu_w(1)
    # (|10> + |01>)/sqrt(2) x |0> + |00>|1>, all over sqrt(2)
    assert psi.vector[0b100].real == pytest.approx(0.5)
    assert psi.vector[0b010].real == pytest.approx(0.5)
    assert psi.vector[0b001].real == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(DomainError):
        statezoo.liqiu_w(0)


def test_generalized_max_entangled():
    psi = statezoo.generalized_max_entangled(3)
    assert psi.vector[0].real == pytest.approx(1 / np.sqrt(3))
    assert psi.vector[4].real == pytest.approx(1 / np.sqrt(3))
    assert psi.vector[8].real == pytest.approx(1 / np.sqrt(3))


# ---------------------------------------------------------------------------
# the family constructors over an array of parameter values
# ---------------------------------------------------------------------------

# family -> (constructor of one grid value or an array of them, in-domain grid)
ARRAY_FAMILIES = {
    "werner": (statezoo.werner, np.linspace(0.25, 1.0, 31)[1:]),
    "mjwk": (statezoo.mjwk, np.r_[np.linspace(0.0, 1.0, 31), 2.0 / 3.0,
                                  np.nextafter(2.0 / 3.0, 0.0)]),
    "nmems": (statezoo.nmems, np.linspace(0.0, 1.0, 31)),
    "werner_derivative": (lambda a: statezoo.werner_derivative(0.8, a), np.linspace(0.5, 1.0, 31)),
    "wei": (lambda gamma: wei_slice(gamma, 0.05, 0.05), np.linspace(0.0, 0.9, 31)),
}


@pytest.mark.parametrize("family", sorted(ARRAY_FAMILIES))
def test_constructor_over_an_array_gives_each_value_its_bits(family):
    build, grid = ARRAY_FAMILIES[family]
    stack = build(grid)
    assert stack.dtype == complex and stack.shape == (len(grid), 4, 4)
    alone = [build(float(v)) for v in grid]
    bits = np.array([rho.matrix for rho in alone]).view(np.int64)
    assert (stack.view(np.int64) == bits).all()
    spectra = np.array([rho.spectrum for rho in alone]).view(np.int64)
    assert (_density_spectra((2, 2), stack).view(np.int64) == spectra).all()


# (constructor, array arguments, the scalar call at the first bad entry)
@pytest.mark.parametrize("build,args,first_bad", [
    (statezoo.werner, ([0.5, 1.2, 0.1],), lambda: statezoo.werner(1.2)),
    (statezoo.mjwk, ([0.5, -0.1, 1.5],), lambda: statezoo.mjwk(-0.1)),
    (statezoo.nmems, ([0.5, 0.2, 1.5],), lambda: statezoo.nmems(1.5)),
    (statezoo.werner_derivative, ([0.8, 0.9, 0.4], [0.7, 0.3, 0.7]),
     lambda: statezoo.werner_derivative(0.9, 0.3)),
    (statezoo.werner_derivative, ([0.8, 0.4, 0.9], [0.7, 0.3, 0.3]),
     lambda: statezoo.werner_derivative(0.4, 0.3)),
    # a sum != 1 at the second entry, a negative y at the third
    (statezoo.wei, ([0.1, 0.3, 0.1], [0.1, 0.3, -0.1], 0.1, 0.1, [0.6, 0.3, 0.8]),
     lambda: statezoo.wei(0.3, 0.3, 0.1, 0.1, 0.3)),
    (statezoo.wei, ([0.1, 0.3, 0.1], [0.1, -0.1, 0.3], 0.1, 0.1, [0.6, 0.6, 0.6]),
     lambda: statezoo.wei(0.3, -0.1, 0.1, 0.1, 0.6)),
])
def test_constructor_over_an_array_raises_for_its_first_bad_entry(build, args, first_bad):
    with pytest.raises(DomainError) as alone:
        first_bad()
    with pytest.raises(DomainError) as grid:
        build(*(np.array(arg) if isinstance(arg, list) else arg for arg in args))
    assert str(grid.value) == str(alone.value)
