"""Symplectic and contact structure detection and construction."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filiform import catalog, spectral
from filiform.cochain import Form, differential
from filiform.extensions import graded_isomorphic
from filiform.lie import abelian
from filiform.linalg import pfaffian, vec_combination
from filiform.structures import (EvenDimension,
                                 NotSymplectic, OddDimension, contact_check,
                                 contact_exists, contactize, is_symplectic_form,
                                 symplectic_catalog_check, symplectic_exists,
                                 wedge_power)
from test_lie import computations

F = Form.from_pairs


# -- wedge powers -----------------------------------------------------------------

def test_wedge_power_square_of_decomposable_vanishes():
    a = abelian(4)
    assert wedge_power(a, F(2, [[[1, 2], "1"]]), 2).is_zero()


def test_wedge_power_omega5_on_v4():
    a = catalog.build("V", n=4)
    omega = F(2, [[[1, 4], "3"], [[2, 3], "1"]])
    sq = wedge_power(a, omega, 2)
    assert sq == F(4, [[[1, 2, 3, 4], "6"]])


def test_wedge_power_darboux():
    a = abelian(8)
    omega = Form(2, {(2 * i - 1, 2 * i): Fraction(1) for i in range(1, 5)})
    top = wedge_power(a, omega, 4)
    assert top == F(8, [[[1, 2, 3, 4, 5, 6, 7, 8], "24"]])  # k! * volume


# -- Pfaffians against the wedge-power oracle ----------------------------------------

COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def two_forms(draw):
    """(n, phi), n even: sparse, dense, or singular with a common kernel vector."""
    n = draw(st.sampled_from([2, 4, 6, 8, 10]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    shape = draw(st.sampled_from(["sparse", "dense", "singular"]))
    if shape == "sparse":
        # a perfect matching in a drawn order, plus a few more entries
        order = draw(st.permutations(range(1, n + 1)))
        phi = {tuple(sorted(order[t:t + 2])): draw(COEFF.filter(bool))
               for t in range(0, n, 2)}
        phi.update({ij: draw(COEFF) for ij in pairs if draw(st.integers(0, 5)) == 0})
        return n, Form(2, phi)
    if shape == "dense":
        return n, Form(2, {ij: draw(COEFF.filter(bool)) for ij in pairs})
    # every factor annihilates v (v_piv = 1), so v lies in the kernel of phi
    piv = draw(st.integers(1, n))
    v = {i: Fraction(1) if i == piv else draw(COEFF) for i in range(1, n + 1)}

    def factor():
        alpha = {i: draw(COEFF) for i in range(1, n + 1)}
        alpha[piv] -= sum(alpha[i] * v[i] for i in alpha)
        return Form(1, {(i,): c for i, c in alpha.items()})

    phi = Form.zero(2)
    for _ in range(draw(st.integers(1, n // 2))):
        phi = phi.add(factor().wedge(factor()))
    return n, phi


@settings(max_examples=120, deadline=None)
@given(two_forms())
def test_pfaffian_is_the_top_coefficient_of_the_wedge_power(drawn):
    n, phi = drawn
    top = wedge_power(abelian(n), phi, n // 2).coeffs.get(tuple(range(1, n + 1)), 0)
    assert factorial(n // 2) * pfaffian(n, phi.coeffs) == top


ALPHA = COEFF.filter(lambda x: x not in (Fraction(-5, 2), -1, -3))


@st.composite
def contact_candidates(draw):
    """(odd-dimensional catalog algebra, random 1-form beta)."""
    name = draw(st.sampled_from(["m0", "V", "g7", "g9", "g11"]))
    if name in ("m0", "V"):
        a = catalog.build(name, n=draw(st.sampled_from([5, 7, 9, 11])))
    else:
        a = catalog.build(name, alpha=draw(ALPHA))
    sparse = draw(st.booleans())
    beta = Form(1, {(i,): draw(COEFF) for i in range(1, a.dim + 1)
                    if not sparse or draw(st.integers(0, 2)) == 0})
    return a, beta


@settings(max_examples=80, deadline=None)
@given(contact_candidates())
def test_bordered_pfaffian_is_the_contact_volume(drawn):
    a, beta = drawn
    n = a.dim
    d_beta = differential(a, beta)
    volume = beta.wedge(wedge_power(a, d_beta, n // 2))
    bordered = dict(d_beta.coeffs)
    bordered.update({(i, n + 1): c for (i,), c in beta.coeffs.items()})
    pf = pfaffian(n + 1, bordered)
    assert factorial(n // 2) * pf == volume.coeffs.get(tuple(range(1, n + 1)), 0)
    assert contact_check(a, beta).volume == volume


# -- pointwise symplectic check ------------------------------------------------------

def test_printed_v_forms_are_symplectic():
    for k in range(3, 9):
        a = catalog.build("V", n=2 * k)
        assert is_symplectic_form(a, catalog.form_v_symplectic(k))


def test_degenerate_form_on_abelian():
    assert not is_symplectic_form(abelian(4), F(2, [[[1, 2], "1"]]))


def test_m0_family_symplectic_iff_beta_nonzero():
    for k in (2, 4, 6):
        a = catalog.build("m0", n=2 * k)
        assert is_symplectic_form(a, catalog.form_m0_symplectic(k, beta=1))
        assert is_symplectic_form(a, catalog.form_m0_symplectic(k, beta=Fraction(-2, 3)))
        # dropping the beta part leaves a closed but degenerate form
        assert not is_symplectic_form(a, F(2, [[[1, 2 * k], "1"]]))


def test_odd_dimension_raises():
    with pytest.raises(OddDimension):
        is_symplectic_form(catalog.build("m0", n=5), F(2, [[[1, 5], "1"]]))
    with pytest.raises(OddDimension):
        symplectic_exists(catalog.build("m0", n=7))


def test_closedness_failure_detected():
    a = catalog.build("m0", n=6)
    assert not is_symplectic_form(a, F(2, [[[1, 6], "1"], [[2, 3], "1"]]))


# -- existence: structured route -------------------------------------------------------

def test_m1_has_no_symplectic_structure():
    for k in (3, 4, 5, 6):
        cert = symplectic_exists(catalog.build("m1", n=2 * k))
        assert not cert.exists
        assert cert.reason == "GrCNotM0"


def test_t0_deformations_have_no_symplectic_structure():
    for n in (8, 10, 12):
        a = catalog.build("abelian_commutant", n=n, t=0, alphas=(1, Fraction(1, 2)))
        cert = symplectic_exists(a)
        assert not cert.exists
        assert cert.reason == "GrLNotSymplectic"


@pytest.mark.parametrize("family, alpha", [
    ("g8", "-5/2"), ("g8", "-2"), ("g8", "-1"), ("g8", "1/2"),
    ("g10", "-1/4"), ("g10", "-1"), ("g10", "-3"),
])
def test_grl_not_symplectic_is_decided_on_the_e1_corner(monkeypatch, family, alpha):
    # past a non-symplectic corner no closed lift and no obstruction block
    # is built: a graded algebra has no corner pairing gap >= 1
    def unreachable(*args):
        raise AssertionError("survival witness built past the E_1 corner")

    monkeypatch.setattr(spectral._PageComputer, "z_vectors", unreachable)
    a = catalog.build(family, alpha=Fraction(alpha))
    verdict = spectral.symplectic_survival(a)
    assert verdict.graded_symplectic is False
    assert verdict.obstruction_page is None
    assert symplectic_exists(a).reason == "GrLNotSymplectic"


def test_deformation_23_spectral_obstruction():
    a = catalog.build("deformation_23", alphas=(0, 0, 0))
    cert = symplectic_exists(a)
    assert not cert.exists
    assert cert.reason == "SpectralObstruction"
    v = cert.witness
    assert v.obstruction_page == 2
    assert v.obstruction_image == F(3, [[[2, 3, 4], "-2"]]).scale(
        next(iter(v.obstruction_image.coeffs.values())) / Fraction(-2))


def test_normal_form_deformations_admit_symplectic_structures():
    # the symplectic normal form has t = 2k - 7 ([e2, e5] = e_2k)
    for n in (8, 10, 12):
        a = catalog.build("deformation_21", n=n, alphas=(1,))
        cert = symplectic_exists(a)
        assert cert.exists
        assert is_symplectic_form(a, cert.form)


def test_other_deformation_levels_are_obstructed():
    # deforming m0(10) at the wrong level never yields a symplectic form,
    # even though gr_L is symplectic: the top class dies on page two
    for t in (1, 2):
        a = catalog.build("abelian_commutant", n=10, t=t, alphas=(1,))
        cert = symplectic_exists(a)
        assert not cert.exists
        assert cert.reason == "SpectralObstruction"


def test_corrected_proposition_form_on_21_shape():
    # e^1^e^2k + beta sum (-1)^i e^i^e^{2k-i+1} + e^2^e^{2k-1-t} (+ alpha tail)
    for k, alphas in ((4, (0, 0)), (5, (1, 2))):
        n = 2 * k
        t = n - 7
        a = catalog.build("deformation_21", n=n, alphas=alphas)
        omega = catalog.form_m0_symplectic(k, beta=1)
        tail = {(2, n - 1 - t): Fraction(1)}
        for r, c in enumerate(alphas, start=1):
            if c and n - 1 - t - r >= 3:
                tail[(2, n - 1 - t - r)] = Fraction(c)
        omega = omega.add(Form(2, tail))
        assert is_symplectic_form(a, omega)


def test_graded_families_exist_or_not():
    cert = symplectic_exists(catalog.build("g8", alpha=3))
    assert cert.exists
    for alpha in catalog.symplectic_exclusions("g8"):
        cert = symplectic_exists(catalog.build("g8", alpha=alpha))
        assert not cert.exists, alpha


def test_generic_route_on_abelian_and_heisenberg_product():
    cert = symplectic_exists(abelian(6))
    assert cert.exists
    assert is_symplectic_form(abelian(6), cert.form)


def test_nondegenerate_point_past_the_witness_points():
    # Pf(sum t_i c_i e^1^e^2) = sum c_i t_i vanishes at every witness point,
    # so the point comes from the grid search on the expanded polynomial
    from filiform.cochain import _witness_points, nondegenerate_point
    vecs = [{(1, 2): Fraction(c)} for c in (-2, 2, 3, -4, 1)]
    assert all(not pfaffian(2, vec_combination(t, vecs)) for t in _witness_points(5))
    point = nondegenerate_point(2, vecs)
    assert point is not None
    assert pfaffian(2, vec_combination(point, vecs))


def test_symplectic_verdict_computes_the_central_series_once(monkeypatch):
    calls = computations(monkeypatch, "central_series")
    for a in (catalog.build("V", n=10), catalog.build("m1", n=8),
              catalog.build("deformation_23", alphas=(1, 2, 3)), abelian(6)):
        calls.clear()
        symplectic_exists(a)
        assert len(calls) == 1, a


# -- homogeneous decomposition ----------------------------------------------------------

# The general symplectic forms of the paper: the printed form plus closed
# lower-weight terms.  On m0(2k), gamma_{2l+1} adds
# sum_{i=2..l} (-1)^i e^i ^ e^{2l-i+1}; on V_2k, gamma_5 adds e^2 ^ e^3 and
# gamma_7 adds e^2 ^ e^5 - 3 e^3 ^ e^4.
M0_10_GENERAL = catalog.form_m0_symplectic(5, beta=1).add(  # gamma_5 = 1, gamma_7 = -1
    F(2, [[[2, 3], "1"], [[2, 5], "-1"], [[3, 4], "1"]]))
V12_GENERAL = catalog.form_v_symplectic(6).add(  # gamma_5 = gamma_7 = 1
    F(2, [[[2, 3], "1"], [[2, 5], "1"], [[3, 4], "-3"]]))


def homogeneous_decomposition(a, omega):
    """The weight-homogeneous pieces of a form on a graded algebra, by weight."""
    parts = {}
    for idx, c in omega.coeffs.items():
        parts.setdefault(sum(a.weights[i - 1] for i in idx), {})[idx] = c
    return {w: Form(omega.degree, cs) for w, cs in sorted(parts.items())}


def test_homogeneous_decomposition_single():
    a = catalog.build("m0", n=8)
    omega = catalog.form_m0_symplectic(4, beta=2)
    parts = homogeneous_decomposition(a, omega)
    assert list(parts) == [9]


def test_homogeneous_decomposition_family_18():
    k = 5
    a = catalog.build("m0", n=2 * k)
    omega = M0_10_GENERAL
    parts = homogeneous_decomposition(a, omega)
    assert sorted(parts) == [5, 7, 2 * k + 1]
    # the top piece is symplectic and its power is the whole power
    top = parts[2 * k + 1]
    assert is_symplectic_form(a, top)
    assert wedge_power(a, omega, k) == wedge_power(a, top, k)


def test_top_power_equals_top_piece_power_on_v12():
    a = catalog.build("V", n=12)
    omega = V12_GENERAL
    assert is_symplectic_form(a, omega)
    parts = homogeneous_decomposition(a, omega)
    assert wedge_power(a, omega, 6) == wedge_power(a, parts[13], 6)


# -- contact ------------------------------------------------------------------------------

def test_heisenberg_contact():
    a = catalog.build("m0", n=3)
    cert = contact_check(a, Form.monomial((3,)))
    assert cert.valid
    assert cert.volume == F(3, [[[1, 2, 3], "1"]])


def test_e1_not_contact_on_m0_5():
    assert not contact_check(catalog.build("m0", n=5), Form.monomial((1,))).valid


def test_even_dimension_raises():
    with pytest.raises(EvenDimension):
        contact_check(catalog.build("m0", n=4), Form.monomial((1,)))
    with pytest.raises(EvenDimension):
        contact_exists(catalog.build("m0", n=6))


def test_contactize_v_2k():
    a = catalog.build("V", n=12)
    ext, beta = contactize(a, catalog.form_v_symplectic(6))
    assert ext.brackets == catalog.build("V", n=13).brackets
    assert contact_check(ext, beta).valid


def test_contactize_m0_gives_m01():
    for k in (2, 3, 5):
        a = catalog.build("m0", n=2 * k)
        ext, beta = contactize(a, catalog.form_m0_symplectic(k, beta=1))
        assert contact_check(ext, beta).valid
        assert graded_isomorphic(ext, catalog.build("m01", n=2 * k + 1))


def test_contactize_abelian_2_gives_heisenberg():
    ext, beta = contactize(abelian(2), F(2, [[[1, 2], "1"]]))
    assert ext.brackets == catalog.build("m0", n=3).brackets
    assert contact_check(ext, beta).valid


def test_contactize_g8_gives_g9():
    alpha = Fraction(3)
    ext, beta = contactize(catalog.build("g8", alpha=alpha),
                           catalog.form_g8_symplectic(alpha))
    assert ext.brackets == catalog.build("g9", alpha=alpha).brackets
    assert contact_check(ext, beta).valid


def test_contactize_g10_gives_g11():
    alpha = Fraction(0)
    ext, beta = contactize(catalog.build("g10", alpha=alpha),
                           catalog.form_g10_symplectic(alpha))
    assert ext.brackets == catalog.build("g11", alpha=alpha).brackets


def test_contactize_rejects_degenerate():
    with pytest.raises(NotSymplectic):
        contactize(abelian(4), F(2, [[[1, 2], "1"]]))


def test_no_contact_form_on_m0_5():
    # d beta = e^1 ^ (something) always, so (d beta)^2 = 0 identically
    assert contact_exists(catalog.build("m0", n=5)) is None
    assert contact_exists(catalog.build("m0", n=7)) is None


def test_contact_exists_on_m01_and_v():
    assert contact_exists(catalog.build("m01", n=7)).valid
    assert contact_exists(catalog.build("V", n=7)).valid


def test_symplectic_exists_in_scrambled_coordinates():
    # the certificate form must live in the coordinates of the input basis
    from filiform.lie import change_basis
    a = catalog.build("deformation_21", n=8, alphas=(2,))
    vecs = [{i: Fraction(1), (i % 8) + 1: Fraction(1)} if i in (2, 5)
            else {i: Fraction(1)} for i in range(1, 9)]
    scrambled = change_basis(a, vecs)
    cert = symplectic_exists(scrambled)
    assert cert.exists
    assert is_symplectic_form(scrambled, cert.form)


def test_top_power_weight_identity():
    # omega^k concentrates in weight n(n+1)/2 = k(2k+1)
    for name, k, omega in (("m0", 4, catalog.form_m0_symplectic(4, beta=1)),
                           ("V", 6, catalog.form_v_symplectic(6))):
        a = catalog.build(name, n=2 * k)
        top = wedge_power(a, omega, k)
        (idx, _), = top.coeffs.items()
        assert sum(idx) == k * (2 * k + 1)


def test_coboundary_shift_preserves_symplectic():
    # omega + d(xi) stays closed; nondegeneracy is re-verified, not assumed
    a = catalog.build("m0", n=8)
    omega = catalog.form_m0_symplectic(4, beta=1)
    for xi in (Form.monomial((8,)), Form.monomial((7,)).scale(Fraction(3, 2))):
        shifted = omega.add(differential(a, xi))
        assert differential(a, shifted).is_zero()
        assert is_symplectic_form(a, shifted)


def test_contact_exists_on_odd_families():
    assert contact_exists(catalog.build("g7", alpha=Fraction(1, 2))).valid
    assert contact_exists(catalog.build("g9", alpha=3)).valid
    assert contact_exists(catalog.build("g11", alpha=0)).valid


# -- catalog sweep -----------------------------------------------------------------------

def test_symplectic_catalog_check_report():
    report = symplectic_catalog_check()
    for key, value in report.items():
        if key.startswith("note"):
            continue
        assert value != "FAIL", (key, value)
    assert any(k.startswith("note") for k in report)
