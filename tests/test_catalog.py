"""Catalog builders: guards, relation tables, classical closed forms."""

from fractions import Fraction

import pytest

from filiform import catalog
from filiform.cochain import Form, differential
from filiform.lie import is_filiform, jacobi_check, grading_violations
from filiform.scalars import Poly, rational_roots


def test_build_m02_k3_matches_printed_relations():
    a = catalog.build("m02", n=8)  # k = 3
    assert a.bracket(1, 7) == {8: Fraction(1)}
    # second block: (-1)^{l+1} e_{2k+1}
    assert a.bracket(2, 5) == {7: Fraction(-1)}
    assert a.bracket(3, 4) == {7: Fraction(1)}
    # third block: (-1)^{j+1} (k-j+1) e_{2k+2}
    assert a.bracket(2, 6) == {8: Fraction(-2)}
    assert a.bracket(3, 5) == {8: Fraction(1)}
    assert jacobi_check(a) == []


def test_build_v12():
    a = catalog.build("V", n=12)
    assert a.bracket(3, 7) == {10: Fraction(4)}
    assert a.bracket(5, 8) == {}
    assert is_filiform(a) and grading_violations(a) == []


def test_guards():
    with pytest.raises(catalog.GuardViolated):
        catalog.build("g11", alpha=Fraction(-5, 2))
    with pytest.raises(catalog.GuardViolated):
        catalog.build("g11", alpha=-1)
    with pytest.raises(catalog.GuardViolated):
        catalog.build("g9", alpha=Fraction(-5, 2))
    with pytest.raises(catalog.GuardViolated):
        catalog.build("m1", n=4)  # the displayed dim-4 relations break Jacobi
    with pytest.raises(catalog.GuardViolated):
        catalog.build("heisenberg", n=4)


def test_m03_variants_disagree():
    # The two circulating versions of m_{0,3} do not define the same object:
    # the section5 variant fails the Jacobi identity already at k = 3, while
    # the classification-table version is a Lie algebra for every k.
    table = catalog.build("m03", n=9, variant="table")
    assert jacobi_check(table) == []
    sec5 = catalog.build("m03", n=9, variant="section5")
    assert jacobi_check(sec5) != []
    for n in (11, 13):
        assert jacobi_check(catalog.build("m03", n=n, variant="table")) == []
        assert jacobi_check(catalog.build("m03", n=n, variant="section5")) != []


def test_m03_table_is_extension_of_m02_by_printed_cocycle():
    # extension cocycle: (1-k) e^1^e^{2k+2} + (1/4) sum (-1)^i (i-2)(j-2) e^i^e^j
    for k in (3, 4, 5):
        n = 2 * k + 3
        base = catalog.build("m02", n=n - 1)
        # (1-k) e^1^e^{2k+2} plus the ordered sum, folded to unordered pairs
        coeffs = {(1, n - 1): Fraction(1 - k)}
        for i in range(1, (n - 1) // 2 + 1):
            j = n - i
            if i < j:
                c = Fraction((-1) ** i * (i - 2) * (j - 2), 2)
                if c:
                    coeffs[(i, j)] = coeffs.get((i, j), 0) + c
        cocycle = Form(2, coeffs)
        assert differential(base, cocycle).is_zero()
        from filiform.extensions import ExtensionCocycle, central_extension
        ext = central_extension(ExtensionCocycle(base, cocycle))
        assert ext.brackets == catalog.build("m03", n=n).brackets


def test_m02_matches_extension_of_m01():
    for k in (3, 4, 6):
        n = 2 * k + 2
        base = catalog.build("m01", n=n - 1)
        coeffs = {(1, n - 1): Fraction(1 - k)}
        for i in range(1, (n - 1) // 2 + 1):
            j = n - i
            if i < j:
                c = Fraction((-1) ** (i + 1) * (j - i), 2)
                if c:
                    coeffs[(i, j)] = coeffs.get((i, j), 0) + c
        cocycle = Form(2, coeffs)
        assert differential(base, cocycle).is_zero()
        from filiform.extensions import ExtensionCocycle, central_extension
        ext = central_extension(ExtensionCocycle(base, cocycle))
        assert ext.brackets == catalog.build("m02", n=n).brackets


def test_g_family_symbolic_matches_instances():
    fam = catalog.family_symbolic("g10")
    for alpha in (Fraction(0), Fraction(8), Fraction(-1, 3)):
        assert fam.at_parameter(alpha).brackets == catalog.build("g10", alpha=alpha).brackets


def test_printed_form_v_and_m0():
    w = catalog.form_v_symplectic(6)
    assert w.coeffs[(1, 12)] == 11 and w.coeffs[(6, 7)] == 1
    w = catalog.form_m0_symplectic(4, beta=1)
    assert w.coeffs[(1, 8)] == 1 and w.coeffs[(2, 7)] == 1 and w.coeffs[(3, 6)] == -1


def test_printed_g8_form_is_the_weight9_cocycle():
    a = catalog.build("g8", alpha=3)
    w = catalog.form_g8_symplectic(3)
    assert differential(a, w).is_zero()
    assert w.coeffs[(2, 7)] == Fraction(2 * 9 + 9 - 2, 11)


def test_exceptional_cubics_have_no_rational_roots():
    # the two irrational symplectic exclusions of the ten-dimensional family
    for coeffs in ([3, 0, 2, 2], [-21, -8, 8, 4]):
        assert rational_roots(Poly(coeffs)) == []


def test_symbolic_family_evaluation_guard():
    fam = catalog.family_symbolic("g9")
    with pytest.raises(ZeroDivisionError):
        fam.at_parameter(Fraction(-5, 2))
