"""Q(t) scalars against sympy as the oracle.

``RatFunc`` keeps c * N / D with N and D primitive integer polynomials, and
its sums and products never take the gcd of their whole result; these tests
check the values, their canonical shape, == and hash, the integer
polynomial gcd, pseudo-division and the rational-root test against sympy.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from filiform import catalog
from filiform.extensions import _family_top
from filiform.scalars import Poly, RatFunc, format_rat, rational_roots

T = sympy.Symbol("t")

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def sym_poly(p: Poly):
    return sum((c * T ** i for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def sym(x: RatFunc):
    return sympy.Rational(x.c.numerator, x.c.denominator) * sym_poly(x.num) / sym_poly(x.den)


def sym_rat(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


@st.composite
def leaves(draw):
    """A rational polynomial of degree <= 2 in t, as (RatFunc, sympy)."""
    coeffs = draw(st.lists(small, max_size=3))
    t = RatFunc.t()
    ours = RatFunc.const(0)
    for i, c in enumerate(coeffs):
        ours = ours + c * t ** i
    return ours, sum((sym_rat(c) * T ** i for i, c in enumerate(coeffs)), sympy.Integer(0))


def combine(children):
    binary = st.tuples(st.sampled_from("+-*/"), children, children)
    power = st.tuples(st.just("^"), children, st.integers(-2, 3))
    return binary | power


def evaluate(tree):
    """(RatFunc or None, sympy value or None); None where a zero divides."""
    if len(tree) == 2:
        return tree
    op, left, right = tree
    a, sa = evaluate(left)
    if a is None:
        return None, None
    if op == "^":
        if right < 0 and sympy.cancel(sa) == 0:
            with pytest.raises(ZeroDivisionError):
                a ** right
            return None, None
        return a ** right, sa ** right
    b, sb = evaluate(right)
    if b is None:
        return None, None
    if op == "/" and sympy.cancel(sb) == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
        return None, None
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    return a / b, sa / sb


expressions = st.recursive(leaves(), combine, max_leaves=6)


def assert_canonical(x: RatFunc, expected) -> None:
    """x is c * N / D in the unique shape, and its value is expected."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expected)))
    assert sympy.cancel(sym(x) - expected) == 0
    if num == 0:
        assert (x.c, x.num.coeffs, x.den.coeffs) == (0, (), (1,))
        return
    assert x.c != 0
    for p in (x.num, x.den):
        assert type(p.coeffs[-1]) is int and p.coeffs[-1] > 0
        assert gcd(*p.coeffs) == 1
    assert sympy.degree(sympy.gcd(sym_poly(x.num), sym_poly(x.den)), T) == 0
    assert x.num.degree == sympy.degree(num, T)
    assert x.den.degree == sympy.degree(den, T)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_ratfunc_matches_sympy_cancel(tree):
    ours, expected = evaluate(tree)
    assume(ours is not None)
    assert_canonical(ours, expected)


@settings(max_examples=200, deadline=None)
@given(expressions, expressions)
def test_equal_values_have_equal_hashes(tree_x, tree_y):
    x, sx = evaluate(tree_x)
    y, sy = evaluate(tree_y)
    assume(x is not None and y is not None)
    same = sympy.cancel(sx - sy) == 0
    assert (x == y) == same
    if same:
        assert hash(x) == hash(y)
    # the same value by two other routes
    assert x + y - y == x and hash(x + y - y) == hash(x)
    if sympy.cancel(sy) != 0:
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)
    value = sympy.cancel(sx)
    if value.is_Rational:
        c = Fraction(int(value.p), int(value.q))
        assert x == c and c == x and hash(x) == hash(c)
        assert x != c + 1
    else:
        assert all(x != k for k in (0, 1, Fraction(1, 2)))


int_polys = st.lists(st.integers(-6, 6), max_size=4).map(Poly)


@settings(max_examples=300, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_poly_gcd_is_sympys_up_to_a_unit(a, b, common):
    a, b = a * common, b * common
    ours = sym_poly(a.gcd(b))
    theirs = sympy.gcd(sym_poly(a), sym_poly(b))
    if theirs == 0:
        assert ours == 0
    else:
        assert sympy.cancel(ours / theirs).is_Rational
        assert a.gcd(b).coeffs[-1] > 0


@settings(max_examples=300, deadline=None)
@given(int_polys, int_polys.filter(bool), st.booleans())
def test_poly_divmod_is_exact_or_pseudo_division(a, b, multiple):
    if multiple:
        a = a * b
    q, r = a.divmod(b)
    assert r.degree < b.degree
    lhs = q * b + r
    if a.is_zero():
        assert lhs.is_zero()
        return
    m = Fraction(lhs.coeffs[-1], a.coeffs[-1])
    assert m.denominator == 1 and m > 0
    assert lhs == a * Poly([m.numerator])
    if multiple or abs(b.coeffs[-1]) == 1:
        assert m == 1
    if multiple:
        assert r.is_zero()
    # r is a positive multiple of the remainder over Q
    rem = sympy.rem(sym_poly(a), sym_poly(b), T)
    if rem == 0:
        assert r.is_zero()
    else:
        ratio = sympy.cancel(sym_poly(r) / rem)
        assert ratio.is_Rational and ratio > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(small, max_size=3), st.lists(st.integers(-4, 4), max_size=3))
def test_rational_roots_are_sympys(roots, extra):
    # a product of chosen linear factors and an arbitrary cofactor
    p = Poly([1])
    for x in roots:
        p = p * Poly([-x.numerator, x.denominator])
    p = p * Poly(extra or [1])
    assume(not p.is_zero())
    expected = set()
    for factor, _ in sympy.factor_list(sym_poly(p), T)[1]:
        if sympy.degree(factor, T) == 1:
            root = sympy.solve(factor, T)[0]
            expected.add(Fraction(int(root.p), int(root.q)))
    assert rational_roots(p) == sorted(expected)


def test_exact_arithmetic_corners():
    t = RatFunc.t()
    with pytest.raises(ZeroDivisionError):
        t / 0
    with pytest.raises(ZeroDivisionError):
        1 / (t - t)
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(0) ** -1
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly([1]), Poly([]))
    with pytest.raises(ZeroDivisionError):
        Poly([1]).divmod(Poly([]))
    with pytest.raises(ZeroDivisionError):
        (1 / (t - 2)).eval(Fraction(2))
    with pytest.raises(ValueError):
        rational_roots(Poly([]))
    with pytest.raises(TypeError):
        Poly([Fraction(1, 2)])
    # the constructor normalizes: (4t - 2) / (-6t + 3) = -2/3
    x = RatFunc(Poly([-2, 4]), Poly([3, -6]))
    assert (x.c, x.num.coeffs, x.den.coeffs) == (Fraction(-2, 3), (1,), (1,))
    assert x == Fraction(-2, 3) and hash(x) == hash(Fraction(-2, 3))
    y = (t * t - 1) / (2 * t + 2)
    assert (y.c, y.num.coeffs, y.den.coeffs) == (Fraction(1, 2), (-1, 1), (1,))
    assert y.eval(Fraction(3)) == 1


@pytest.mark.parametrize("name, drops", [
    ("g9", ["-5/2"]),
    ("g10", ["-5/2", "-1/4"]),
    ("g11", ["-3", "-5/2", "-1", "8"]),
])
def test_family_rank_drops_are_pinned(name, drops):
    # kernel_and_rank_drops on d at the top weight of the family over Q(alpha)
    assert _family_top(catalog.family_symbolic(name))[1] == [Fraction(d) for d in drops]


def test_format_rat_prints_past_the_int_string_cap():
    # str() refuses integers beyond sys.get_int_max_str_digits() (4300 by default)
    assert format_rat(Fraction(10**5000, 3)) == "1" + "0" * 5000 + "/3"
    assert format_rat(Fraction(-(10**5000))) == "-1" + "0" * 5000
