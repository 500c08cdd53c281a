"""Constructors for the named algebras and their classical closed forms.

Every builder returns the exact bracket table of the corresponding relation
set, with the natural weights 1..n when the algebra is N-graded in that
sense.  Parameters may be rational numbers or a RatFunc symbol, so whole
one-parameter families can be manipulated symbolically.

Naming: m0, m1, m2, V (the quotients of the polynomial vector-field
algebra), m01/m02/m03 (the three extension towers over m0 in odd/even/odd
dimension), g7..g11 (the one-parameter families), plus heisenberg, abelian
and the filtered deformation fixtures with abelian commutant.
"""

from __future__ import annotations

from fractions import Fraction
from inspect import signature

from .cochain import Form
from .lie import LieAlgebra, abelian
from .scalars import RatFunc, as_scalar, rat


class GuardViolated(ValueError):
    pass


def _chain(n: int) -> dict:
    return {(1, i): {i + 1: 1} for i in range(2, n)}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_heisenberg(n: int) -> LieAlgebra:
    if n < 3 or n % 2 == 0:
        raise GuardViolated("heisenberg needs odd dimension >= 3")
    table = {(2 * i - 1, 2 * i): {n: 1} for i in range(1, (n - 1) // 2 + 1)}
    return LieAlgebra(n, table, weights=[1] * (n - 1) + [2])


def build_m0(n: int) -> LieAlgebra:
    if n < 3:
        raise GuardViolated("m0(n) needs n >= 3")
    return LieAlgebra(n, _chain(n), weights=range(1, n + 1))


def build_m1(n: int) -> LieAlgebra:
    """m1(2k): chain plus [e_j, e_{2k+1-j}] = (-1)^{j+1} e_2k, j = 2..k.

    Jacobi forces k >= 3 (at k = 2 these relations fail the identity,
    matching the fact that dimension 4 has a single filiform class).
    Graded with dims (2,1,...,1): weight(e_1) = 1, weight(e_i) = i-1.
    """
    if n < 6 or n % 2 == 1:
        raise GuardViolated("m1(2k) needs even dimension >= 6")
    k = n // 2
    table = _chain(n)
    for j in range(2, k + 1):
        table[(j, 2 * k + 1 - j)] = {2 * k: (-1) ** (j + 1)}
    return LieAlgebra(n, table, weights=[1] + [i - 1 for i in range(2, n + 1)])


def build_m2(n: int) -> LieAlgebra:
    if n < 3:
        raise GuardViolated("m2(n) needs n >= 3")
    table = _chain(n)
    for j in range(3, n - 1):
        table[(2, j)] = {j + 2: 1}
    return LieAlgebra(n, table, weights=range(1, n + 1))


def build_v(n: int) -> LieAlgebra:
    """V_n = L_1 / L_{n+1}: [e_i, e_j] = (j - i) e_{i+j} for i + j <= n."""
    if n < 3:
        raise GuardViolated("V_n needs n >= 3")
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1 - i):
            table[(i, j)] = {i + j: j - i}
    return LieAlgebra(n, table, weights=range(1, n + 1))


def build_m01(n: int) -> LieAlgebra:
    """m_{0,1}(2k+1), k >= 2 (for k = 2 it is isomorphic to m2(5))."""
    if n < 5 or n % 2 == 0:
        raise GuardViolated("m01(2k+1) needs odd dimension >= 5")
    k = (n - 1) // 2
    table = _chain(n)
    for l in range(2, k + 1):
        table[(l, 2 * k - l + 1)] = {2 * k + 1: (-1) ** (l + 1)}
    return LieAlgebra(n, table, weights=range(1, n + 1))


def build_m02(n: int) -> LieAlgebra:
    """m_{0,2}(2k+2), k >= 3 (classification-table relations)."""
    if n < 8 or n % 2 == 1:
        raise GuardViolated("m02(2k+2) needs even dimension >= 8")
    k = (n - 2) // 2
    table = _chain(n)
    for l in range(2, k + 1):
        table[(l, 2 * k - l + 1)] = {2 * k + 1: (-1) ** (l + 1)}
    for j in range(2, k + 1):
        table[(j, 2 * k - j + 2)] = {2 * k + 2: (-1) ** (j + 1) * (k - j + 1)}
    return LieAlgebra(n, table, weights=range(1, n + 1))


def build_m03(n: int, variant: str = "table") -> LieAlgebra:
    """m_{0,3}(2k+3), k >= 3.

    Two versions of these relations circulate; the classification-table one
    ("table") is the central extension of m02(2k+2) and is the default.  The
    other ("section5") has shifted ranges and coefficients and is kept
    verbatim so the discrepancy can be exhibited rather than silently
    reconciled: it fails the Jacobi identity at every k.
    """
    if n < 9 or n % 2 == 0:
        raise GuardViolated("m03(2k+3) needs odd dimension >= 9")
    k = (n - 3) // 2
    table = _chain(n)
    if variant == "table":
        for l in range(2, k + 1):
            table[(l, 2 * k - l + 1)] = {2 * k + 1: (-1) ** (l + 1)}
        for j in range(2, k + 1):
            table[(j, 2 * k - j + 2)] = {2 * k + 2: (-1) ** (j + 1) * (k - j + 1)}
        for m in range(3, k + 2):
            c = (m - 2) * k - Fraction((m - 2) * (m - 1), 2)
            if c:
                table[(m, 2 * k - m + 3)] = {2 * k + 3: (-1) ** m * c}
    elif variant == "section5":
        for l in range(2, k):
            table[(l, 2 * k - l - 1)] = {2 * k - 1: (-1) ** (l + 1)}
        for j in range(2, k):
            c = k - j - 1
            if c:
                table[(j, 2 * k - j)] = {2 * k: (-1) ** (j + 1) * c}
        for m in range(3, k):
            c = (m - 2) * (k - 1) - Fraction((m - 2) * (m - 1), 2)
            if c:
                table[(m, 2 * k - m + 1)] = {2 * k + 1: (-1) ** m * c}
    else:
        raise ValueError(f"unknown m03 variant {variant!r}")
    return LieAlgebra(n, table, weights=range(1, n + 1))


def _parameter(alpha):
    """alpha as a Fraction, or the RatFunc symbol as it is: the g-family
    constants divide by polynomials in alpha, and a Fraction keeps those
    quotients exact."""
    return alpha if isinstance(alpha, RatFunc) else rat(alpha)


def _g7_table(alpha) -> dict:
    a = _parameter(alpha)
    return {
        **_chain(7),
        (2, 3): {5: a + 2},
        (2, 4): {6: a + 2},
        (2, 5): {7: a + 1},
        (3, 4): {7: as_scalar(1)},
    }


def build_g7(alpha) -> LieAlgebra:
    return LieAlgebra(7, _g7_table(alpha), weights=range(1, 8))


def build_g8(alpha) -> LieAlgebra:
    a = _parameter(alpha)
    table = _g7_table(a)
    table[(1, 7)] = {8: 1}
    table[(2, 6)] = {8: a}
    table[(3, 5)] = {8: as_scalar(1)}
    return LieAlgebra(8, table, weights=range(1, 9))


# the parameters where a denominator of g_n vanishes; the cocycle omega_n
# that extends g_{n-1} to g_n is undefined at the same values
UNDEFINED_AT = {"g9": {Fraction(-5, 2)}, "g10": {Fraction(-5, 2)},
                "g11": {Fraction(-5, 2), Fraction(-1), Fraction(-3)}}


def _guard_not(alpha, family: str, name: str | None = None):
    if not isinstance(alpha, RatFunc) and rat(alpha) in UNDEFINED_AT[family]:
        raise GuardViolated(f"{name or family} is undefined at alpha = {alpha}")


def build_g9(alpha) -> LieAlgebra:
    _guard_not(alpha, "g9")
    a = _parameter(alpha)
    table = build_g8(a).brackets.copy()
    den = 2 * a + 5
    table[(1, 8)] = {9: 1}
    table[(2, 7)] = {9: (2 * a * a + 3 * a - 2) / den}
    table[(3, 6)] = {9: (2 * a + 2) / den}
    table[(4, 5)] = {9: 3 / den}
    return LieAlgebra(9, table, weights=range(1, 10))


def build_g10(alpha) -> LieAlgebra:
    _guard_not(alpha, "g10")
    a = _parameter(alpha)
    table = build_g9(a).brackets.copy()
    den = 2 * a + 5
    table[(1, 9)] = {10: 1}
    table[(2, 8)] = {10: (2 * a * a + a - 1) / den}
    table[(3, 7)] = {10: (2 * a - 1) / den}
    table[(4, 6)] = {10: 3 / den}
    return LieAlgebra(10, table, weights=range(1, 11))


def build_g11(alpha) -> LieAlgebra:
    _guard_not(alpha, "g11")
    a = _parameter(alpha)
    table = build_g10(a).brackets.copy()
    d1 = 2 * (a * a + 4 * a + 3)
    d2 = d1 * (2 * a + 5)
    table[(1, 10)] = {11: 1}
    table[(2, 9)] = {11: (2 * a**3 + 2 * a * a + 3) / d1}
    table[(3, 8)] = {11: (4 * a**3 + 8 * a * a - 8 * a - 21) / d2}
    table[(4, 7)] = {11: 3 * (2 * a * a + 4 * a + 5) / d2}
    table[(5, 6)] = {11: 3 * (4 * a + 1) / d2}
    return LieAlgebra(11, table, weights=range(1, 12))


def build_abelian_commutant(n: int, t: int, alphas=()) -> LieAlgebra:
    """Filtered deformation fixture: chain plus
    [e_2, e_j] = e_{j+2+t} + sum_r alphas[r-1] e_{j+2+t+r}   (j >= 3),
    with all terms beyond e_n dropped.  The commutant is abelian; for t = 0
    this deforms m2(n), for t >= 1 it deforms m0(n)."""
    if n < 5 or t < 0:
        raise GuardViolated("abelian_commutant needs n >= 5, t >= 0")
    alphas = [rat(x) for x in alphas]
    table = _chain(n)
    for j in range(3, n - 1):
        comps = {}
        base = j + 2 + t
        if base <= n:
            comps[base] = Fraction(1)
        for r, c in enumerate(alphas, start=1):
            if base + r <= n and c:
                comps[base + r] = c
        if comps:
            table[(2, j)] = comps
    weights = range(1, n + 1) if (t == 0 and not any(alphas)) else None
    return LieAlgebra(n, table, weights=weights)


def build_deformation_21(n: int, alphas=()) -> LieAlgebra:
    """The worked deformation fixture (21): abelian_commutant(n, n - 7)."""
    if n < 7:
        raise GuardViolated("deformation_21 needs n >= 7")
    return build_abelian_commutant(n, n - 7, alphas)


def build_deformation_23(alphas=()) -> LieAlgebra:
    """The ten-dimensional worked deformation fixture (23)."""
    return build_abelian_commutant(10, 2, alphas)


_BUILDERS = {
    "abelian": abelian,
    "heisenberg": build_heisenberg,
    "m0": build_m0,
    "m1": build_m1,
    "m2": build_m2,
    "V": build_v,
    "m01": build_m01,
    "m02": build_m02,
    "m03": build_m03,
    "g7": build_g7,
    "g8": build_g8,
    "g9": build_g9,
    "g10": build_g10,
    "g11": build_g11,
    "abelian_commutant": build_abelian_commutant,
    "deformation_21": build_deformation_21,
    "deformation_23": build_deformation_23,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def parameters(name: str) -> dict[str, bool]:
    """{parameter: whether it is required} of the named algebra's builder."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(names())}")
    return {p.name: p.default is p.empty
            for p in signature(_BUILDERS[name]).parameters.values()}


def build(name: str, **params) -> LieAlgebra:
    """Build a catalog algebra by name; GuardViolated on out-of-range params.

    Dimension may be passed as n; the g-families take alpha (a rational or a
    RatFunc symbol for the whole family).  A parameter the algebra does not
    take raises TypeError.
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(names())}")
    if name.startswith("g") and name[1:].isdigit() and "alpha" not in params:
        raise GuardViolated(f"{name} needs a parameter alpha")
    return _BUILDERS[name](**params)


def family_symbolic(name: str) -> LieAlgebra:
    """The g-family with a symbolic parameter, over the field Q(alpha)."""
    return build(name, alpha=RatFunc.t())


# ---------------------------------------------------------------------------
# classical closed forms
# ---------------------------------------------------------------------------

def form_omega(n: int) -> Form:
    """Omega_{n+1} on V_n: (1/2) sum_{i+j=n+1} (j-i) e^i ^ e^j.

    The conventional 1/2 normalizes the sum over ordered pairs; each
    unordered pair is stored once, so the coefficient of e^i ^ e^j (i < j)
    is simply j - i.
    """
    coeffs = {}
    for i in range(1, (n + 1) // 2 + 1):
        j = n + 1 - i
        if i < j <= n:
            coeffs[(i, j)] = Fraction(j - i)
    return Form(2, coeffs)


def form_v_symplectic(k: int) -> Form:
    """omega_{2k+1} = (2k-1) e^1^e^2k + (2k-3) e^2^e^{2k-1} + ... + e^k^e^{k+1}."""
    return Form(2, {(i, 2 * k + 1 - i): Fraction(2 * k + 1 - 2 * i) for i in range(1, k + 1)})


def form_m0_symplectic(k: int, beta=1) -> Form:
    """e^1 ^ e^2k + beta * sum_{i=2..k} (-1)^i e^i ^ e^{2k-i+1}, beta != 0."""
    b = as_scalar(beta)
    if not b:
        raise GuardViolated("beta must be nonzero")
    coeffs = {(1, 2 * k): as_scalar(1)}
    for i in range(2, k + 1):
        coeffs[(i, 2 * k - i + 1)] = b * ((-1) ** i)
    return Form(2, coeffs)


def form_g8_symplectic(alpha) -> Form:
    """The weight-9 cocycle of g_{8,alpha} (one-dimensional class).

    Coefficients recomputed from cohomology; a variant with two different
    numerators circulates but fails to reproduce the exceptional set, see
    the notes of symplectic_catalog_check().  Degenerate exactly at alpha in
    {-2, -1, 1/2}; undefined at -5/2.
    """
    _guard_not(alpha, "g9", "omega_9")
    a = _parameter(alpha)
    den = 2 * a + 5
    return Form(2, {
        (1, 8): as_scalar(1),
        (2, 7): (2 * a * a + 3 * a - 2) / den,
        (3, 6): (2 * a + 2) / den,
        (4, 5): 3 / den,
    })


def form_g10_symplectic(alpha) -> Form:
    """omega_11(alpha) on g_{10,alpha}; undefined at alpha in {-5/2, -1, -3}."""
    _guard_not(alpha, "g11", "omega_11")
    a = _parameter(alpha)
    d1 = 2 * (a * a + 4 * a + 3)
    d2 = d1 * (2 * a + 5)
    return Form(2, {
        (1, 10): as_scalar(1),
        (2, 9): (2 * a**3 + 2 * a * a + 3) / d1,
        (3, 8): (4 * a**3 + 8 * a * a - 8 * a - 21) / d2,
        (4, 7): 3 * (2 * a * a + 4 * a + 5) / d2,
        (5, 6): 3 * (4 * a + 1) / d2,
    })


def symplectic_exclusions(name: str) -> set[Fraction]:
    """Rational exceptional parameters of the symplectic families."""
    if name == "g8":
        return {Fraction(-5, 2), Fraction(-2), Fraction(-1), Fraction(1, 2)}
    if name == "g10":
        return {Fraction(-5, 2), Fraction(-1, 4), Fraction(-1), Fraction(-3)}
    raise KeyError(name)
