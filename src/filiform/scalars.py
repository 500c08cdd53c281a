"""Exact scalar types.

Everything in this package is computed over fields of characteristic zero
with no rounding:

* plain rationals -- a Python ``int`` when the value is integral, a
  ``fractions.Fraction`` (arbitrary precision, lowest terms, positive
  denominator) otherwise;
* univariate rational functions Q(t) -- :class:`RatFunc`, used when a whole
  one-parameter family of algebras is processed symbolically;
* multivariate polynomials over Q -- :class:`MPoly`, used only to certify
  that a non-vanishing polynomial identity holds (no division needed).

A "scalar" below means an int, a Fraction or a RatFunc; the linear algebra
in :mod:`filiform.linalg` is generic over all three.  ``as_scalar`` is the
one coercion: it returns an int for an integral rational, so integer
structure constants (those of m0, m1, m2 and V_n) keep every product and sum
on machine-word ints, and ``format_rat`` prints either kind the same way
(an int has a numerator and a denominator too).  ``Fraction(2) == 2`` and
their hashes agree, so a dict or set never tells the two apart.  The one
rule: no scalar is divided with ``/``, since two ints give a float; every
quotient is ``div``, which keeps two ints an int when the division is exact
and makes a Fraction otherwise.  ``rat`` stays Fraction-valued, for
parameters and the internals of RatFunc.

A RatFunc is c * N / D: c a Fraction, N and D primitive polynomials over Z
(:class:`Poly`, integer coefficients with gcd 1) with positive leading
coefficients and no common factor.  Every value has exactly one such form,
so equality compares it.  The costly step of rational-function arithmetic
is the polynomial gcd, and its cost grows with the degrees and coefficient
sizes of its arguments, so no operation takes the gcd of its whole result:
a product cancels gcd(N1, D2) and gcd(N2, D1) before it multiplies, and a
sum over D = lcm(D1, D2) can share a factor with D only inside gcd(D1, D2),
which is all it reduces against (Henrici, J. ACM 3, 1956).  Each gcd then
runs on operands of the inputs' size, not of the result's, and is skipped
when an operand is constant or two denominators are equal.  The gcd is a
primitive remainder sequence over Z (Collins, J. ACM 14, 1967), so no
Fraction is built inside it.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable


def is_decimal_rational(s: str) -> bool:
    """Whether s reads "[-]num[/den]" in decimal digits.  Fraction also
    reads exponents, and "1e100000000" is a 10^8-digit integer."""
    return all(part.isascii() and part.isdigit() for part in s.removeprefix("-").split("/", 1))


def rat(x) -> Fraction:
    """Coerce ints, Fractions and ``is_decimal_rational`` strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if is_decimal_rational(x):
            return Fraction(x)
        raise ValueError(f"Invalid literal for a rational, want [-]num[/den] "
                         f"in decimal digits: {x!r}")
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_rat(x: int | Fraction) -> str:
    num = _digits(x.numerator)
    return f"{num}/{_digits(x.denominator)}" if x.denominator != 1 else num


def _digits(m: int) -> str:
    """str(m), also past sys.get_int_max_str_digits(): that cap guards str()
    but not Decimal, and an exact result may outgrow it on inputs below it."""
    try:
        return str(m)
    except ValueError:
        return str(Decimal(m))


def as_scalar(x):
    """Coerce to a field scalar: an int for an integral rational, a Fraction
    for any other, and a RatFunc as it is.  A bool is read as the int it
    equals."""
    kind = type(x)
    if kind is int or kind is RatFunc:
        return x
    if kind is not Fraction:
        x = rat(x)
    return x.numerator if x.denominator == 1 else x


def div(a, b):
    """The exact quotient a / b of two scalars.

    Two ints give an int when b divides a and a Fraction otherwise; any
    other pair divides as its types do (``/`` on an int pair would give a
    float).
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


# ---------------------------------------------------------------------------
# univariate polynomials over Z
# ---------------------------------------------------------------------------

_ONE = (1,)  # coefficients of the polynomial 1


def _primitive(cs: tuple) -> tuple[int, tuple]:
    """(k, p) with cs = k * p, p primitive with a positive leading term."""
    k = gcd(*cs)
    if cs[-1] < 0:
        k = -k
    if k == 1:
        return 1, cs
    return k, tuple([c // k for c in cs])


def _mul(a: tuple, b: tuple) -> tuple:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        k = a[0]
        return b if k == 1 else tuple([k * c for c in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)  # Z is a domain: the leading product is nonzero


def _lincomb(x: int, a: tuple, y: int, b: tuple) -> tuple:
    """x*a + y*b, trailing zeros dropped."""
    if len(a) < len(b):
        x, a, y, b = y, b, x, a
    out = [x * c for c in a]
    for i, c in enumerate(b):
        out[i] += y * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _divmod(a: tuple, b: tuple) -> tuple[list, list]:
    """(q, r) with m*a = q*b + r over Z and deg r < deg b.

    Each step divides the leading term of r by lead(b) exactly; only when
    that division is inexact are r and q first multiplied by the least
    positive m' that makes it exact (m' divides lead(b)), and m is the
    product of those m'.  So m = 1 whenever b divides a, or lead(b) = +-1,
    and r is always a nonzero multiple of the remainder over Q, or zero.
    """
    lead, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(0, len(a) - db)
    while len(r) > db:
        top = r[-1]
        if top % lead:
            m = abs(lead) // gcd(top, lead)
            r = [m * c for c in r]
            q = [m * c for c in q]
            top *= m
        c = top // lead
        k = len(r) - 1 - db
        q[k] = c
        for i, bc in enumerate(b, k):
            r[i] -= c * bc
        while r and not r[-1]:
            r.pop()
    return q, r


def _gcd(a: tuple, b: tuple) -> tuple:
    """gcd of two nonzero primitive polynomials, primitive with a positive
    leading term, by the primitive remainder sequence (Collins, J. ACM 14,
    1967): each pseudo-remainder is replaced by its primitive part, so the
    coefficients stay as small as the gcd allows."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _divmod(a, b)[1]
        if not r:
            return _primitive(b)[1]
        a, b = b, _primitive(tuple(r))[1]
    return _ONE


def _exact(a: tuple, b: tuple) -> tuple:
    """a / b for b dividing a; integral when b is primitive (Gauss)."""
    return a if b == _ONE else tuple(_divmod(a, b)[0])


def _homogeneous(cs: tuple, p: int, q: int) -> int:
    """q^deg * P(p/q), by Horner over the integers."""
    acc, qk = 0, 1
    for c in reversed(cs):
        acc = acc * p + c * qk
        qk *= q
    return acc


class Poly:
    """Univariate polynomial over Z, coefficients ascending (ints)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _of(coeffs: tuple) -> "Poly":
        """Wrap a tuple of ints with no trailing zero, unchecked."""
        p = object.__new__(Poly)
        p.coeffs = coeffs
        return p

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._of(_lincomb(1, self.coeffs, 1, other.coeffs))

    def __neg__(self) -> "Poly":
        return Poly._of(tuple([-c for c in self.coeffs]))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly._of(_lincomb(1, self.coeffs, -1, other.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly._of(())
        return Poly._of(_mul(self.coeffs, other.coeffs))

    def primitive(self) -> tuple[int, "Poly"]:
        """(k, p) with self = k * p, p primitive with a positive leading
        coefficient; (0, 0) for the zero polynomial."""
        if not self.coeffs:
            return 0, self
        k, cs = _primitive(self.coeffs)
        return k, Poly._of(cs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(q, r) with m * self = q * other + r and deg r < deg other, for a
        positive integer m dividing a power of other's leading coefficient.

        The division is exact over Z (m = 1) when other divides self or has
        leading coefficient +-1; otherwise it is a pseudo-division, and r is
        a positive multiple of the remainder over Q.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.coeffs, other.coeffs)
        return Poly._of(tuple(q)), Poly._of(tuple(r))

    def gcd(self, other: "Poly") -> "Poly":
        """The gcd in Z[t]: the gcd of the contents times the primitive gcd,
        with a positive leading coefficient (0 only for two zeros)."""
        if not self.coeffs or not other.coeffs:
            k, p = (self or other).primitive()
            return Poly._of(_mul((abs(k),), p.coeffs)) if k else p
        ka, a = _primitive(self.coeffs)
        kb, b = _primitive(other.coeffs)
        return Poly._of(_mul((gcd(ka, kb),), _gcd(a, b)))

    def eval(self, t) -> Fraction:
        t = rat(t)
        p, q = t.numerator, t.denominator
        return Fraction(_homogeneous(self.coeffs, p, q), q ** max(0, self.degree))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(parts)


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, ascending: the classical rational-root test.

    A root a/b in lowest terms of a primitive integer polynomial has a
    dividing the lowest nonzero coefficient and b the leading one, so the
    scan over those divisors is exhaustive over Q; each candidate is tested
    by integer Horner on b^deg * p(a/b).
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every rational number as a root")
    cs = p.coeffs
    roots = []
    if cs[0] == 0:  # strip powers of t
        roots.append(Fraction(0))
        while cs[0] == 0:
            cs = cs[1:]
    if len(cs) == 1:
        return roots
    cs = _primitive(cs)[1]
    for num in _divisors(abs(cs[0])):
        for den in _divisors(cs[-1]):
            if gcd(num, den) == 1:
                for a in (-num, num):
                    if _homogeneous(cs, a, den) == 0:
                        roots.append(Fraction(a, den))
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# rational functions Q(t)
# ---------------------------------------------------------------------------

def _ratfunc(c: Fraction, num: tuple, den: tuple) -> "RatFunc":
    """The RatFunc c * num / den from a canonical triple, unchecked."""
    out = object.__new__(RatFunc)
    if c:
        out.c, out.num, out.den = c, Poly._of(num), Poly._of(den)
    else:
        out.c, out.num, out.den = c, _ZERO_POLY, _ONE_POLY
    return out


class RatFunc:
    """Element of Q(t), stored as c * num / den.

    num and den are primitive integer polynomials with positive leading
    coefficients and no common factor, and c is a Fraction; zero is
    0 * 0 / 1.  That triple is unique for each value, so == compares it and
    a constant c * 1 / 1 hashes like the Fraction c.  Operations keep the
    shape without a gcd of their whole result (Henrici, J. ACM 3, 1956):
    a product first cancels gcd(num1, den2) and gcd(num2, den1), a sum
    puts its numerator over lcm(den1, den2) and reduces it only against
    gcd(den1, den2), the one factor it can share with the new denominator.
    """

    __slots__ = ("c", "num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _ONE_POLY
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        kn, n = num.primitive()
        kd, d = den.primitive()
        c = Fraction(kn, kd)
        if c:
            g = _gcd(n.coeffs, d.coeffs)
            n, d = Poly._of(_exact(n.coeffs, g)), Poly._of(_exact(d.coeffs, g))
        else:
            n, d = _ZERO_POLY, _ONE_POLY
        self.c, self.num, self.den = c, n, d

    @staticmethod
    def const(c) -> "RatFunc":
        return _ratfunc(rat(c), _ONE, _ONE)

    @staticmethod
    def t() -> "RatFunc":
        return _ratfunc(Fraction(1), (0, 1), _ONE)

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def _is_const(self) -> bool:
        return len(self.num.coeffs) <= 1 and len(self.den.coeffs) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return (self.c == other.c and self.num.coeffs == other.num.coeffs
                    and self.den.coeffs == other.den.coeffs)
        if isinstance(other, (int, Fraction)):
            return self._is_const() and self.c == other
        return False

    def __hash__(self):
        if self._is_const():
            return hash(self.c)
        return hash((self.c, self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = _as_ratfunc(other)
        if not other.c:
            return self
        if not self.c:
            return other
        n1, d1 = self.num.coeffs, self.den.coeffs
        n2, d2 = other.num.coeffs, other.den.coeffs
        if d1 == d2:
            g, e1, e2 = d1, _ONE, _ONE
        elif len(d1) == 1 or len(d2) == 1:
            g, e1, e2 = _ONE, d1, d2
        else:
            g = _gcd(d1, d2)
            e1, e2 = _exact(d1, g), _exact(d2, g)
        # c1 n1/(g e1) + c2 n2/(g e2) = (c1 n1 e2 + c2 n2 e1) / (g e1 e2)
        c1, c2 = self.c, other.c
        q1, q2 = c1.denominator, c2.denominator
        q = q1 * q2 // gcd(q1, q2)
        m = _lincomb(c1.numerator * (q // q1), _mul(n1, e2),
                     c2.numerator * (q // q2), _mul(n2, e1))
        if not m:
            return _ratfunc(Fraction(0), (), _ONE)
        k, m = _primitive(m)
        # m is prime to e1 and e2; only a factor of g can cancel
        if len(g) > 1:
            h = _gcd(m, g)
            if len(h) > 1:
                m, g = _exact(m, h), _exact(g, h)
        return _ratfunc(Fraction(k, q), m, _mul(_mul(g, e1), e2))

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.c, self.num.coeffs, self.den.coeffs)

    def __sub__(self, other):
        return self + -_as_ratfunc(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return _ratfunc(self.c * rat(other), self.num.coeffs, self.den.coeffs)
        c = self.c * other.c
        if not c:
            return _ratfunc(c, (), _ONE)
        n1, d1 = self.num.coeffs, self.den.coeffs
        n2, d2 = other.num.coeffs, other.den.coeffs
        if len(n1) > 1 and len(d2) > 1:
            g = _gcd(n1, d2)
            n1, d2 = _exact(n1, g), _exact(d2, g)
        if len(n2) > 1 and len(d1) > 1:
            g = _gcd(n2, d1)
            n2, d1 = _exact(n2, g), _exact(d1, g)
        return _ratfunc(c, _mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def _inverse(self) -> "RatFunc":
        if not self.c:
            raise ZeroDivisionError("division by zero rational function")
        return _ratfunc(1 / self.c, self.den.coeffs, self.num.coeffs)

    def __truediv__(self, other):
        return self * _as_ratfunc(other)._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * rat(other)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("only integer powers")
        base = self if k >= 0 else self._inverse()
        k = abs(k)
        num, den = _ONE, _ONE
        for _ in range(k):
            num, den = _mul(num, base.num.coeffs), _mul(den, base.den.coeffs)
        return _ratfunc(base.c ** k, num, den)

    def eval(self, t: Fraction) -> Fraction:
        d = self.den.eval(t)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at t={t}")
        return self.c * self.num.eval(t) / d

    def __repr__(self) -> str:
        head = f"({format_rat(self.c)})"
        if self._is_const():
            return head
        if len(self.den.coeffs) == 1:
            return f"{head}*({self.num!r})"
        return f"{head}*({self.num!r})/({self.den!r})"


_ONE_POLY = Poly._of(_ONE)
_ZERO_POLY = Poly._of(())


def _as_ratfunc(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc.const(x)


def scalar_at(x, t: Fraction):
    """Evaluate a scalar at a parameter value (ints and Fractions pass
    through)."""
    if isinstance(x, RatFunc):
        return x.eval(t)
    return x


def pivot_complexity(x) -> int:
    """Smaller is better when choosing elimination pivots.

    Rationals: total bit length of numerator and denominator, so an int
    scores as the Fraction it equals; rational functions: total degree.
    Purely a coefficient-growth heuristic, correctness never depends on it.
    """
    if type(x) is int:
        return x.bit_length() + 1
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    if isinstance(x, RatFunc):
        return 8 * (x.num.degree + x.den.degree + 2)
    return 1


# ---------------------------------------------------------------------------
# multivariate polynomials over Q (certificates only; no division)
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse multivariate polynomial over Q: {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple, Fraction] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        c = rat(c)
        return MPoly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return other
        return MPoly.const(self.nvars, rat(other))

    def __add__(self, other):
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def eval(self, point: tuple) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def any_nonvanishing_point(self) -> tuple | None:
        """A rational point where the polynomial is nonzero, or None if p == 0.

        A nonzero polynomial cannot vanish on the whole grid {0..d}^n where d
        bounds its per-variable degree, so scanning that grid always succeeds.
        """
        if self.is_zero():
            return None
        d = max((max(e) for e in self.terms), default=0)
        point = [Fraction(0)] * self.nvars
        return self._search(point, 0, d)

    def _search(self, point, i, d):
        if i == self.nvars:
            return tuple(point) if self.eval(tuple(point)) != 0 else None
        for v in range(d + 1):
            point[i] = Fraction(v)
            hit = self._search(point, i + 1, d)
            if hit is not None:
                return hit
        return None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"t{i}^{k}" for i, k in enumerate(e) if k)
            c = format_rat(self.terms[e])
            bits.append(f"{c}*{mono}" if mono else c)
        return " + ".join(bits)
