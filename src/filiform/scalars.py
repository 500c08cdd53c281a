"""Exact scalar types.

Everything in this package is computed over fields of characteristic zero
with no rounding:

* plain rationals -- ``fractions.Fraction`` (arbitrary precision, always in
  lowest terms, positive denominator);
* univariate rational functions Q(t) -- :class:`RatFunc`, used when a whole
  one-parameter family of algebras is processed symbolically;
* multivariate polynomials over Q -- :class:`MPoly`, used only to certify
  that a non-vanishing polynomial identity holds (no division needed).

A "scalar" below means either a Fraction or a RatFunc; the linear algebra in
:mod:`filiform.linalg` is generic over both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def rat(x) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def as_scalar(x):
    """Coerce to a field scalar, keeping RatFunc values as they are."""
    if isinstance(x, RatFunc):
        return x
    return rat(x)


# ---------------------------------------------------------------------------
# univariate polynomials over Q
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial over Fraction, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction]):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([rat(c)])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Fraction) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.coeffs
        while len(r) >= len(d):
            c = r[-1] / d[-1]
            k = len(r) - len(d)
            q[k] = c
            for i, dc in enumerate(d):
                r[i + k] -= c * dc
            while r and r[-1] == 0:
                r.pop()
            if not r:
                break
        return Poly(q), Poly(r)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return self if lead == 1 else self.scale(1 / lead)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval(self, t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rat(c))
            elif i == 1:
                parts.append(f"{format_rat(c)}*t")
            else:
                parts.append(f"{format_rat(c)}*t^{i}")
        return " + ".join(parts)


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, by scanning divisors of the edge coefficients.

    Coefficients are cleared to integers first, so this is the classical
    rational-root test and is exhaustive over Q.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every rational number as a root")
    # strip powers of t
    coeffs = list(p.coeffs)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) <= 1:
        return sorted(set(roots))
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    for num in _divisors(abs(ints[0])):
        for den in _divisors(abs(ints[-1])):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p.eval(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


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

class RatFunc:
    """Element of Q(t), stored as num/den with den monic and gcd cancelled."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly([]), Poly.const(1)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.coeffs[-1]
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly.const(rat(c)))

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc(Poly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        return RatFunc.const(rat(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = RatFunc.const(1)
        for _ in range(k):
            out = out * self
        return out

    def eval(self, t: Fraction) -> Fraction:
        d = self.den.eval(t)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at t={t}")
        return self.num.eval(t) / d

    def __repr__(self) -> str:
        if self.den == Poly.const(1):
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


def scalar_at(x, t: Fraction):
    """Evaluate a scalar at a parameter value (Fractions pass through)."""
    if isinstance(x, RatFunc):
        return x.eval(t)
    return x


def pivot_complexity(x) -> int:
    """Smaller is better when choosing elimination pivots.

    Fractions: total bit length; rational functions: total degree.  Purely a
    coefficient-growth heuristic, correctness never depends on it.
    """
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
