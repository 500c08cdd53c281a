"""Exterior forms on the dual and the Chevalley-Eilenberg differential.

A p-form is a sparse map from strictly increasing index tuples (1-based) to
exact scalars.  The differential follows the convention

    d e^k = sum_{i<j} c_ij^k  e^i ^ e^j,

the dual of the bracket extended as a derivation; d^2 = 0 is equivalent to
the Jacobi identity.  :func:`d_monomial` is the one Leibniz expansion of d:
it reads the table of d e^k that the algebra holds (``dual_table``) and
returns d of a single monomial as a sparse vector; :func:`differential`,
:func:`d_matrix`, the coboundaries and the spectral pages are its linear
extensions.

On a graded algebra every monomial carries the weight
w(i_1) + ... + w(i_p) and d preserves it, so cohomology splits into weight
blocks H^p_(w); block-wise computation is also much faster and is the
default on graded input.  :func:`monomials_by_weight` enumerates a degree
once and buckets its monomials by weight, each bucket in lexicographic
order; every weight block is read from it.  A block of H^p needs only the
monomials of degrees p and p - 1: d of a weight-w cochain has weight w, so
the degree p + 1 monomials are never enumerated.

Representatives returned by :func:`cohomology` are canonical: the cocycles
reduced modulo the coboundary space B, in reduced row echelon form over the
lexicographic monomial order.  Each block reads them off one kernel of d
(``linalg.kernel_of_map``): the cocycles that vanish at B's pivot monomials
form a complement of B in the cocycles, and they are exactly the reduced
ones (see ``_block``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (Matrix, Vec, kernel_of_map, pivot_columns, rref,
                     solve_in_span, vec_combination)
from .lie import LieAlgebra
from .scalars import as_scalar, format_rat, rat, scalar_at


class WeightsMissing(ValueError):
    pass


class NotCocycle(ValueError):
    pass


def _merge_sign(seq) -> tuple[tuple, int] | None:
    """Sort an index sequence, returning (sorted tuple, permutation sign);
    None when an index repeats (the wedge vanishes)."""
    items = list(seq)
    sign = 1
    # insertion sort, counting transpositions; p is tiny
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return tuple(items), sign


class Form:
    """Exterior form of fixed degree with exact sparse coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict | None = None):
        self.degree = int(degree)
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"monomial {idx} has wrong degree (want {degree})")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"monomial {idx} is not strictly increasing")
            c = as_scalar(c)
            if c:
                clean[idx] = c
        self.coeffs = clean

    @staticmethod
    def zero(degree: int) -> "Form":
        return Form(degree, {})

    @staticmethod
    def monomial(idx, c=1) -> "Form":
        idx = tuple(idx)
        return Form(len(idx), {idx: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def add(self, other: "Form") -> "Form":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            s = out.get(idx, 0) + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return Form(self.degree, out)

    def sub(self, other: "Form") -> "Form":
        return self.add(other.scale(-1))

    def scale(self, c) -> "Form":
        c = as_scalar(c)
        if not c:
            return Form.zero(self.degree)
        return Form(self.degree, {idx: c * v for idx, v in self.coeffs.items()})

    def wedge(self, other: "Form") -> "Form":
        out: dict[tuple, object] = {}
        for i1, c1 in self.coeffs.items():
            for i2, c2 in other.coeffs.items():
                merged = _merge_sign(i1 + i2)
                if merged is None:
                    continue
                idx, sign = merged
                s = out.get(idx, 0) + sign * c1 * c2
                if s:
                    out[idx] = s
                else:
                    out.pop(idx, None)
        return Form(self.degree + other.degree, out)

    def weight_components(self, weights) -> dict[int, "Form"]:
        """Split into weight-homogeneous pieces; weights is 1-based per index."""
        buckets: dict[int, dict] = {}
        for idx, c in self.coeffs.items():
            w = sum(weights[i - 1] for i in idx)
            buckets.setdefault(w, {})[idx] = c
        return {w: Form(self.degree, cs) for w, cs in sorted(buckets.items())}

    def at_parameter(self, t: Fraction) -> "Form":
        return Form(self.degree, {idx: scalar_at(c, t) for idx, c in self.coeffs.items()})

    def to_pairs(self) -> list:
        return [[list(idx), format_rat(c)] for idx, c in sorted(self.coeffs.items())]

    @staticmethod
    def from_pairs(degree: int, pairs) -> "Form":
        return Form(degree, {tuple(int(i) for i in idx): rat(c) for idx, c in pairs})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for idx, c in sorted(self.coeffs.items()):
            mono = "^".join(f"e{i}" for i in idx)
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def d_monomial(a: LieAlgebra, idx: tuple) -> Vec:
    """d of the monomial e^idx: the Leibniz rule over the table of d e^k.

    The one expansion of d; every other use of d is a linear extension.
    The term of the pair (i, j), i < j, in d e^{i_t} is b e^i ^ e^j ^ rest
    times (-1)^t, rest = idx without i_t.  It vanishes when i or j is in
    rest; otherwise i and j move to their insertion points x and y in rest
    (found by bisection), past x and y smaller indices, so the sorted
    monomial carries the sign (-1)^(t + x + y).
    """
    de = a.dual_table
    out: Vec = {}
    m = len(idx) - 1
    for t, i_t in enumerate(idx):
        two = de[i_t - 1]
        if not two:
            continue
        rest = idx[:t] + idx[t + 1:]
        for (i, j), b in two.items():
            x = bisect_left(rest, i)
            if x < m and rest[x] == i:
                continue
            y = bisect_left(rest, j, x)
            if y < m and rest[y] == j:
                continue
            new_idx = rest[:x] + (i,) + rest[x:y] + (j,) + rest[y:]
            term = -b if (t + x + y) % 2 else b
            s = out.get(new_idx)
            s = term if s is None else s + term
            if s:
                out[new_idx] = s
            else:
                out.pop(new_idx, None)
    return out


def differential(a: LieAlgebra, phi: Form) -> Form:
    """Chevalley-Eilenberg differential, degree raised by one."""
    images = (d_monomial(a, idx) for idx in phi.coeffs)
    return Form(phi.degree + 1, vec_combination(phi.coeffs.values(), images))


def d_squared_zero(a: LieAlgebra) -> bool:
    """d(d e^k) == 0 for every k; equivalent to the Jacobi identity."""
    return not any(vec_combination(de.values(), (d_monomial(a, ij) for ij in de))
                   for de in a.dual_table)


# ---------------------------------------------------------------------------
# bases of the exterior algebra
# ---------------------------------------------------------------------------

def monomials_by_weight(n: int, p: int, weights) -> dict[int, list[tuple]]:
    """Strictly increasing p-tuples from 1..n bucketed by total weight.

    Keys ascend; each bucket is in lexicographic order.  ``weights`` is
    1-based per index.
    """
    weight_of = (0, *weights).__getitem__  # 1-based
    buckets: dict[int, list[tuple]] = {}
    if 0 <= p <= n:
        for idx in itertools.combinations(range(1, n + 1), p):
            buckets.setdefault(sum(map(weight_of, idx)), []).append(idx)
    return dict(sorted(buckets.items()))


def lambda_basis(n: int, p: int, weights=None, weight: int | None = None) -> list[tuple]:
    """Strictly increasing p-tuples from 1..n, lexicographically ordered;
    optionally restricted to a fixed total weight."""
    if weight is not None:
        return monomials_by_weight(n, p, weights).get(weight, [])
    if p < 0 or p > n:
        return []
    return list(itertools.combinations(range(1, n + 1), p))


def d_matrix(a: LieAlgebra, source: list[tuple], target: list[tuple]) -> Matrix:
    """Matrix of d with rows indexed by target monomials, columns by source."""
    pos = {idx: r for r, idx in enumerate(target)}
    entries = {}
    for c, idx in enumerate(source):
        for m, val in d_monomial(a, idx).items():
            r = pos.get(m)
            if r is None:
                continue
            entries[(r, c)] = val
    return Matrix(len(target), len(source), entries)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyBlock:
    """Canonical cocycle representatives of H^p (optionally one weight block)."""

    degree: int
    weight: int | None
    representatives: tuple
    dim: int

    def forms(self) -> list[Form]:
        return list(self.representatives)


def _block(a: LieAlgebra, p: int, src: list[tuple],
           below: list[tuple]) -> list[Form]:
    """Canonical H^p representatives over the degree-p monomials src; below
    are the degree p-1 monomials of the same block.

    The coboundaries B = d(below) lie in the cocycles Z, as d^2 = 0.  For
    z in Z, subtracting z's entries at B's pivot monomials times B's RREF
    rows is the reduction of z modulo B and leaves a cocycle that vanishes
    at those monomials, so Z is the direct sum of B and Z0 = {z in Z : z is
    zero at B's pivots}, and Z0 is the space of reduced cocycles.  Z0 is
    the kernel of d on the monomials of src that are no pivot of B, and its
    RREF is the canonical basis of H^p.  B's pivot monomials are those of
    any echelon form, so a forward elimination of d(below) finds them.
    """
    if not src:
        return []
    if p == 0:
        # constants: d = 0, no coboundaries
        return [Form(0, {(): 1})]
    bound = set(pivot_columns([d_monomial(a, idx) for idx in below]))
    free = [idx for idx in src if idx not in bound]
    kern = kernel_of_map(free, [d_monomial(a, idx) for idx in free])
    return [Form(p, r) for r in rref(kern)[1]]


def cohomology(a: LieAlgebra, p: int, weight: int | None = None) -> CohomologyBlock:
    """H^p(a), or its weight-lambda block when ``weight`` is given.

    On graded algebras the full space is assembled from weight blocks; on
    ungraded ones it is one global elimination.  Requesting a weight on an
    unweighted algebra raises WeightsMissing.
    """
    if not 0 <= p <= a.dim:
        raise ValueError(f"degree {p} outside 0..{a.dim}")
    if weight is not None and a.weights is None:
        raise WeightsMissing("weight restriction requires a graded algebra")
    if a.weights is None:
        reps = _block(a, p, lambda_basis(a.dim, p), lambda_basis(a.dim, p - 1))
        return CohomologyBlock(p, None, tuple(reps), len(reps))
    src, below = (monomials_by_weight(a.dim, q, a.weights) for q in (p, p - 1))
    reps = []
    for w in (src if weight is None else [weight]):
        reps.extend(_block(a, p, src.get(w, []), below.get(w, [])))
    return CohomologyBlock(p, weight, tuple(reps), len(reps))


def coboundary_space(a: LieAlgebra, p: int, weight: int | None = None) -> list[Form]:
    """Basis of the degree-p coboundaries d(Lambda^{p-1}), canonical RREF."""
    if weight is not None and a.weights is None:
        raise WeightsMissing("weight restriction requires a graded algebra")
    below = lambda_basis(a.dim, p - 1, a.weights, weight)
    images = [d_monomial(a, idx) for idx in below]
    _, rows = rref([v for v in images if v])
    return [Form(p, r) for r in rows]


def is_cohomologous(a: LieAlgebra, f: Form, g: Form) -> bool:
    """Whether f - g is a coboundary; both arguments must be cocycles."""
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    for phi in (f, g):
        if differential(a, phi):
            raise NotCocycle(f"{phi!r} is not closed")
    diff = f.sub(g)
    if diff.is_zero():
        return True
    gens = [b.coeffs for b in coboundary_space(a, f.degree)]
    return solve_in_span(diff.coeffs, gens) is not None


def betti_numbers(a: LieAlgebra) -> list[int]:
    return [cohomology(a, p).dim for p in range(a.dim + 1)]
