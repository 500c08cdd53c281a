"""Exterior forms on the dual and the Chevalley-Eilenberg differential.

A p-form is a sparse map from strictly increasing index tuples (1-based) to
exact scalars.  The differential follows the convention

    d e^k = sum_{i<j} c_ij^k  e^i ^ e^j,

the dual of the bracket extended as a derivation.  d^2 = 0 is the Jacobi
identity (the coefficient of d(d e^m) on e^i ^ e^j ^ e^k is the e_m-part of
the defect of (i, j, k)), read once per algebra off the cached
``LieAlgebra.jacobi_defects``; every complex built here presumes it, and
:func:`cohomology` refuses a table with a defect (``NotAComplex``).
:func:`d_monomial` is the one Leibniz expansion of d: it reads the table
of d e^k that the algebra holds (``dual_table``) and returns d of a single
monomial as a sparse vector; :func:`differential`, :func:`d_matrix`, the
coboundaries and the spectral pages are its linear extensions.

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

:func:`nondegenerate_point` asks whether a pencil of 2-forms has a
nondegenerate member: :func:`witness_point` tries four points, each by a
Pfaffian, then the pencil at a symbolic point is raised to its top power
by the wedge of ``Form`` over ``MPoly``, in at most FILIFORM_MAX_GRID terms.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from dataclasses import dataclass

from .linalg import (Matrix, Vec, kernel_of_map, pfaffian, pivot_columns, rref,
                     vec_add, vec_combination, vec_scale)
from .lie import LieAlgebra
from .scalars import MPoly, as_scalar, format_rat, rat


class WeightsMissing(ValueError):
    pass


class NotCocycle(ValueError):
    pass


class NotAComplex(ValueError):
    """The brackets break the Jacobi identity, so d^2 != 0 and the cochains
    are no complex."""


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


def _wedge(a: dict, b: dict) -> dict:
    """The wedge of two forms' coefficient maps, zero entries dropped.  The
    scalars need only +, - and *, so MPoly coefficients work too."""
    out: dict[tuple, object] = {}
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            merged = _merge_sign(i1 + i2)
            if merged is None:
                continue
            idx, sign = merged
            term = c1 * c2 if sign > 0 else -(c1 * c2)
            s = out.get(idx)
            s = term if s is None else s + term
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
    return out


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
        return Form(self.degree, vec_add(self.coeffs, other.coeffs))

    def scale(self, c) -> "Form":
        return Form(self.degree, vec_scale(self.coeffs, as_scalar(c)))

    def wedge(self, other: "Form") -> "Form":
        return Form(self.degree + other.degree, _wedge(self.coeffs, other.coeffs))

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
# the pencil search
# ---------------------------------------------------------------------------

def _max_grid() -> int:
    """The FILIFORM_MAX_GRID bound (default 200000), an integer >= 1."""
    raw = os.environ.get("FILIFORM_MAX_GRID", "200000")
    try:
        bound = int(raw)
    except ValueError:
        bound = 0  # not an integer: rejected with the same reason below
    if bound < 1:
        raise ValueError(f"FILIFORM_MAX_GRID must be an integer >= 1, got {raw!r}")
    return bound


def _witness_points(m: int):
    yield (1,) * m
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    yield tuple(primes[i % len(primes)] ** (1 + i // len(primes)) for i in range(m))
    yield tuple(1 + 3 * i for i in range(m))
    yield tuple((-2) ** (i % 3 + 1) for i in range(m))


def witness_point(n: int, vecs: list) -> tuple | None:
    """The first witness point t with Pf(sum t_i vecs_i) != 0, or None."""
    return next((point for point in _witness_points(len(vecs))
                 if pfaffian(n, vec_combination(point, vecs))), None)


def nondegenerate_point(n: int, vecs: list) -> tuple | None:
    """A point t with Pf(sum t_i vecs_i) != 0, or None if there is none.

    vecs are the coefficients {(i, j): c} of 2-forms on n = 2k coordinates.
    The witness points are tried first (``witness_point``); if none hits,
    the top coefficient P(t) of (sum t_i phi_i)^k is expanded exactly at a
    symbolic t, so a None answer certifies that P is the zero polynomial
    and no member of the pencil is nondegenerate over any field extension
    of Q.  The expansion holds at most FILIFORM_MAX_GRID terms.
    """
    point = witness_point(n, vecs)
    if point is not None:
        return point
    m = len(vecs)
    pencil = vec_combination([MPoly.var(m, i) for i in range(m)], vecs)
    bound = _max_grid()
    power = {(): MPoly.const(m, 1)}
    for _ in range(n // 2):
        power = _wedge(power, pencil)
        if sum(len(c.terms) for c in power.values()) > bound:
            raise RuntimeError(
                "bounded search exhausted; raise FILIFORM_MAX_GRID to decide")
    top = power.get(tuple(range(1, n + 1)))
    point = top.any_nonvanishing_point() if top else None
    if point is not None and not pfaffian(n, vec_combination(point, vecs)):
        raise AssertionError("witness failed to verify")
    return point


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
    unweighted algebra raises WeightsMissing, and a table that breaks the
    Jacobi identity (read off the cached ``jacobi_defects``) raises
    NotAComplex.
    """
    if not 0 <= p <= a.dim:
        raise ValueError(f"degree {p} outside 0..{a.dim}")
    if weight is not None and a.weights is None:
        raise WeightsMissing("weight restriction requires a graded algebra")
    if a.jacobi_defects:
        i, j, k, _ = a.jacobi_defects[0]
        raise NotAComplex(f"d^2 != 0: the Jacobi identity fails at ({i},{j},{k})")
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


def betti_numbers(a: LieAlgebra) -> list[int]:
    return [cohomology(a, p).dim for p in range(a.dim + 1)]
