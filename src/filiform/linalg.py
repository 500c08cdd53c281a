"""Exact rational linear algebra.

Vectors are sparse dicts ``{column: scalar}``; matrices store a sparse
``{(row, col): scalar}`` map.  Everything is computed by exact Gaussian
elimination, with reduced row echelon form as the canonical shape so that
kernel bases, cohomology representatives and spectral-sequence blocks are
deterministic.  Every kernel of a linear map given by the images of a basis
(the cocycles, the Z_r spaces, centralizers) is ``kernel_of_map``, which
eliminates along the shorter side of the map.  With at most as many
distinct outputs as sources it reduces the transposed map, one row per
output, and reads the kernel off the RREF.  With more outputs, as for the
cocycles of a weight block, it tags each image with its source position
and keeps the rows of a forward echelon pass whose image part vanished;
the output columns are eliminated in ascending order of how many images
reach them, so the pass clears the sparse columns first and fills in less.
Both routes give the RREF of the kernel with the source positions in
descending order, and an RREF is unique, so they return the same vectors.

One elimination scaffold, ``_echelon``, keeps work rows bucketed by leading
column and runs both eliminators.  ``rref`` (and so the kernels,
``Subspace.span`` and ``quotient_representatives``) runs on Python ints
when every entry is a Fraction or an int (``_rref_integer``), which saves
building a Fraction at every step; the RREF of a row space is unique, so
its output is the one the field eliminator would give, with an int for
every integral entry and a Fraction for the others.  Its row operation,
``clear_integer``, is also the column update of the persistence pairing in
``spectral``.  ``_echelon_rows`` runs only its forward pass, for
``pivot_columns`` and the tagged kernels.  The field eliminator
``_eliminate`` works over any scalars (``scalars.div`` inverts its pivots)
and serves RatFunc rows,
``SpanSolver`` (whose tag coefficients depend on the pivot rows chosen
when the generators are dependent) and ``rank_drop_candidates``.

A ``Subspace`` holds its span in RREF, and a vector's coefficients on
those rows are its own entries at the pivots (``Subspace.coordinates``):
the d_r matrices of the spectral pages and the brackets of ``gr_c`` are
read that way.  ``SpanSolver`` is left for generators in no canonical
shape: the new basis of ``lie.change_basis`` and the adapted basis that
``structures`` pulls a symplectic form back through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from math import gcd, lcm, prod

from .scalars import (Poly, RatFunc, as_scalar, div, pivot_complexity,
                      rational_roots)

Vec = dict  # {col: scalar}, zero entries never stored
_ONE = 1
_RATIONAL = (int, Fraction)


def vec_add(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        s = v if s is None else s + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(a: Vec, c) -> Vec:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def vec_axpy_into(out: Vec, c, b: Vec) -> None:
    """out += c*b, in place."""
    for k, v in b.items():
        s = out.get(k)
        s = c * v if s is None else s + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def vec_axpy(a: Vec, c, b: Vec) -> Vec:
    """a + c*b, sparse."""
    out = dict(a)
    if c:
        vec_axpy_into(out, c, b)
    return out


def vec_combination(coeffs, vectors) -> Vec:
    """sum(c * v for c, v in zip(coeffs, vectors)), sparse."""
    out: Vec = {}
    for c, v in zip(coeffs, vectors):
        vec_axpy_into(out, c, v)
    return out


@dataclass(frozen=True)
class Matrix:
    """Sparse exact matrix; treated as immutable after construction."""

    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # {(r, c): scalar}

    def __post_init__(self):
        clean = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
            v = as_scalar(v)
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    def row_list(self) -> list[Vec]:
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows


def _echelon(work: list[Vec], weight, pivot, clear,
             reduced: bool = True) -> list[tuple]:
    """Reduced row echelon form of the rows in work, in place.

    Work rows wait in buckets keyed by their leading column, with a heap of
    the leads: the pivot column is the smallest lead, so only its bucket is
    reduced, and each reduced row moves to the bucket of its new lead.
    Inside the bucket the lead of smallest weight(lead) wins, ties by input
    order.  pivot(i, col) readies row i as the pivot row of col, and
    clear(i, j, col) removes column col from row i with pivot row j; back
    substitution clears each row's later pivot columns the same way, and is
    skipped when reduced is false (the rows are then only in echelon form).
    Returns the (pivot column, row index) pairs, columns ascending.
    """
    buckets: dict = {}  # leading column -> indices of the work rows
    heap: list = []  # the leading columns that have a bucket

    def put(i: int) -> None:
        lead = min(work[i])
        if lead not in buckets:
            buckets[lead] = []
            heappush(heap, lead)
        buckets[lead].append(i)

    for i, r in enumerate(work):
        if r:
            put(i)
    order = []
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        if len(bucket) == 1:
            best = bucket[0]
        else:
            best = min(bucket, key=lambda i: (weight(work[i][col]), i))
        pivot(best, col)
        for i in bucket:
            if i != best:
                clear(i, best, col)
                if work[i]:
                    put(i)
        order.append((col, best))
    if not reduced:
        return order
    # back substitution: rows of later pivots already vanish at every other
    # pivot column, so clearing a row's own pivot entries one by one leaves
    # its other pivot entries zero
    done: dict = {}
    for col, i in reversed(order):
        for k in [k for k in work[i] if k in done]:
            clear(i, done[k], k)
        done[col] = i
    return order


def _eliminate(rows: list[Vec], tags: list[Vec]):
    """``rref`` of rows over the scalar field, applying each row operation
    to the tags as well.

    Returns (pivots ascending, rows, tags, divisors); zero rows drop with
    their tags, and divisors[s] is the entry pivot row s was divided by.
    """
    work = [dict(r) for r in rows]
    wtags = [dict(t) for t in tags]
    divisors = []

    def pivot(i: int, col) -> None:
        row = work[i]
        divisors.append(row[col])
        if row[col] != 1:
            inv = div(1, row[col])
            work[i], wtags[i] = vec_scale(row, inv), vec_scale(wtags[i], inv)
        work[i][col] = _ONE

    def clear(i: int, j: int, col) -> None:
        c = -work[i][col]
        vec_axpy_into(work[i], c, work[j])
        vec_axpy_into(wtags[i], c, wtags[j])

    order = _echelon(work, pivot_complexity, pivot, clear)
    return ([col for col, _ in order], [work[i] for _, i in order],
            [wtags[i] for _, i in order], divisors)


def _primitive(row: Vec) -> Vec:
    """row divided by the gcd of its entries; integer entries stay integers."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


def all_rational(rows) -> bool:
    """Whether every entry of the sparse rows is a Fraction or an int."""
    return all(isinstance(v, _RATIONAL) for r in rows for v in r.values())


def integer_row(row: Vec) -> Vec:
    """The primitive integer multiple of a row of Fractions or ints."""
    # a list, not a generator: a tuple built from a generator is allocated
    # at the default length hint and shrunk in place, which moves one tuple
    # from the size-10 free list to the size-len(row) one on every call;
    # those free lists then fill to their cap and hold megabytes
    scale = lcm(*[v.denominator for v in row.values()])
    if scale == 1:  # keep the numerators, allocate no new ints
        return _primitive({k: v.numerator for k, v in row.items()})
    return _primitive({k: v.numerator * (scale // v.denominator)
                       for k, v in row.items()})


def clear_integer(row: Vec, piv: Vec, col) -> Vec:
    """Remove column col from the primitive integer row with pivot row piv.

    With a = piv[col], b = row[col] and g = gcd(a, b), row becomes
    (a/g) row - (b/g) piv divided by its content; row is updated in place
    and the result is row or its primitive copy.  The new row is a nonzero
    multiple of the field update row - (b/a) piv, so it has the same
    support.
    """
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    get = row.get
    for k, v in piv.items():
        s = get(k, 0) - b * v
        if s:
            row[k] = s
        else:
            del row[k]
    return _primitive(row) if row else row


def _echelon_integer(rows: list[Vec], reduced: bool) -> tuple[list, list[Vec]]:
    """``_echelon`` over the primitive integer multiples of rational rows."""
    work = [integer_row(r) for r in rows]

    def clear(i: int, j: int, col) -> None:
        work[i] = clear_integer(work[i], work[j], col)

    return _echelon(work, abs, lambda i, col: None, clear, reduced), work


def _rref_integer(rows: list[Vec]) -> tuple[list[int], list[Vec]]:
    """``rref`` of rows whose entries are all Fractions or ints.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) with the row
    content divided out: each row is multiplied by the lcm of its
    denominators and divided by the gcd of its entries, and each pivot
    column is removed by ``clear_integer``.  The pivot of a bucket is the
    lead of least magnitude.  Each row is divided by its lead only at the
    end: an entry the lead divides becomes an int, any other a Fraction.
    """
    order, work = _echelon_integer(rows, True)
    out = []
    for col, i in order:
        lead = work[i][col]
        out.append({k: Fraction(v, lead) if v % lead else v // lead
                    for k, v in work[i].items()})
    return [col for col, _ in order], out


def _echelon_rows(rows: list[Vec]) -> tuple[list, list[Vec]]:
    """(pivot columns ascending, one row per pivot): an echelon form of rows.

    Each returned row leads at its pivot column.  Rational rows run only the
    forward pass of the integer elimination (no back substitution, no
    division by the leads) and come out as primitive integer rows; RatFunc
    rows take the fully reducing field route of ``rref``.
    """
    if all_rational(rows):
        order, work = _echelon_integer(rows, False)
        return [col for col, _ in order], [work[i] for _, i in order]
    return rref(rows)


def pivot_columns(rows: list[Vec]) -> list:
    """The pivot columns of ``rref(rows)``, ascending.

    Every echelon form of a row space has the same pivot columns, so any
    one will do (``_echelon_rows``).
    """
    return _echelon_rows(rows)[0]


def rref(rows: list[Vec]) -> tuple[list[int], list[Vec]]:
    """Reduced row echelon form of a list of sparse row vectors.

    Returns (pivot columns ascending, nonzero rows, one per pivot).  Pivot rows
    are normalized to leading coefficient 1 and fully reduced both above and
    below, so the output is the canonical basis of the row space.  Rows
    whose entries are all Fractions or ints are eliminated over the
    integers (``_rref_integer``) and come out with an int for each integral
    entry and a Fraction for the others; other rows (RatFunc) are
    eliminated over their field (``_eliminate``).  The
    reduced row echelon form of a row space is unique, so neither the route
    nor the choice of pivot rows shows in the result.
    """
    if all_rational(rows):
        return _rref_integer(rows)
    pivots, out, _, _ = _eliminate(rows, [{}] * len(rows))
    return pivots, out


def _kernel_of_rref(pivots: list, red: list[Vec], columns) -> list[Vec]:
    """Canonical basis of {x on columns : row . x = 0 for every row}, read
    off the RREF (pivots, rows) of the rows.

    One vector per free column, in the order of columns; the vector for free
    column f has entry 1 at f and its pivot-column entries are read off the
    RREF, so the result is itself in reduced echelon shape.
    """
    pivot_set = set(pivots)
    basis = {f: {f: _ONE} for f in columns if f not in pivot_set}
    for p, row in zip(pivots, red):
        for f, c in row.items():
            if f in basis:
                basis[f][p] = -c
    return list(basis.values())


def kernel_basis(m: Matrix) -> list[Vec]:
    """Canonical basis of the null space of m, one vector per free column."""
    return _kernel_of_rref(*rref(m.row_list()), range(m.cols))


def kernel_of_map(source: list, images) -> list[Vec]:
    """Canonical basis of {x : sum_i x[source[i]] * images[i] = 0}.

    images[i] is the sparse image of source[i].  The columns are the
    positions in source, not the sorted keys, and each kernel vector is
    keyed by source: the result is ``kernel_basis`` of the matrix whose
    columns are the images, remapped to source.  That is one vector per
    free position f, ascending, with entry 1 at f and its other entries at
    positions before f, listed in ascending position.

    The output keys are numbered by how many images each occurs in,
    ascending, ties by first appearance, so the keys of one call need not
    be comparable.  On the tagged route that is the order in which the
    output columns are eliminated: a key that few images reach is cleared
    with few row operations, before the fill spreads.  The transposed
    route's RREF does not depend on the order of its rows.

    The elimination runs along the shorter side of the map.  With at most
    as many distinct output keys as sources, each output key is a row of
    the transposed map and the kernel is read off its RREF
    (``_kernel_of_rref``).  With more output keys, each image is a row
    tagged with its source position (``_kernel_by_tags``).
    Both routes span the same kernel and return its one reduced basis with
    the positions read in descending order, so they agree.
    """
    images = list(images)
    count: dict = {}  # output key -> number of images it occurs in
    for image in images:
        for k in image:
            count[k] = count.get(k, 0) + 1
    # sorted() is stable and count is in first-appearance order
    index = {k: c for c, k in enumerate(sorted(count, key=count.__getitem__))}
    if len(index) > len(source):
        kernel = _kernel_by_tags(images, index)
    else:
        rows: list[Vec] = [{} for _ in index]  # output -> {position: coefficient}
        for c, image in enumerate(images):
            for k, v in image.items():
                rows[index[k]][c] = v
        kernel = _kernel_of_rref(*rref(rows), range(len(source)))
    return [{source[c]: v for c, v in vec.items()} for vec in kernel]


def _kernel_by_tags(images: list[Vec], index: dict) -> list[Vec]:
    """``kernel_of_map`` keyed by source position, from the tagged images.

    Image c becomes the row with its entries at the output columns of
    index and 1 at the tag column len(index) + c, after every output
    column.  In an echelon form of these rows, the rows led by a tag
    column have a zero image part; since the tagged rows are independent,
    those rows span the kernel, so one forward pass (``_echelon_rows``)
    finds it.  The vector of free position f in the transposed route's
    basis has 1 at f and zeros at the other free positions, and every
    other entry lies before f: it is the RREF of the kernel with the
    positions in descending order.  An RREF is unique, so the RREF of the
    kept tag parts keyed by -position gives those vectors.
    """
    nout = len(index)
    rows = []
    for c, image in enumerate(images):
        row = {index[k]: v for k, v in image.items()}
        row[nout + c] = _ONE
        rows.append(row)
    pivots, echelon = _echelon_rows(rows)
    # tag column j = nout + c is position c, keyed -c = nout - j
    kept = [{nout - j: v for j, v in row.items()}
            for p, row in zip(pivots, echelon) if p >= nout]
    pivots, red = rref(kept)
    out = []
    for q, row in zip(reversed(pivots), reversed(red)):
        vec = {-q: _ONE}
        vec.update((-r, row[r]) for r in sorted(row, reverse=True) if r != q)
        out.append(vec)
    return out


def _reduce(index: dict, v: Vec) -> tuple[Vec, list]:
    """v minus multiples of the RREF rows in index {pivot: row}.

    RREF rows vanish at every other pivot column, so the multipliers are v's
    own pivot entries; returns the residue and the (pivot, multiplier) pairs.
    """
    out = dict(v)
    used = [(p, c) for p, c in v.items() if p in index]
    for p, c in used:
        vec_axpy_into(out, -c, index[p])
    return out, used


class SpanSolver:
    """Repeated exact solves against a fixed generating set; rank is the
    dimension of its span."""

    def __init__(self, generators: list[Vec]):
        self.n = len(generators)
        pivots, rows, tags, _ = _eliminate(
            generators, [{i: _ONE} for i in range(self.n)])
        self.rank = len(pivots)
        self._index = dict(zip(pivots, rows))
        self._tags = dict(zip(pivots, tags))  # pivot row as a generator combination

    def solve(self, target: Vec) -> list | None:
        residue, used = _reduce(self._index, target)
        if residue:
            return None
        coeffs = [as_scalar(0)] * self.n
        for p, c in used:
            for i, v in self._tags[p].items():
                coeffs[i] = coeffs[i] + c * v
        return coeffs


def pfaffian(n: int, entries: dict):
    """Pfaffian of the skew n x n matrix A with A[i][j] = c for {(i, j): c}.

    Keys are 1-based with i < j, so a 2-form's coefficients give its top
    power: phi^(n/2) = (n/2)! * pfaffian(n, phi.coeffs) e^1 ^ ... ^ e^n.
    Signed sparse skew elimination: the first live index i is paired with
    its first partner j; moving j next to i past q live indices costs
    (-1)^q, and then Pf(A) = A[i][j] * Pf(S) for the Schur complement
    S[k][l] = A[k][l] + (A[j][k] A[i][l] - A[i][k] A[j][l]) / A[i][j]
    on the other live indices.
    """
    rows: dict = {r: {} for r in range(1, n + 1)}
    for (i, j), c in entries.items():
        c = as_scalar(c)
        if c:
            rows[i][j] = c
            rows[j][i] = -c
    live = list(range(1, n + 1))
    pf = _ONE
    while live:
        i = live.pop(0)
        ri = rows.pop(i)
        if not ri:
            return as_scalar(0)
        j = min(ri)
        q = live.index(j)
        del live[q]
        rj = rows.pop(j)
        p = ri[j]
        pf = -p * pf if q % 2 else p * pf
        for k in (ri.keys() | rj.keys()) - {i, j}:
            # columns i and j of row k cancel exactly
            if k in rj:
                vec_axpy_into(rows[k], div(rj[k], p), ri)
            if k in ri:
                vec_axpy_into(rows[k], -div(ri[k], p), rj)
    return pf


# ---------------------------------------------------------------------------
# subspaces as canonical RREF row sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Span of sparse vectors, held in canonical RREF form."""

    pivots: tuple
    rows: tuple  # tuple of Vec, aligned with pivots

    @staticmethod
    def span(vectors: list[Vec]) -> "Subspace":
        pivots, rows = rref(vectors)
        return Subspace(tuple(pivots), tuple(rows))

    @cached_property
    def _index(self) -> dict:
        return dict(zip(self.pivots, self.rows))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Vec) -> Vec:
        """Canonical representative of v modulo this subspace."""
        return _reduce(self._index, v)[0]

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def coordinates(self, v: Vec) -> list | None:
        """v's coefficients on the rows, or None when v is not in the span.

        An RREF row is the only one with a nonzero entry at its pivot, so
        the coefficients are v's own entries at the pivots.
        """
        if self.reduce(v):
            return None
        return [v.get(p, 0) for p in self.pivots]

    def basis(self) -> list[Vec]:
        return [dict(r) for r in self.rows]

    def quotient_representatives(self, sub: "Subspace") -> "Subspace":
        """The span of canonical representatives of a basis of self / sub.

        Its rows lie in self, reduce to themselves modulo sub, and are in
        RREF; deterministic for golden tests.
        """
        return Subspace.span([sub.reduce(r) for r in self.rows])


# ---------------------------------------------------------------------------
# parametric rank analysis over Q(t)
# ---------------------------------------------------------------------------

def rank_drop_candidates(m: Matrix) -> list:
    """Rational parameter values where the rank of a RatFunc matrix may drop.

    One elimination over Q(t) gives the generic rank r and the entries
    d_1..d_r that the pivot rows are divided by.  Each pivot row is an input
    row plus multiples of earlier pivot rows, and before its division it
    vanishes at every earlier pivot column, so d_1 * ... * d_r = +-det of
    the r x r minor on the pivot rows and pivot columns.  At a value t0
    that is no pole of an entry, that minor is a polynomial in finite
    entries; if t0 is also no root of the product's numerator, the minor
    is nonzero there and the rank at t0 is still r (it never exceeds the
    generic rank).  So those roots plus the poles of the entries are a
    sound superset of the values where the rank drops; each candidate
    still needs a direct check at the specialized value.
    """
    return kernel_and_rank_drops(m)[1]


def kernel_and_rank_drops(m: Matrix) -> tuple[list[Vec], list]:
    """(``kernel_basis(m)``, ``rank_drop_candidates(m)``) from one elimination.

    The RREF is unique, so the kernel read off the field elimination is the
    one ``kernel_basis`` returns.
    """
    poles: set = set()
    for v in m.entries.values():
        if isinstance(v, RatFunc) and v.den.degree > 0:
            poles.update(rational_roots(v.den))
    pivots, red, _, divisors = _eliminate(m.row_list(), [{}] * m.rows)
    minor = prod(divisors, start=_ONE)
    num = minor.num if isinstance(minor, RatFunc) else Poly([minor.numerator])
    drops = sorted(set(rational_roots(num)) | poles)
    return _kernel_of_rref(pivots, red, range(m.cols)), drops
