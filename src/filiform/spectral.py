"""Spectral sequence of the weight filtration attached to an adapted basis.

Every entry takes the algebra alone and reads its cached adapted basis;
``lie.AdaptedBasis.filtered_algebra`` decides whether the filtration exists
(it raises ``lie.AlphaNonzero`` on a nonzero antidiagonal alpha).

In adapted coordinates the monomial weight w(e^{i_1}^...^e^{i_p}) = sum i_t
filters the cochain complex: F_w = span of monomials of weight <= w is
preserved by d (deformation terms only lower the weight).  The filtration
index is stored as this positive weight bound; the usual homological
indexing has p = -w and q = (cochain degree) + w, and reports translate.

Pages are computed as exact subquotients

    Z_r(w, p)  = {x in F_w L^p : dx in F_{w-r}},
    E_r(w, p)  = Z_r(w, p) / (Z_{r-1}(w-1, p) + d Z_{r-1}(w+r-1, p-1)),
    d_r:  E_r(w, p) -> E_r(w-r, p+1),

with canonical reduced representatives throughout.  E_1(w, p) is the
weight-w cohomology of the associated graded algebra and the block totals
per cochain degree decrease to the Betti numbers of the filtered algebra.

Which pages exist and which of their blocks are nonzero is read off one
persistence pairing of d per degree (Edelsbrunner-Harer, Computational
Topology, ch. VII); ``build_pages`` builds exactly those blocks and checks
each block's size against the pairing's count.  The columns of
d: L^p -> L^{p+1} over the monomials sorted by (weight, idx) are reduced
left to right until every nonzero column has its own low (last row), and a
column paired with its low has the gap w(column) - w(low).  A pair with
gap g is a nonzero d_g between the blocks of its two monomials, so both
count on the pages 1..g, and

    dim E_r(w, p) = #{degree-p monomials of weight w that are unpaired or
                      paired with gap >= r},

and the unpaired monomials of degree p count the Betti number b_p.  The
pairing only reads lows, and a nonzero multiple of a column has the same
low, so on a rational algebra it reduces primitive integer columns: with
a and b the entries of the earlier column q and of the column r at their
common low and g = gcd(a, b), r <- (a/g) r - (b/g) q, divided by its
content (``linalg.clear_integer``, the row operation of the integer rref).
Columns over Q(t) keep the field update r <- r - (b/a) q.

Only the pairings of degrees p <= (n-1)/2 are reduced; the others are read
off them by filtered Poincare duality.  A nilpotent algebra is unimodular,
so d vanishes on L^{n-1}, and in the complementary monomial basis d_{n-1-p}
is d_p transposed up to signs (Hazewinkel, "A duality theorem for
cohomology of Lie algebras", Math. USSR Sb. 12, 1970).  Complements map the
weight w to N - w, N = n(n+1)/2, and reverse the lex order of k-subsets, so
they reverse the (weight, idx) order: pairs and gaps correspond
(de Silva-Morozov-Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 27, 2011), and
dim E_r(w, p) = dim E_r(N - w, n - p).

The survival question for the symplectic corner block (w = 2k+1, degree 2)
is decided exactly by ``symplectic_survival``.  Nothing maps into the
corner (1-forms weigh <= 2k), so its E_1 block is H^2_{2k+1}(gr_L), read
as the kernel of the leading part of d.  A class survives to the last page
iff it is the leading term of a closed 2-form, and such a closed form with
symplectic leading term is itself symplectic (the top power only sees the
leading weight).  A corner form sum c_i e^i ^ e^{2k+1-i} (the antidiagonal)
has Pfaffian +-prod c_i, so a space of corner forms holds a symplectic one
iff it vanishes on no corner monomial; both links read this test.  The
first nonzero d_r out of the corner sits on the page r* = the smallest gap
>= 1 of a corner monomial; the obstruction witness builds only the corner
block and its target on that page, and only when it is read.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from .cochain import (Form, d_monomial, differential, monomials_by_weight,
                      witness_point)
from .lie import LieAlgebra, adapted_basis
from .linalg import (Matrix, Subspace, all_rational, clear_integer, integer_row,
                     kernel_of_map, pfaffian, vec_axpy_into, vec_combination)
# an explicit re-export: the benchmark harness tests check that its tracer
# patches this binding and restores it
from .linalg import kernel_basis as kernel_basis
from .scalars import div


_ZERO = Subspace((), ())  # the representatives of a zero block


@dataclass(frozen=True)
class SpectralPage:
    """One page: canonical block representatives and the induced d_r."""

    r: int
    blocks: dict  # {(w, degree): tuple[Form]}
    differentials: dict  # {(w, degree): Matrix to block (w - r, degree + 1)}

    def block_dims(self) -> dict:
        return {key: len(reps) for key, reps in self.blocks.items() if reps}

    def paper_block_dims(self) -> dict:
        """Dimensions in the homological indexing E^{p,q}, p = -w, q = deg + w."""
        return {(-w, deg + w): len(reps)
                for (w, deg), reps in self.blocks.items() if reps}

    def total_dims(self) -> dict:
        return degree_totals(self.block_dims())


def degree_totals(dims: dict) -> dict:
    """Nonzero totals per cochain degree of a {(w, degree): dim} table."""
    out: dict[int, int] = {}
    for (w, deg), d in dims.items():
        out[deg] = out.get(deg, 0) + d
    return {deg: d for deg, d in sorted(out.items()) if d}


class _PerDegree(dict):
    """A {degree: value} memo, filled on first read."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, p):
        got = self[p] = self._build(p)
        return got


class _PageComputer:
    """Caches bases, differentials, Z-spaces and the persistence pairing of
    one filtered complex.  The monomials of a degree are enumerated on its
    first use, so a caller reading only low degrees never builds the rest."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        n = algebra.dim
        self.n = n
        # the (weight, idx) order: buckets in ascending weight; the memos
        # hold no reference to self, so the computer is freed without a cycle
        bases = self.bases = _PerDegree(lambda p: [
            idx for bucket in monomials_by_weight(n, p, range(1, n + 1)).values()
            for idx in bucket])
        self.weights = _PerDegree(lambda p: [sum(idx) for idx in bases[p]])
        # d on L^{n-1} vanishes iff every ad(e_i) is traceless; the duality
        # that ``pairing`` reads the upper degrees by needs it
        trace = [0] * (n + 1)
        for (i, j), comps in algebra.brackets.items():
            trace[i] += comps.get(j, 0)
            trace[j] -= comps.get(i, 0)
        if any(trace):
            raise AssertionError("filtered algebra is not unimodular: "
                                 "some ad(e_i) has nonzero trace")
        self._d_image: dict[tuple, dict] = {}
        self._z_cache: dict[tuple, list] = {}
        self._pairings: dict[int, dict] = {}

    def d_of(self, idx: tuple) -> dict:
        out = self._d_image.get(idx)
        if out is None:
            out = self._d_image[idx] = d_monomial(self.algebra, idx)
        return out

    def d_vec(self, vec: dict) -> dict:
        """d of a monomial-keyed vector."""
        return vec_combination(vec.values(), map(self.d_of, vec))

    def pairing(self, p: int) -> dict:
        """Persistence pairing of d: L^p -> L^{p+1}: {paired monomial: gap}.

        Degrees p <= (n-1)/2 are column-reduced (``_reduce``); above that
        the pairing is the complement image of pairing(n-1-p), by filtered
        Poincare duality.  d vanishes on L^{n-1} (a nilpotent algebra is
        unimodular), so d_{n-1-p} is d_p transposed up to row and column
        signs in the complementary monomial basis (Hazewinkel, Math. USSR
        Sb. 12, 1970), and complements reverse the (weight, idx) order of
        rows and columns alike; every lower-left rank, hence every pair and
        its gap, corresponds (de Silva-Morozov-Vejdemo-Johansson, Inverse
        Problems 27, 2011).  Cached per degree.
        """
        got = self._pairings.get(p)
        if got is None:
            n = self.n
            if 2 * p > n - 1:
                full = frozenset(range(1, n + 1))
                got = {tuple(sorted(full.difference(idx))): gap
                       for idx, gap in self.pairing(n - 1 - p).items()}
            else:
                got = self._reduce(p)
            self._pairings[p] = got
        return got

    def _reduce(self, p: int) -> dict:
        """The pairing of degree p by column reduction.

        The columns are reduced in the (weight, idx) order by adding earlier
        reduced columns that share their low; a column left nonzero pairs
        with its low.  The column of a low of d on (p-1)-forms reduces to
        zero (its d is d of earlier columns, as d^2 = 0), so it is skipped
        (clearing).  On a rational algebra the columns are primitive integer
        vectors reduced by ``clear_integer``, a nonzero multiple of the field
        update, so every low is the same.
        """
        cleared = self.pairing(p - 1) if p > 0 else {}
        gaps: dict = {}
        rows, row_weights = self.bases[p + 1], self.weights[p + 1]
        pos = {idx: i for i, idx in enumerate(rows)}
        integral = all_rational(self.algebra.dual_table)
        by_low: dict = {}  # low row -> reduced column
        for idx, w in zip(self.bases[p], self.weights[p]):
            if idx in cleared:
                continue
            col = {pos[m]: c for m, c in self.d_of(idx).items()}
            if integral:
                col = integer_row(col)
            while col:
                low = max(col)
                other = by_low.get(low)
                if other is None:
                    by_low[low] = col
                    gaps[idx] = gaps[rows[low]] = w - row_weights[low]
                    break
                if integral:
                    col = clear_integer(col, other, low)
                else:
                    vec_axpy_into(col, -div(col[low], other[low]), other)
        return gaps

    def z_vectors(self, r: int, w: int, p: int) -> list[dict]:
        """Basis of Z_r(w, p) as monomial-keyed vectors."""
        if p < 0 or p > self.n:
            return []
        # dx in F_{w-r} with w - r <= 0 already means dx = 0: cap r at w
        r_eff = min(r, max(0, w))
        key = (r_eff, w, p)
        got = self._z_cache.get(key)
        if got is not None:
            return got
        src = [idx for idx, wt in zip(self.bases[p], self.weights[p]) if wt <= w]
        # d keeps F_w, so dx in F_{w-r} is dx vanishing at the weights in (w-r, w]
        low = w - r_eff
        images = [{m: c for m, c in self.d_of(idx).items() if low < sum(m) <= w}
                  for idx in src]
        out = kernel_of_map(src, images)
        self._z_cache[key] = out
        return out

    def boundary_space(self, r: int, w: int, p: int) -> Subspace:
        """Z_{r-1}(w-1, p) + d Z_{r-1}(w+r-1, p-1)."""
        images = [self.d_vec(v) for v in self.z_vectors(r - 1, w + r - 1, p - 1)]
        return Subspace.span(self.z_vectors(r - 1, w - 1, p) + [v for v in images if v])

    def block(self, r: int, w: int, p: int) -> tuple[Subspace, Subspace]:
        """(the span of the representatives of E_r(w, p), its boundary space)."""
        z = Subspace.span(self.z_vectors(r, w, p))
        b = self.boundary_space(r, w, p)
        return z.quotient_representatives(b), b

    def d_r_matrix(self, reps: Subspace, target: Subspace,
                   denom: Subspace) -> Matrix:
        """Matrix of d_r from a block into its target block.

        target and denom are the target's representatives (no rows when the
        target block is zero) and boundary space.  The representatives are
        reduced modulo denom, so the column of a representative is the
        coordinates of its d reduced modulo denom; an image outside target
        + denom, such as a nonzero one into a zero block, raises.
        """
        entries = {}
        for c, vec in enumerate(reps.rows):
            coords = target.coordinates(denom.reduce(self.d_vec(vec)))
            if coords is None:
                raise AssertionError("d_r image escaped its target block")
            for row, x in enumerate(coords):
                if x:
                    entries[(row, c)] = x
        return Matrix(target.dim, reps.dim, entries)


def _filtered_complex(a: LieAlgebra) -> _PageComputer:
    """The filtered complex of a in its cached adapted basis."""
    return _PageComputer(adapted_basis(a).filtered_algebra())


def build_pages(a: LieAlgebra) -> list[SpectralPage]:
    """Pages E_1, E_2, ... of the weight filtration, with differentials.

    The pages and their nonzero blocks are read off the persistence pairing
    (``page_dimensions``): the list stops at the first page whose totals
    are the Betti numbers.  Each listed block is built as an exact
    subquotient, and an AssertionError is raised when its size differs
    from the pairing's count.  Of the other blocks only the boundary space
    of a d_r target is built: the check that no image leaves its target
    needs it.  Raises AlphaNonzero when the adapted antidiagonal is nonzero.
    """
    comp = _filtered_complex(a)
    pages = []
    for r, dims in enumerate(page_dimensions(a), start=1):
        reps_of, denoms = {}, {}
        for (w, p), size in dims.items():
            reps_of[(w, p)], denoms[(w, p)] = comp.block(r, w, p)
            if reps_of[(w, p)].dim != size:
                raise AssertionError(f"block {(w, p)} of page {r} disagrees "
                                     "with the persistence pairing")
        diffs = {}
        for (w, p), reps in reps_of.items():
            target = (w - r, p + 1)
            denom = (denoms[target] if target in denoms
                     else comp.boundary_space(r, *target))
            diffs[(w, p)] = comp.d_r_matrix(reps, reps_of.get(target, _ZERO), denom)
        blocks = {(w, p): tuple(Form(p, dict(v)) for v in reps.rows)
                  for (w, p), reps in reps_of.items()}
        pages.append(SpectralPage(r, blocks, diffs))
    return pages


def page_dimensions(a: LieAlgebra) -> list[dict]:
    """Block dimensions {(w, degree): dim} of the pages E_1, E_2, ...

    Read off the persistence pairing of d, without representatives.  The
    list stops at the first page whose totals are the Betti numbers (the
    unpaired monomials), and after at most 2 dim + 1 pages.  ``build_pages``
    builds the blocks it lists, so it equals [page.block_dims() for page in
    build_pages(a)], and a block of another size raises there.

    The degrees p <= n/2 are counted; the rest mirror them by the duality
    of ``_PageComputer.pairing``, dim E_r(w, p) = dim E_r(N - w, n - p)
    with N = n(n+1)/2, so no monomial basis above degree ceil(n/2) is built.
    """
    comp = _filtered_complex(a)
    n = comp.n
    half, top = n // 2, n * (n + 1) // 2
    gaps: dict = {}  # monomials absent from every pairing are unpaired
    for p in range(half + 1):
        gaps.update(comp.pairing(p))

    def dims_on(r) -> dict:
        # an unpaired monomial counts on every page, r = inf included
        dims: dict = {}
        for p in range(half + 1):
            for idx, w in zip(comp.bases[p], comp.weights[p]):
                if gaps.get(idx, r) >= r:
                    dims[(w, p)] = dims.get((w, p), 0) + 1
        for (w, p), d in list(dims.items()):
            if n - p > half:
                dims[(top - w, n - p)] = d
        return dims

    betti = degree_totals(dims_on(math.inf))
    pages = []
    for r in range(1, 2 * n + 2):
        pages.append(dims_on(r))
        if degree_totals(pages[-1]) == betti:
            break
    return pages


# ---------------------------------------------------------------------------
# survival of the symplectic corner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalVerdict:
    """The answer of ``symplectic_survival``.

    ``survives`` and ``lift`` (a closed symplectic form in adapted
    coordinates) answer the question; ``graded_symplectic`` says whether
    H^2_{2k+1}(gr_L) has a symplectic class.  The obstruction witness,
    ``obstruction_page``, ``obstruction_source`` and ``obstruction_image``
    (all None when no differential leaves the corner), is ``witness()``,
    called on first read: a caller that stops at the E_1 corner reduces no
    pairing.
    """

    survives: bool
    lift: Form | None = None
    graded_symplectic: bool = False
    witness: Callable | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _obstruction(self) -> tuple:
        return self.witness() if self.witness else (None, None, None)

    @property
    def obstruction_page(self) -> int | None:
        return self._obstruction[0]

    @property
    def obstruction_source(self) -> Form | None:
        return self._obstruction[1]

    @property
    def obstruction_image(self) -> Form | None:
        return self._obstruction[2]


def symplectic_survival(a: LieAlgebra) -> SurvivalVerdict:
    """Does a homogeneous symplectic class of weight 2k+1 survive to E_infty?

    The corner block (w = 2k+1, degree 2) receives no differential, so its
    E_1 block is H^2_{2k+1}(gr_L), and a class survives iff it leads a
    closed 2-form.  A corner form sum c_i e^i ^ e^{2k+1-i} has Pfaffian
    +-prod c_i, so a space of them holds a symplectic one iff it vanishes
    on no corner monomial: ``graded_symplectic`` tests the E_1 classes,
    ``survives`` the leading parts of the closed forms of weight <= 2k+1,
    and the lift's point is the first witness point, or else the first
    moment-curve point, that passes the test.  On failure the first nonzero
    differential out of the corner is the obstruction witness
    (``_corner_obstruction``), built on first read.

    The one survival entry: ``structures.symplectic_exists`` reads
    ``graded_symplectic`` (the gr_L link), then ``survives``; the
    ``spectral`` command prints the verdict after ``page_dimensions``.
    """
    if a.dim % 2:
        raise ValueError("survival question needs even dimension")
    comp = _filtered_complex(a)
    b = comp.algebra
    n = b.dim
    top = n + 1  # the corner weight 2k + 1, n = 2k

    def leading(vec: dict) -> dict:
        return {idx: c for idx, c in vec.items() if sum(idx) == top}

    def symplectic(pencil: list) -> bool:  # the antidiagonal test
        return all(any(v.get(idx) for v in pencil) for idx in corner)

    # the E_1 corner H^2_{2k+1}(gr_L): no 1-form weighs 2k+1
    corner = [idx for idx, w in zip(comp.bases[2], comp.weights[2]) if w == top]
    classes = kernel_of_map(corner, [leading(comp.d_of(idx)) for idx in corner])
    graded = symplectic(classes)
    if graded:  # the closed forms of weight <= 2k+1: dx in F_{w - huge} is dx = 0
        lifts = [v for v in comp.z_vectors(10 * n, top, 2) if leading(v)]
        heads = [leading(v) for v in lifts]
        if symplectic(heads):
            # else the moment curve: each of the k corner coefficients is a
            # nonzero polynomial of degree < m in x, so an x <= k(m-1)+2 passes
            point = witness_point(n, heads) or next(
                t for t in ([x ** j for j in range(len(heads))] for x in count(2))
                if symplectic([vec_combination(t, heads)]))
            lift = Form(2, vec_combination(point, lifts))
            if differential(b, lift) or not pfaffian(n, lift.coeffs):
                raise AssertionError("survival lift failed to verify")
            return SurvivalVerdict(True, lift, graded_symplectic=True)
    return SurvivalVerdict(False, graded_symplectic=graded,
                           witness=partial(_corner_obstruction, comp, corner))


def _corner_obstruction(comp: _PageComputer, corner: list) -> tuple:
    """(page, source, image) of the first nonzero differential out of the
    corner, or three Nones when there is none.

    Corner monomials pair only as columns of d on 2-forms (1-forms weigh
    <= 2k), so the page is the smallest pairing gap >= 1 among them, and
    only the corner block and its target are built on that page.
    """
    top = comp.n + 1
    gaps = comp.pairing(2)
    r = min((gaps[idx] for idx in corner if gaps.get(idx, 0) >= 1), default=None)
    if r is None:
        return None, None, None
    reps, _ = comp.block(r, top, 2)
    target, denom = comp.block(r, top - r, 3)
    mat = comp.d_r_matrix(reps, target, denom)
    if not mat.entries:
        raise AssertionError("corner pairing gap without a nonzero d_r")
    _, col = min(mat.entries)
    image = vec_combination(
        [mat.entries.get((rr, col), 0) for rr in range(target.dim)], target.rows)
    return r, Form(2, reps.rows[col]), Form(3, image)


def canonical_block_representative(a: LieAlgebra, r: int, w: int, p: int,
                                   form: Form) -> Form:
    """Canonical representative of a cochain class in the block E_r(w, p).

    The input form must lie in Z_r(w, p); it is reduced modulo the page
    denominator, which matches the normalization of the stored block
    representatives (used to compare obstruction witnesses exactly).
    Raises AlphaNonzero when the adapted antidiagonal is nonzero.
    """
    comp = _filtered_complex(a)
    vec = dict(form.coeffs)
    if not Subspace.span(comp.z_vectors(r, w, p)).contains(vec):
        raise ValueError("form does not represent a class on this page")
    return Form(p, comp.boundary_space(r, w, p).reduce(vec))
