"""Spectral sequence of the weight filtration attached to an adapted basis.

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

The survival question for the symplectic corner block (w = 2k+1, degree 2)
is decided exactly: a top-weight class survives to the last page iff it is
the leading term of a genuinely closed 2-form, and such a closed form with
symplectic leading term is itself symplectic (the top power only sees the
leading weight).  Nothing maps into the corner (1-forms have weight <= 2k),
so its first nonzero differential d_r sits on the page r* = the smallest
gap >= 1 of a corner monomial; the obstruction witness builds only the
corner block and its target on that page.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .cochain import (Form, cohomology, d_monomial, differential,
                      monomials_by_weight)
from .lie import AdaptedBasis, LieAlgebra, adapted_basis
from .linalg import (Matrix, SpanSolver, Subspace, all_rational, clear_integer,
                     integer_row, kernel_of_map, pfaffian, vec_axpy_into,
                     vec_combination)
# an explicit re-export: the benchmark harness tests check that its tracer
# patches this binding and restores it
from .linalg import kernel_basis as kernel_basis


class FiltrationUndefined(ValueError):
    pass


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

        The columns are reduced in the (weight, idx) order by adding earlier
        reduced columns that share their low; a column left nonzero pairs
        with its low.  The column of a low of d on (p-1)-forms reduces to
        zero (its d is d of earlier columns, as d^2 = 0), so it is skipped
        (clearing).  On a rational algebra the columns are primitive integer
        vectors reduced by ``clear_integer``, a nonzero multiple of the field
        update, so every low is the same.  Cached per degree.
        """
        got = self._pairings.get(p)
        if got is not None:
            return got
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
                    vec_axpy_into(col, -col[low] / other[low], other)
        self._pairings[p] = gaps
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

    def block(self, r: int, w: int, p: int) -> tuple[list[dict], Subspace]:
        z = Subspace.span(self.z_vectors(r, w, p))
        b = self.boundary_space(r, w, p)
        return z.quotient_representatives(b), b

    def d_r_matrix(self, reps: list[dict], t_reps: list[dict] | None,
                   denom: Subspace) -> Matrix:
        """Matrix of d_r from a block into its target block.

        t_reps and denom are the target's representatives (None or empty
        when the target block is zero) and boundary space.
        """
        solver = SpanSolver(t_reps + denom.basis()) if t_reps else None
        entries = {}
        for c, vec in enumerate(reps):
            img = self.d_vec(vec)
            if not img:
                continue
            if solver is None:
                # target block is zero; record the map as zero
                if not denom.contains(img):
                    raise AssertionError("nonzero d_r into an empty block")
                continue
            coords = solver.solve(img)
            if coords is None:
                raise AssertionError("d_r image escaped its target block")
            for row in range(len(t_reps)):
                if coords[row]:
                    entries[(row, c)] = coords[row]
        return Matrix(len(t_reps) if t_reps else 0, len(reps), entries)


def _filtered_algebra(a: LieAlgebra, adapted: AdaptedBasis | None) -> LieAlgebra:
    """The algebra in adapted coordinates, where the weight filtration lives."""
    if adapted is None:
        adapted = adapted_basis(a)
    if adapted.alpha:
        raise FiltrationUndefined("alpha != 0: the weight filtration is undefined")
    return adapted.algebra


def build_pages(a: LieAlgebra, adapted: AdaptedBasis | None = None,
                r_max: int | None = None) -> list[SpectralPage]:
    """Pages E_1, E_2, ... of the weight filtration, with differentials.

    The pages and their nonzero blocks are read off the persistence pairing
    (``page_dimensions``): the list stops at the first page whose totals
    are the Betti numbers, or at r_max when that comes first.  Each listed
    block is built as an exact subquotient, and an AssertionError is raised
    when its size differs from the pairing's count.  Of the other blocks
    only the boundary space of a d_r target is built: the check that no
    image leaves its target needs it.  Raises FiltrationUndefined when the
    adapted antidiagonal is nonzero.
    """
    comp = _PageComputer(_filtered_algebra(a, adapted))
    page_dims = _page_dimensions(comp)
    if r_max is not None:
        page_dims = page_dims[:max(r_max, 0)]
    pages = []
    for r, dims in enumerate(page_dims, start=1):
        reps_vec, denoms = {}, {}
        for (w, p), size in dims.items():
            reps_vec[(w, p)], denoms[(w, p)] = comp.block(r, w, p)
            if len(reps_vec[(w, p)]) != size:
                raise AssertionError(f"block {(w, p)} of page {r} disagrees "
                                     "with the persistence pairing")
        diffs = {}
        for (w, p), reps in reps_vec.items():
            target = (w - r, p + 1)
            denom = (denoms[target] if target in denoms
                     else comp.boundary_space(r, *target))
            diffs[(w, p)] = comp.d_r_matrix(reps, reps_vec.get(target), denom)
        blocks = {(w, p): tuple(Form(p, dict(v)) for v in reps)
                  for (w, p), reps in reps_vec.items()}
        pages.append(SpectralPage(r, blocks, diffs))
    return pages


def page_dimensions(a: LieAlgebra,
                    adapted: AdaptedBasis | None = None) -> list[dict]:
    """Block dimensions {(w, degree): dim} of the pages E_1, E_2, ...

    Read off the persistence pairing of d, without representatives.  The
    list stops at the first page whose totals are the Betti numbers (the
    unpaired monomials), and after at most 2 dim + 1 pages.  ``build_pages``
    builds the blocks it lists, so it equals [page.block_dims() for page in
    build_pages(a, adapted)], and a block of another size raises there.
    """
    return _page_dimensions(_PageComputer(_filtered_algebra(a, adapted)))


def _page_dimensions(comp: _PageComputer) -> list[dict]:
    """``page_dimensions`` of the filtered complex of comp."""
    n = comp.n
    gaps: dict = {}  # monomials absent from every pairing are unpaired
    for p in range(n):
        gaps.update(comp.pairing(p))

    def dims_on(r) -> dict:
        # an unpaired monomial counts on every page, r = inf included
        dims: dict = {}
        for p in range(n + 1):
            for idx, w in zip(comp.bases[p], comp.weights[p]):
                if gaps.get(idx, r) >= r:
                    dims[(w, p)] = dims.get((w, p), 0) + 1
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
    survives: bool
    lift: Form | None = None  # closed symplectic form, adapted coordinates
    surviving_dim: int = 0
    obstruction_page: int | None = None
    obstruction_source: Form | None = None
    obstruction_image: Form | None = None


def symplectic_survival(a: LieAlgebra,
                        adapted: AdaptedBasis | None = None) -> SurvivalVerdict:
    """Does a homogeneous symplectic class of weight 2k+1 survive to E_infty?

    Because no differential ever maps into the corner block (w = 2k+1,
    degree 2), a class survives iff it is the leading term of a genuinely
    closed 2-form on the filtered algebra; the surviving subspace is
    computed directly from the closed forms and searched for a symplectic
    element.  On failure the first nonzero page differential out of the
    corner block is reported as the obstruction witness; its page is the
    smallest pairing gap >= 1 of a corner monomial, and only the corner
    block and its target are built on that page.
    """
    if a.dim % 2:
        raise ValueError("survival question needs even dimension")
    return _survival(_PageComputer(_filtered_algebra(a, adapted)))


def pages_and_survival(a: LieAlgebra, adapted: AdaptedBasis | None = None
                       ) -> tuple[list[dict], SurvivalVerdict | None]:
    """(``page_dimensions(a, adapted)``, ``symplectic_survival(a, adapted)``
    on an even dimension, else None) from one ``_PageComputer``, so the
    survival test reuses the d images and the pairings of the pages."""
    comp = _PageComputer(_filtered_algebra(a, adapted))
    return _page_dimensions(comp), None if a.dim % 2 else _survival(comp)


def _survival(comp: _PageComputer) -> SurvivalVerdict:
    """``symplectic_survival`` on the even-dimensional complex of comp."""
    b = comp.algebra
    n = b.dim
    top = n + 1  # the corner weight 2k + 1, n = 2k
    closed = comp.z_vectors(10 * n, top, 2)  # dx in F_{w - huge} means dx = 0

    def leading(vec: dict) -> dict:
        return {idx: c for idx, c in vec.items() if sum(idx) == top}

    lifts = [v for v in closed if leading(v)]
    if lifts:
        from .structures import nondegenerate_point
        point = nondegenerate_point(n, [leading(v) for v in lifts])
        if point is not None:
            lift = Form(2, vec_combination(point, lifts))
            if differential(b, lift) or not pfaffian(n, lift.coeffs):
                raise AssertionError("survival lift failed to verify")
            return SurvivalVerdict(True, lift, surviving_dim=len(lifts))

    # obstructed: the first nonzero differential out of the corner; corner
    # monomials pair only as columns of d on 2-forms (1-forms weigh <= 2k)
    gaps = comp.pairing(2)
    r = min((gaps[idx] for idx, w in zip(comp.bases[2], comp.weights[2])
             if w == top and gaps.get(idx, 0) >= 1), default=None)
    if r is None:
        return SurvivalVerdict(False, surviving_dim=len(lifts))
    reps, _ = comp.block(r, top, 2)
    t_reps, denom = comp.block(r, top - r, 3)
    mat = comp.d_r_matrix(reps, t_reps, denom)
    if not mat.entries:
        raise AssertionError("corner pairing gap without a nonzero d_r")
    _, col = min(mat.entries)
    image = vec_combination(
        [mat.entries.get((rr, col), 0) for rr in range(len(t_reps))], t_reps)
    return SurvivalVerdict(
        False, surviving_dim=len(lifts),
        obstruction_page=r,
        obstruction_source=Form(2, reps[col]),
        obstruction_image=Form(3, image))


def canonical_block_representative(a: LieAlgebra, r: int, w: int, p: int,
                                   form: Form,
                                   adapted: AdaptedBasis | None = None) -> Form:
    """Canonical representative of a cochain class in the block E_r(w, p).

    The input form must lie in Z_r(w, p); it is reduced modulo the page
    denominator, which matches the normalization of the stored block
    representatives (used to compare obstruction witnesses exactly).
    Raises FiltrationUndefined when the adapted antidiagonal is nonzero.
    """
    comp = _PageComputer(_filtered_algebra(a, adapted))
    vec = dict(form.coeffs)
    if not Subspace.span(comp.z_vectors(r, w, p)).contains(vec):
        raise ValueError("form does not represent a class on this page")
    return Form(p, comp.boundary_space(r, w, p).reduce(vec))


def h3_weight_profile(a: LieAlgebra) -> list[int]:
    """Weights (with multiplicity) of the homogeneous generators of H^3."""
    if a.weights is None:
        raise ValueError("weight profile needs a graded algebra")
    # each representative lies in one weight block, in ascending weight
    return [sum(a.weights[i - 1] for i in next(iter(f.coeffs)))
            for f in cohomology(a, 3).representatives]
