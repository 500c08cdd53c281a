"""Lie algebras with exact structure constants.

A Lie algebra of dimension n is stored through its sparse bracket table
``{(i, j): {k: c}}`` with 1-based indices and i < j, meaning
[e_i, e_j] = sum_k c * e_k; antisymmetry is implicit.  An optional weight
assignment turns it into a graded algebra ([g_a, g_b] inside g_{a+b}).

The Jacobi identity (d^2 = 0, read off the nonzero structure constants), the
descending central series and the adapted basis (chain relations
[e_1, e_i] = e_{i+1} plus the triangular bracket shape, built from their
intrinsic filtration L) are decided once per algebra, as cached properties
of ``LieAlgebra``; ``jacobi_check``, ``central_series``, ``is_filiform`` and
``adapted_basis`` read them, and no function takes an adapted basis as an
argument.  This module decides the one case where L is undefined, a nonzero
antidiagonal alpha: ``AdaptedBasis.filtered_algebra`` raises AlphaNonzero
there, and gr_L (next to gr_C of the central series) and every entry of
``spectral`` read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import (SpanSolver, Subspace, Vec, kernel_of_map, vec_add, vec_axpy,
                     vec_axpy_into)
from .scalars import as_scalar, div, format_rat, is_decimal_rational, scalar_at


class NotNilpotent(ValueError):
    pass


class NotFiliform(ValueError):
    pass


class AlphaNonzero(ValueError):
    """Even-dimensional adapted basis with nonzero antidiagonal: the
    filtration L (hence gr_L and the weight spectral sequence) is undefined."""


class LieAlgebra:
    """Immutable-by-convention Lie algebra over an exact scalar field."""

    def __init__(self, dim, brackets, weights=None):
        self.dim = int(dim)
        table = {}
        for (i, j), comps in brackets.items():
            if not (1 <= i <= self.dim and 1 <= j <= self.dim):
                raise ValueError(f"bracket ({i},{j}) outside dimension {dim}")
            if i == j:
                continue
            if i > j:
                i, j, comps = j, i, {k: -as_scalar(c) for k, c in comps.items()}
            clean = {}
            for k, c in comps.items():
                if not 1 <= k <= self.dim:
                    raise ValueError(f"component e_{k} outside dimension {dim}")
                c = as_scalar(c)
                if c:
                    clean[k] = c
            if clean:
                merged = vec_add(table.pop((i, j), {}), clean)
                if merged:
                    table[(i, j)] = merged
        self.brackets = table
        self.weights = tuple(weights) if weights is not None else None

    # -- basic bracket machinery --------------------------------------------

    def bracket(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a new vector, read off ``brackets`` without building
        the signed table (callers that look up a few pairs stay cheap)."""
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    @cached_property
    def signed_brackets(self) -> dict:
        """[e_i, e_j] as {i: {j: comps}} for both orders, i != j; the table
        shares the comps of ``brackets`` and builds the negated half once."""
        out: dict = {}
        for (i, j), comps in self.brackets.items():
            out.setdefault(i, {})[j] = comps
            out.setdefault(j, {})[i] = {k: -c for k, c in comps.items()}
        return out

    def bracket_vec(self, x: Vec, y: Vec) -> Vec:
        table = self.signed_brackets
        out: Vec = {}
        for i, a in x.items():
            row = table.get(i)
            if row is None:
                continue
            for j, b in y.items():
                comps = row.get(j)
                if comps is None:
                    continue
                vec_axpy_into(out, a * b, comps)
        return out

    def ad_chain_length(self, x: Vec) -> int:
        """Largest m with ad(x)^m != 0."""
        current = [self.bracket_vec(x, {i: as_scalar(1)}) for i in range(1, self.dim + 1)]
        current = [v for v in current if v]
        depth = 0
        while current:
            depth += 1
            current = [w for w in (self.bracket_vec(x, v) for v in current) if w]
            if depth > self.dim:
                raise NotNilpotent("ad(x) is not nilpotent")
        return depth

    def structure_terms(self):
        for (i, j), comps in sorted(self.brackets.items()):
            for k, c in sorted(comps.items()):
                yield i, j, k, c

    @cached_property
    def dual_table(self) -> list[dict]:
        """d e^k = sum c_ij^k e^i ^ e^j as {(i, j): c_ij^k}, at index k - 1."""
        out = [dict() for _ in range(self.dim)]
        for i, j, k, c in self.structure_terms():
            out[k - 1][(i, j)] = c
        return out

    @cached_property
    def jacobi_defects(self) -> tuple:
        """(i, j, k, [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j])
        for each i < j < k where that defect is nonzero, in lexicographic order.

        [[e_a, e_b], e_x] = sum_l c_ab^l [e_l, e_x]: each nonzero c_ab^l
        (a < b) times row l of ``signed_brackets`` lands on the sorted triple
        of (a, b, x), with the sign of the permutation that sorts it.
        """
        table = self.signed_brackets
        sums: dict = {}
        for (a, b), comps in self.brackets.items():
            for l, c in comps.items():
                for x, image in table.get(l, {}).items():
                    if x > b:
                        vec_axpy_into(sums.setdefault((a, b, x), {}), c, image)
                    elif a < x < b:
                        vec_axpy_into(sums.setdefault((a, x, b), {}), -c, image)
                    elif x < a:
                        vec_axpy_into(sums.setdefault((x, a, b), {}), c, image)
        return tuple((*key, d) for key, d in sorted(sums.items()) if d)

    @cached_property
    def central_series(self) -> tuple:
        """Descending central series C^1 = g, C^k = [g, C^{k-1}], until stationary.

        The last entry is the first stationary term (zero iff the input is
        nilpotent).

        C^2 is the span of the bracket table.  The unit vectors S off its pivot
        columns span a complement of C^2, and the subalgebra they generate is
        span(S) + W, where W is the smallest ad(S)-stable subspace containing
        [S, S] (right-normed brackets span it); W lies in C^2, so S generates g
        iff W = C^2.  That always holds for nilpotent g.  Then C^{k+1} is the
        span V of [s, c] for s in S and c in a basis of C^k: the x with
        ad(x) C^k inside V form a subalgebra (V lies in C^k, and ad is a
        homomorphism) that contains S.  Otherwise, as on sl2 where C^2 = g and
        S is empty, every basis vector is a generator.  Both arguments need the
        Jacobi identity, so a table with ``jacobi_defects`` brackets every basis
        vector with every C^k.
        """
        n = self.dim
        units = [{i: as_scalar(1)} for i in range(1, n + 1)]
        c2 = Subspace.span(list(self.brackets.values()))
        series = [Subspace.span(units), c2]
        if c2.dim in (0, n):
            return tuple(series)
        pivots = set(c2.pivots)
        gens = [units[i - 1] for i in range(1, n + 1) if i not in pivots]
        images = None if self.jacobi_defects else _generated_images(self, gens, c2.dim)
        if images is None:
            gens = units
        while series[-1].dim not in (0, series[-2].dim):
            if images is None:
                images = [self.bracket_vec(s, v) for s in gens for v in series[-1].basis()]
            series.append(Subspace.span([v for v in images if v]))
            images = None
        return tuple(series)

    @cached_property
    def adapted_basis(self) -> "AdaptedBasis":
        """Base change to an adapted basis: [e_1, e_i] = e_{i+1} for i = 2..n-1
        and a bracket table lower-triangular in the index sum, with the
        alternating antidiagonal in even dimension.

        The basis is built from its filtration, which is intrinsic: L^1 = g,
        L^2 = {x : [x, C^2] inside C^4} and L^k = C^{k-1} for k >= 3.  As
        C^2 / C^3 is a line, L^2 is the kernel of x -> [x, b] mod C^4 for one
        b in C^2 outside C^3 (all of g when n = 3).

        e_1 is the first candidate of ``_e1_candidates`` whose adjoint map has
        a chain of length n-2.  For n >= 4 at most two lines of g / C^2 lack
        one: L^2 (its adjoint map sends C^2 into C^4) and the centralizer of
        C^{n-2} (it kills e_{n-1}).  Two basis vectors u, v that are not
        proportional mod C^2 give the three lines of u, v and u+v, so the
        pair sums reach a full chain.  e_2 is the first basis vector of L^2
        outside C^2 with [e_1, e_2] outside C^3, and e_{i+1} = [e_1, e_i].

        Since gr_C is m0 or m1 (Vergne), that chain has the adapted shape, and
        alpha e_n = [e_2, e_{n-1}].  On m0 type L^2 equals the centralizer of
        C^{n-2}, so alpha = 0; on m1 type no adapted basis reaches alpha = 0.
        The shape and the alternating antidiagonal are checked, and a failure
        raises AssertionError.  The adapted table is always a new algebra, so
        the cached basis holds no reference back to this one.
        """
        n = self.dim
        if not is_filiform(self):
            raise NotFiliform(f"not a filiform Lie algebra of dimension {n}")
        if n <= 2:
            vecs = [{i: as_scalar(1)} for i in range(1, n + 1)]
            return AdaptedBasis(tuple(vecs), change_basis(self, vecs), as_scalar(0))
        series = self.central_series
        c2, c3, c4 = series[1], series[2], series[min(3, n - 1)]  # C^4 = C^3 = 0 at n = 3
        b = next(v for v in c2.basis() if not c3.contains(v))
        units = list(range(1, n + 1))
        l2 = Subspace.span(kernel_of_map(
            units, [c4.reduce(self.bracket_vec({i: as_scalar(1)}, b)) for i in units]))
        e1 = next(e for e in _e1_candidates(self, c2) if self.ad_chain_length(e) >= n - 2)
        e2 = next(v for v in l2.basis()
                  if not c2.contains(v) and not c3.contains(self.bracket_vec(e1, v)))
        vecs = [e1, e2]
        for _ in range(n - 2):
            vecs.append(self.bracket_vec(e1, vecs[-1]))
        adapted = change_basis(self, vecs)
        defects = _adapted_defects(adapted)
        if defects:
            raise AssertionError(f"adapted basis breaks the adapted shape at {defects[0]}")
        alpha = _alpha_of(adapted)
        if alpha is None or (n % 2 == 1 and alpha):
            raise AssertionError("adapted basis has no alternating antidiagonal")
        return AdaptedBasis(tuple(vecs), adapted, alpha)

    # -- parameters -----------------------------------------------------------

    def at_parameter(self, t: Fraction) -> "LieAlgebra":
        """Evaluate RatFunc structure constants at a rational parameter."""
        table = {(i, j): {k: scalar_at(c, t) for k, c in comps.items()}
                 for (i, j), comps in self.brackets.items()}
        return LieAlgebra(self.dim, table, weights=self.weights)

    # -- interchange format ---------------------------------------------------

    def to_dict(self) -> dict:
        brackets = []
        for (i, j), comps in sorted(self.brackets.items()):
            brackets.append([i, j, [[k, format_rat(c)] for k, c in sorted(comps.items())]])
        doc = {"dim": self.dim, "brackets": brackets}
        if self.weights is not None:
            doc["weights"] = list(self.weights)
        return doc

    @staticmethod
    def from_dict(doc: dict, check: bool = True) -> "LieAlgebra":
        """Parse the interchange JSON document.  Untrusted input is read
        strictly: the dimension and every index are JSON integers, every
        coefficient is an integer or a "num/den" string (a bool is neither),
        no entry brackets e_i with itself, repeats a pair (in either order)
        or lists a component twice, and the table is Jacobi-checked."""
        if not isinstance(doc, dict):
            raise ValueError("the document is not a JSON object")
        dim = _document_int(doc["dim"], "dim")
        if dim < 1:
            raise ValueError(f"dimension {dim} is not positive")
        table = {}
        for i, j, comps in doc["brackets"]:
            i, j = _document_int(i, "bracket index"), _document_int(j, "bracket index")
            if i == j:
                raise ValueError(f"bracket entry [{i}, {j}] brackets e_{i} with itself")
            if (i, j) in table or (j, i) in table:
                raise ValueError(f"bracket entry [{i}, {j}] repeats the pair "
                                 f"{min(i, j), max(i, j)}")
            vec = table[(i, j)] = {}
            for k, c in comps:
                k = _document_int(k, "component index")
                if k in vec:
                    raise ValueError(f"bracket entry [{i}, {j}] lists component {k} twice")
                vec[k] = _document_rat(c)
        weights = doc.get("weights")
        if weights is not None and len(weights) != dim:
            raise ValueError(f"{len(weights)} weights for dimension {dim}")
        if weights is not None and not all(type(w) is int for w in weights):
            raise ValueError("weights must be integers")
        a = LieAlgebra(dim, table, weights=weights)
        if check:
            bad = jacobi_check(a)
            if bad:
                i, j, k, defect = bad[0]
                raise ValueError(f"Jacobi identity fails at ({i},{j},{k}): defect {defect}")
        return a

    def __repr__(self) -> str:
        terms = ", ".join(
            f"[e{i},e{j}]={'+'.join(f'({c})e{k}' for k, c in sorted(comps.items()))}"
            for (i, j), comps in sorted(self.brackets.items()))
        return f"LieAlgebra(dim={self.dim}: {terms or 'abelian'})"


def _document_int(x, what: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def _document_rat(x) -> int | Fraction:
    """The scalar of a document coefficient; an integer is read as an int,
    with no Fraction built for it."""
    if type(x) is int:  # a bool is an int to isinstance
        return x
    if isinstance(x, str) and is_decimal_rational(x):
        num, _, den = x.partition("/")
        return as_scalar(Fraction(int(num), int(den))) if den else int(num)
    raise ValueError(f"coefficient must be an integer or a \"num/den\" string, not {x!r}")


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise ValueError("abelian(n) needs n >= 1")
    return LieAlgebra(n, {}, weights=[1] * n)


# ---------------------------------------------------------------------------
# Jacobi and gradings
# ---------------------------------------------------------------------------

def jacobi_check(a: LieAlgebra) -> list[tuple[int, int, int, Vec]]:
    """All triples (i<j<k) where the Jacobi identity fails, with the defect
    (``LieAlgebra.jacobi_defects``, computed once per algebra)."""
    return list(a.jacobi_defects)


def grading_violations(a: LieAlgebra) -> list[tuple[int, int, int]]:
    """Structure terms breaking weight(k) == weight(i) + weight(j); none
    when the algebra carries no weights, since it has no grading to break."""
    w = a.weights
    if w is None:
        return []
    return [(i, j, k) for i, j, k, _ in a.structure_terms()
            if w[k - 1] != w[i - 1] + w[j - 1]]


# ---------------------------------------------------------------------------
# central series, filiform detection
# ---------------------------------------------------------------------------

def central_series(a: LieAlgebra) -> list[Subspace]:
    """C^1 = g, C^k = [g, C^{k-1}], up to the first stationary term
    (``LieAlgebra.central_series``, computed once per algebra)."""
    return list(a.central_series)


def _generated_images(a: LieAlgebra, gens: list[Vec], dim_c2: int) -> list[Vec] | None:
    """The brackets [s, w] for s in gens and w in a basis of W, the smallest
    ad(gens)-stable subspace containing [gens, gens], when dim W = dim_c2
    (so they span [gens, C^2] = C^3); None otherwise.

    W grows from a queue of brackets, each reduced against the echelon rows
    found so far (keyed by leading column); a nonzero residue is a new
    basis vector, and its brackets with gens join the queue (the loop reads
    what is appended).  W lies in C^2, so it is all of C^2 as soon as the
    dimensions agree.
    """
    index: dict = {}  # leading column -> echelon row of W
    queue = [a.bracket_vec(s, t) for s, t in itertools.combinations(gens, 2)]
    images: list[Vec] = []
    for v in queue:
        for lead in sorted(index):
            c = v.get(lead)
            if c:
                v = vec_axpy(v, -div(c, index[lead][lead]), index[lead])
        if not v:
            continue
        index[min(v)] = v
        new = [a.bracket_vec(s, v) for s in gens]
        images.extend(new)
        queue.extend(new)
        if len(index) == dim_c2:
            return images
    return None


def is_filiform(a: LieAlgebra) -> bool:
    """Whether a is a Lie algebra (no ``jacobi_defects``) whose central
    series reaches zero with nil-index dim - 1."""
    if a.jacobi_defects:
        return False
    series = a.central_series
    return series[-1].dim == 0 and len(series) == a.dim


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------

def change_basis(a: LieAlgebra, new_vectors: list[Vec], weights=None) -> LieAlgebra:
    """Structure constants of a in the basis given by new_vectors (old coords).

    Raises ValueError unless new_vectors are dim independent vectors.
    """
    n = a.dim
    if len(new_vectors) != n:
        raise ValueError("need exactly dim basis vectors")
    if list(new_vectors) == [{i: 1} for i in range(1, n + 1)]:
        return LieAlgebra(n, a.brackets, weights=weights)
    solver = SpanSolver(new_vectors)
    if solver.rank < n:
        raise ValueError("new basis is singular")
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = a.bracket_vec(new_vectors[i - 1], new_vectors[j - 1])
            if not w:
                continue
            comps = {k + 1: c for k, c in enumerate(solver.solve(w)) if c}
            if comps:
                table[(i, j)] = comps
    return LieAlgebra(n, table, weights=weights)


# ---------------------------------------------------------------------------
# adapted bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedBasis:
    """An adapted basis and the bracket table in it.

    ``vectors[i]`` is the new e_{i+1} in old coordinates; ``algebra`` is the
    bracket table rewritten in adapted coordinates; ``alpha`` is the
    antidiagonal coefficient ([e_i, e_{n+1-i}] = (-1)^i alpha e_n), always
    zero in odd dimension.
    """

    vectors: tuple
    algebra: LieAlgebra
    alpha: object

    def filtered_algebra(self) -> LieAlgebra:
        """The table in adapted coordinates, where the filtration L and the
        weight filtration of the cochains live.  Raises AlphaNonzero when
        alpha != 0; gr_L and every spectral entry read it here."""
        if self.alpha:
            raise AlphaNonzero("antidiagonal alpha != 0: filtration L undefined")
        return self.algebra


def _adapted_defects(a: LieAlgebra) -> list[tuple[int, int, int]]:
    """Structure terms violating the adapted shape."""
    n = a.dim
    bad = []
    for i, j, k, _ in a.structure_terms():
        if i == 1:
            ok = 2 <= j <= n - 1 and k == j + 1
        elif i + j <= n:
            ok = k >= i + j
        elif i + j == n + 1:
            ok = k == n
        else:
            ok = False
        if not ok:
            bad.append((i, j, k))
    return bad


def _alpha_of(a: LieAlgebra):
    """Antidiagonal coefficient of an adapted table; None if not alternating."""
    n = a.dim
    alpha = as_scalar(0)
    seen = False
    for i in range(2, n):
        j = n + 1 - i
        if i >= j:
            break
        c = a.bracket(i, j).get(n, as_scalar(0))
        val = c if i % 2 == 0 else -c
        if not seen:
            alpha, seen = val, True
        elif alpha != val:
            return None
    return alpha


def _e1_candidates(a: LieAlgebra, c2: Subspace):
    """Deterministic sweep: basis vectors outside C^2, then pairwise sums."""
    singles = [i for i in range(1, a.dim + 1) if not c2.contains({i: as_scalar(1)})]
    for i in singles:
        yield {i: as_scalar(1)}
    for i, j in itertools.combinations(singles, 2):
        yield {i: as_scalar(1), j: as_scalar(1)}


def adapted_basis(a: LieAlgebra) -> AdaptedBasis:
    """The adapted basis of a (``LieAlgebra.adapted_basis``, computed once per
    algebra); raises NotFiliform exactly when ``is_filiform(a)`` is False."""
    return a.adapted_basis


# ---------------------------------------------------------------------------
# associated graded algebras
# ---------------------------------------------------------------------------

def gr_c(a: LieAlgebra) -> LieAlgebra:
    """Graded algebra on the central-series quotients C^k / C^{k+1}.

    Basis: canonical quotient representatives, level by level; a new basis
    vector coming from level k gets weight k.
    """
    series = a.central_series
    if series[-1].dim != 0:
        raise NotNilpotent("gr_C needs a nilpotent algebra")
    # levels[k - 1] spans the representatives of C^k / C^{k+1}
    levels = [series[k - 1].quotient_representatives(series[k])
              for k in range(1, len(series))]
    reps: list[Vec] = []
    weights: list[int] = []
    offsets: list[int] = []
    for k, level in enumerate(levels, start=1):
        offsets.append(len(reps))
        reps.extend(level.rows)
        weights.extend([k] * level.dim)
    table = {}
    n = len(reps)
    for i in range(n):
        for j in range(i + 1, n):
            wsum = weights[i] + weights[j]
            if wsum > len(levels):
                continue
            w = a.bracket_vec(reps[i], reps[j])
            if not w:
                continue
            coeffs = levels[wsum - 1].coordinates(series[wsum].reduce(w))
            if coeffs is None:
                raise AssertionError("bracket escaped its central-series level")
            lo = offsets[wsum - 1]
            comps = {lo + t + 1: c for t, c in enumerate(coeffs) if c}
            if comps:
                table[(i + 1, j + 1)] = comps
    return LieAlgebra(n, table, weights=weights)


def gr_l(a: LieAlgebra) -> LieAlgebra:
    """Graded algebra of the filtration L: keep the leading terms c_ij^0.

    Only defined when the adapted table has alpha = 0; raises AlphaNonzero for
    even-dimensional input of m1 type.
    """
    b = adapted_basis(a).filtered_algebra()
    table = {}
    for (i, j), comps in b.brackets.items():
        lead = comps.get(i + j)
        if lead:
            table[(i, j)] = {i + j: lead}
    return LieAlgebra(b.dim, table, weights=range(1, b.dim + 1))


def m0_certificate(g: LieAlgebra) -> list[Vec] | None:
    """For a graded algebra with level dims (2,1,...,1): an explicit base
    change onto the m0 chain table, or None when the algebra is of m1 type.

    Detector: m0 is the class containing a weight-1 vector that commutes with
    everything of weight >= 2.
    """
    if g.weights is None:
        raise ValueError("m0_certificate expects a gr_C-style weight assignment")
    ones = [i for i in range(1, g.dim + 1) if g.weights[i - 1] == 1]
    if len(ones) != 2:
        raise ValueError("expected a two-dimensional bottom level")
    higher = [i for i in range(1, g.dim + 1) if g.weights[i - 1] >= 2]
    # the weight-1 vectors v with [v, h] = 0 for every h of weight >= 2
    images = [{(h, k): c for h in higher
               for k, c in g.bracket_vec({one: as_scalar(1)}, {h: as_scalar(1)}).items()}
              for one in ones]
    kernel = kernel_of_map(ones, images)
    if not kernel:
        return None
    v = kernel[0]
    u = None
    for one in ones:
        cand = {one: as_scalar(1)}
        if Subspace.span([v, cand]).dim == 2:
            u = cand
            break
    if u is None:
        return None
    chain = [u, v]
    nxt = g.bracket_vec(u, v)
    for _ in range(g.dim - 2):
        if not nxt:
            return None
        chain.append(nxt)
        nxt = g.bracket_vec(u, nxt)
    try:
        rewritten = change_basis(g, chain)
    except ValueError:  # the chain is not a basis
        return None
    expected = {(1, i): {i + 1: as_scalar(1)} for i in range(2, g.dim)}
    if rewritten.brackets != expected:
        return None
    return chain
