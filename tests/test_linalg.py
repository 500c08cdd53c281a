"""Exact linear algebra: golden values plus randomized invariants.

Derived expectations are frozen from independent oracles: sympy's rational
matrices for rank/nullity and RREF, the field eliminator ``_eliminate`` for
the integer path of ``rref``, and brute-force enumeration for the
differential matrices coming from small catalog algebras.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from filiform.linalg import (Matrix, SpanSolver, Subspace, _eliminate, kernel_basis,
                             kernel_and_rank_drops, kernel_of_map, pivot_columns,
                             rank_drop_candidates, rref, vec_axpy, vec_axpy_into,
                             vec_combination)
from filiform.scalars import RatFunc, scalar_at


def dense(m: Matrix):
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


def rank(m: Matrix) -> int:
    """The number of pivots of the RREF of m's rows."""
    return len(rref(m.row_list())[0])


def identity(n: int) -> Matrix:
    return Matrix(n, n, {(i, i): 1 for i in range(n)})


def apply(m: Matrix, v) -> dict:
    """m v for a sparse column vector v, zero entries dropped."""
    out = {}
    for (r, c), a in m.entries.items():
        out[r] = out.get(r, 0) + a * v.get(c, 0)
    return {r: x for r, x in out.items() if x}


def sympy_rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in dense(m)]).rank()


def test_rank_empty_and_identity():
    assert rank(Matrix(0, 0)) == 0
    assert rank(identity(5)) == 5


def test_rank_d1_on_m0_4_duals():
    # rows = basis 2-forms of m0(4), cols = e^1..e^4; de^3 = e1^e2, de^4 = e1^e3
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    entries = {(pairs.index((1, 2)), 2): 1, (pairs.index((1, 3)), 3): 1}
    m = Matrix(6, 4, entries)
    assert rank(m) == 2 == sympy_rank(m)


def test_kernel_identity_empty():
    assert kernel_basis(identity(3)) == []


def test_kernel_zero_matrix_full():
    vecs = kernel_basis(Matrix(2, 4))
    assert len(vecs) == 4
    assert vecs == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_kernel_dim_of_d_on_two_forms_of_m0_5():
    # Independent oracle: enumerate d on the 10 basis 2-forms of m0(5) by the
    # derivation rule (de^k = e^1 ^ e^{k-1}) and count the nullity via sympy.
    import itertools

    n = 5
    de = {3: (1, 2), 4: (1, 3), 5: (1, 4)}
    two = list(itertools.combinations(range(1, n + 1), 2))
    three = list(itertools.combinations(range(1, n + 1), 3))

    def wedge1(a, pair):
        seq = [a, *pair]
        if len(set(seq)) < 3:
            return None, 0
        sign = 1
        items = list(seq)
        for i in range(1, 3):
            j = i
            while j > 0 and items[j - 1] > items[j]:
                items[j - 1], items[j] = items[j], items[j - 1]
                sign = -sign
                j -= 1
        return tuple(items), sign

    entries = {}
    for col, (i, j) in enumerate(two):
        # d(e^i ^ e^j) = de^i ^ e^j - e^i ^ de^j
        if i in de:
            idx, s = wedge1(j, de[i])
            if idx:
                entries[(three.index(idx), col)] = entries.get((three.index(idx), col), 0) + s
        if j in de:
            idx, s = wedge1(i, de[j])
            if idx:
                entries[(three.index(idx), col)] = entries.get((three.index(idx), col), 0) - s
    m = Matrix(len(three), len(two), {k: v for k, v in entries.items() if v})
    oracle_nullity = len(two) - sympy_rank(m)
    assert oracle_nullity == 6  # frozen from the oracle above
    assert len(kernel_basis(m)) == oracle_nullity
    assert rank(m) + len(kernel_basis(m)) == m.cols


def test_kernel_vectors_annihilate():
    m = Matrix(3, 5, {(0, 0): 2, (0, 3): -1, (1, 1): 3, (1, 4): Fraction(1, 2), (2, 0): 1, (2, 1): 1})
    for v in kernel_basis(m):
        assert apply(m, v) == {}


def test_solve_in_span_trivial_cases():
    gens = [{0: 1, 1: 2}, {1: 1, 2: -1}]
    assert SpanSolver(gens).solve({}) == [0, 0]
    assert SpanSolver(gens).solve({0: 1, 1: 2}) == [1, 0]
    # on the RREF rows {0: 1, 2: 2} and {1: 1, 2: -1}
    assert Subspace.span(gens).coordinates({}) == [0, 0]
    assert Subspace.span(gens).coordinates({0: 1, 1: 2}) == [1, 2]


def test_solve_in_span_combination_and_failure():
    gens = [{0: 1, 1: 2}, {1: 1, 2: -1}]
    c = SpanSolver(gens).solve({0: 2, 1: 5, 2: -1})
    assert c == [2, 1]
    assert SpanSolver(gens).solve({0: 1, 2: 5, 3: 1}) is None
    assert Subspace.span(gens).coordinates({0: 2, 1: 5, 2: -1}) == [2, 5]
    assert Subspace.span(gens).coordinates({0: 1, 2: 5, 3: 1}) is None


def test_not_in_span_of_m0_4_coboundaries():
    # e^1^e^4 lies outside span{de^3, de^4} = span{e1^e2, e1^e3} on m0(4)
    gens = [{(1, 2): 1}, {(1, 3): 1}]
    assert SpanSolver(gens).solve({(1, 4): 1}) is None
    assert Subspace.span(gens).coordinates({(1, 4): 1}) is None


def test_rref_canonical_and_deterministic():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2, 2: 2}, {2: 5}]
    p1, r1 = rref(rows)
    p2, r2 = rref(list(reversed(rows)))
    assert p1 == p2 == [0, 2]
    assert r1 == r2 == [{0: 1, 1: 2}, {2: 1}]


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                entries[(r, c)] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return Matrix(rows, cols, entries)


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.randoms())
def test_rank_nullity_and_row_op_invariance(m, rng):
    r = rank(m)
    assert r == sympy_rank(m)
    assert r + len(kernel_basis(m)) == m.cols
    # permute rows and rescale by nonzero rationals: rank is unchanged
    perm = list(range(m.rows))
    rng.shuffle(perm)
    scales = [Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2])) for _ in range(m.rows)]
    entries = {(perm[r0], c): scales[r0] * v for (r0, c), v in m.entries.items()}
    assert rank(Matrix(m.rows, m.cols, entries)) == r


@st.composite
def sparse_rows(draw, max_rows=6, cols=7):
    """Sparse rational rows plus a few combinations of them (rank deficits)."""
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    rows = [{c: draw(entry) for c in range(cols) if draw(st.integers(0, 2)) == 0}
            for _ in range(draw(st.integers(0, max_rows)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(vec_axpy(vec_axpy({}, draw(entry), a), draw(entry), b))
    return rows


def sympy_rref(rows, cols):
    """(pivots, rows) of sympy's RREF, as sparse Fraction rows."""
    if not rows:
        return [], []
    m, pivots = sympy.Matrix([[sympy.Rational(r.get(c, 0)) for c in range(cols)]
                              for r in rows]).rref()
    out = [{c: Fraction(int(m[i, c].p), int(m[i, c].q)) for c in range(cols) if m[i, c]}
           for i in range(len(pivots))]
    return list(pivots), out


@settings(max_examples=80, deadline=None)
@given(sparse_rows(), st.randoms())
def test_rref_matches_sympy_row_for_row(rows, rng):
    expected = sympy_rref(rows, 7)
    assert rref(rows) == expected
    # the RREF depends on the row space only: shuffle and rescale the input
    scales = [Fraction(rng.choice([1, 2, -3, 7]), rng.choice([1, 5])) for _ in rows]
    mixed = [{c: s * v for c, v in r.items()} for r, s in zip(rows, scales)]
    rng.shuffle(mixed)
    assert rref(mixed) == expected


@st.composite
def wide_rational_rows(draw, max_cols=12, max_rows=8):
    """(columns, rows): Fractions and ints with large numerators, plus zero,
    duplicate, rescaled and combined rows at drawn positions."""
    entry = st.one_of(
        st.integers(-10**6, 10**6),
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60))).filter(bool)
    cols = draw(st.integers(1, max_cols))
    rows = [{c: draw(entry) for c in range(cols) if draw(st.integers(0, 2)) == 0}
            for _ in range(draw(st.integers(0, max_rows)))]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["zero", "duplicate", "rescaled", "combined"]))
        extra = {"zero": {}, "duplicate": dict(a),
                 "rescaled": vec_axpy({}, draw(entry), a),
                 "combined": vec_axpy(vec_axpy({}, draw(entry), a), draw(entry), b)}[kind]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return cols, rows


@settings(max_examples=100, deadline=None)
@given(wide_rational_rows())
def test_integer_rref_matches_sympy_and_field_eliminator(drawn):
    cols, rows = drawn
    expected = sympy_rref(rows, cols)
    pivots, out = rref(rows)
    assert (pivots, out) == expected
    # an integral entry is an int, any other a Fraction
    assert all(type(v) is (int if v.denominator == 1 else Fraction)
               for r in out for v in r.values())
    # the field eliminator agrees on the same rows as Fractions
    as_fractions = [{c: Fraction(v) for c, v in r.items()} for r in rows]
    assert (pivots, out) == tuple(_eliminate(as_fractions, [{}] * len(rows))[:2])


def test_rref_over_parameter_field():
    # [[t, 1, t^2], [1, t + 1, 0]] and their sum: rank 2, D = t^2 + t - 1 the
    # minor on the first two columns, RREF entries solved by hand
    t = RatFunc.t()
    d = t * t + t - 1
    rows = [{0: t, 1: 1, 2: t * t}, {0: 1, 1: t + 1}, {0: t + 1, 1: t + 2, 2: t * t}]
    assert rref(rows) == ([0, 1], [{0: 1, 2: t * t * (t + 1) / d}, {1: 1, 2: -t * t / d}])


def test_span_solver_coefficients_on_dependent_generators():
    # generators 0 and 1, and 3 = 1 + 2, are dependent, so the coefficients
    # are not unique; these are the ones the field eliminator picks
    gens = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(2)},
            {1: Fraction(3), 2: Fraction(-1)}, {0: Fraction(1), 1: Fraction(5), 2: Fraction(-1)},
            {2: Fraction(1, 2)}]
    solver = SpanSolver(gens)
    assert solver.solve({0: 3, 1: 7, 2: -2}) == [0, 3, Fraction(1, 3), 0, Fraction(-10, 3)]
    assert solver.solve({0: 1, 1: 9, 2: 4}) == [0, 1, Fraction(7, 3), 0, Fraction(38, 3)]
    assert solver.solve({3: 1}) is None


def rows_rank(rows, cols=7) -> int:
    return sympy_rank(Matrix(len(rows), cols, {(r, c): v for r, row in enumerate(rows)
                                               for c, v in row.items()}))


@settings(max_examples=60, deadline=None)
@given(sparse_rows(), sparse_rows(max_rows=1), st.booleans())
def test_span_solver_round_trip(gens, extra, combine):
    target = extra[0] if extra else {}
    if combine and gens:
        # a target inside the span, built from the generators
        target = {}
        for i, g in enumerate(gens):
            target = vec_axpy(target, Fraction(i - 2, 3), g)
    solver = SpanSolver(gens)
    assert solver.rank == rows_rank(gens)
    coeffs = solver.solve(target)
    assert (coeffs is None) == (rows_rank(gens + [target]) > rows_rank(gens))
    if coeffs is not None:
        total = {}
        for c, g in zip(coeffs, gens):
            total = vec_axpy(total, c, g)
        assert total == target
    # the same target on the RREF rows of the span
    space = Subspace.span(gens)
    coords = space.coordinates(target)
    assert (coords is None) == (coeffs is None)
    if coords is not None:
        assert vec_combination(coords, space.rows) == target


def sequential_reduce(space: Subspace, v):
    """Reference: subtract the pivot rows one after another, re-reading v."""
    out = dict(v)
    for p, row in zip(space.pivots, space.rows):
        c = out.get(p)
        if c:
            out = vec_axpy(out, -c, row)
    return out


@settings(max_examples=60, deadline=None)
@given(sparse_rows(), sparse_rows(max_rows=3))
def test_subspace_reduce_matches_sequential_reference(gens, vectors):
    space = Subspace.span(gens)
    for v in vectors:
        red = space.reduce(v)
        assert red == sequential_reduce(space, v)
        assert not any(p in red for p in space.pivots)


def test_subspace_reduce_and_quotient():
    s = Subspace.span([{0: 1, 1: 1}, {1: 2}])
    assert s.dim == 2
    assert s.contains({0: 3, 1: -7})
    assert not s.contains({2: 1})
    q = Subspace.span([{0: 1}, {1: 1}, {2: 1}]).quotient_representatives(s)
    assert q == Subspace((2,), ({2: 1},))


def test_rank_drop_candidates_over_parameter_field():
    t = RatFunc.t()
    # rank drops exactly at t = 3 (rows become dependent) and t = -1
    m = Matrix(2, 2, {(0, 0): t - 3, (0, 1): (t - 3) * (t + 1), (1, 0): 0, (1, 1): t + 1})
    cands = rank_drop_candidates(m)
    assert Fraction(3) in cands and Fraction(-1) in cands


ROOTS = [Fraction(x) for x in (-2, -1, 0, 1, 3)] + [Fraction(1, 2), Fraction(-3, 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_drop_candidates_contain_every_drop(rows, cols, data):
    # entries c * (t - a) * (t - b) or constants, so ranks drop at chosen roots
    t = RatFunc.t()
    entries = {}
    for r in range(rows):
        for c in range(cols):
            coeff = data.draw(st.integers(-2, 2))
            for _ in range(data.draw(st.integers(0, 2))):
                coeff = coeff * (t - data.draw(st.sampled_from(ROOTS)))
            entries[(r, c)] = coeff
    m = Matrix(rows, cols, entries)
    generic = rank(m)
    cands = rank_drop_candidates(m)
    for t0 in ROOTS + [Fraction(5), Fraction(-1, 3)]:
        at = Matrix(rows, cols, {k: scalar_at(v, t0) for k, v in m.entries.items()})
        if rank(at) < generic:
            assert t0 in cands, (t0, cands)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_and_rank_drops_is_both_routes(rows, cols, data):
    t = RatFunc.t()
    entries = {}
    for r in range(rows):
        for c in range(cols):
            coeff = data.draw(st.integers(-2, 2))
            for _ in range(data.draw(st.integers(0, 2))):
                coeff = coeff * (t - data.draw(st.sampled_from(ROOTS)))
            entries[(r, c)] = coeff
    m = Matrix(rows, cols, entries)
    assert kernel_and_rank_drops(m) == (kernel_basis(m), rank_drop_candidates(m))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(1, 6), st.data())
def test_pivot_columns_are_the_rref_pivots(nrows, ncols, data):
    # forward elimination only; rational rows and rows over Q(t)
    t = RatFunc.t()
    symbolic = data.draw(st.booleans())
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            v = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
            if v:
                row[c] = v * (t - data.draw(st.sampled_from(ROOTS))) if symbolic else v
        rows.append(row)
    assert pivot_columns(rows) == rref(rows)[0]


def test_kernel_of_map_keeps_the_source_order():
    # columns follow source, not the sorted keys; no images, no kernel
    assert kernel_of_map([], []) == []
    assert kernel_of_map([(2,), (1,)], [{}, {}]) == [{(2,): 1}, {(1,): 1}]
    assert kernel_of_map([(2,), (1,)], [{"y": 1}, {"y": 1}]) == [{(2,): -1, (1,): 1}]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), unique=True,
                max_size=6),
       st.integers(0, 4), st.data())
def test_kernel_of_map_is_kernel_basis_of_the_image_columns(source, nout, data):
    # unsorted tuple keys; images over Q or Q(t), some of them zero
    t = RatFunc.t()
    symbolic = data.draw(st.booleans())
    images = []
    for _ in source:
        image = {}
        for k in range(nout if data.draw(st.booleans()) else 0):
            v = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
            if v:
                image[("out", k)] = v * (t - data.draw(st.sampled_from(ROOTS))) if symbolic else v
        images.append(image)
    m = Matrix(nout, len(source), {(k, c): v for c, image in enumerate(images)
                                   for (_, k), v in image.items()})
    expected = [{source[c]: v for c, v in vec.items()} for vec in kernel_basis(m)]
    assert kernel_of_map(source, images) == expected


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.booleans(), st.data())
def test_kernel_of_map_agrees_in_both_orientations(wide, symbolic, data):
    # wide: more distinct output keys than sources (the tagged forward pass);
    # otherwise the transposed map is reduced.  Zero, duplicate and
    # dependent images sit among independent ones, keys in shuffled order.
    t = RatFunc.t()

    def scalar():
        v = Fraction(data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.integers(1, 3)))
        return v * (t - data.draw(st.sampled_from(ROOTS))) if symbolic else v

    base_count = data.draw(st.integers(1 if wide else 0, 4))
    extra_count = data.draw(st.integers(0, 3))
    nsrc = base_count + extra_count
    nout = nsrc + data.draw(st.integers(1, 3)) if wide else data.draw(st.integers(0, nsrc))
    outs = [(k, "out") for k in data.draw(st.permutations(range(nout)))]
    base = [{outs[k]: scalar() for k in data.draw(st.sets(st.integers(0, nout - 1)))}
            if nout else {} for _ in range(base_count)]
    if wide:  # every output key is reached
        for key in outs:
            if not any(key in image for image in base):
                base[data.draw(st.integers(0, base_count - 1))][key] = scalar()
    images = list(base)
    for _ in range(extra_count):
        kind = data.draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not base:
            images.append({})
        elif kind == "duplicate":
            images.append(dict(data.draw(st.sampled_from(base))))
        else:
            combo = {}
            for image in base:
                vec_axpy_into(combo, Fraction(data.draw(st.integers(-2, 2))), image)
            images.append(combo)
    images = data.draw(st.permutations(images))
    source = data.draw(st.permutations([(c % 3, -c) for c in range(nsrc)]))
    reached = {k for image in images for k in image}
    assert (len(reached) > nsrc) == wide
    row = {k: r for r, k in enumerate(reached)}
    m = Matrix(len(reached), nsrc, {(row[k], c): v for c, image in enumerate(images)
                                    for k, v in image.items()})
    expected = [{source[c]: v for c, v in vec.items()} for vec in kernel_basis(m)]
    got = kernel_of_map(source, images)
    assert got == expected
    assert [list(vec) for vec in got] == [list(vec) for vec in expected]
