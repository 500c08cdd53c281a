"""Core Lie algebra machinery: Jacobi, central series, adapted bases, gr_C/gr_L."""

import json
import random
from fractions import Fraction

import pytest

from filiform import catalog
from filiform.lie import (AlphaNonzero, LieAlgebra, NotFiliform, _adapted_defects,
                          abelian, adapted_basis, central_series,
                          change_basis, gr_c, gr_l, grading_violations,
                          is_filiform, jacobi_check, m0_certificate)
from filiform.linalg import Subspace
from filiform.scalars import RatFunc
from test_cochain import ORACLE_ALGEBRAS


def series_dims(a):
    return [s.dim for s in central_series(a)]


def nil_index(a):
    """Largest s with C^s != 0 on nilpotent input."""
    return len(central_series(a)) - 1


def direct_sum(a, b):
    """Block-diagonal bracket table on the concatenated bases."""
    table = dict(a.brackets)
    for (i, j), comps in b.brackets.items():
        table[(i + a.dim, j + a.dim)] = {k + a.dim: c for k, c in comps.items()}
    return LieAlgebra(a.dim + b.dim, table)


# -- jacobi ------------------------------------------------------------------

def test_jacobi_abelian_empty():
    assert jacobi_check(abelian(4)) == []


def test_jacobi_m0_6_empty():
    assert jacobi_check(catalog.build("m0", n=6)) == []


def test_jacobi_broken_m0_5():
    # oracle: Jac(e1,e2,e3) = [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]
    #       = [e3,e3] + [e4,e1] + [-e4,e2] = -e5 - 0 = -e5  (with [e2,e3]=e4)
    bad = LieAlgebra(5, {**catalog.build("m0", n=5).brackets, (2, 3): {4: 1}})
    violations = jacobi_check(bad)
    assert violations
    triples = [v[:3] for v in violations]
    assert (1, 2, 3) in triples
    defect = dict(violations[triples.index((1, 2, 3))][3])
    assert defect == {5: Fraction(-1)}


def test_every_catalog_algebra_satisfies_jacobi():
    algebras = [
        catalog.build("m0", n=7), catalog.build("m1", n=8),
        catalog.build("m2", n=9), catalog.build("V", n=10),
        catalog.build("m01", n=9), catalog.build("m02", n=10),
        catalog.build("m03", n=11), catalog.build("g7", alpha=Fraction(1, 3)),
        catalog.build("g8", alpha=3), catalog.build("g9", alpha=-2),
        catalog.build("g10", alpha=0), catalog.build("g11", alpha=8),
        catalog.build("heisenberg", n=5),
        catalog.build("abelian_commutant", n=10, t=2, alphas=(1, 2, 3)),
    ]
    for a in algebras:
        assert jacobi_check(a) == [], a
        # an algebra without weights has no grading to break
        assert grading_violations(a) == [], a


def test_symbolic_family_satisfies_jacobi():
    fam = catalog.family_symbolic("g11")
    assert any(isinstance(c, RatFunc) for *_, c in fam.structure_terms())
    assert jacobi_check(fam) == []


# -- central series / filiform ------------------------------------------------

def test_central_series_abelian():
    assert series_dims(abelian(4)) == [4, 0]
    assert nil_index(abelian(4)) == 1


def test_central_series_m0():
    for n in (4, 7, 10):
        dims = series_dims(catalog.build("m0", n=n))
        assert dims == [n, n - 2] + list(range(n - 3, -1, -1))
        assert nil_index(catalog.build("m0", n=n)) == n - 1


def test_nil_index_v10_matches_bruteforce():
    a = catalog.build("V", n=10)
    # oracle: iterate [g, C^k] on spanning vectors directly
    spans = [[{i: Fraction(1)} for i in range(1, 11)]]
    while True:
        prev = spans[-1]
        nxt = [a.bracket_vec({i: Fraction(1)}, v) for i in range(1, 11) for v in prev]
        nxt = [v for v in nxt if v]
        if not nxt:
            break
        spans.append(nxt)
    assert len(spans) == 9  # C^1..C^9 nonzero, C^10 = 0
    assert nil_index(a) == 9


def bruteforce_series(a):
    """The oracle above on canonical subspaces: C^{k+1} is spanned by
    [e_i, v] for every basis vector e_i and every basis vector v of C^k,
    until the dimension is stationary."""
    units = [{i: Fraction(1)} for i in range(1, a.dim + 1)]
    series = [Subspace.span(units)]
    while True:
        nxt = [a.bracket_vec(u, v) for u in units for v in series[-1].basis()]
        series.append(Subspace.span([v for v in nxt if v]))
        if series[-1].dim in (0, series[-2].dim):
            return series


SL2 = LieAlgebra(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
SERIES_CASES = [
    ("sl2", SL2),
    ("[e1,e2]=e1", LieAlgebra(3, {(1, 2): {1: 1}})),
    ("sl2+m0(5)", direct_sum(SL2, catalog.build("m0", n=5))),
    ("m0(5)+sl2", direct_sum(catalog.build("m0", n=5), SL2)),
    ("abelian(3)", abelian(3)),
    ("g9 over Q(alpha)", catalog.family_symbolic("g9")),
] + [(f"{name} {params}", catalog.build(name, **params))
     for name, params in ORACLE_ALGEBRAS]


@pytest.mark.parametrize("label, a", SERIES_CASES, ids=[c[0] for c in SERIES_CASES])
def test_central_series_matches_bruteforce(label, a):
    # the generator shortcut needs the Jacobi identity, and the series takes
    # it only when jacobi_check finds no defect (the section5 variant of m03
    # has some, so it brackets every basis vector)
    assert central_series(a) == bruteforce_series(a), label


def test_central_series_of_a_non_jacobi_table_brackets_every_basis_vector():
    # e3 and e5 are off the pivots of C^2, but without the Jacobi identity
    # they need not generate: bracketing with them alone gives
    # [5, 3, 2, 1, 0], a filiform series
    a = LieAlgebra(5, {(1, 5): {4: 2}, (2, 4): {4: 1}, (3, 4): {2: 2}, (3, 5): {1: 2}})
    assert jacobi_check(a)
    assert series_dims(a) == [5, 3, 2, 2]
    assert central_series(a) == bruteforce_series(a)
    assert not is_filiform(a)


def computations(monkeypatch, name: str) -> list:
    """The algebras whose cached property ``name`` (``jacobi_defects``,
    ``central_series``, ``adapted_basis``) is computed from now on, one entry
    per computation."""
    prop = LieAlgebra.__dict__[name]
    seen = []

    def counted(algebra, compute=prop.func):
        seen.append(algebra)
        return compute(algebra)

    monkeypatch.setattr(prop, "func", counted)
    return seen


def test_jacobi_defects_are_computed_once_per_algebra(monkeypatch):
    seen = computations(monkeypatch, "jacobi_defects")
    a = LieAlgebra.from_dict(catalog.build("m02", n=10).to_dict())
    assert seen == [a]
    assert jacobi_check(a) == [] and jacobi_check(a) == []
    assert series_dims(a) == [10, *range(8, -1, -1)]
    assert is_filiform(a)
    adapted_basis(a)
    gr_c(a)
    assert seen == [a]


def test_central_series_matches_bruteforce_after_base_change():
    rng = random.Random(11)
    bases = [SL2, direct_sum(SL2, catalog.build("m0", n=5)),
             catalog.build("m01", n=9), catalog.build("m1", n=8),
             catalog.build("deformation_21", n=8, alphas=(Fraction(2, 3),))]
    checked = 0
    for a in bases:
        for _ in range(3):
            vecs = [{j: Fraction(rng.randint(-2, 2)) for j in range(1, a.dim + 1)
                     if j == i or rng.random() < 0.3} for i in range(1, a.dim + 1)]
            vecs = [{j: c for j, c in v.items() if c} for v in vecs]
            if Subspace.span(vecs).dim != a.dim:
                continue
            b = change_basis(a, vecs)
            assert central_series(b) == bruteforce_series(b), (a, vecs)
            checked += 1
    assert checked >= 8


def test_is_filiform():
    assert is_filiform(catalog.build("heisenberg", n=3))
    assert not is_filiform(abelian(3))
    assert is_filiform(catalog.build("m2", n=9))
    assert not is_filiform(catalog.build("heisenberg", n=5))
    assert not is_filiform(LieAlgebra(3, {(1, 2): {1: 1}}))  # not nilpotent


def m0_5_without_jacobi():
    """m0(5) with [e2, e3] = e4 added: the Jacobi identity fails at (1, 2, 3)
    (defect -e5), and the bracket series still has the filiform shape."""
    return LieAlgebra(5, {**catalog.build("m0", n=5).brackets, (2, 3): {4: 1}})


def test_a_table_that_breaks_jacobi_is_not_filiform():
    from filiform.spectral import page_dimensions
    a = m0_5_without_jacobi()
    assert jacobi_check(a) == [(1, 2, 3, {5: Fraction(-1)})]
    assert series_dims(a) == [5, 3, 2, 1, 0]
    assert not is_filiform(a)
    with pytest.raises(NotFiliform):
        adapted_basis(a)
    with pytest.raises(NotFiliform):
        page_dimensions(a)


AGREEMENT_CASES = [
    ("abelian(1)", abelian(1)), ("abelian(2)", abelian(2)), ("abelian(4)", abelian(4)),
    ("h3", catalog.build("heisenberg", n=3)), ("h5", catalog.build("heisenberg", n=5)),
    ("m0(7)", catalog.build("m0", n=7)), ("m1(8)", catalog.build("m1", n=8)),
    ("V(9)", catalog.build("V", n=9)),
    ("deformation_23", catalog.build("deformation_23", alphas=(1, 2, 3))),
    ("not nilpotent", LieAlgebra(3, {(1, 2): {1: 1}})),
    ("m0(5) without Jacobi", m0_5_without_jacobi()),
]


@pytest.mark.parametrize("label, a", AGREEMENT_CASES, ids=[c[0] for c in AGREEMENT_CASES])
def test_series_adapted_basis_and_is_filiform_agree(label, a):
    series = central_series(a)
    assert series == bruteforce_series(a), label
    shape = series[-1].dim == 0 and len(series) - 1 == a.dim - 1
    assert is_filiform(a) == (shape and not jacobi_check(a))
    if is_filiform(a):
        adapted_basis(a)
    else:
        with pytest.raises(NotFiliform):
            adapted_basis(a)


def test_series_and_adapted_basis_are_computed_once_per_algebra(monkeypatch):
    series_seen = computations(monkeypatch, "central_series")
    basis_seen = computations(monkeypatch, "adapted_basis")
    a = catalog.build("deformation_23", alphas=(1, 2, 3))
    for _ in range(2):
        assert is_filiform(a)
        central_series(a)
        ab = adapted_basis(a)
        gr_c(a)
        gr_l(a)
    assert series_seen == [a] and basis_seen == [a]
    assert adapted_basis(a) is ab


@pytest.mark.parametrize("build", [
    lambda: abelian(2), lambda: catalog.build("m0", n=8), lambda: catalog.build("m1", n=8),
    lambda: catalog.build("deformation_23", alphas=(1, 2, 3)),
], ids=["abelian(2)", "m0(8)", "m1(8)", "deformation_23"])
def test_algebra_is_freed_without_the_cycle_collector(build):
    # the cached adapted basis holds its own table, never the algebra itself,
    # so an algebra and its cached invariants go with the last reference
    import gc
    import weakref
    from filiform.structures import symplectic_exists
    a = build()
    central_series(a)
    adapted_basis(a)
    if a.dim >= 4:
        symplectic_exists(a)
    ref = weakref.ref(a)
    gc.disable()
    try:
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_center_of_filiform_is_last_line():
    # the centre of a filiform algebra is the last nonzero central-series
    # term, a line that every basis vector brackets to zero
    a = catalog.build("m2", n=7)
    z = a.central_series[-2]
    assert z.dim == 1 and z.contains({7: Fraction(1)})
    assert all(not a.bracket_vec({i: 1}, z.rows[0]) for i in range(1, 8))


# -- adapted basis -------------------------------------------------------------

# catalog algebras whose given basis is adapted (V's [e_1, e_i] = (i-1) e_{i+1}
# is not), and a further set for the base-change oracle
ADAPTED_CATALOG = [
    ("m0", {"n": 5}), ("m0", {"n": 8}), ("m1", {"n": 8}), ("m1", {"n": 10}),
    ("m2", {"n": 7}), ("g8", {"alpha": 3}), ("g10", {"alpha": -1}),
    ("deformation_21", {"n": 9, "alphas": (1,)}),
    ("deformation_23", {"alphas": (1, 2, 3)}),
    ("abelian_commutant", {"n": 8, "t": 2, "alphas": (2,)}),
]
BASE_CHANGE_ORACLE = ADAPTED_CATALOG + [
    ("V", {"n": 9}), ("V", {"n": 10}), ("m2", {"n": 8}), ("g8", {"alpha": -2}),
    ("abelian_commutant", {"n": 8, "t": 0, "alphas": ("-1/2",)}),
]


def catalog_label(name, params):
    return name + "(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")"


def random_base_change(a, rng, density):
    """a in a random invertible basis; each entry is nonzero with the given
    density and then lies in -3..3."""
    while True:
        vecs = [{j: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for j in range(1, a.dim + 1)
                 if rng.random() < density} for _ in range(a.dim)]
        if Subspace.span(vecs).dim == a.dim:
            return change_basis(a, vecs)


def test_adapted_basis_identity_on_adapted_input():
    for name, params in ADAPTED_CATALOG:
        a = catalog.build(name, **params)
        ab = adapted_basis(a)
        assert list(ab.vectors) == [{i: Fraction(1)} for i in range(1, a.dim + 1)], name
        assert ab.alpha == (-1 if name == "m1" else 0)
        assert ab.algebra.brackets == a.brackets


@pytest.mark.parametrize("name, params", [
    pytest.param(name, params, id=catalog_label(name, params))
    for name, params in BASE_CHANGE_ORACLE])
def test_adapted_basis_after_random_base_change(name, params):
    # gr_C is the independent oracle for the Vergne class: alpha != 0
    # exactly when gr_C is not m0
    rng = random.Random(f"{name}{params}")
    a = catalog.build(name, **params)
    for density in (0.2, 0.5, 0.5):
        b = random_base_change(a, rng, density)
        ab = adapted_basis(b)
        assert _adapted_defects(ab.algebra) == []
        for i in range(2, a.dim):
            assert ab.algebra.bracket(1, i) == {i + 1: 1}
        assert change_basis(b, list(ab.vectors)).brackets == ab.algebra.brackets
        assert bool(ab.alpha) == (m0_certificate(gr_c(b)) is None)
        assert bool(ab.alpha) == (name == "m1")


def test_adapted_basis_recovers_shuffled_m0_5():
    a = catalog.build("m0", n=5)
    perm = [3, 1, 5, 2, 4]  # new e_i = old e_{perm[i-1]}
    vectors = [{perm[i]: Fraction(1)} for i in range(5)]
    shuffled = change_basis(a, vectors)
    ab = adapted_basis(shuffled)
    assert ab.algebra.brackets == a.brackets
    assert ab.alpha == 0
    # round trip: the chain relations hold literally for the returned vectors
    for i in range(1, 4):
        assert shuffled.bracket_vec(ab.vectors[0], ab.vectors[i]) == ab.vectors[i + 1]


def test_adapted_basis_skips_an_e1_without_a_full_chain():
    # with e_1 and e_2 of m0(6) swapped, the first candidate e_1 is the old
    # e_2, whose adjoint chain stops after one step; the sweep goes on to e_2
    a = catalog.build("m0", n=6)
    swapped = change_basis(a, [{2: Fraction(1)}, {1: Fraction(1)}]
                           + [{i: Fraction(1)} for i in range(3, 7)])
    assert swapped.ad_chain_length({1: Fraction(1)}) < 4
    ab = adapted_basis(swapped)
    assert ab.algebra.brackets == a.brackets
    assert ab.alpha == 0


@pytest.mark.parametrize("n", [6, 8, 10])
def test_adapted_basis_reaches_a_pair_sum(n):
    # in the basis [e2, e1 + e2, e3, ..., en] of m1(n), the first vector spans
    # L^2 mod C^2 (ad chain of length 1) and the second the centralizer of
    # C^{n-2} (length n - 3): both singles fall short of n - 2, so e_1 is
    # the first pair sum of the sweep
    from filiform.structures import symplectic_exists
    a = catalog.build("m1", n=n)
    b = change_basis(a, [{2: 1}, {1: 1, 2: 1}] + [{i: 1} for i in range(3, n + 1)])
    assert [b.ad_chain_length({i: 1}) for i in (1, 2)] == [1, n - 3]
    assert adapted_basis(b).vectors[0] == {1: 1, 2: 1}
    assert adapted_basis(b).alpha
    assert symplectic_exists(b).reason == "GrCNotM0"


def test_change_basis_rejects_a_singular_basis():
    a = catalog.build("heisenberg", n=3)
    with pytest.raises(ValueError, match="singular"):
        change_basis(a, [{1: Fraction(1)}, {1: Fraction(1)}, {3: Fraction(1)}])
    with pytest.raises(ValueError, match="singular"):
        change_basis(a, [{1: Fraction(1)}, {2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}])


def test_signed_brackets_hold_both_orders():
    a = catalog.build("g10", alpha=Fraction(2, 3))
    for (i, j), comps in a.brackets.items():
        assert a.signed_brackets[i][j] == comps
        assert a.signed_brackets[j][i] == {k: -c for k, c in comps.items()}
    pairs = {(i, j) for i, row in a.signed_brackets.items() for j in row}
    assert pairs == set(a.brackets) | {(j, i) for i, j in a.brackets}
    a.bracket(2, 1)[99] = 1  # a copy: the table is unchanged
    assert 99 not in a.signed_brackets[2][1]


def test_change_basis_by_the_unit_vectors_keeps_the_table():
    a = catalog.build("deformation_23", alphas=(1, 2, 3))
    units = [{i: Fraction(1)} for i in range(1, a.dim + 1)]
    b = change_basis(a, units, weights=range(1, a.dim + 1))
    assert b.brackets == a.brackets and b.weights == tuple(range(1, a.dim + 1))
    assert change_basis(a, units).weights is None


def test_adapted_basis_on_scaled_and_mixed_basis():
    a = catalog.build("V", n=9)
    vectors = [{1: Fraction(2), 2: Fraction(1)}, {2: Fraction(3)}]
    vectors += [{i: Fraction(1), min(i + 2, 9): Fraction(1, 2)} for i in range(3, 10)]
    scrambled = change_basis(a, vectors)
    ab = adapted_basis(scrambled)
    assert not jacobi_check(ab.algebra)
    assert ab.alpha == 0
    # chain shape: [e1, e_i] = e_{i+1}
    for i in range(2, 9):
        assert ab.algebra.bracket(1, i) == {i + 1: Fraction(1)}


def test_adapted_basis_deformation_t1():
    a = catalog.build("abelian_commutant", n=9, t=1, alphas=(2,))
    ab = adapted_basis(a)
    assert ab.alpha == 0
    assert gr_l(a).brackets == catalog.build("m0", n=9).brackets


def test_adapted_basis_m1_has_alpha_minus_one():
    a = catalog.build("m1", n=8)
    ab = adapted_basis(a)
    assert ab.alpha == Fraction(-1)
    assert adapted_basis(a).alpha  # gr_C is of m1 type
    with pytest.raises(AlphaNonzero):
        gr_l(a)


def test_not_filiform_raises():
    with pytest.raises(NotFiliform):
        adapted_basis(abelian(4))


# -- gr_C ----------------------------------------------------------------------

def test_gr_c_abelian():
    g = gr_c(abelian(3))
    assert g.weights == (1, 1, 1) and g.brackets == {}


def test_gr_c_of_m2_and_v_is_m0():
    for name, n in (("m2", 5), ("m2", 8), ("V", 7), ("V", 12)):
        g = gr_c(catalog.build(name, n=n))
        assert g.weights == (1, 1) + tuple(range(2, n))
        cert = m0_certificate(g)
        assert cert is not None
        assert jacobi_check(g) == [] and grading_violations(g) == []


def test_gr_c_of_g8_family_is_m0():
    g = gr_c(catalog.build("g8", alpha=3))
    assert m0_certificate(g) is not None


def test_gr_c_of_m1_is_m1():
    g = gr_c(catalog.build("m1", n=8))
    assert m0_certificate(g) is None
    assert jacobi_check(g) == [] and grading_violations(g) == []


def test_gr_c_filiform_dims():
    for name, n in (("m0", 6), ("m2", 7), ("V", 9), ("m01", 9)):
        g = gr_c(catalog.build(name, n=n))
        counts = {}
        for w in g.weights:
            counts[w] = counts.get(w, 0) + 1
        assert counts == {1: 2, **{k: 1 for k in range(2, n)}}


# -- gr_L ----------------------------------------------------------------------

def test_gr_l_of_graded_is_itself():
    a = catalog.build("m2", n=8)
    assert gr_l(a).brackets == a.brackets


def test_gr_l_of_deformation_t0_is_m2():
    a = catalog.build("abelian_commutant", n=9, t=0, alphas=(1, -2))
    assert gr_l(a).brackets == catalog.build("m2", n=9).brackets


def test_gr_l_of_deformation_t2_is_m0():
    a = catalog.build("deformation_23", alphas=(1, 2, 3))
    assert gr_l(a).brackets == catalog.build("m0", n=10).brackets


def test_gr_outputs_pass_invariants():
    for a in (catalog.build("abelian_commutant", n=8, t=1),
              catalog.build("g9", alpha=1)):
        for g in (gr_c(a), gr_l(a)):
            assert jacobi_check(g) == []
            assert grading_violations(g) == []


# -- filtrations ----------------------------------------------------------------

def is_compatible(a, pieces):
    """[F^k, F^l] <= F^{k+l} on spanning vectors, for F^1 >= F^2 >= ... ."""
    def piece(k):
        return pieces[k - 1] if k <= len(pieces) else Subspace.span([])
    m = len(pieces)
    return all(piece(k + l).contains(a.bracket_vec(x, y))
               for k in range(1, m + 1) for l in range(k, m + 1)
               for x in piece(k).basis() for y in piece(l).basis())


def adapted_filtration(a):
    """L^k = span(e_k, ..., e_n) of the adapted basis, then 0."""
    vs = list(adapted_basis(a).vectors)
    return [Subspace.span(vs[k:]) for k in range(a.dim)] + [Subspace.span([])]


def test_filtrations_are_compatible():
    a = catalog.build("abelian_commutant", n=8, t=1, alphas=(1,))
    assert is_compatible(a, central_series(a))
    assert is_compatible(a, adapted_filtration(a))


def test_adapted_filtration_strictly_refines_central():
    a = catalog.build("m0", n=6)
    assert [s.dim for s in adapted_filtration(a)] == [6, 5, 4, 3, 2, 1, 0]
    assert [s.dim for s in central_series(a)] == [6, 4, 3, 2, 1, 0]


# -- interchange ------------------------------------------------------------------

def test_json_round_trip():
    a = catalog.build("g9", alpha=Fraction(-1, 2))
    doc = json.loads(json.dumps(a.to_dict()))
    b = LieAlgebra.from_dict(doc)
    assert b.brackets == a.brackets and b.weights == a.weights


def test_a_reversed_bracket_entry_is_stored_negated():
    # [e2, e1] = e3 is [e1, e2] = -e3
    a = LieAlgebra.from_dict({"dim": 3, "brackets": [[2, 1, [[3, "1"]]]]})
    assert a.brackets == {(1, 2): {3: -1}}
    assert a.bracket(2, 1) == {3: 1}


def test_from_dict_rejects_non_jacobi():
    doc = {"dim": 5,
           "brackets": [[1, 2, [[3, "1"]]], [1, 3, [[4, "1"]]], [1, 4, [[5, "1"]]],
                        [2, 3, [[4, "1"]]]]}
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra.from_dict(doc)


def test_random_base_change_preserves_invariants():
    rng = random.Random(7)
    a = catalog.build("m01", n=9)
    for _ in range(3):
        vecs = []
        for i in range(1, 10):
            v = {i: Fraction(1)}
            for j in range(1, 10):
                if rng.random() < 0.2:
                    v[j] = v.get(j, Fraction(0)) + Fraction(rng.randint(-2, 2))
            vecs.append({k: c for k, c in v.items() if c})
        if Subspace.span(vecs).dim != 9:
            continue
        b = change_basis(a, vecs)
        assert jacobi_check(b) == []
        assert is_filiform(b)
        assert series_dims(b) == series_dims(a)
