"""Differential, wedge machinery and (bi)graded cohomology."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filiform import catalog
from filiform.cochain import (Form, NotAComplex, WeightsMissing, _merge_sign,
                              betti_numbers, coboundary_space, cohomology, d_monomial,
                              differential, lambda_basis, monomials_by_weight)
from filiform.lie import LieAlgebra, abelian, jacobi_check
from filiform.linalg import Subspace, vec_axpy_into, vec_combination


F = Form.from_pairs


def unweighted(a):
    """The same bracket table without weights: one global elimination."""
    return LieAlgebra(a.dim, a.brackets)


def is_exact(a, f):
    """Whether the form f is a coboundary of a."""
    return Subspace.span([b.coeffs for b in coboundary_space(a, f.degree)]).contains(f.coeffs)


def test_wedge_antisymmetry_and_parity():
    a = Form.monomial((1, 3))
    b = Form.monomial((2,))
    assert a.wedge(b) == F(3, [[[1, 2, 3], "-1"]])
    assert b.wedge(a) == F(3, [[[1, 2, 3], "-1"]])  # (-1)^{1*2}
    assert a.wedge(Form.monomial((3,))).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_wedge_graded_commutativity(p, q, data):
    n = 6
    def rand_form(deg):
        coeffs = {}
        for idx in itertools.combinations(range(1, n + 1), deg):
            v = data.draw(st.integers(-3, 3))
            if v:
                coeffs[idx] = Fraction(v)
        return Form(deg, coeffs)
    f, g = rand_form(p), rand_form(q)
    lhs = f.wedge(g)
    rhs = g.wedge(f).scale((-1) ** (p * q))
    assert lhs == rhs


def test_differential_e1_vanishes_on_m0():
    a = catalog.build("m0", n=7)
    assert differential(a, Form.monomial((1,))).is_zero()
    assert differential(a, Form.monomial((2,))).is_zero()


def test_differential_e5_on_m2_5():
    a = catalog.build("m2", n=5)
    assert differential(a, Form.monomial((5,))) == F(2, [[[1, 4], "1"], [[2, 3], "1"]])


def test_differential_leibniz():
    a = catalog.build("V", n=8)
    rng = random.Random(3)
    for _ in range(10):
        def rand(deg):
            coeffs = {}
            for idx in itertools.combinations(range(1, 9), deg):
                if rng.random() < 0.3:
                    coeffs[idx] = Fraction(rng.randint(-2, 2))
            return Form(deg, coeffs)
        f, g = rand(1), rand(2)
        lhs = differential(a, f.wedge(g))
        rhs = differential(a, f).wedge(g).add(f.wedge(differential(a, g)).scale(-1))
        assert lhs == rhs


def test_deformation_23_top_cocycle_differential():
    # d(e2^e9 - e3^e8 + e4^e7 - e5^e6) = -2 e2^e3^e4 on the t=2 deformation
    a = catalog.build("deformation_23", alphas=(0, 0, 0))
    omega = F(2, [[[2, 9], "1"], [[3, 8], "-1"], [[4, 7], "1"], [[5, 6], "-1"]])
    assert differential(a, omega) == F(3, [[[2, 3, 4], "-2"]])
    # and the other weight-11 generator stays closed up to weight drop
    d_top = differential(a, F(2, [[[1, 10], "1"]]))
    assert d_top == F(3, [[[1, 2, 6], "-1"]])


def reference_differential(a, phi):
    """Leibniz over wedge products with a validating Form per de^k."""
    table = [dict() for _ in range(a.dim)]
    for i, j, k, c in a.structure_terms():
        table[k - 1][(i, j)] = c
    de = [Form(2, d) for d in table]
    out = {}
    for idx, c in phi.coeffs.items():
        for t, i_t in enumerate(idx):
            two = de[i_t - 1]
            if not two.coeffs:
                continue
            rest = idx[:t] + idx[t + 1:]
            sgn_t = -1 if t % 2 else 1
            for pair, b in two.coeffs.items():
                merged = _merge_sign(pair + rest)
                if merged is None:
                    continue
                new_idx, sign = merged
                s = out.get(new_idx, 0) + sign * sgn_t * c * b
                if s:
                    out[new_idx] = s
                else:
                    out.pop(new_idx, None)
    return Form(phi.degree + 1, out)


ORACLE_ALGEBRAS = [
    ("abelian", {"n": 4}), ("m0", {"n": 7}), ("m1", {"n": 8}), ("m2", {"n": 7}),
    ("V", {"n": 9}), ("m01", {"n": 7}), ("m02", {"n": 8}), ("m03", {"n": 9}),
    ("m03", {"n": 9, "variant": "section5"}), ("g7", {"alpha": -2}),
    ("g8", {"alpha": Fraction(-5, 2)}), ("g9", {"alpha": 2}), ("g10", {"alpha": 0}),
    ("g11", {"alpha": 8}), ("heisenberg", {"n": 5}),
    ("deformation_23", {"alphas": (1, 2, 3)}),
    ("deformation_21", {"n": 8, "alphas": (1,)}),
    ("abelian_commutant", {"n": 9, "t": 1, "alphas": (2,)}),
]


# params None: the symbolic family over Q(alpha)
@pytest.mark.parametrize("name, params", ORACLE_ALGEBRAS + [("g11", None)])
def test_differential_matches_reference(name, params):
    a = catalog.family_symbolic(name) if params is None else catalog.build(name, **params)
    rng = random.Random(name)
    for p in range(a.dim + 1):
        monos = lambda_basis(a.dim, p)
        for _ in range(3):
            picks = rng.sample(monos, min(len(monos), 6))
            phi = Form(p, {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for idx in picks})
            assert differential(a, phi) == reference_differential(a, phi), (p, phi)


def reference_block(a, p, src, tgt, below):
    """H^p over src by the direct route: the kernel of d, each cocycle
    reduced modulo the coboundaries d(below), the residues re-echelonized."""
    from filiform.cochain import d_matrix, d_monomial
    from filiform.linalg import Subspace, kernel_basis, rref
    if not src:
        return []
    if p == 0:
        return [Form(0, {(): 1})]
    kern = kernel_basis(d_matrix(a, src, tgt))
    cocycles = [{src[c]: v for c, v in vec.items()} for vec in kern]
    bound = Subspace.span([img for img in (d_monomial(a, idx) for idx in below) if img])
    reduced = [bound.reduce(v) for v in cocycles]
    _, rows = rref([r for r in reduced if r])
    return [Form(p, r) for r in rows]


# H^p needs d^2 = 0, and the section5 relations of m03 fail the Jacobi identity
@pytest.mark.parametrize("name, params", [
    case for case in ORACLE_ALGEBRAS if case[1].get("variant") != "section5"] + [
    ("deformation_23", {"alphas": (Fraction(-1, 2), 3, Fraction(2, 3))})])
def test_cohomology_blocks_match_reference(name, params):
    a = catalog.build(name, **params)
    assert jacobi_check(a) == []
    for p in range(a.dim + 1):
        degrees = (p, p + 1, p - 1)
        whole = [lambda_basis(a.dim, q) for q in degrees]
        assert cohomology(unweighted(a), p).forms() == reference_block(a, p, *whole), p
        if a.weights is None:
            assert cohomology(a, p).forms() == reference_block(a, p, *whole), p
            continue
        src, tgt, below = (monomials_by_weight(a.dim, q, a.weights) for q in degrees)
        for w in src:
            expected = reference_block(a, p, src[w], tgt.get(w, []), below.get(w, []))
            assert cohomology(a, p, weight=w).forms() == expected, (p, w)


def test_cohomology_of_v_matches_kernel_modulo_coboundaries():
    # most weight blocks of V_n in degrees 2 and 3 reach more degree-(p+1)
    # monomials than they have free monomials, so kernel_of_map takes its
    # tagged route on them; the oracle eliminates the whole d_matrix instead
    from filiform.cochain import d_matrix
    from filiform.linalg import Subspace, kernel_basis, rref
    for n in range(12, 16):
        a = catalog.build("V", n=n)
        for p in (2, 3):
            src, tgt = (monomials_by_weight(n, q, a.weights) for q in (p, p + 1))
            expected = []
            for w in src:
                bound = Subspace.span([f.coeffs for f in coboundary_space(a, p, weight=w)])
                reduced = [bound.reduce({src[w][c]: v for c, v in vec.items()})
                           for vec in kernel_basis(d_matrix(a, src[w], tgt.get(w, [])))]
                expected += [Form(p, r) for r in rref([r for r in reduced if r])[1]]
            assert cohomology(a, p).forms() == expected, (n, p)


def test_monomials_by_weight_matches_filter():
    rng = random.Random(5)
    for n in range(1, 11):
        for weights in (range(1, n + 1), [rng.randint(-2, 4) for _ in range(n)]):
            for p in range(-1, n + 2):
                combos = list(itertools.combinations(range(1, n + 1), p)) if p >= 0 else []
                seen = sorted({sum(weights[i - 1] for i in idx) for idx in combos})
                expected = {w: [idx for idx in combos
                                if sum(weights[i - 1] for i in idx) == w] for w in seen}
                got = monomials_by_weight(n, p, weights)
                assert got == expected and list(got) == seen, (n, p, list(weights))


def jacobi_by_triples(a):
    """The per-triple oracle: for each i < j < k in turn, the defect
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] bracketed out."""
    out = []
    for i, j, k in itertools.combinations(range(1, a.dim + 1), 3):
        defect = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            vec_axpy_into(defect, 1, a.bracket_vec(a.bracket(x, y), {z: Fraction(1)}))
        if defect:
            out.append((i, j, k, defect))
    return out


def dd_coefficients(a):
    """{(i, j, k): {m: the coefficient of d(d e^m) on e^i ^ e^j ^ e^k}}."""
    out = {}
    for m in range(1, a.dim + 1):
        de = d_monomial(a, (m,))
        for idx, c in vec_combination(de.values(), (d_monomial(a, ij) for ij in de)).items():
            out.setdefault(idx, {})[m] = c
    return out


def assert_jacobi_matches_references(a):
    got = jacobi_check(a)
    assert got == jacobi_by_triples(a)
    assert {(i, j, k): d for i, j, k, d in got} == dd_coefficients(a)


# params None: the symbolic family over Q(alpha); m03 section5 fails Jacobi
@pytest.mark.parametrize("name, params", ORACLE_ALGEBRAS + [("g10", None)])
def test_jacobi_check_matches_triples_and_d_squared(name, params):
    a = catalog.family_symbolic(name) if params is None else catalog.build(name, **params)
    assert_jacobi_matches_references(a)
    assert (jacobi_check(a) == []) == (params is None or "variant" not in params)


def test_cohomology_refuses_a_table_with_d_squared_nonzero():
    a = catalog.build("m03", n=9, variant="section5")
    i, j, k, _ = jacobi_check(a)[0]
    for weight in (None, 9):
        with pytest.raises(NotAComplex, match=rf"fails at \({i},{j},{k}\)"):
            cohomology(a, 2, weight)


def test_jacobi_check_matches_references_on_a_broken_table():
    bad = LieAlgebra(5, {**catalog.build("m0", n=5).brackets, (2, 3): {4: 1}})
    assert jacobi_check(bad)
    assert_jacobi_matches_references(bad)


@st.composite
def bracket_tables(draw):
    """Tables with components anywhere in 1..n, so a term [e_l, e_x] may
    land on a triple with x below, between or above the pair (a, b)."""
    n = draw(st.integers(3, 6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    entries = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, n),
                                      st.integers(-2, 2)), max_size=12))
    table = {}
    for pair, k, v in entries:
        table.setdefault(pair, {})[k] = Fraction(v)
    return LieAlgebra(n, table)


@settings(max_examples=200, deadline=None)
@given(bracket_tables())
def test_jacobi_check_matches_references_random(a):
    assert_jacobi_matches_references(a)


def test_weight_preservation_of_d():
    a = catalog.build("g9", alpha=2)
    for idx in lambda_basis(9, 2):
        img = differential(a, Form.monomial(idx))
        w = sum(idx)
        for m in img.coeffs:
            assert sum(m) == w


# -- cohomology golden values ---------------------------------------------------

def test_h2_m0_dims_and_basis():
    for n in (3, 5, 8, 11):
        a = catalog.build("m0", n=n)
        block = cohomology(a, 2)
        assert block.dim == (n + 1) // 2
        # the printed cocycles: e^1^e^n and the alternating weight-(2k+1) sums
        printed = [Form.monomial((1, n))]
        for k in range(2, (n + 1) // 2 + 1):
            coeffs = {}
            for i in range(2, 2 * k - 1):
                j = 2 * k + 1 - i
                if i < j <= n:
                    coeffs[(i, j)] = Fraction((-1) ** i)
            printed.append(Form(2, coeffs))
        for c in printed:
            assert differential(a, c).is_zero()
        # independent modulo coboundaries: they span the same space as the block
        vecs = [dict(r.coeffs) for r in block.representatives]
        cob = [dict(r.coeffs) for r in coboundary_space(a, 2)]
        from filiform.linalg import Subspace
        span_all = Subspace.span(vecs + cob)
        for c in printed:
            assert span_all.contains(dict(c.coeffs))
        assert Subspace.span([dict(c.coeffs) for c in printed] + cob).dim == len(cob) + block.dim


def test_h2_m2_dim_3_with_printed_basis():
    for n in (5, 7, 12):
        a = catalog.build("m2", n=n)
        block = cohomology(a, 2)
        assert block.dim == 3
        printed = [
            F(2, [[[1, n], "1"], [[2, n - 1], "1"]]),
            F(2, [[[2, 3], "1"]]),
            F(2, [[[2, 5], "1"], [[3, 4], "-1"]]),
        ]
        for c in printed:
            assert differential(a, c).is_zero()
        assert not is_exact(a, printed[0])


def test_h2_vn_printed_basis():
    for n in (5, 9, 14):
        a = catalog.build("V", n=n)
        block = cohomology(a, 2)
        assert block.dim == 3
        printed = [catalog.form_omega(n), F(2, [[[2, 3], "1"]]),
                   F(2, [[[2, 5], "1"], [[3, 4], "-3"]])]
        from filiform.linalg import Subspace
        cob = [dict(r.coeffs) for r in coboundary_space(a, 2)]
        vecs = [dict(r.coeffs) for r in block.representatives]
        span_all = Subspace.span(vecs + cob)
        for c in printed:
            assert differential(a, c).is_zero()
            assert span_all.contains(dict(c.coeffs))
        assert Subspace.span([dict(c.coeffs) for c in printed] + cob).dim == len(cob) + 3


def test_h2_weight_blocks_of_g8():
    # weight-9 block is one-dimensional for every alpha (the -5/2 class just
    # loses its e^1^e^8 component, see the classification tests)
    for alpha in (3, 0, Fraction(-5, 2)):
        a = catalog.build("g8", alpha=alpha)
        block = cohomology(a, 2, weight=9)
        assert block.dim == 1
    rep = cohomology(catalog.build("g8", alpha=3), 2, weight=9).representatives[0]
    assert rep == catalog.form_g8_symplectic(3)


def test_h2_weight9_representative_at_exceptional_value():
    a = catalog.build("g8", alpha=Fraction(-5, 2))
    rep = cohomology(a, 2, weight=9).representatives[0]
    assert (1, 8) not in rep.coeffs
    assert rep == F(2, [[[2, 7], "1"], [[3, 6], "-1"], [[4, 5], "1"]])


def test_hn_is_one_dimensional():
    for a in (catalog.build("m0", n=6), catalog.build("V", n=7),
              catalog.build("m1", n=6), abelian(4)):
        top = cohomology(a, a.dim)
        assert top.dim == 1


def test_h0_and_h1():
    a = catalog.build("m2", n=6)
    assert cohomology(a, 0).dim == 1
    assert cohomology(a, 1).dim == 2  # two generators


def test_blocked_matches_unblocked():
    a = catalog.build("m01", n=7)
    for p in range(8):
        assert cohomology(a, p).dim == cohomology(unweighted(a), p).dim


def test_weight_sum_identity():
    a = catalog.build("V", n=8)
    for p in (1, 2, 3):
        total = cohomology(unweighted(a), p).dim
        weights = sorted({sum(idx) for idx in lambda_basis(8, p)})
        assert total == sum(cohomology(a, p, weight=w).dim for w in weights)


def test_poincare_duality_small():
    for a in (catalog.build("m0", n=6), catalog.build("m2", n=7),
              catalog.build("g8", alpha=2)):
        b = betti_numbers(a)
        assert b == b[::-1]
        assert sum((-1) ** p * v for p, v in enumerate(b)) == 0


def test_weights_missing():
    a = catalog.build("deformation_23", alphas=(1, 0, 0))
    assert a.weights is None
    with pytest.raises(WeightsMissing):
        cohomology(a, 2, weight=11)


def test_is_cohomologous_examples():
    a = catalog.build("m0", n=5)
    f = F(2, [[[1, 4], "1"]])
    g = F(2, [[[1, 5], "1"]])
    assert differential(a, f).is_zero() and differential(a, g).is_zero()
    assert is_exact(a, f.add(f.scale(-1)))
    assert is_exact(a, f)  # e1^e4 = d e5
    assert not is_exact(a, g)
    assert not differential(a, F(2, [[[2, 4], "1"]])).is_zero()


def test_max_weights():
    # H^2 weight bound 2n-1; the top form has weight n(n+1)/2
    n = 6
    a = catalog.build("m0", n=n)
    weights = sorted({sum(idx) for idx in lambda_basis(n, 2)})
    assert max(weights) == 2 * n - 1
    assert sum(range(1, n + 1)) == n * (n + 1) // 2
    # p-forms top out at n + (n-1) + ... + (n-p+1)
    for p in (1, 3, 4):
        assert max(sum(idx) for idx in lambda_basis(n, p)) == sum(range(n - p + 1, n + 1))


def test_h2_weight_bound_on_graded_filiform():
    # on an N-graded filiform algebra of dim 2k every H^2 class of weight
    # above 2k+1 vanishes (the top-weight argument for symplectic forms)
    for name, params in (("m0", {"n": 8}), ("V", {"n": 10}), ("g8", {"alpha": 3})):
        a = catalog.build(name, **params)
        n = a.dim
        for w in range(n + 2, 2 * n):
            assert cohomology(a, 2, weight=w).dim == 0, (name, w)


def test_euler_characteristic_of_lambda():
    for n in (1, 2, 5, 8):
        total = sum((-1) ** p * len(lambda_basis(n, p)) for p in range(n + 1))
        assert total == 0
