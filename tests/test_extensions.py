"""Central extensions, graded isomorphism, and the inductive classification."""

from fractions import Fraction

import pytest

from filiform import catalog
from filiform.cochain import Form, cohomology, d_matrix, lambda_basis
from filiform.extensions import (CenterNotOneDimensional, ExtensionCocycle,
                                 NotGradedFiliform, _family_top, _filiform_split,
                                 _top_weight_reps, central_extension,
                                 chain_constants, classify_graded,
                                 enumerate_graded_filiform,
                                 family_parameter_match, graded_isomorphic,
                                 is_filiform_extension)
from filiform.lie import (LieAlgebra, abelian, change_basis, is_filiform,
                          jacobi_check, grading_violations)
from filiform.linalg import rank_drop_candidates
from filiform.scalars import RatFunc

F = Form.from_pairs


# -- central extensions ----------------------------------------------------------

def test_zero_cocycle_on_abelian():
    ext = central_extension(ExtensionCocycle(abelian(4), Form.zero(2)))
    assert ext.dim == 5 and ext.brackets == {}


def test_extension_of_m0_3_is_m0_4():
    ext = central_extension(ExtensionCocycle(catalog.build("m0", n=3), F(2, [[[1, 3], "1"]])))
    assert ext.brackets == catalog.build("m0", n=4).brackets
    assert ext.weights == (1, 2, 3, 4)


def test_extension_beta_cocycle_gives_m2_5():
    base = catalog.build("m0", n=4)
    for beta in (1, -3, Fraction(2, 7)):
        c = F(2, [[[1, 4], "1"]]).add(F(2, [[[2, 3], "1"]]).scale(beta))
        ext = central_extension(ExtensionCocycle(base, c))
        assert is_filiform(ext)
        assert graded_isomorphic(ext, catalog.build("m2", n=5))


def test_extension_quotient_round_trip():
    base = catalog.build("m2", n=6)
    c = F(2, [[[1, 6], "1"], [[2, 5], "1"]])
    ext = central_extension(ExtensionCocycle(base, c))
    n = base.dim
    # the quotient by the central line e_{n+1}, and the cocycle on that line
    quotient = {key: {k: v for k, v in comps.items() if k <= n}
                for key, comps in ext.brackets.items() if key[1] <= n}
    assert LieAlgebra(n, quotient).brackets == base.brackets
    assert Form(2, {key: comps[n + 1] for key, comps in ext.brackets.items()
                    if n + 1 in comps}) == c


def test_jacobi_by_construction():
    base = catalog.build("V", n=9)
    c = catalog.form_omega(9)
    ext = central_extension(ExtensionCocycle(base, c))
    assert jacobi_check(ext) == []
    assert ext.brackets == catalog.build("V", n=10).brackets


# -- filiform extension criterion ---------------------------------------------------

def test_filiform_extension_criterion():
    n = 6
    base = catalog.build("m0", n=n)
    assert is_filiform_extension(ExtensionCocycle(base, F(2, [[[1, n], "1"]])))
    assert not is_filiform_extension(ExtensionCocycle(base, F(2, [[[2, 3], "1"]])))


def test_omega_cocycle_is_filiform_extension():
    base = catalog.build("V", n=9)
    x = ExtensionCocycle(base, catalog.form_omega(9))
    assert catalog.form_omega(9).coeffs[(1, 9)] == 8  # contains e^1^e^9
    assert is_filiform_extension(x)


def test_center_not_one_dimensional():
    with pytest.raises(CenterNotOneDimensional):
        is_filiform_extension(ExtensionCocycle(abelian(4), Form.zero(2)))
    # zero cocycle on a filiform base: well-posed, just not a filiform extension
    assert not is_filiform_extension(ExtensionCocycle(catalog.build("m0", n=3), Form.zero(2)))


# -- graded isomorphism ----------------------------------------------------------------

def test_graded_isomorphic_reflexive():
    for a in (catalog.build("m2", n=8), catalog.build("g9", alpha=4)):
        assert graded_isomorphic(a, a)


def test_g7_family_members_distinct():
    a = catalog.build("g7", alpha=1)
    b = catalog.build("g7", alpha=2)
    assert not graded_isomorphic(a, b)
    assert family_parameter_match(a, "g7") == 1
    assert family_parameter_match(b, "g7") == 2


def test_scaling_invariance():
    # e1 -> 3 e1, e2 -> (1/2) e2 fixes the class
    a = catalog.build("g8", alpha=Fraction(1, 3))
    vecs = [{1: Fraction(3)}, {2: Fraction(1, 2)}]
    cur = vecs[1]
    for _ in range(6):
        cur = a.bracket_vec(vecs[0], cur)
        vecs.append(cur)
    b = change_basis(a, vecs, weights=range(1, 9))
    assert graded_isomorphic(a, b)


def test_remark_isomorphisms_vn_gn8():
    for n in (7, 8, 9, 10, 11):
        v = catalog.build("V", n=n)
        g = catalog.build(f"g{n}", alpha=8)
        assert graded_isomorphic(v, g)
        assert family_parameter_match(v, f"g{n}") == 8


def test_remark_isomorphisms_small():
    assert graded_isomorphic(catalog.build("m2", n=5), catalog.build("V", n=5))
    assert graded_isomorphic(catalog.build("m2", n=6), catalog.build("V", n=6))
    assert graded_isomorphic(catalog.build("m0", n=3), catalog.build("V", n=3))
    assert graded_isomorphic(catalog.build("m0", n=4), catalog.build("V", n=4))
    assert graded_isomorphic(catalog.build("m0", n=4), catalog.build("m2", n=4))
    assert not graded_isomorphic(catalog.build("m0", n=5), catalog.build("m2", n=5))


def test_m01_towers_meet_g_family_at_minus_two():
    # the k=3 tower coincides with the families at alpha = -2
    assert graded_isomorphic(catalog.build("m01", n=7), catalog.build("g7", alpha=-2))
    assert graded_isomorphic(catalog.build("m02", n=8), catalog.build("g8", alpha=-2))
    assert graded_isomorphic(catalog.build("m03", n=9), catalog.build("g9", alpha=-2))
    # while the k=4 towers are distinct from every family member
    assert family_parameter_match(catalog.build("m01", n=9), "g9") is None


def test_not_graded_filiform():
    with pytest.raises(NotGradedFiliform):
        chain_constants(catalog.build("m1", n=8))  # weights are not 1..n
    with pytest.raises(NotGradedFiliform):
        chain_constants(LieAlgebra(5, {}, weights=range(1, 6)))


def reference_chain_constants(a):
    """The base-change route: build the chain, change basis, read the table."""
    n = a.dim
    if a.weights is None or sorted(a.weights) != list(range(1, n + 1)):
        raise NotGradedFiliform("need weights forming 1..n, one line each")
    pos = {w: i + 1 for i, w in enumerate(a.weights)}
    chain = [{pos[1]: Fraction(1)}, {pos[2]: Fraction(1)}]
    for _ in range(n - 2):
        nxt = a.bracket_vec(chain[0], chain[-1])
        if not nxt:
            raise NotGradedFiliform("[g_1, g_i] = g_{i+1} fails")
        chain.append(nxt)
    b = change_basis(a, chain, weights=range(1, n + 1))
    out = {}
    for (i, j), comps in b.brackets.items():
        if i == 1:
            continue
        if set(comps) != {i + j}:
            raise NotGradedFiliform("bracket is not weight-homogeneous")
        out[(i, j)] = comps[i + j]
    return out


def _relabelled(a, order, scales):
    """a in the basis e'_k = scales[k] e_{order[k]}: a diagonal rescaling
    with the weights permuted along with the indices."""
    vecs = [{i: Fraction(c)} for i, c in zip(order, scales)]
    return change_basis(a, vecs, weights=[a.weights[i - 1] for i in order])


def _chain_oracle_cases():
    for name in catalog.names():
        for n in range(3, 16):
            try:
                a = catalog.build(name, n=n)
            except (catalog.GuardViolated, TypeError):  # needs more than n
                continue
            if a.weights == tuple(range(1, n + 1)):
                yield pytest.param(a, id=f"{name}({n})")
    for n in range(7, 12):
        for alpha in (1, Fraction(-7, 3), 8):
            yield pytest.param(catalog.build(f"g{n}", alpha=alpha), id=f"g{n}({alpha})")
    for name, n in (("m0", 6), ("m2", 6), ("m0", 8)):
        base = catalog.build(name, n=n)
        u, (w,) = _filiform_split(_top_weight_reps(base), n)
        line = central_extension(ExtensionCocycle(base, u.add(w.scale(RatFunc.t()))))
        assert any(isinstance(c, RatFunc) for *_, c in line.structure_terms())
        yield pytest.param(line, id=f"{name}({n}) line")
    a = catalog.build("g8", alpha=Fraction(1, 3))
    vecs = [{1: Fraction(3)}, {2: Fraction(1, 2)}]
    for _ in range(6):
        vecs.append(a.bracket_vec(vecs[0], vecs[-1]))
    yield pytest.param(change_basis(a, vecs, weights=range(1, 9)), id="g8 chain basis")
    yield pytest.param(_relabelled(a, range(8, 0, -1),
                                   (2, -3, Fraction(5, 7), 1, Fraction(-1, 4), 6, 11, 9)),
                       id="g8 reversed and rescaled")
    yield pytest.param(_relabelled(catalog.build("V", n=13),
                                   (7, 1, 12, 3, 9, 2, 13, 5, 10, 4, 8, 6, 11),
                                   (1, -5, 3, Fraction(1, 2), 7, 2, -1, 4, 3, 5, -2, 6, 8)),
                       id="V(13) shuffled and rescaled")


@pytest.mark.parametrize("a", list(_chain_oracle_cases()))
def test_chain_constants_match_base_change(a):
    assert chain_constants(a) == reference_chain_constants(a)


@pytest.mark.parametrize("key,comps,message", [
    ((2, 3), {6: 1}, "weight-homogeneous"),  # lands on weight 6, not 5
    ((2, 5), {6: 1}, "weight-homogeneous"),  # weight 7 > n
    ((1, 3), {4: 1, 5: 2}, "g_1, g_i"),  # a chain bracket with a second term
])
def test_chain_constants_reject_broken_weights(key, comps, message):
    a = catalog.build("m2", n=6)
    table = dict(a.brackets)
    table[key] = comps
    with pytest.raises(NotGradedFiliform, match=message):
        chain_constants(LieAlgebra(6, table, weights=a.weights))


def test_cohomologous_cocycles_give_isomorphic_extensions():
    base = catalog.build("m0", n=6)
    u = F(2, [[[1, 6], "1"], [[2, 5], "1"], [[3, 4], "-1"]])
    # add the coboundary d e6 = e1^e5: same class, equivalent extension
    from filiform.cochain import differential
    shift = differential(base, Form.monomial((6,)))
    assert shift == F(2, [[[1, 5], "1"]])
    u2 = u.add(shift)
    e1 = central_extension(ExtensionCocycle(base, u))
    e2 = central_extension(ExtensionCocycle(base, u2))
    assert is_filiform(e2)
    # u2 is not weight homogeneous, so compare through the adapted route
    from filiform.lie import gr_l
    assert graded_isomorphic(e1, gr_l(e2))


# -- classification ---------------------------------------------------------------------

def congruent_names(classes):
    out = []
    for c in classes:
        out.append(f"{c.name}[alpha]" if c.is_family else c.name)
    return sorted(out)


def test_enumeration_small_dims():
    assert congruent_names(enumerate_graded_filiform(3)) == ["m0"]
    assert congruent_names(enumerate_graded_filiform(4)) == ["m0"]
    assert congruent_names(enumerate_graded_filiform(5)) == ["m0", "m2"]
    assert congruent_names(enumerate_graded_filiform(6)) == ["m0", "m2"]


def test_enumeration_dimension_7():
    classes = enumerate_graded_filiform(7)
    assert congruent_names(classes) == ["g7[alpha]", "m0", "m01", "m2"]
    fam = next(c for c in classes if c.is_family)
    # the family member at alpha = -2 is the m01(7) table
    assert dict(fam.overlaps) == {Fraction(-2): "m01"}


def test_enumeration_dimension_9_guards():
    classes = enumerate_graded_filiform(9)
    assert congruent_names(classes) == ["g9[alpha]", "m0", "m01", "m03", "m2"]
    fam = next(c for c in classes if c.is_family)
    assert Fraction(-5, 2) in fam.excluded
    assert dict(fam.overlaps) == {Fraction(-2): "m03"}


def test_enumeration_dimension_12_and_13():
    assert congruent_names(enumerate_graded_filiform(12)) == ["V", "m0", "m02", "m2"]
    assert congruent_names(enumerate_graded_filiform(13)) == ["V", "m0", "m01", "m03", "m2"]


def test_enumeration_invariants():
    for n in (6, 8, 10):
        for cls in enumerate_graded_filiform(n):
            a = cls.algebra if not cls.is_family else cls.algebra.at_parameter(Fraction(5))
            assert jacobi_check(a) == []
            assert is_filiform(a)
            assert grading_violations(a) == []


def test_g11_extension_exceptional_at_8():
    # dim H^2_(12)(g11, alpha) is generically zero and jumps exactly at 8
    fam = catalog.family_symbolic("g11")
    src = lambda_basis(11, 2, fam.weights, 12)
    tgt = lambda_basis(11, 3, fam.weights, 12)
    m = d_matrix(fam, src, tgt)
    cands = set(rank_drop_candidates(m)) - {Fraction(-5, 2), Fraction(-1), Fraction(-3)}
    hits = []
    for alpha in sorted(cands):
        inst = catalog.build("g11", alpha=alpha)
        if cohomology(inst, 2, weight=12).dim > 0:
            hits.append(alpha)
    assert hits == [Fraction(8)]
    assert cohomology(fam, 2, weight=12).dim == 0  # generic dimension
    ext_cocycle = cohomology(catalog.build("g11", alpha=8), 2, weight=12).representatives[0]
    ext = central_extension(ExtensionCocycle(catalog.build("g11", alpha=8), ext_cocycle))
    assert graded_isomorphic(ext, catalog.build("V", n=12))


@pytest.mark.parametrize("name", ["g7", "g8", "g9", "g10", "g11"])
def test_family_top_is_one_elimination_of_two_routes(name):
    # H^2 of weight n + 1 and the rank-drop candidates from one elimination
    fam = catalog.family_symbolic(name)
    n = fam.dim
    src = lambda_basis(n, 2, fam.weights, n + 1)
    tgt = lambda_basis(n, 3, fam.weights, n + 1)
    reps, drops = _family_top(fam)
    assert reps == _top_weight_reps(fam)
    assert drops == rank_drop_candidates(d_matrix(fam, src, tgt))


def test_classify_graded_names():
    assert classify_graded(catalog.build("V", n=5)) == ("m2", None)
    assert classify_graded(catalog.build("V", n=9)) == ("g9", Fraction(8))
    assert classify_graded(catalog.build("V", n=13)) == ("V", None)
    assert classify_graded(catalog.build("g7", alpha=-2)) == ("m01", None)
    assert classify_graded(catalog.build("m02", n=12)) == ("m02", None)


def test_enumeration_builds_each_candidate_once(monkeypatch):
    # one enumeration memoizes the catalog candidates' normal forms by (name, n)
    from collections import Counter
    calls = Counter()
    build = catalog.build

    def counting(name, **params):
        if "n" in params:
            calls[(name, params["n"])] += 1
        return build(name, **params)

    monkeypatch.setattr(catalog, "build", counting)
    expected = [c.label() for c in enumerate_graded_filiform(9)]
    calls[("m0", 3)] -= 1  # the seed of the induction, built before any candidate
    assert calls and max(calls.values()) == 1
    calls.clear()
    # the memo dies with the call: a second enumeration builds them again
    assert [c.label() for c in enumerate_graded_filiform(9)] == expected
    assert calls[("m0", 9)] == 1
