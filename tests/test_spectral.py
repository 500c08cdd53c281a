"""Spectral sequence of the weight filtration: pages, differentials, survival."""

from fractions import Fraction

import pytest

from filiform import catalog
from filiform.cochain import Form, betti_numbers, cohomology, lambda_basis
from filiform.lie import AlphaNonzero, adapted_basis, gr_l
from filiform.spectral import (_PageComputer, build_pages,
                               canonical_block_representative, page_dimensions,
                               symplectic_survival)

F = Form.from_pairs


def h3_weight_profile(a):
    """Weights, with multiplicity, of the homogeneous generators of H^3; each
    representative lies in one weight block, in ascending weight."""
    return [sum(a.weights[i - 1] for i in next(iter(f.coeffs)))
            for f in cohomology(a, 3).representatives]


DEFORMATIONS = [
    ("(23) at 0,0,0", catalog.build("deformation_23", alphas=(0, 0, 0))),
    ("(23) at 1,2,3", catalog.build("deformation_23", alphas=(1, 2, 3))),
    ("(21) dim 8", catalog.build("deformation_21", n=8, alphas=(1,))),
    ("t=1 dim 9", catalog.build("abelian_commutant", n=9, t=1, alphas=(2,))),
    ("graded m2(7)", catalog.build("m2", n=7)),
]


@pytest.fixture(scope="module")
def built():
    """{label: (adapted basis, build_pages output)} for every DEFORMATIONS entry."""
    out = {}
    for label, a in DEFORMATIONS:
        out[label] = (adapted_basis(a), build_pages(a))
    return out


def test_page_one_is_graded_cohomology(built):
    for label, a in DEFORMATIONS:
        _, pages = built[label]
        graded = gr_l(a)
        page1 = pages[0]
        dims = page1.block_dims()
        for p in range(a.dim + 1):
            weights = sorted({sum(idx) for idx in lambda_basis(a.dim, p)}) or [0]
            for w in weights:
                expected = cohomology(graded, p, weight=w).dim if p else (1 if w == 0 else 0)
                assert dims.get((w, p), 0) == expected, (label, w, p)


def test_paper_indexing_of_page_one():
    a = catalog.build("deformation_23", alphas=(0, 0, 0))
    page1 = build_pages(a)[0]
    dims = page1.paper_block_dims()
    # E_1^{-11, 13} = H^2_(11)(m0(10)): two-dimensional
    assert dims[(-11, 13)] == 2


def test_trivial_deformation_degenerates_at_page_one():
    a = catalog.build("m2", n=7)
    pages = build_pages(a)
    b = betti_numbers(a)
    for page in pages:
        totals = page.total_dims()
        for p in range(8):
            assert totals.get(p, 0) == b[p]
        assert all(not m.entries for m in page.differentials.values())


def test_convergence_to_betti_numbers(built):
    for label, a in DEFORMATIONS[:4]:
        pages = built[label][1]
        b = betti_numbers(a)
        last = pages[-1].total_dims()
        for p in range(a.dim + 1):
            assert last.get(p, 0) == b[p], (label, p)
        # totals never increase page to page
        for earlier, later in zip(pages, pages[1:]):
            te, tl = earlier.total_dims(), later.total_dims()
            for p in range(a.dim + 1):
                assert tl.get(p, 0) <= te.get(p, 0)


def test_blocks_skipped_after_vanishing_are_zero(built):
    # build_pages builds on page r only the blocks page_dimensions lists;
    # every block it leaves out, page 1 included, must be zero when computed
    for label, a in DEFORMATIONS:
        ab, pages = built[label]
        comp = _PageComputer(ab.algebra)
        for r, dims in enumerate(page_dimensions(a), start=1):
            for p in range(a.dim + 1):
                for w in sorted(set(comp.weights[p])):
                    if (w, p) not in dims:
                        reps, _ = comp.block(r, w, p)
                        assert reps.dim == 0, (label, r, w, p)


def test_build_pages_checks_blocks_against_the_pairing(monkeypatch):
    # the pairing's block counts are a live check on the built blocks
    from filiform import spectral
    a = catalog.build("deformation_21", n=8, alphas=(1,))
    pairing_dims = spectral.page_dimensions

    def off_by_one(algebra):
        pages = pairing_dims(algebra)
        key = next(iter(pages[-1]))
        pages[-1][key] += 1
        return pages

    monkeypatch.setattr(spectral, "page_dimensions", off_by_one)
    with pytest.raises(AssertionError, match="persistence pairing"):
        build_pages(a)


def test_d_r_squared_zero(built):
    for label, a in DEFORMATIONS[:3]:
        for page in built[label][1]:
            for (w, p), mat in page.differentials.items():
                nxt = page.differentials.get((w - page.r, p + 1))
                if nxt is None or not mat.entries or not nxt.entries:
                    continue
                comp = {}
                for (r2, c2), v2 in nxt.entries.items():
                    for (r1, c1), v1 in mat.entries.items():
                        if r1 == c2:
                            comp[(r2, c1)] = comp.get((r2, c1), 0) + v2 * v1
                assert all(not v for v in comp.values()), (label, page.r, w, p)


def test_page_dimensions_match_build_pages(built):
    # the persistence pairing against the full pages, page count included
    for label, a in DEFORMATIONS:
        _, pages = built[label]
        assert page_dimensions(a) == [pg.block_dims() for pg in pages], label


def reference_pairing(comp, p):
    """The persistence pairing by the field update on Fraction or Q(alpha)
    columns, with no clearing and no duality: {paired monomial: gap}."""
    from filiform.linalg import vec_axpy_into
    from filiform.scalars import RatFunc
    gaps = {}
    rows, row_weights = comp.bases[p + 1], comp.weights[p + 1]
    pos = {idx: i for i, idx in enumerate(rows)}
    by_low = {}
    for idx, w in zip(comp.bases[p], comp.weights[p]):
        # Fractions, so that the update's division is exact
        col = {pos[m]: c if isinstance(c, RatFunc) else Fraction(c)
               for m, c in comp.d_of(idx).items()}
        while col:
            low = max(col)
            other = by_low.get(low)
            if other is None:
                by_low[low] = col
                gaps[idx] = gaps[rows[low]] = w - row_weights[low]
                break
            vec_axpy_into(col, -col[low] / other[low], other)
    return gaps


PAIRING_CASES = DEFORMATIONS + [
    ("(23) at -1/2,2/3,-3/2", catalog.build(
        "deformation_23", alphas=(Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)))),
    ("(21) dim 9 at 2/3", catalog.build("deformation_21", n=9, alphas=(Fraction(2, 3),))),
    ("t=2 dim 8 at -3/2", catalog.build("abelian_commutant", n=8, t=2,
                                        alphas=(Fraction(-3, 2),))),
    # the pairings above degree (n-1)/2 are read by duality: odd and even n
    ("(21) dim 13", catalog.build("deformation_21", n=13, alphas=(1,))),
    ("(21) dim 14", catalog.build("deformation_21", n=14, alphas=(1,))),
    ("t=1 dim 10", catalog.build("abelian_commutant", n=10, t=1)),
    ("symbolic g9", catalog.family_symbolic("g9")),
]


@pytest.mark.parametrize("label, a", PAIRING_CASES, ids=[c[0] for c in PAIRING_CASES])
def test_integer_pairing_matches_fraction_pairing(label, a):
    comp = _PageComputer(adapted_basis(a).algebra)
    for p in range(a.dim):
        assert comp.pairing(p) == reference_pairing(comp, p), (label, p)


class _UnmirroredPageComputer(_PageComputer):
    """Reduces the pairing of every degree by columns, with no duality."""

    def pairing(self, p):
        if p not in self._pairings:
            self._pairings[p] = self._reduce(p)
        return self._pairings[p]


def pages_counted_over_every_degree(comp):
    """Page dimensions counted over every degree from the pairings of comp,
    with the stop rule of ``page_dimensions``."""
    from filiform.spectral import degree_totals
    n = comp.n
    gaps = {}
    for p in range(n):
        gaps.update(comp.pairing(p))

    def dims_on(r):
        dims = {}
        for p in range(n + 1):
            for idx, w in zip(comp.bases[p], comp.weights[p]):
                if gaps.get(idx, r) >= r:
                    dims[(w, p)] = dims.get((w, p), 0) + 1
        return dims

    betti = degree_totals(dims_on(float("inf")))
    pages = []
    for r in range(1, 2 * n + 2):
        pages.append(dims_on(r))
        if degree_totals(pages[-1]) == betti:
            break
    return pages


@pytest.mark.parametrize("n", [15, 16])
def test_page_dimensions_match_the_reduction_of_every_degree(n):
    # the mirrored counts against a column reduction of every degree
    a = catalog.build("deformation_21", n=n, alphas=(1,))
    ab = adapted_basis(a)
    oracle = pages_counted_over_every_degree(_UnmirroredPageComputer(ab.algebra))
    assert page_dimensions(a) == oracle


def test_page_dimensions_build_only_the_lower_half_of_the_bases(monkeypatch):
    import filiform.spectral as spectral
    built_degrees = []
    enumerate_degree = spectral.monomials_by_weight

    def recording(n, p, weights):
        built_degrees.append(p)
        return enumerate_degree(n, p, weights)

    monkeypatch.setattr(spectral, "monomials_by_weight", recording)
    for a in (catalog.build("deformation_21", n=8, alphas=(1,)),
              catalog.build("deformation_21", n=9, alphas=(1,)),
              catalog.build("deformation_23", alphas=(1, 2, 3))):
        built_degrees.clear()
        page_dimensions(a)
        assert max(built_degrees) <= (a.dim + 1) // 2, a
        assert len(built_degrees) == len(set(built_degrees)), "a degree was built twice"


def test_page_computer_rejects_a_table_with_nonzero_trace():
    # [e1, e2] = e2: ad(e1) has trace 1, so d on L^1 is nonzero and the
    # duality of the pairing fails
    from filiform.lie import LieAlgebra
    with pytest.raises(AssertionError, match="unimodular"):
        _PageComputer(LieAlgebra(2, {(1, 2): {2: 1}}))


BASE_CHANGE_CASES = [
    ("(21) dim 9", catalog.build("deformation_21", n=9, alphas=(1,))),
    ("t=2 dim 8 at -3/2", catalog.build("abelian_commutant", n=8, t=2,
                                        alphas=(Fraction(-3, 2),))),
    ("(23) at 1,2,3", catalog.build("deformation_23", alphas=(1, 2, 3))),
]


@pytest.mark.parametrize("label, a", BASE_CHANGE_CASES,
                         ids=[c[0] for c in BASE_CHANGE_CASES])
def test_pages_and_verdict_survive_a_random_base_change(label, a):
    import random

    from filiform.structures import OddDimension, symplectic_exists
    from test_lie import random_base_change

    def verdict(x):
        try:
            cert = symplectic_exists(x)
        except OddDimension:
            return "odd dimension"
        return cert.exists, cert.reason

    # no weights: the adapted basis and its filtration are found again
    b = random_base_change(a, random.Random(label), 0.4)
    assert page_dimensions(b) == page_dimensions(a), label
    assert verdict(b) == verdict(a), label


def test_symbolic_family_pages_match_its_members():
    # over Q(alpha) the pairing takes the field column update, not the
    # integer one; generic members have the same pages
    symbolic = page_dimensions(catalog.family_symbolic("g9"))
    for alpha in (Fraction(7, 3), 5, Fraction(-1, 7)):
        assert page_dimensions(catalog.build("g9", alpha=alpha)) == symbolic, alpha


def test_survival_builds_only_low_degree_bases(monkeypatch):
    import filiform.spectral as spectral
    built_degrees = []
    enumerate_degree = spectral.monomials_by_weight

    def recording(n, p, weights):
        built_degrees.append(p)
        return enumerate_degree(n, p, weights)

    monkeypatch.setattr(spectral, "monomials_by_weight", recording)
    # a surviving corner, and an obstructed one that reads the pairing
    for a in (catalog.build("m0", n=16), catalog.build("deformation_23", alphas=(1, 2, 3))):
        built_degrees.clear()
        symplectic_survival(a)
        assert built_degrees and max(built_degrees) <= 4, a
        assert len(built_degrees) == len(set(built_degrees)), "a degree was built twice"


def test_page_dimensions_lazy_bases_match_eager_build(monkeypatch):
    import filiform.spectral as spectral

    class EagerPageComputer(_PageComputer):
        def __init__(self, algebra):
            super().__init__(algebra)
            for p in range(self.n + 2):
                self.weights[p]

    for label, a in DEFORMATIONS:
        ab = adapted_basis(a)
        lazy = page_dimensions(a)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_PageComputer", EagerPageComputer)
            assert page_dimensions(a) == lazy, label
        comp = _PageComputer(ab.algebra)
        for p in range(a.dim + 2):
            eager = spectral.monomials_by_weight(a.dim, p, range(1, a.dim + 1))
            assert comp.bases[p] == [idx for bucket in eager.values() for idx in bucket]
            assert comp.weights[p] == [w for w, bucket in eager.items() for _ in bucket]


def test_page_computer_is_freed_without_the_cycle_collector():
    # a memo closing over the computer would keep every cached d image alive
    # until the next collection, raising the peak memory of a verdict
    import gc
    import weakref
    comp = _PageComputer(catalog.build("m2", n=7))
    comp.weights[3]
    ref = weakref.ref(comp)
    gc.disable()
    try:
        del comp
        assert ref() is None
    finally:
        gc.enable()


def test_page_dimensions_match_build_pages_on_random_deformations():
    import random
    rng = random.Random(20261018)
    # n = 9 adds deformations with 3 and 5 pages; at n = 7, 8 only
    # deformation_21(8) has more than one
    for n in (7, 8, 9):
        for _ in range(3):
            alphas = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(rng.randint(1, 2)))
            for name, params in (("deformation_21", {}),
                                 ("abelian_commutant", {"t": rng.randint(0, 2)})):
                a = catalog.build(name, n=n, alphas=alphas, **params)
                want = [pg.block_dims() for pg in build_pages(a)]
                assert page_dimensions(a) == want, (name, n, alphas, params)


def _corner_witness(pages, top):
    """The first nonzero d_r out of the (top, 2) block, read off full pages."""
    for page in pages:
        mat = page.differentials.get((top, 2))
        if mat is not None and mat.entries:
            _, col = min(mat.entries)
            target = page.blocks[(top - page.r, 3)]
            image = Form.zero(3)
            for (row, c), v in mat.entries.items():
                if c == col:
                    image = image.add(target[row].scale(v))
            return page.r, page.blocks[(top, 2)][col], image
    return None


def test_survival_witness_matches_build_pages(built):
    import random
    rng = random.Random(20261018)
    cases = [(DEFORMATIONS[0][1], built[DEFORMATIONS[0][0]][1])]
    for _ in range(2):
        alphas = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        a = catalog.build("deformation_23", alphas=alphas)
        cases.append((a, build_pages(a)))
    for a, pages in cases:
        v = symplectic_survival(a)
        assert not v.survives
        got = (v.obstruction_page, v.obstruction_source, v.obstruction_image)
        assert got == _corner_witness(pages, a.dim + 1)


def test_deformation_23_d2_witness():
    a = catalog.build("deformation_23", alphas=(0, 0, 0))
    pages = build_pages(a)[:2]
    page2 = pages[1]
    assert page2.r == 2
    reps = page2.blocks[(11, 2)]
    mat = page2.differentials[(11, 2)]
    target = page2.blocks[(9, 3)]
    images = {}
    for col, rep in enumerate(reps):
        img = Form.zero(3)
        for (row, c), v in mat.entries.items():
            if c == col:
                img = img.add(target[row].scale(v))
        images[rep] = img
    # [e1^e10] survives d_2; the alternating class maps to -2 [e2^e3^e4]
    by_pivot = {min(rep.coeffs): (rep, img) for rep, img in images.items()}
    top_rep, top_img = by_pivot[(1, 10)]
    assert top_img.is_zero()
    alt_rep, alt_img = by_pivot[(2, 9)]
    assert alt_rep == F(2, [[[2, 9], "1"], [[3, 8], "-1"], [[4, 7], "1"], [[5, 6], "-1"]])
    assert alt_img == F(3, [[[2, 3, 4], "-2"]])


def test_deformation_23_obstructed_for_random_alphas():
    import random
    rng = random.Random(20240211)
    for _ in range(3):
        alphas = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        v = symplectic_survival(catalog.build("deformation_23", alphas=alphas))
        assert not v.survives
        assert v.obstruction_page == 2
        assert v.obstruction_image.coeffs.keys() == {(2, 3, 4)}


def test_survival_on_trivial_and_deformed():
    assert symplectic_survival(catalog.build("m0", n=8)).survives
    assert symplectic_survival(catalog.build("deformation_21", n=10, alphas=(1,))).survives
    v = symplectic_survival(catalog.build("deformation_21", n=10, alphas=(1,)))
    from filiform.structures import is_symplectic_form
    ab = adapted_basis(catalog.build("deformation_21", n=10, alphas=(1,)))
    assert is_symplectic_form(ab.algebra, v.lift)


def test_survival_matches_symplectic_exists():
    from filiform.structures import symplectic_exists
    cases = [
        catalog.build("deformation_21", n=8, alphas=()),
        catalog.build("abelian_commutant", n=10, t=1),
        catalog.build("deformation_23", alphas=(1, 0, 0)),
        catalog.build("m2", n=8),
    ]
    for a in cases:
        v = symplectic_survival(a)
        cert = symplectic_exists(a)
        assert v.survives == cert.exists


# the even-dimensional algebras of this module; criterion 6 in
# tests/test_acceptance.py uses the DEFORMATIONS algebras
CORNER_CASES = [c for c in PAIRING_CASES if c[1].dim % 2 == 0] + [
    ("m0(8)", catalog.build("m0", n=8)),
    ("(21) dim 10", catalog.build("deformation_21", n=10, alphas=(1,))),
    ("(21) dim 8 graded", catalog.build("deformation_21", n=8, alphas=())),
    ("(23) at 1,0,0", catalog.build("deformation_23", alphas=(1, 0, 0))),
    ("graded m2(8)", catalog.build("m2", n=8)),
]


@pytest.mark.parametrize("label, a", CORNER_CASES, ids=[c[0] for c in CORNER_CASES])
def test_graded_symplectic_is_the_class_of_gr_l(label, a):
    # the E_1 corner read by the survival test against H^2_{2k+1}(gr_L)
    from filiform.cochain import nondegenerate_point
    reps = cohomology(gr_l(a), 2, weight=a.dim + 1).representatives
    expected = nondegenerate_point(a.dim, [f.coeffs for f in reps]) is not None
    assert symplectic_survival(a).graded_symplectic == expected
    # graded m2(8) has no symplectic class; the other cases have one
    assert expected == (label != "graded m2(8)")


def test_filtration_undefined_for_m1():
    with pytest.raises(AlphaNonzero):
        build_pages(catalog.build("m1", n=8))


def test_canonical_block_representative_undefined_for_m1():
    with pytest.raises(AlphaNonzero):
        canonical_block_representative(catalog.build("m1", n=8), 1, 9, 2,
                                       Form.monomial((1, 8)))


def test_h3_weight_profiles_from_remark():
    # the printed remark lists the weight sets; multiplicities are computed
    # exactly (weight 12 resp. 15 carries a two-dimensional block) and the
    # doubled value is frozen from an independent sympy elimination below
    g8 = h3_weight_profile(catalog.build("g8", alpha=3))
    assert g8 == [11, 12, 12, 13, 15] and sorted(set(g8)) == [11, 12, 13, 15]
    g10 = h3_weight_profile(catalog.build("g10", alpha=0))
    assert g10 == [12, 13, 14, 15, 15] and sorted(set(g10)) == [12, 13, 14, 15]
    assert h3_weight_profile(catalog.build("V", n=14)) == [12, 15, 17, 18, 19]


def test_h3_weight_12_multiplicity_oracle():
    import itertools

    import sympy

    a = catalog.build("g8", alpha=3)
    src = [idx for idx in itertools.combinations(range(1, 9), 3) if sum(idx) == 12]
    tgt = [idx for idx in itertools.combinations(range(1, 9), 4) if sum(idx) == 12]
    below = [idx for idx in itertools.combinations(range(1, 9), 2) if sum(idx) == 12]

    def mat(rows, cols):
        m = sympy.zeros(len(rows), len(cols))
        pos = {idx: i for i, idx in enumerate(rows)}
        for c, idx in enumerate(cols):
            from filiform.cochain import differential
            for mm, v in differential(a, Form.monomial(idx)).coeffs.items():
                if mm in pos:
                    m[pos[mm], c] = sympy.Rational(v)
        return m

    dim = len(src) - mat(tgt, src).rank() - mat(src, below).rank()
    assert dim == 2


def test_h3_profile_explains_vanishing_differentials():
    # targets of d_r out of the symplectic corner have weight 2k+1-r < 2k+1,
    # while H^3 of the eight- and ten-dimensional families sits above it
    for name, alpha, corner in (("g8", 3, 9), ("g10", 0, 11)):
        profile = h3_weight_profile(catalog.build(name, alpha=alpha))
        assert all(w > corner for w in profile)
