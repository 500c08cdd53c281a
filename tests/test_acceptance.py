"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each criterion prints one [acceptance] PASS/FAIL line (run with -s to see
them live).  Two classically tabulated sub-claims about these algebras turn
out to be refuted by exact computation; they are kept as strict xfails next
to passing tests of the corrected statements:

* the weight-9 block of the eight-dimensional family at alpha = -5/2 (and
  the weight-11 block of the ten-dimensional family at alpha in {-1, -3})
  is one-dimensional, not zero; what vanishes is its admissible part (no
  class carries an e^1 ^ e^n component, so no filiform extension and no
  symplectic class exists there -- every downstream conclusion is
  unchanged);

* dimension 10 carries three named classes plus the family (m0, m2, m02 and
  g10), not four: the odd-dimensional towers m01/m03 do not exist in even
  dimension, and no other even-dimensional class arises from the induction.
"""

import itertools
import random
from fractions import Fraction

import pytest

from filiform import catalog
from filiform.cochain import (Form, betti_numbers, coboundary_space,
                              cohomology, differential, lambda_basis)
from filiform.extensions import (ExtensionCocycle, central_extension,
                                 enumerate_graded_filiform, graded_isomorphic)
from filiform.lie import (LieAlgebra, gr_c, gr_l,
                          grading_violations, jacobi_check, m0_certificate)
from filiform.linalg import Subspace, rank_drop_candidates
from filiform.spectral import (build_pages, canonical_block_representative,
                               page_dimensions, symplectic_survival)
from filiform.structures import (contact_check, contactize,
                                 is_symplectic_form, symplectic_exists)

F = Form.from_pairs
SEED = 20020617  # all sampled randomness in this suite derives from here


def _report(criterion: str, status: str, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# criterion 1: the H^2 tables
# ---------------------------------------------------------------------------

def test_criterion_1_h2_tables():
    for n in range(3, 21):
        assert cohomology(catalog.build("m0", n=n), 2).dim == (n + 1) // 2, n
    for n in range(5, 21):
        assert cohomology(catalog.build("m2", n=n), 2).dim == 3, n
    for n in range(5, 17):
        a = catalog.build("V", n=n)
        block = cohomology(a, 2)
        assert block.dim == 3, n
        printed = [catalog.form_omega(n), F(2, [[[2, 3], "1"]]),
                   F(2, [[[2, 5], "1"], [[3, 4], "-3"]])]
        cob = [dict(r.coeffs) for r in coboundary_space(a, 2)]
        span_all = Subspace.span([dict(r.coeffs) for r in block.representatives] + cob)
        for c in printed:
            assert differential(a, c).is_zero(), (n, c)
            assert span_all.contains(dict(c.coeffs)), (n, c)
        assert Subspace.span([dict(c.coeffs) for c in printed] + cob).dim == len(cob) + 3
    _report("criterion 1", "PASS",
            "H^2 dims for m0(3..20), m2(5..20); V basis matched for n=5..16")


# ---------------------------------------------------------------------------
# criterion 2: exceptional parameters
# ---------------------------------------------------------------------------

def _sample_rationals(count, exclude):
    rng = random.Random(SEED)
    out = []
    while len(out) < count:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        if q not in exclude and q not in out:
            out.append(q)
    return out


def test_criterion_2_exceptional_parameters():
    # generic one-dimensionality at 20 sampled rationals away from -5/2
    for alpha in _sample_rationals(20, {Fraction(-5, 2)}):
        assert cohomology(catalog.build("g8", alpha=alpha), 2, weight=9).dim == 1, alpha

    # the admissible part (classes with an e^1 ^ e^8 component) dies exactly
    # at alpha = -5/2: that is the content driving the classification
    def admissible_dim(name, weight, alpha):
        block = cohomology(catalog.build(name, alpha=alpha), 2, weight=weight)
        return sum(1 for r in block.representatives if (1, weight - 1) in r.coeffs)

    assert admissible_dim("g8", 9, Fraction(-5, 2)) == 0
    for alpha in _sample_rationals(20, {Fraction(-5, 2)}):
        assert admissible_dim("g8", 9, alpha) == 1, alpha

    # g10: admissible weight-11 classes vanish exactly at {-1, -3}
    samples = _sample_rationals(20, {Fraction(-5, 2)})
    for alpha in samples + [Fraction(-1), Fraction(-3)]:
        expected = 0 if alpha in (Fraction(-1), Fraction(-3)) else 1
        assert admissible_dim("g10", 11, alpha) == expected, alpha

    # g11: H^2_(12) is nonzero iff alpha = 8, exhaustively over Q via the
    # rank-drop candidates of the symbolic cocycle matrix
    fam = catalog.family_symbolic("g11")
    src = lambda_basis(11, 2, fam.weights, 12)
    tgt = lambda_basis(11, 3, fam.weights, 12)
    from filiform.cochain import d_matrix
    cands = set(rank_drop_candidates(d_matrix(fam, src, tgt)))
    cands -= {Fraction(-5, 2), Fraction(-1), Fraction(-3)}
    assert cohomology(fam, 2, weight=12).dim == 0  # generic vanishing
    nonzero_at = [alpha for alpha in sorted(cands)
                  if cohomology(catalog.build("g11", alpha=alpha), 2, weight=12).dim]
    assert nonzero_at == [Fraction(8)]
    ext_rep = cohomology(catalog.build("g11", alpha=8), 2, weight=12).representatives[0]
    ext = central_extension(ExtensionCocycle(catalog.build("g11", alpha=8), ext_rep))
    assert graded_isomorphic(ext, catalog.build("V", n=12))
    _report("criterion 2", "PASS",
            "admissible blocks die exactly at -5/2 resp. {-1,-3}; "
            "H^2_(12)(g11) nonzero iff alpha=8 with extension V_12; "
            "see the strict xfail for the literal dim-zero wording")


@pytest.mark.xfail(strict=True, reason=(
    "tabulated claim refuted exactly: dim H^2_(9)(g8,-5/2) = 1 and "
    "dim H^2_(11)(g10,-1) = dim H^2_(11)(g10,-3) = 1; the classes just lose "
    "their e^1^e^n component (module docstring)"))
def test_criterion_2_literal_zero_dimensions():
    bad = []
    if cohomology(catalog.build("g8", alpha=Fraction(-5, 2)), 2, weight=9).dim != 0:
        bad.append("g8 @ -5/2")
    for alpha in (Fraction(-1), Fraction(-3)):
        if cohomology(catalog.build("g10", alpha=alpha), 2, weight=11).dim != 0:
            bad.append(f"g10 @ {alpha}")
    if bad:
        _report("criterion 2 (literal zero dims)", "FAIL",
                "computed dimension is 1 at " + ", ".join(bad))
    assert not bad


# ---------------------------------------------------------------------------
# criterion 3: classification counts
# ---------------------------------------------------------------------------

def _count(classes):
    named = sum(1 for c in classes if not c.is_family)
    fams = sum(1 for c in classes if c.is_family)
    return named, fams


def test_criterion_3_classification_counts():
    expected = {3: (1, 0), 4: (1, 0), 5: (2, 0), 6: (2, 0),
                7: (3, 1), 8: (3, 1), 9: (4, 1), 11: (4, 1)}
    for n, (named, fams) in expected.items():
        classes = enumerate_graded_filiform(n)
        assert _count(classes) == (named, fams), n
        for cls in classes:
            inst = (cls.algebra if not cls.is_family
                    else cls.algebra.at_parameter(Fraction(6)))
            assert jacobi_check(inst) == [] and grading_violations(inst) == []
    for n in (12, 14, 16):
        classes = enumerate_graded_filiform(n)
        assert _count(classes) == (4, 0), n
        assert sorted(c.name for c in classes) == ["V", "m0", "m02", "m2"], n
    for n in (13, 15, 17):
        classes = enumerate_graded_filiform(n)
        assert _count(classes) == (5, 0), n
        assert sorted(c.name for c in classes) == ["V", "m0", "m01", "m03", "m2"], n
    _report("criterion 3", "PASS",
            "counts match the classification for n=3..9, 11 and 12..17; "
            "n=10 handled separately (strict xfail for the literal count)")


def test_criterion_3_dimension_10_corrected():
    classes = enumerate_graded_filiform(10)
    assert _count(classes) == (3, 1)
    assert sorted(c.name for c in classes) == ["g10", "m0", "m02", "m2"]
    fam = next(c for c in classes if c.is_family)
    assert Fraction(-5, 2) in fam.excluded


@pytest.mark.xfail(strict=True, reason=(
    "the tabulated count for n=10 (4 classes + family) contradicts the "
    "classification: the induction produces m0(10), m2(10), m02(10) and the "
    "ten-dimensional family only (module docstring)"))
def test_criterion_3_literal_count_at_dimension_10():
    named, fams = _count(enumerate_graded_filiform(10))
    if (named, fams) != (4, 1):
        _report("criterion 3 (literal n=10 count)", "FAIL",
                f"computed {named} named classes + {fams} family")
    assert (named, fams) == (4, 1)


# ---------------------------------------------------------------------------
# criterion 4: the symplectic catalog
# ---------------------------------------------------------------------------

def test_criterion_4_symplectic_catalog():
    for k in range(2, 9):
        a = catalog.build("m0", n=2 * k)
        assert is_symplectic_form(a, catalog.form_m0_symplectic(k, beta=1)), k
    for k in (3, 6, 7, 8):
        a = catalog.build("V", n=2 * k)
        assert is_symplectic_form(a, catalog.form_v_symplectic(k)), k
    for alpha in (Fraction(3), Fraction(0), Fraction(8)):
        a = catalog.build("g8", alpha=alpha)
        assert is_symplectic_form(a, catalog.form_g8_symplectic(alpha)), alpha
    for alpha in (Fraction(0), Fraction(8)):
        a = catalog.build("g10", alpha=alpha)
        assert is_symplectic_form(a, catalog.form_g10_symplectic(alpha)), alpha

    # excluded parameters: the printed form (where defined) is degenerate and
    # no symplectic structure exists at all
    for alpha in (Fraction(-2), Fraction(-1), Fraction(1, 2)):
        a = catalog.build("g8", alpha=alpha)
        assert not is_symplectic_form(a, catalog.form_g8_symplectic(alpha)), alpha
        assert not symplectic_exists(a).exists, alpha
    assert not symplectic_exists(catalog.build("g8", alpha=Fraction(-5, 2))).exists
    assert not is_symplectic_form(catalog.build("g10", alpha=Fraction(-1, 4)),
                                  catalog.form_g10_symplectic(Fraction(-1, 4)))
    for alpha in (Fraction(-1, 4), Fraction(-1), Fraction(-3)):
        assert not symplectic_exists(catalog.build("g10", alpha=alpha)).exists, alpha
    with pytest.raises(catalog.GuardViolated):
        catalog.build("g10", alpha=Fraction(-5, 2))  # excluded as non-existent
    _report("criterion 4", "PASS",
            "printed forms symplectic at all sampled guarded parameters, "
            "degenerate/non-existent at every printed excluded rational")


# ---------------------------------------------------------------------------
# criterion 5: nonexistence with witnesses
# ---------------------------------------------------------------------------

def test_criterion_5_nonexistence():
    for k in (3, 4, 5, 6):
        cert = symplectic_exists(catalog.build("m1", n=2 * k))
        assert not cert.exists and cert.reason == "GrCNotM0", k

    rng = random.Random(SEED)
    expected_image = F(3, [[[2, 3, 4], "-2"]])
    for trial in range(5):
        alphas = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                       for _ in range(3))
        a = catalog.build("deformation_23", alphas=alphas)
        cert = symplectic_exists(a)
        assert not cert.exists and cert.reason == "SpectralObstruction", alphas
        v = cert.witness
        assert v.obstruction_page == 2, alphas
        want = canonical_block_representative(a, 2, 9, 3, expected_image)
        assert v.obstruction_image == want, alphas

    for n in (8, 10, 12):
        a = catalog.build("abelian_commutant", n=n, t=0, alphas=(1,))
        cert = symplectic_exists(a)
        assert not cert.exists and cert.reason == "GrLNotSymplectic", n
    _report("criterion 5", "PASS",
            "m1(6..12) rejected at gr_C; (23) obstructed on page 2 with the "
            "-2[e2^e3^e4] witness at 5 random triples; t=0 towers rejected at gr_L")


# ---------------------------------------------------------------------------
# criterion 6: spectral identification
# ---------------------------------------------------------------------------

FIXTURES = [
    ("(23) @ (0,0,0)", lambda: catalog.build("deformation_23", alphas=(0, 0, 0))),
    ("(23) @ (1,2,3)", lambda: catalog.build("deformation_23", alphas=(1, 2, 3))),
    ("(21) dim 8", lambda: catalog.build("deformation_21", n=8, alphas=(1,))),
    ("t=1 dim 9", lambda: catalog.build("abelian_commutant", n=9, t=1, alphas=(2,))),
    ("graded m2(7)", lambda: catalog.build("m2", n=7)),
]


def test_criterion_6_spectral_identification():
    for label, make in FIXTURES:
        a = make()
        graded = gr_l(a)
        pages = build_pages(a)
        assert page_dimensions(a) == [pg.block_dims() for pg in pages], label
        dims = pages[0].block_dims()
        for p in range(a.dim + 1):
            weights = sorted({sum(idx) for idx in lambda_basis(a.dim, p)}) or [0]
            for w in weights:
                expected = (cohomology(graded, p, weight=w).dim if p
                            else (1 if w == 0 else 0))
                assert dims.get((w, p), 0) == expected, (label, w, p)
        betti = betti_numbers(a)
        last = pages[-1].total_dims()
        for p in range(a.dim + 1):
            assert last.get(p, 0) == betti[p], (label, p)
        for page in pages:
            for (w, p), mat in page.differentials.items():
                nxt = page.differentials.get((w - page.r, p + 1))
                if nxt is None or not mat.entries or not nxt.entries:
                    continue
                for (r2, c2), v2 in nxt.entries.items():
                    acc = {}
                    for (r1, c1), v1 in mat.entries.items():
                        if r1 == c2:
                            acc[(r2, c1)] = acc.get((r2, c1), 0) + v2 * v1
                    assert all(not v for v in acc.values()), (label, page.r)
    _report("criterion 6", "PASS",
            "E_1 = H(gr_L) blockwise, totals converge to the Betti numbers, "
            "d_r^2 = 0 on all computed pages, for all 5 fixtures")


# ---------------------------------------------------------------------------
# criterion 7: the contact list
# ---------------------------------------------------------------------------

def test_criterion_7_contact_list():
    # m01(2k+1) = contactization of m0(2k), k >= 2
    for k in (2, 3, 5):
        ext, beta = contactize(catalog.build("m0", n=2 * k),
                               catalog.form_m0_symplectic(k, beta=1))
        assert contact_check(ext, beta).valid
        assert graded_isomorphic(ext, catalog.build("m01", n=2 * k + 1)), k
    # V_{2k+1}, k >= 6
    for k in (6, 7):
        ext, beta = contactize(catalog.build("V", n=2 * k),
                               catalog.form_v_symplectic(k))
        assert contact_check(ext, beta).valid
        assert ext.brackets == catalog.build("V", n=2 * k + 1).brackets, k
    # g7 members arise from m2(6) with a symplectic cocycle gamma*u + delta*w
    from filiform.extensions import family_parameter_match
    for gamma, delta in ((1, 1), (1, -2), (2, 1)):
        base = catalog.build("m2", n=6)
        c = F(2, [[[1, 6], "1"], [[2, 5], "1"]]).scale(gamma).add(
            F(2, [[[2, 5], "1"], [[3, 4], "-1"]]).scale(delta))
        ext, beta = contactize(base, c)
        assert contact_check(ext, beta).valid
        assert family_parameter_match(ext, "g7") is not None, (gamma, delta)
    # g9 and g11 are the contactizations of g8 and g10
    for alpha in (Fraction(3), Fraction(0), Fraction(8)):
        ext, beta = contactize(catalog.build("g8", alpha=alpha),
                               catalog.form_g8_symplectic(alpha))
        assert contact_check(ext, beta).valid
        assert ext.brackets == catalog.build("g9", alpha=alpha).brackets, alpha
    for alpha in (Fraction(0), Fraction(8)):
        ext, beta = contactize(catalog.build("g10", alpha=alpha),
                               catalog.form_g10_symplectic(alpha))
        assert contact_check(ext, beta).valid
        assert ext.brackets == catalog.build("g11", alpha=alpha).brackets, alpha
    # Heisenberg: beta = e^3
    assert contact_check(catalog.build("m0", n=3), Form.monomial((3,))).valid
    _report("criterion 7", "PASS",
            "contactization certificates for m01, V_{13,15}, g7, g9, g11 samples; "
            "Heisenberg contact form validated")


# ---------------------------------------------------------------------------
# criterion 8: structural cross-identities
# ---------------------------------------------------------------------------

def test_criterion_8_cross_identities():
    for n in range(7, 12):
        assert graded_isomorphic(catalog.build("V", n=n),
                                 catalog.build(f"g{n}", alpha=8)), n
    assert graded_isomorphic(catalog.build("m2", n=5), catalog.build("V", n=5))
    assert graded_isomorphic(catalog.build("m2", n=6), catalog.build("V", n=6))
    for n in range(5, 13):
        for name in ("m2", "V"):
            cert = m0_certificate(gr_c(catalog.build(name, n=n)))
            assert cert is not None, (name, n)
    _report("criterion 8", "PASS",
            "V_n = g_{n,8} for n=7..11; m2(5)=V_5, m2(6)=V_6; "
            "gr_C(m2(n)) = gr_C(V_n) = m0(n) for n=5..12")


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------

def _random_algebra(rng) -> LieAlgebra:
    n = rng.randint(3, 6)
    table = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for k in range(1, n + 1):
            if rng.random() < 0.12:
                v = rng.randint(-2, 2)
                if v:
                    table.setdefault((i, j), {})[k] = Fraction(v)
    return LieAlgebra(n, table)


def _d_squared(a: LieAlgebra) -> dict:
    """{(i, j, k): {m: the coefficient of d(d e^m) on e^i ^ e^j ^ e^k}}."""
    out = {}
    for m in range(1, a.dim + 1):
        dd = differential(a, differential(a, Form.monomial((m,))))
        for idx, c in dd.coeffs.items():
            out.setdefault(idx, {})[m] = c
    return out


def test_criterion_9_jacobi_iff_d_squared():
    rng = random.Random(SEED)
    agree = 0
    for _ in range(200):
        a = _random_algebra(rng)
        # each Jacobi defect is the d(d e^m) coefficients of its triple
        assert {(i, j, k): d for i, j, k, d in jacobi_check(a)} == _d_squared(a)
        agree += 1
    assert agree == 200
    _report("criterion 9a", "PASS", "Jacobi <=> d^2=0 on 200 random tables")


DUALITY_INSTANCES = (
    [("m0", {"n": n}) for n in range(3, 13)]
    + [("m2", {"n": n}) for n in range(5, 13)]
    + [("V", {"n": n}) for n in range(5, 13)]
    + [("m1", {"n": n}) for n in (6, 8, 10, 12)]
    + [("m01", {"n": n}) for n in (5, 7, 9, 11)]
    + [("m02", {"n": n}) for n in (8, 10, 12)]
    + [("m03", {"n": n}) for n in (9, 11)]
    + [("g7", {"alpha": Fraction(1, 2)}), ("g8", {"alpha": Fraction(-2)}),
       ("g9", {"alpha": Fraction(3)}), ("g10", {"alpha": Fraction(0)}),
       ("g11", {"alpha": Fraction(8)})]
    + [("heisenberg", {"n": n}) for n in (3, 5, 7)]
    + [("abelian", {"n": 6})]
)

NONGRADED_INSTANCES = [
    ("deformation_21", {"n": 8, "alphas": (1,)}),
    ("deformation_23", {"alphas": (1, 2, 3)}),
    ("abelian_commutant", {"n": 9, "t": 1, "alphas": (2,)}),
]


def test_criterion_9_poincare_duality():
    for name, params in DUALITY_INSTANCES:
        a = catalog.build(name, **params)
        b = betti_numbers(a)
        assert b == b[::-1], (name, params, b)
        assert sum((-1) ** p * v for p, v in enumerate(b)) == 0, (name, params)
    for name, params in NONGRADED_INSTANCES:
        a = catalog.build(name, **params)
        b = betti_numbers(a)
        assert b == b[::-1], (name, params, b)
    _report("criterion 9b", "PASS",
            f"Poincare duality on {len(DUALITY_INSTANCES)} graded and "
            f"{len(NONGRADED_INSTANCES)} filtered instances of dim <= 12")


def test_criterion_9_weight_preservation():
    for name, params in DUALITY_INSTANCES:
        a = catalog.build(name, **params)
        if a.weights is None:
            continue
        assert grading_violations(a) == [], (name, params)
        for idx in lambda_basis(a.dim, 2):
            w = sum(a.weights[i - 1] for i in idx)
            img = differential(a, Form.monomial(idx))
            assert all(sum(a.weights[i - 1] for i in m) == w for m in img.coeffs)
    _report("criterion 9c", "PASS", "d preserves the weight on all graded instances")
