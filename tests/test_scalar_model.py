"""The scalar model: every scalar is an int, a Fraction or a RatFunc.

An integral rational is an int and any other rational a Fraction; no float
and no bool is ever a scalar.  ``scalars.div`` is the one quotient, since
``/`` on two ints gives a float.  The hypothesis test runs the verdicts of
``check``, ``cohomology``, ``symplectic``, ``contact`` and ``spectral`` in
process, on the loader's fuzz documents and on catalog algebras in a random
rational or unimodular basis, and walks every scalar they return; the catalog algebras in their
own basis run the same walk one by one.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from filiform import catalog, cli
from filiform.cochain import CohomologyBlock, Form, cohomology
from filiform.extensions import (NotGradedFiliform, _normal_form, chain_constants,
                                 classify_graded)
from filiform.lie import (AdaptedBasis, LieAlgebra, central_series, change_basis,
                          is_filiform, jacobi_check)
from filiform.linalg import Matrix, Subspace, vec_axpy
from filiform.scalars import RatFunc, as_scalar, div, pivot_complexity
from filiform.spectral import SurvivalVerdict, page_dimensions, symplectic_survival
from filiform.structures import (ContactCertificate, SymplecticCertificate,
                                 contact_exists, symplectic_exists)
from test_cli import mutated_documents
from test_lie import random_base_change


def test_as_scalar_keeps_integral_rationals_as_ints():
    assert type(as_scalar(Fraction(6, 3))) is int and as_scalar(Fraction(6, 3)) == 2
    assert type(as_scalar("-4")) is int
    assert type(as_scalar(True)) is int and as_scalar(True) == 1
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)
    t = RatFunc.t()
    assert as_scalar(t) is t
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_div_is_exact():
    assert type(div(6, 3)) is int and div(6, 3) == 2
    assert div(-7, 2) == Fraction(-7, 2) and div(7, -14) == Fraction(-1, 2)
    assert div(1, Fraction(1, 3)) == 3 and div(Fraction(1, 2), 2) == Fraction(1, 4)
    t = RatFunc.t()
    assert div(t, 2) == t * Fraction(1, 2) and div(2, t) * t == 2
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


def test_an_int_scores_its_pivot_like_the_fraction_it_equals():
    for v in (1, -1, 2, -7, 2**70):
        assert pivot_complexity(v) == pivot_complexity(Fraction(v))


def scalars(x):
    """Every scalar inside a verdict, a Form, a vector or an algebra."""
    if isinstance(x, (int, float, Fraction, RatFunc)):  # a bool is an int
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from scalars(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from scalars(v)
    elif isinstance(x, Form):
        yield from scalars(x.coeffs)
    elif isinstance(x, Subspace):
        yield from scalars(x.rows)
    elif isinstance(x, Matrix):
        yield from scalars(x.entries)
    elif isinstance(x, CohomologyBlock):
        yield from scalars(x.representatives)
    elif isinstance(x, SymplecticCertificate):
        yield from scalars((x.form, x.top_power, x.witness))
    elif isinstance(x, SurvivalVerdict):
        yield from scalars((x.lift, x.obstruction_page, x.obstruction_source,
                            x.obstruction_image))
    elif isinstance(x, ContactCertificate):
        yield from scalars((x.form, x.volume))
    elif isinstance(x, AdaptedBasis):
        yield from scalars((x.vectors, x.algebra, x.alpha))
    elif isinstance(x, LieAlgebra):
        yield from scalars(x.brackets)
    elif x is not None and not isinstance(x, str):
        raise AssertionError(f"no walk for {type(x).__name__}")


def assert_scalar_model(*results):
    for s in scalars(results):
        assert type(s) in (int, Fraction, RatFunc), (type(s), s)
        if isinstance(s, RatFunc):
            assert type(s.c) is Fraction, s


def assert_integral_constants_are_ints(a: LieAlgebra):
    for comps in a.brackets.values():
        for c in comps.values():
            assert not isinstance(c, Fraction) or c.denominator != 1, (a, c)


def verdicts(a: LieAlgebra) -> list:
    """What the commands compute on a, with the failures they report."""
    out = [jacobi_check(a), central_series(a)]
    for p in range(min(a.dim, 3) + 1):
        try:
            out.append(cohomology(a, p))
        except ValueError:  # d^2 != 0
            pass
    try:
        out.append(symplectic_exists(a) if a.dim % 2 == 0 else contact_exists(a))
    except (ValueError, RuntimeError):  # no Lie algebra, or an undecided search
        pass
    if not is_filiform(a):
        return out
    out.append(a.adapted_basis)
    try:
        page_dimensions(a)
        if a.dim % 2 == 0:
            out.append(symplectic_survival(a))
    except ValueError:  # alpha != 0
        pass
    if a.weights is not None and sorted(a.weights) == list(range(1, a.dim + 1)):
        out += [chain_constants(a), _normal_form(a)]
        try:
            out.append(classify_graded(a))
        except NotGradedFiliform:
            pass
    return out


CATALOG = [
    ("m0", {"n": 6}), ("m0", {"n": 7}), ("m1", {"n": 8}), ("m2", {"n": 7}),
    ("V", {"n": 8}), ("V", {"n": 9}), ("m01", {"n": 7}), ("m02", {"n": 8}),
    ("m03", {"n": 9}), ("m03", {"n": 9, "variant": "section5"}),
    ("g7", {"alpha": -2}), ("g8", {"alpha": 3}), ("g8", {"alpha": -1}),
    ("g8", {"alpha": Fraction(1, 2)}), ("g9", {"alpha": 2}),
    ("heisenberg", {"n": 5}), ("deformation_23", {"alphas": (1, 2, 3)}),
    ("deformation_21", {"n": 8, "alphas": (1,)}),
    ("abelian_commutant", {"n": 8, "t": 0, "alphas": (1, Fraction(1, 2))}),
    ("abelian_commutant", {"n": 9, "t": 1, "alphas": (2,)}),
]


def check_scalar_model(a: LieAlgebra) -> None:
    assert_integral_constants_are_ints(a)
    assert_scalar_model(a, *verdicts(a))
    if is_filiform(a):
        assert_integral_constants_are_ints(a.adapted_basis.algebra)


@pytest.mark.parametrize("name, params", CATALOG,
                         ids=[f"{name}{sorted(params.items())}" for name, params in CATALOG])
def test_catalog_verdicts_keep_the_scalar_model(name, params):
    check_scalar_model(catalog.build(name, **params))


def unimodular_base_change(a: LieAlgebra, rng: random.Random, steps: int) -> LieAlgebra:
    """a in the basis of a random product of elementary integer row
    operations e_i += c e_j: the inverse is integral too, so an integer table
    stays an integer table, but no longer in its adapted shape."""
    vecs = [{i: 1} for i in range(1, a.dim + 1)]
    for _ in range(steps):
        i, j = rng.sample(range(a.dim), 2)
        vecs[i] = vec_axpy(vecs[i], rng.choice((-3, -2, -1, 1, 2, 3)), vecs[j])
    rng.shuffle(vecs)
    return change_basis(a, vecs)


@st.composite
def dense_catalog_algebras(draw):
    """A catalog algebra of dimension <= 8 in a random basis, rational or
    unimodular."""
    name, params = draw(st.sampled_from(CATALOG))
    a = catalog.build(name, **params)
    assume(a.dim <= 8)
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return unimodular_base_change(a, rng, draw(st.integers(a.dim, 3 * a.dim)))
    return random_base_change(a, rng, draw(st.sampled_from([0.3, 0.6])))


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(source=st.one_of(dense_catalog_algebras(), mutated_documents()))
def test_no_float_and_no_bool_is_ever_a_scalar(tmp_path, source):
    if isinstance(source, LieAlgebra):
        a = source
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(source))
        try:
            a = cli._load_algebra(str(path))[0]
        except cli.InputError:
            return
    check_scalar_model(a)


@pytest.mark.parametrize("name", ["g8", "g9"])
def test_symbolic_families_keep_the_scalar_model(name):
    # over Q(alpha) the pairing takes the field update, which divides
    a = catalog.family_symbolic(name)
    assert page_dimensions(a)
    assert_scalar_model(a, a.adapted_basis, chain_constants(a), _normal_form(a))
