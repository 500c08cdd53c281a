"""Symplectic and contact structures on exact Lie algebras.

A 2-form omega on a 2k-dimensional algebra is symplectic when it is closed
and omega^k != 0; a 1-form beta on a (2k+1)-dimensional algebra is contact
when beta ^ (d beta)^k != 0.  Both conditions are one Pfaffian: omega^k is
k! Pf(omega) e^1^...^e^2k, and beta ^ (d beta)^k is k! Pf of d beta bordered
by beta as row and column 2k+2, since the top power of the 2-form
d beta + beta ^ e^{2k+2} is (k+1) beta ^ (d beta)^k ^ e^{2k+2}.

Existence questions run through two routes:

* the structured route for filiform input reproduces the obstruction chain:
  gr_C must be of m0 type, gr_L must itself carry a symplectic class in its
  top weight 2k+1, and that class must survive the deformation (decided by
  lifting against the adapted filtration; see :mod:`filiform.spectral`);

* the generic route asks whether some member of a linear pencil of 2-forms
  is nondegenerate, in one search (``nondegenerate_point``): a few witness
  points are each decided by a Pfaffian, and then the top coefficient of
  the pencil's top power is expanded once over multivariate rationals as
  the nonexistence certificate, holding at most FILIFORM_MAX_GRID terms.
  Symplectic forms are searched in the pencil of closed 2-forms, contact
  forms in the bordered pencil d e^i + e^i ^ e^{n+1}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cochain import Form, _merge_sign, d_monomial, differential, lambda_basis
from .extensions import ExtensionCocycle, central_extension
from .lie import AdaptedBasis, LieAlgebra, NotFiliform, adapted_basis, gr_l
from .linalg import kernel_of_map, pfaffian, vec_combination
from .scalars import MPoly, as_scalar


class OddDimension(ValueError):
    pass


class EvenDimension(ValueError):
    pass


class NotSymplectic(ValueError):
    pass


def _max_grid() -> int:
    """The FILIFORM_MAX_GRID bound (default 200000), an integer >= 1."""
    raw = os.environ.get("FILIFORM_MAX_GRID", "200000")
    try:
        bound = int(raw)
    except ValueError:
        bound = 0  # not an integer: rejected with the same reason below
    if bound < 1:
        raise ValueError(f"FILIFORM_MAX_GRID must be an integer >= 1, got {raw!r}")
    return bound


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------

def wedge_power(a: LieAlgebra, phi: Form, k: int) -> Form:
    """Exact k-fold wedge power of phi."""
    out = Form(0, {(): 1})
    for _ in range(k):
        out = out.wedge(phi)
    return out


def is_symplectic_form(a: LieAlgebra, phi: Form) -> bool:
    """Closed and non-degenerate: d(phi) = 0 and phi^(dim/2) != 0."""
    if a.dim % 2:
        raise OddDimension("symplectic forms need even dimension")
    if phi.degree != 2:
        raise ValueError("symplectic candidates have degree 2")
    if differential(a, phi):
        return False
    return bool(pfaffian(a.dim, phi.coeffs))


def contact_check(a: LieAlgebra, beta: Form) -> "ContactCertificate":
    """Evaluate beta ^ (d beta)^k exactly on a (2k+1)-dimensional algebra."""
    if a.dim % 2 == 0:
        raise EvenDimension("contact forms need odd dimension")
    if beta.degree != 1:
        raise ValueError("contact candidates have degree 1")
    n = a.dim
    bordered = dict(differential(a, beta).coeffs)
    bordered.update({(i, n + 1): c for (i,), c in beta.coeffs.items()})
    vol = factorial(n // 2) * pfaffian(n + 1, bordered)
    return ContactCertificate(beta, _volume_form(n, vol), bool(vol))


def _volume_form(n: int, c) -> Form:
    return Form(n, {tuple(range(1, n + 1)): c})


@dataclass(frozen=True)
class ContactCertificate:
    form: Form
    volume: Form  # beta ^ (d beta)^k
    valid: bool


@dataclass(frozen=True)
class SymplecticCertificate:
    exists: bool
    form: Form | None = None
    top_power: Form | None = None
    reason: str | None = None  # set when exists is False
    witness: object = None  # obstruction data (reason-dependent)

    def __post_init__(self):
        if self.exists and (self.form is None or self.top_power is None
                            or self.top_power.is_zero()):
            raise AssertionError("positive certificate without a valid form")


# ---------------------------------------------------------------------------
# the pencil search
# ---------------------------------------------------------------------------

def _witness_points(m: int):
    yield tuple(Fraction(1) for _ in range(m))
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    yield tuple(Fraction(primes[i % len(primes)] ** (1 + i // len(primes))) for i in range(m))
    yield tuple(Fraction(1 + 3 * i) for i in range(m))
    yield tuple(Fraction((-2) ** (i % 3 + 1)) for i in range(m))


def nondegenerate_point(n: int, vecs: list) -> tuple | None:
    """A point t with Pf(sum t_i vecs_i) != 0, or None if there is none.

    vecs are the coefficients {(i, j): c} of 2-forms on n = 2k coordinates.
    The witness points are tried first, each decided by one Pfaffian; if
    none hits, the top coefficient P(t) of (sum t_i phi_i)^k is expanded
    exactly, so a None answer certifies that P is the zero polynomial and no
    member of the pencil is nondegenerate over any field extension of Q.
    """
    m = len(vecs)
    for point in _witness_points(m):
        if pfaffian(n, vec_combination(point, vecs)):
            return point
    acc: dict[tuple, MPoly] = {}
    for i, vec in enumerate(vecs):
        ti = MPoly.var(m, i)
        for idx, c in vec.items():
            acc[idx] = acc.get(idx, MPoly.const(m, 0)) + ti * MPoly.const(m, c)
    top = _poly_wedge_power(acc, n // 2).get(tuple(range(1, n + 1)))
    point = top.any_nonvanishing_point() if top else None
    if point is not None and not pfaffian(n, vec_combination(point, vecs)):
        raise AssertionError("witness failed to verify")
    return point


def _symplectic_in_span(a: LieAlgebra, forms: list[Form]) -> Form | None:
    """A symplectic combination of the given closed 2-forms, or None."""
    vecs = [f.coeffs for f in forms]
    point = nondegenerate_point(a.dim, vecs) if vecs else None
    return None if point is None else Form(2, vec_combination(point, vecs))


def _poly_wedge_power(coeffs: dict, k: int) -> dict:
    """k-fold wedge of a form whose coefficients are MPoly values.

    Holds at most FILIFORM_MAX_GRID polynomial terms in all.
    """
    if not coeffs:
        return {}
    bound = _max_grid()
    nvars = next(iter(coeffs.values())).nvars
    power = {(): MPoly.const(nvars, 1)}
    for _ in range(k):
        nxt: dict[tuple, MPoly] = {}
        for i1, c1 in power.items():
            for i2, c2 in coeffs.items():
                merged = _merge_sign(i1 + i2)
                if merged is None:
                    continue
                idx, sign = merged
                term = c1 * c2
                if sign < 0:
                    term = -term
                cur = nxt.get(idx)
                nxt[idx] = term if cur is None else cur + term
        power = {idx: c for idx, c in nxt.items() if not c.is_zero()}
        if sum(len(c.terms) for c in power.values()) > bound:
            raise RuntimeError(
                "bounded search exhausted; raise FILIFORM_MAX_GRID to decide")
    return power


def closed_two_form_basis(a: LieAlgebra) -> list[Form]:
    """Canonical basis of the closed 2-forms."""
    src = lambda_basis(a.dim, 2)
    return [Form(2, v) for v in kernel_of_map(src, [d_monomial(a, idx) for idx in src])]


# ---------------------------------------------------------------------------
# existence
# ---------------------------------------------------------------------------

def symplectic_exists(a: LieAlgebra) -> SymplecticCertificate:
    """Decide whether a carries any symplectic form, with certificate.

    Filiform input follows the structured route (gr_C type, gr_L symplectic
    class, survival under the deformation); everything else runs the generic
    polynomial search over the closed 2-forms.
    """
    if a.dim % 2:
        raise OddDimension("symplectic structures need even dimension")
    if a.dim >= 4:
        # the adapted-basis search computes the central series once and
        # raises NotFiliform on it, which routes to the generic search
        try:
            ab = adapted_basis(a)
        except NotFiliform:
            pass
        else:
            return _symplectic_exists_filiform(a, ab)
    return _symplectic_exists_generic(a)


def _certify(a: LieAlgebra, omega: Form) -> SymplecticCertificate:
    pf = pfaffian(a.dim, omega.coeffs)
    if differential(a, omega) or not pf:
        raise AssertionError("certificate re-verification failed")
    return SymplecticCertificate(
        True, omega, _volume_form(a.dim, factorial(a.dim // 2) * pf))


def _symplectic_exists_generic(a: LieAlgebra) -> SymplecticCertificate:
    omega = _symplectic_in_span(a, closed_two_form_basis(a))
    if omega is None:
        return SymplecticCertificate(
            False, reason="GenericSearchExhausted",
            witness="top-power polynomial vanishes identically on the closed 2-forms")
    return _certify(a, omega)


def _top_weight_symplectic(g: LieAlgebra) -> Form | None:
    """A symplectic class of weight 2k+1 on an N-graded filiform algebra.

    By the homogeneous-decomposition lemma this decides symplectic existence
    on the graded algebra itself.
    """
    from .cochain import cohomology
    reps = list(cohomology(g, 2, weight=g.dim + 1).representatives)
    return _symplectic_in_span(g, reps) if reps else None


def _symplectic_exists_filiform(a: LieAlgebra, ab: AdaptedBasis) -> SymplecticCertificate:
    if ab.alpha:
        # gr_C is of m1 type: no symplectic cocycle exists at all
        return SymplecticCertificate(
            False, reason="GrCNotM0",
            witness="gr_C is m1(2k); every closed 2-form lies in the span of "
                    "e^1..e^{2k-1} and is degenerate")
    graded = gr_l(a, ab)
    if _top_weight_symplectic(graded) is None:
        return SymplecticCertificate(
            False, reason="GrLNotSymplectic",
            witness="gr_L carries no symplectic class in weight 2k+1")
    from .spectral import symplectic_survival
    verdict = symplectic_survival(a, ab)
    if not verdict.survives:
        return SymplecticCertificate(
            False, reason="SpectralObstruction", witness=verdict)
    # the lift lives in adapted coordinates; transport back
    omega = _pullback_to_original(a, ab, verdict.lift)
    return _certify(a, omega)


def _pullback_to_original(a: LieAlgebra, ab: AdaptedBasis, omega: Form) -> Form:
    """Rewrite a form given in adapted coordinates in the original basis.

    The adapted vectors are the columns of the base change; the dual change
    on 1-forms is the transpose inverse, applied monomial by monomial.
    """
    n = a.dim
    if list(ab.vectors) == [{i: as_scalar(1)} for i in range(1, n + 1)]:
        return omega
    # dual basis: f^i(x) = coefficient of the adapted vector expansion
    from .linalg import SpanSolver
    solver = SpanSolver(list(ab.vectors))
    duals = []
    for r in range(1, n + 1):
        coords = solver.solve({r: as_scalar(1)})
        duals.append(coords)
    # f^i = sum_r duals[r][i] e^r  (computed implicitly below)
    out = Form.zero(2)
    for (i, j), c in omega.coeffs.items():
        fi = Form(1, {(r,): duals[r - 1][i - 1] for r in range(1, n + 1)
                      if duals[r - 1][i - 1]})
        fj = Form(1, {(r,): duals[r - 1][j - 1] for r in range(1, n + 1)
                      if duals[r - 1][j - 1]})
        out = out.add(fi.wedge(fj).scale(c))
    return out


# ---------------------------------------------------------------------------
# homogeneous decomposition, contactization, contact search
# ---------------------------------------------------------------------------

def homogeneous_decomposition(a: LieAlgebra, phi: Form) -> dict[int, Form]:
    """Split a form into weight-homogeneous pieces of a graded algebra."""
    if a.weights is None:
        raise ValueError("homogeneous decomposition needs a graded algebra")
    return phi.weight_components(a.weights)


def contactize(a: LieAlgebra, omega: Form) -> tuple[LieAlgebra, Form]:
    """Central extension by a symplectic cocycle, with its contact form.

    Returns (extended algebra, beta = dual of the new central direction);
    beta ^ (d beta)^k is nonzero by construction and re-checked.
    """
    if not is_symplectic_form(a, omega):
        raise NotSymplectic("contactization needs a symplectic cocycle")
    ext = central_extension(ExtensionCocycle(a, omega))
    beta = Form.monomial((a.dim + 1,))
    cert = contact_check(ext, beta)
    if not cert.valid:
        raise AssertionError("contactization failed its own contact check")
    return ext, beta


def contact_exists(a: LieAlgebra) -> ContactCertificate | None:
    """Search all 1-forms for a contact form; exact negative certificate.

    beta = sum t_i e^i is contact iff the bordered 2-form
    sum t_i (d e^i + e^i ^ e^{n+1}) is nondegenerate, so this is the pencil
    search one dimension up; None certifies that no contact form exists
    over any field extension.
    """
    if a.dim % 2 == 0:
        raise EvenDimension("contact structures need odd dimension")
    n = a.dim
    pencil = [{**d_monomial(a, (i,)), (i, n + 1): Fraction(1)}
              for i in range(1, n + 1)]
    point = nondegenerate_point(n + 1, pencil)
    if point is None:
        return None
    cert = contact_check(a, Form(1, {(i + 1,): point[i] for i in range(n)}))
    if not cert.valid:
        raise AssertionError("contact witness failed to verify")
    return cert


# ---------------------------------------------------------------------------
# catalog sweep
# ---------------------------------------------------------------------------

def symplectic_catalog_check() -> dict:
    """Verify the classical symplectic families at sampled parameters.

    Returns a report mapping each instance label to 'symplectic',
    'degenerate' or 'no such form', including the excluded parameters; the
    two places where circulating formulas disagree with the recomputed
    cohomology are flagged explicitly.
    """
    from . import catalog
    report: dict[str, str] = {}

    for k in range(2, 9):
        a = catalog.build("m0", n=2 * k)
        omega = catalog.form_m0_symplectic(k, beta=1)
        report[f"m0({2 * k}), beta=1"] = (
            "symplectic" if is_symplectic_form(a, omega) else "FAIL")
    for k in (3, 6, 7, 8):
        a = catalog.build("V", n=2 * k)
        omega = catalog.form_v_symplectic(k)
        report[f"V({2 * k})"] = (
            "symplectic" if is_symplectic_form(a, omega) else "FAIL")
    for alpha in (Fraction(3), Fraction(0), Fraction(8)):
        a = catalog.build("g8", alpha=alpha)
        omega = catalog.form_g8_symplectic(alpha)
        report[f"g8, alpha={alpha}"] = (
            "symplectic" if is_symplectic_form(a, omega) else "FAIL")
    for alpha in (Fraction(0), Fraction(8)):
        a = catalog.build("g10", alpha=alpha)
        omega = catalog.form_g10_symplectic(alpha)
        report[f"g10, alpha={alpha}"] = (
            "symplectic" if is_symplectic_form(a, omega) else "FAIL")

    for name in ("g8", "g10"):
        for alpha in sorted(catalog.symplectic_exclusions(name)):
            try:
                a = catalog.build(name, alpha=alpha)
            except catalog.GuardViolated:
                report[f"{name}, alpha={alpha} (excluded)"] = "no such algebra (guard)"
                continue
            cert = symplectic_exists(a)
            report[f"{name}, alpha={alpha} (excluded)"] = (
                "FAIL" if cert.exists else f"no symplectic structure ({cert.reason})")

    report["note: omega_9 coefficients"] = (
        "the weight-9 cocycle has coefficients (2a^2+3a-2, 2a+2, 3)/(2a+5), "
        "recomputed from cohomology; the variant with numerators "
        "(2a^2+a-1, 2a-1) that sometimes circulates is the weight-10 "
        "relation set and misses the degeneracy at alpha = -2")
    report["note: omega_11 exceptional cubics"] = (
        "the exceptional irrational parameters are the real roots of "
        "2a^3+2a^2+3 and 4a^3+8a^2-8a-21 (the coefficient numerators); the "
        "occasionally quoted cubic 2a^3+2a+3 matches neither the "
        "numerators nor the degeneracy locus")
    return report
