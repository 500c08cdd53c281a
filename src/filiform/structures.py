"""Symplectic and contact structures on exact Lie algebras.

A 2-form omega on a 2k-dimensional algebra is symplectic when it is closed
and omega^k != 0; a 1-form beta on a (2k+1)-dimensional algebra is contact
when beta ^ (d beta)^k != 0.  Both conditions are one Pfaffian: omega^k is
k! Pf(omega) e^1^...^e^2k, and beta ^ (d beta)^k is k! Pf of d beta bordered
by beta as row and column 2k+2, since the top power of the 2-form
d beta + beta ^ e^{2k+2} is (k+1) beta ^ (d beta)^k ^ e^{2k+2}.

Existence questions run through two routes:

* the structured route for filiform input reproduces the obstruction chain:
  gr_C must be of m0 type (adapted alpha = 0, decided in ``lie``), gr_L must
  itself carry a symplectic class in its top weight 2k+1, and that class
  must survive the deformation.  The last two links are the pages E_1 and
  E_infty of one spectral sequence, and one ``spectral.symplectic_survival``
  verdict answers both: ``graded_symplectic`` for E_1, then ``survives``;
  a surviving lift is pulled back from adapted coordinates.  Each link
  reads the algebra's one cached adapted basis;

* the generic route asks whether some member of a linear pencil of 2-forms
  is nondegenerate (``cochain.nondegenerate_point``).  Symplectic forms are
  searched in the pencil of closed 2-forms, contact forms in the bordered
  pencil d e^i + e^i ^ e^{n+1}.  Contact on filiform input stops at the
  witness points (``cochain.witness_point``) and one bordered Pfaffian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from . import catalog
from .cochain import (Form, d_monomial, differential, lambda_basis,
                      nondegenerate_point, witness_point)
from .extensions import ExtensionCocycle, central_extension
from .lie import LieAlgebra, adapted_basis, is_filiform
from .linalg import SpanSolver, kernel_of_map, pfaffian, vec_combination
from .scalars import as_scalar
from .spectral import symplectic_survival


class OddDimension(ValueError):
    pass


class EvenDimension(ValueError):
    pass


class NotSymplectic(ValueError):
    pass


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
    if a.dim >= 4 and is_filiform(a):
        return _symplectic_exists_filiform(a)
    return _symplectic_exists_generic(a)


def _certify(a: LieAlgebra, omega: Form) -> SymplecticCertificate:
    pf = pfaffian(a.dim, omega.coeffs)
    if differential(a, omega) or not pf:
        raise AssertionError("certificate re-verification failed")
    return SymplecticCertificate(
        True, omega, _volume_form(a.dim, factorial(a.dim // 2) * pf))


def _symplectic_exists_generic(a: LieAlgebra) -> SymplecticCertificate:
    vecs = [f.coeffs for f in closed_two_form_basis(a)]
    point = nondegenerate_point(a.dim, vecs) if vecs else None
    if point is None:
        return SymplecticCertificate(
            False, reason="GenericSearchExhausted",
            witness="top-power polynomial vanishes identically on the closed 2-forms")
    return _certify(a, Form(2, vec_combination(point, vecs)))


def _symplectic_exists_filiform(a: LieAlgebra) -> SymplecticCertificate:
    if adapted_basis(a).alpha:
        # gr_C is of m1 type: no symplectic cocycle exists at all
        return SymplecticCertificate(
            False, reason="GrCNotM0",
            witness="gr_C is m1(2k); every closed 2-form lies in the span of "
                    "e^1..e^{2k-1} and is degenerate")
    verdict = symplectic_survival(a)
    if not verdict.graded_symplectic:
        return SymplecticCertificate(
            False, reason="GrLNotSymplectic",
            witness="gr_L carries no symplectic class in weight 2k+1")
    if verdict.survives:
        # the lift lives in adapted coordinates; transport back
        return _certify(a, _pullback_to_original(a, verdict.lift))
    return SymplecticCertificate(False, reason="SpectralObstruction", witness=verdict)


def _pullback_to_original(a: LieAlgebra, omega: Form) -> Form:
    """Rewrite a form given in adapted coordinates in the original basis.

    With e_r = sum_i x_r[i] f_i in the adapted vectors f_i, the dual forms
    pull back as f^i = sum_r x_r[i] e^r, so the coefficient of e^r ^ e^s in
    sum c_ij f^i ^ f^j is sum c_ij (x_r[i] x_s[j] - x_r[j] x_s[i]).
    """
    n = a.dim
    vectors = list(adapted_basis(a).vectors)
    if vectors == [{i: as_scalar(1)} for i in range(1, n + 1)]:
        return omega
    solver = SpanSolver(vectors)
    x = [solver.solve({r: as_scalar(1)}) for r in range(1, n + 1)]
    dual = [{r: xr[i] for r, xr in enumerate(x, start=1) if xr[i]} for i in range(n)]
    out: dict = {}
    for (i, j), c in omega.coeffs.items():
        for (r, xri), (s, xsj) in product(dual[i - 1].items(), dual[j - 1].items()):
            if r != s:  # e^s ^ e^r = -e^r ^ e^s
                key = (min(r, s), max(r, s))
                out[key] = out.get(key, 0) + (c if r < s else -c) * xri * xsj
    return Form(2, out)


# ---------------------------------------------------------------------------
# contactization, contact search
# ---------------------------------------------------------------------------

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
    over any field extension.  On a filiform algebra that misses the
    witness points one bordered Pfaffian decides: with z spanning the
    centre, beta ^ (d beta)^k = beta(z)^{k+1} c for one constant c (in an
    adapted basis d e^i weighs at most i, so only e^n and the leading part
    of d e^n reach the top weight), so e^r with z_r != 0 decides.
    """
    if a.dim % 2 == 0:
        raise EvenDimension("contact structures need odd dimension")
    n = a.dim
    pencil = [{**d_monomial(a, (i,)), (i, n + 1): 1}
              for i in range(1, n + 1)]
    point = witness_point(n + 1, pencil)
    if point is None and is_filiform(a):
        r = a.central_series[-2].pivots[0]  # the first r with z_r != 0
        cert = contact_check(a, Form.monomial((r,)))
        return cert if cert.valid else None
    if point is None:
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
    printed = (
        [(f"m0({2 * k}), beta=1", catalog.build("m0", n=2 * k),
          catalog.form_m0_symplectic(k, beta=1)) for k in range(2, 9)]
        + [(f"V({2 * k})", catalog.build("V", n=2 * k), catalog.form_v_symplectic(k))
           for k in (3, 6, 7, 8)]
        + [(f"g8, alpha={alpha}", catalog.build("g8", alpha=alpha),
            catalog.form_g8_symplectic(alpha)) for alpha in map(Fraction, (3, 0, 8))]
        + [(f"g10, alpha={alpha}", catalog.build("g10", alpha=alpha),
            catalog.form_g10_symplectic(alpha)) for alpha in map(Fraction, (0, 8))])
    report = {label: "symplectic" if is_symplectic_form(a, omega) else "FAIL"
              for label, a, omega in printed}

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
