"""Output checks that do not trust the program under test.

Nothing here imports ``filiform``.  Algebras are read back from the
interchange documents the benchmark generated, forms from the program's
canonical JSON, and every property is recomputed with a small exterior
algebra and exact determinants written for this file:

* a 2-form w on 2k dimensions has w^k = k! Pf(W) vol, so w^k != 0 iff
  det W != 0, and the printed top coefficient c satisfies c^2 = (k!)^2 det W;
* a 1-form b on 2k+1 dimensions has b ^ (db)^k = k! Pf(B) vol for the
  skew matrix db bordered by b, so the same test applies to B;
* closedness is tested with d taken as the derivation dual to the bracket,
  which agrees with any other sign convention up to an overall factor.

Each check returns a list of problems; an empty list means the output is
accepted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial


def parse_algebra(text: str) -> tuple[int, dict]:
    """(dim, {(i, j): {k: c}}) from an interchange document, i < j."""
    doc = json.loads(text)
    table = {}
    for i, j, terms in doc["brackets"]:
        vec = {int(k): Fraction(c) for k, c in terms if Fraction(c)}
        if vec:
            table[(i, j) if i < j else (j, i)] = (
                vec if i < j else {k: -c for k, c in vec.items()})
    return int(doc["dim"]), table


def parse_form(pairs) -> dict:
    return {tuple(idx): Fraction(c) for idx, c in pairs}


def _sort_sign(seq) -> tuple[tuple, int] | None:
    items = list(seq)
    if len(set(items)) != len(items):
        return None
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def differential(dim: int, table: dict, form: dict) -> dict:
    """d of a form, with d e^k = sum_{i<j} c_ij^k e^i ^ e^j as a derivation."""
    de = {k: {} for k in range(1, dim + 1)}
    for (i, j), vec in table.items():
        for k, c in vec.items():
            de[k][(i, j)] = c
    out: dict = {}
    for idx, c in form.items():
        for t, k in enumerate(idx):
            rest = idx[:t] + idx[t + 1:]
            for pair, b in de[k].items():
                merged = _sort_sign(pair + rest)
                if merged is None:
                    continue
                key, sign = merged
                val = out.get(key, 0) + (-1) ** t * sign * c * b
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return out


def determinant(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    return det


def skew_matrix(n: int, two_form: dict) -> list[list[Fraction]]:
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in two_form.items():
        m[i - 1][j - 1] += c
        m[j - 1][i - 1] -= c
    return m


def _top_coefficient(top: dict, n: int) -> tuple[Fraction | None, list[str]]:
    full = tuple(range(1, n + 1))
    extra = [idx for idx in top if idx != full]
    if extra:
        return None, [f"top power has non-volume monomials {extra[:3]}"]
    return top.get(full, Fraction(0)), []


def check_symplectic_certificate(doc_text: str, result: dict) -> list[str]:
    n, table = parse_algebra(doc_text)
    omega = parse_form(result["form"])
    problems = []
    if any(len(idx) != 2 for idx in omega):
        return ["form is not a 2-form"]
    if differential(n, table, omega):
        problems.append("certificate form is not closed")
    det = determinant(skew_matrix(n, omega))
    if not det:
        problems.append("certificate form is degenerate")
    c, bad = _top_coefficient(parse_form(result["top_power"]), n)
    problems += bad
    if c is not None and c * c != factorial(n // 2) ** 2 * det:
        problems.append("printed top power disagrees with the Pfaffian")
    return problems


def check_contact_certificate(doc_text: str, result: dict) -> list[str]:
    n, table = parse_algebra(doc_text)
    beta = parse_form(result["form"])
    if any(len(idx) != 1 for idx in beta):
        return ["form is not a 1-form"]
    dbeta = differential(n, table, beta)
    bordered = skew_matrix(n + 1, dbeta)
    for (i,), c in beta.items():
        bordered[i - 1][n] += c
        bordered[n][i - 1] -= c
    det = determinant(bordered)
    problems = [] if det else ["contact form has beta ^ (d beta)^k = 0"]
    c, bad = _top_coefficient(parse_form(result["volume"]), n)
    problems += bad
    if c is not None and c * c != factorial((n - 1) // 2) ** 2 * det:
        problems.append("printed volume disagrees with the bordered Pfaffian")
    return problems


def check_closed(doc_text: str, forms) -> list[str]:
    n, table = parse_algebra(doc_text)
    bad = [i for i, pairs in enumerate(forms) if differential(n, table, parse_form(pairs))]
    return [f"representatives {bad[:5]} are not closed"] if bad else []


def poincare_problems(label: str, dims: list[int]) -> list[str]:
    problems = []
    if dims != dims[::-1]:
        problems.append(f"{label} {dims} is not Poincare symmetric")
    if sum((-1) ** p * d for p, d in enumerate(dims)):
        problems.append(f"{label} {dims} has nonzero Euler characteristic")
    return problems


# ---------------------------------------------------------------------------
# one check per verdict kind
# ---------------------------------------------------------------------------

def _pages(verdict, doc_text, out) -> list[str]:
    res = out["result"]
    n, _ = parse_algebra(doc_text)
    problems = []
    for page in res["pages"]:
        totals = [page["totals"].get(str(p), 0) for p in range(n + 1)]
        summed = [0] * (n + 1)
        for p, q, d in page["blocks"]:
            summed[p + q] += d
        if summed != totals:
            problems.append(f"page {page['r']} blocks do not add up to its totals")
        problems += poincare_problems(f"page {page['r']} totals", totals)
    surv = res.get("symplectic_survival")
    if surv and surv.get("survives"):
        omega = parse_form(surv["lift"])
        if differential(*parse_algebra(doc_text), omega):
            problems.append("survival lift is not closed")
        if not determinant(skew_matrix(n, omega)):
            problems.append("survival lift is degenerate")
    return problems


def _classify(verdict, doc_text, out) -> list[str]:
    got = [[row["name"], row["family"], row["excluded_parameters"]] for row in out["result"]]
    want = verdict.expect["classes"]
    if [[a, b, sorted(c)] for a, b, c in got] != [[a, b, sorted(c)] for a, b, c in want]:
        return [f"classes {got} differ from the paper's {want}"]
    return []


def _cohomology(verdict, doc_text, out) -> list[str]:
    res = out["result"]
    reps = res["representatives"]
    problems = []
    if len(reps) != res["dim"]:
        problems.append(f"{len(reps)} representatives for dimension {res['dim']}")
    if "dim" in verdict.expect and res["dim"] != verdict.expect["dim"]:
        problems.append(f"dim {res['dim']}, want {verdict.expect['dim']}")
    return problems + check_closed(doc_text, reps)


def _symplectic(verdict, doc_text, out) -> list[str]:
    res = out["result"]
    want = verdict.expect
    if res.get("exists") != want["exists"]:
        return [f"exists = {res.get('exists')}, want {want['exists']}"]
    if "reason" in want and res.get("reason") != want["reason"]:
        return [f"reason {res.get('reason')}, want {want['reason']}"]
    return check_symplectic_certificate(doc_text, res) if res["exists"] else []


def _contact(verdict, doc_text, out) -> list[str]:
    res = out["result"]
    if res.get("exists") != verdict.expect["exists"]:
        return [f"exists = {res.get('exists')}, want {verdict.expect['exists']}"]
    return check_contact_certificate(doc_text, res) if res["exists"] else []


_CHECKS = {"pages": _pages, "classify": _classify,
           "cohomology": _cohomology, "symplectic": _symplectic, "contact": _contact}


def check_output(verdict, doc_text: str | None, stdout: str) -> list[str]:
    """Problems with one verdict's canonical stdout."""
    try:
        out = json.loads(stdout)
        return _CHECKS[verdict.kind](verdict, doc_text, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_group(outputs: list[tuple]) -> list[str]:
    """Cross-verdict check: Betti numbers of one algebra, degree by degree.

    ``outputs`` holds (verdict, stdout) for every degree of the algebra.
    """
    dims = {}
    for verdict, stdout in outputs:
        res = json.loads(stdout)["result"]
        dims[res["degree"]] = res["dim"]
    if sorted(dims) != list(range(len(dims))):
        return [f"degrees {sorted(dims)} do not cover 0..n"]
    return poincare_problems("Betti numbers", [dims[p] for p in range(len(dims))])
