"""Seeded verdict lists for the benchmark workloads.

A verdict is one ``filiform`` command line run on one generated algebra
document.  Each workload draws its seed-dependent parameters from a fixed
pool, so that every verdict the draw can produce has a stdout digest
recorded in ``digests.json`` (see ``record_digests.py``); the draw is never
filtered by the outcome.  Expected values for the output checks in
``checks.py`` travel with each verdict and come from the paper, not from the
program under test.

This module does not import ``filiform``; building the documents does, and
that cost is part of the benchmark's set-up time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = {
    "pages": "spectral --report on five distinct filtered deformations, deformation_21 n=8,9 "
             "and abelian_commutant (n,t) = (8,0), (8,2), (9,3), alphas drawn: every page is "
             "built, so rref dominates",
    "algebra": "classify-graded 11/13/15, H^2/H^3 of V_12..V_18, H^p of deformation_23 "
               "and 30 symplectic/contact certificates: Poly divmod/gcd, kernels, wedge "
               "powers, cli overhead; no spectral pages",
}

# Twelve triples of nonzero small-height rationals (numerators -3..3,
# denominators 1..3) for the alphas of deformation_23, and eight values for
# the single alpha of each spectral fixture.
D23_POOL = (
    ("1", "2", "3"), ("-1/2", "3", "2/3"), ("-3", "1/2", "-1"),
    ("2/3", "-2", "1/3"), ("3/2", "1", "-2/3"), ("-1", "-1/3", "2"),
    ("1/3", "3/2", "-3"), ("-2/3", "-1", "1/2"), ("2", "-3/2", "-1/3"),
    ("-1/3", "2/3", "3/2"), ("3", "-1/2", "1"), ("1/2", "-2/3", "-3/2"),
)
ALPHA_POOL = ("1", "2", "-1", "1/2", "-2", "3", "3/2", "-1/2")

# Rational exceptional parameters of the symplectic families (paper), and
# the values where the catalog guard says the algebra does not exist.
EXCLUSIONS = {
    "g8": ("-5/2", "-2", "-1", "1/2"),
    "g10": ("-5/2", "-1/4", "-1", "-3"),
}
UNDEFINED = {"g8": (), "g10": ("-5/2",)}


def _small_rationals() -> list[str]:
    out = []
    for den in (1, 2, 3):
        for num in range(-4, 5):
            q = Fraction(num, den)
            s = str(q)
            if q.denominator == den and s not in out:
                out.append(s)
    return out


G_POOL = {name: tuple(q for q in _small_rationals() if q not in EXCLUSIONS[name])
          for name in EXCLUSIONS}

# The N-graded filiform classes per dimension, as the paper lists them:
# (name, is_family, excluded parameters of the family).
CLASSES = {
    11: [("m0", False, ()), ("m2", False, ()), ("m01", False, ()),
         ("m03", False, ()), ("g11", True, ("-3", "-5/2", "-1"))],
    13: [("m0", False, ()), ("m2", False, ()), ("m01", False, ()),
         ("m03", False, ()), ("V", False, ())],
    15: [("m0", False, ()), ("m2", False, ()), ("m01", False, ()),
         ("m03", False, ()), ("V", False, ())],
}


@dataclass(frozen=True)
class Verdict:
    """One command line on one generated document.

    ``doc`` is ``None`` (no document), ``("catalog", name, params)`` or
    ``("raw", document)``; ``args`` holds ``"{doc}"`` where the document
    path goes.  ``group`` names verdicts whose outputs are checked together.
    """

    id: str
    args: tuple
    doc: tuple | None
    kind: str
    expect: dict = field(default_factory=dict)
    group: str | None = None

    def argv(self, path: str | None) -> list[str]:
        return [path if a == "{doc}" else a for a in self.args]


def _cat(name: str, **params) -> tuple:
    return ("catalog", name, tuple(sorted(params.items())))


def _fmt(params) -> str:
    bits = []
    for k, v in params:
        bits.append(f"{k}=" + (",".join(v) if isinstance(v, tuple) else str(v)))
    return ",".join(bits)


def _doc_id(doc) -> str:
    if doc[0] == "catalog":
        return f"{doc[1]}({_fmt(doc[2])})"
    return doc[1]["label"]


def _v(command: str, doc, kind: str, extra=(), expect=None, group=None) -> Verdict:
    args = (command, "{doc}") + tuple(extra)
    vid = " ".join((command, _doc_id(doc)) + tuple(extra))
    return Verdict(vid, args, doc, kind, dict(expect or {}), group)


# the six-dimensional direct sum h5 + R: [e1,e2] = e5, [e3,e4] = e5
H5_R = {"label": "h5+R", "dim": 6,
        "brackets": [[1, 2, [[5, "1"]]], [3, 4, [[5, "1"]]]]}


def pages_verdict(name: str, **params) -> Verdict:
    return _v("spectral", _cat(name, **params), "pages", extra=("--report",))


def classify_verdict(dim: int) -> Verdict:
    return Verdict(f"classify-graded --dim {dim}", ("classify-graded", "--dim", str(dim)),
                   None, "classify",
                   {"classes": [list(c[:2]) + [list(c[2])] for c in CLASSES[dim]]})


def cohomology_v_verdict(n: int, degree: int) -> Verdict:
    expect = {"dim": 3} if degree == 2 else {}
    return _v("cohomology", _cat("V", n=n), "cohomology",
              extra=("--degree", str(degree)), expect=expect)


def cohomology_d23_verdict(alphas, degree: int) -> Verdict:
    doc = _cat("deformation_23", alphas=tuple(alphas))
    return _v("cohomology", doc, "cohomology", extra=("--degree", str(degree)),
              group="betti " + _doc_id(doc))


def symplectic_verdict(name: str, exists: bool, reason=None, **params) -> Verdict:
    expect = {"exists": exists}
    if reason:
        expect["reason"] = reason
    return _v("symplectic", _cat(name, **params), "symplectic", expect=expect)


def contact_verdict(n: int) -> Verdict:
    return _v("contact", _cat("V", n=n), "contact", expect={"exists": True})


def h5r_verdict() -> Verdict:
    return _v("symplectic", ("raw", H5_R), "symplectic",
              expect={"exists": False, "reason": "GenericSearchExhausted"})


# ---------------------------------------------------------------------------

def _pages(rng, alpha=None) -> list[Verdict]:
    # deformation_21(n) is abelian_commutant(n, n - 7): five distinct algebras
    draw = [alpha] * 5 if alpha else [rng.choice(ALPHA_POOL) for _ in range(5)]
    return [pages_verdict("deformation_21", n=8, alphas=(draw[0],)),
            pages_verdict("deformation_21", n=9, alphas=(draw[1],)),
            pages_verdict("abelian_commutant", n=8, t=0, alphas=(draw[2],)),
            pages_verdict("abelian_commutant", n=8, t=2, alphas=(draw[3],)),
            pages_verdict("abelian_commutant", n=9, t=3, alphas=(draw[4],))]


def _tables(rng) -> list[Verdict]:
    out = [classify_verdict(d) for d in (11, 13, 15)]
    for n in range(12, 19):
        out += [cohomology_v_verdict(n, 2), cohomology_v_verdict(n, 3)]
    alphas = rng.choice(D23_POOL)
    out += [cohomology_d23_verdict(alphas, p) for p in range(11)]
    return out


def _certificates(rng) -> list[Verdict]:
    out = []
    for n in range(8, 17, 2):
        out.append(symplectic_verdict("m0", True, n=n))
        out.append(symplectic_verdict("V", True, n=n))
    for name in ("g8", "g10"):
        for alpha in rng.sample(G_POOL[name], 2):
            out.append(symplectic_verdict(name, True, alpha=alpha))
        for alpha in EXCLUSIONS[name]:
            if alpha not in UNDEFINED[name]:
                out.append(symplectic_verdict(name, False, alpha=alpha))
    for n in (8, 10, 12):
        out.append(symplectic_verdict("m1", False, "GrCNotM0", n=n))
    out.append(h5r_verdict())
    for n in range(9, 18, 2):
        out.append(contact_verdict(n))
    return out


def _algebra(rng) -> list[Verdict]:
    return _tables(rng) + _certificates(rng)


_DRAW = {"pages": _pages, "algebra": _algebra}


def verdicts(workload: str, seed: int) -> list[Verdict]:
    """The workload's verdict list for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    out = _DRAW[workload](rng)
    rng.shuffle(out)
    return out


def universe(workload: str) -> list[Verdict]:
    """Every verdict any seed can draw for the workload (for digest recording)."""
    if workload == "pages":
        return [v for a in ALPHA_POOL for v in _pages(None, a)]
    fixed = [v for v in _algebra(random.Random(0))
             if v.group is None and not (v.doc and v.doc[0] == "catalog"
                                         and v.doc[1] in G_POOL and v.expect["exists"])]
    return (fixed + [cohomology_d23_verdict(t, p) for t in D23_POOL for p in range(11)]
            + [symplectic_verdict(name, True, alpha=a)
               for name, pool in G_POOL.items() for a in pool])


def build_document(verdict: Verdict) -> str | None:
    """The interchange JSON text for the verdict's algebra (imports filiform)."""
    if verdict.doc is None:
        return None
    if verdict.doc[0] == "raw":
        doc = {k: v for k, v in verdict.doc[1].items() if k != "label"}
    else:
        from filiform import catalog
        params = {}
        for k, v in verdict.doc[2]:
            params[k] = [Fraction(x) for x in v] if isinstance(v, tuple) else (
                Fraction(v) if isinstance(v, str) else v)
        doc = catalog.build(verdict.doc[1], **params).to_dict()
    return json.dumps(doc, sort_keys=True) + "\n"

