"""Command-line front end.

Commands: check, cohomology, classify-graded, symplectic, contact, spectral,
catalog.  Algebras travel in the interchange JSON format
{"dim": n, "brackets": [[i, j, [[k, "num/den"], ...]], ...],
 "weights": [w1..wn]?} with 1-based indices; forms are serialized as
[[[i1..ip], "num/den"], ...].

Exit codes: 0 = verdict computed (a negative verdict is still a verdict),
1 = input error, a usage error, or a stdout the reader closed (quietly, with
no traceback), 2 = internal invariant violation.  All JSON output is
canonical (sorted keys), so identical inputs produce identical bytes.
A dimension above MAX_DIM is an input error (exterior powers grow fast).

One parser (``build_parser``, built once per process) reads every command
line, and ``main`` is the one error boundary: an ``InputError``, or a
``ValueError`` or ``RuntimeError`` from the library, prints ``error: <message>``
and exits 1; an ``AssertionError`` exits 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from . import catalog
from .cochain import cohomology
from .extensions import enumerate_graded_filiform
from .lie import (LieAlgebra, central_series, grading_violations, is_filiform,
                  jacobi_check)
from .scalars import format_rat, rat
from .spectral import degree_totals, page_dimensions, symplectic_survival
from .structures import contact_exists, symplectic_exists


MAX_DIM = 64


class InputError(Exception):
    pass


def _bounded_dim(n: int) -> int:
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the bound MAX_DIM = {MAX_DIM}")
    return n


def _load_algebra(path: str, check: bool = True) -> tuple[LieAlgebra, str]:
    """Parse an algebra document; unless check is False, reject one whose
    brackets break the Jacobi identity (d^2 != 0) or whose weights break the
    grading, since no verdict on it holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        algebra = LieAlgebra.from_dict(doc, check=False)
        _bounded_dim(algebra.dim)
    except KeyError as exc:
        raise InputError(f"cannot read algebra from {path}: missing field {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read algebra from {path}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"cannot read algebra from {path}: zero denominator, {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"cannot read algebra from {path}: nested too deeply") from exc
    bad = jacobi_check(algebra) if check else []
    if bad:
        i, j, k, _ = bad[0]
        raise InputError(f"cannot read algebra from {path}: Jacobi identity fails "
                         f"(d^2 != 0) at (i, j, k) = ({i}, {j}, {k})")
    ungraded = grading_violations(algebra) if check else []
    if ungraded:
        i, j, k = ungraded[0]
        raise InputError(f"cannot read algebra from {path}: weights break the "
                         f"grading at (i, j, k) = ({i}, {j}, {k})")
    digest = hashlib.sha256(raw.encode()).hexdigest()[:16]
    return algebra, digest


def _emit(report: dict, human: str | None = None) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))
    if human:
        print(human, file=sys.stderr)


def _obstruction(verdict) -> dict:
    """The page, class and image of a spectral obstruction witness."""
    return {
        "page": verdict.obstruction_page,
        "class": verdict.obstruction_source.to_pairs(),
        "image": verdict.obstruction_image.to_pairs(),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    a, digest = _load_algebra(args.algebra, check=False)
    bad = jacobi_check(a)
    ungraded = grading_violations(a)
    series = central_series(a)
    graded_1n = (a.weights is not None and not ungraded
                 and sorted(a.weights) == list(range(1, a.dim + 1)))
    report = {
        "command": "check",
        "input": digest,
        "result": {
            "jacobi_ok": not bad,
            "jacobi_violations": [[i, j, k, {str(m): format_rat(v) for m, v in d.items()}]
                                  for i, j, k, d in bad[:10]],
            "nilpotent": series[-1].dim == 0,
            "filiform": is_filiform(a),
            "central_series_dims": [s.dim for s in series],
            "n_graded_weights_1_to_n": graded_1n,
            "grading_violations": [list(v) for v in ungraded[:10]],
        },
    }
    _emit(report)
    return 0 if not bad and not ungraded else 1


def cmd_cohomology(args) -> int:
    a, digest = _load_algebra(args.algebra)
    block = cohomology(a, args.degree, args.weight)
    report = {
        "command": "cohomology",
        "input": digest,
        "result": {
            "degree": args.degree,
            "weight": args.weight,
            "dim": block.dim,
            "representatives": [f.to_pairs() for f in block.representatives],
        },
    }
    _emit(report)
    return 0


def cmd_classify(args) -> int:
    classes = enumerate_graded_filiform(_bounded_dim(args.dim))
    rows = []
    for cls in classes:
        rows.append({
            "name": cls.name,
            "dimension": cls.dim,
            "family": cls.is_family,
            "excluded_parameters": [format_rat(x) for x in cls.excluded],
            "coincidences": [[format_rat(x), name] for x, name in cls.overlaps],
        })
    lines = [f"N-graded filiform Lie algebras of dimension {args.dim}",
             "-" * 56]
    for row in rows:
        tag = f"{row['name']}(alpha)" if row["family"] else f"{row['name']}({args.dim})"
        notes = []
        if row["excluded_parameters"]:
            notes.append("alpha not in {" + ", ".join(row["excluded_parameters"]) + "}")
        for x, name in row["coincidences"]:
            notes.append(f"alpha = {x} coincides with {name}({args.dim})")
        lines.append(f"  {tag:<18} {'; '.join(notes)}")
    _emit({"command": "classify-graded", "dim": args.dim, "result": rows},
          "\n".join(lines))
    return 0


def cmd_symplectic(args) -> int:
    a, digest = _load_algebra(args.algebra)
    cert = symplectic_exists(a)
    result = {"exists": cert.exists}
    if cert.exists:
        result["form"] = cert.form.to_pairs()
        result["top_power"] = cert.top_power.to_pairs()
    else:
        result["reason"] = cert.reason
        if cert.reason == "SpectralObstruction":
            result["obstruction"] = _obstruction(cert.witness)
    _emit({"command": "symplectic", "input": digest, "result": result})
    return 0


def cmd_contact(args) -> int:
    a, digest = _load_algebra(args.algebra)
    cert = contact_exists(a)
    result = {"exists": cert is not None}
    if cert is not None:
        result["form"] = cert.form.to_pairs()
        result["volume"] = cert.volume.to_pairs()
    else:
        result["reason"] = "defining polynomial vanishes identically"
    _emit({"command": "contact", "input": digest, "result": result})
    return 0


def cmd_spectral(args) -> int:
    a, digest = _load_algebra(args.algebra)
    pages = page_dimensions(a)
    verdict = None if a.dim % 2 else symplectic_survival(a)
    tables = []
    for r, dims in enumerate(pages, start=1):
        tables.append({
            "r": r,
            "blocks": [[-w, deg + w, dim] for (w, deg), dim in sorted(dims.items())],
            "totals": {str(k): v for k, v in degree_totals(dims).items()},
        })
    result = {"pages": tables}
    if verdict is not None:
        result["symplectic_survival"] = {"survives": verdict.survives}
        if verdict.survives:
            result["symplectic_survival"]["lift"] = verdict.lift.to_pairs()
        elif verdict.obstruction_page is not None:
            result["symplectic_survival"]["obstruction"] = _obstruction(verdict)
    human = ["spectral pages (E_r block dimensions as p, q, dim):"]
    for t in tables if args.report else []:
        human.append(f"  r = {t['r']}: " + "  ".join(
            f"({p},{q})={d}" for p, q, d in t["blocks"]))
    _emit({"command": "spectral", "input": digest, "result": result},
          "\n".join(human) if args.report else None)
    return 0


# builder parameter -> the catalog flag that sets it
_CATALOG_FLAGS = {"n": "--dim", "alpha": "--alpha", "t": "--t", "alphas": "--alphas"}


def cmd_catalog(args) -> int:
    params = {}
    try:
        if args.dim is not None:
            params["n"] = _bounded_dim(args.dim)
        if args.alpha is not None:
            params["alpha"] = rat(args.alpha)
        if args.t is not None:
            params["t"] = args.t
        if args.alphas:
            params["alphas"] = [rat(x) for x in args.alphas.split(",")]
        accepted = catalog.parameters(args.name)
        for p in params:
            if p not in accepted:
                raise InputError(f"{args.name} takes no {_CATALOG_FLAGS[p]}")
        for p, required in accepted.items():
            if required and p not in params:
                raise InputError(f"{args.name} needs {_CATALOG_FLAGS[p]}")
        a = catalog.build(args.name, **params)
    except (KeyError, TypeError) as exc:  # a ValueError reaches main as it is
        raise InputError(str(exc)) from exc
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator, {exc}") from exc
    bad = jacobi_check(a)
    if bad:
        print(f"internal error: catalog algebra violates Jacobi at {bad[0][:3]}",
              file=sys.stderr)
        return 2
    doc = a.to_dict()
    payload = json.dumps(doc, sort_keys=True, indent=2)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.emit}", file=sys.stderr)
    else:
        print(payload)
    return 0


# ---------------------------------------------------------------------------

_ALGEBRA = ("algebra", {})

# name -> (handler, help, [(argument, add_argument keywords)])
_COMMANDS = {
    "check": (cmd_check, "Jacobi, nilpotency and filiform report", [_ALGEBRA]),
    "cohomology": (cmd_cohomology, "H^p, optionally one weight block", [
        _ALGEBRA,
        ("--degree", {"type": int, "required": True}),
        ("--weight", {"type": int, "default": None})]),
    "classify-graded": (cmd_classify,
                        "list the N-graded filiform classes of a dimension",
                        [("--dim", {"type": int, "required": True})]),
    "symplectic": (cmd_symplectic, "decide symplectic existence", [_ALGEBRA]),
    "contact": (cmd_contact, "search for a contact form", [_ALGEBRA]),
    "spectral": (cmd_spectral, "weight-filtration spectral sequence", [
        _ALGEBRA, ("--report", {"action": "store_true"})]),
    "catalog": (cmd_catalog, "emit a named algebra as interchange JSON", [
        ("--name", {"required": True}),
        ("--dim", {"type": int}),
        ("--alpha", {}),
        ("--t", {"type": int}),
        ("--alphas", {"help": "comma-separated rationals"}),
        ("--emit", {})]),
}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, an input error like any other."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and reused by every ``main``."""
    ap = _Parser(prog="filiform",
                 description="exact computations on nilpotent/filiform Lie algebras")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (fn, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InputError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
