"""Spans around calls into each ``filiform`` module, from the benchmark side.

:class:`Tracer` replaces each traced public function by a wrapper in every
``filiform`` namespace that holds it (a name imported with ``from .linalg
import rref`` is a separate binding in the importing module) and puts the
originals back on :meth:`Tracer.remove`.  A span records its name, start,
end, the index of the enclosing span and the current verdict id; spans stay
in memory until the run writes them out.  A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# (module, qualified name) of every traced function; the module is the layer
TRACED = (
    ("scalars", "Poly.divmod"), ("scalars", "Poly.gcd"),
    ("scalars", "rational_roots"), ("scalars", "MPoly.any_nonvanishing_point"),
    ("linalg", "rref"), ("linalg", "kernel_basis"), ("linalg", "Subspace.span"),
    ("linalg", "Subspace.reduce"), ("linalg", "SpanSolver.solve"),
    ("linalg", "rank_drop_candidates"),
    ("lie", "adapted_basis"), ("lie", "gr_l"),
    ("cochain", "lambda_basis"), ("cochain", "d_matrix"), ("cochain", "differential"),
    ("cochain", "cohomology"), ("cochain", "Form.wedge"),
    ("extensions", "graded_isomorphic"), ("extensions", "central_extension"),
    ("extensions", "enumerate_graded_filiform"),
    ("structures", "wedge_power"), ("structures", "symplectic_exists"),
    ("structures", "contact_exists"),
    ("spectral", "build_pages"), ("spectral", "symplectic_survival"),
    ("cli", "main"),
)
LAYERS = ("scalars", "linalg", "lie", "cochain", "extensions", "structures",
          "spectral", "cli")


def _rref_size(args, kwargs, result):
    return (sum(1 for r in args[0] if r), len(result[0]))


def _length(args, kwargs, result):
    return len(result)


# what a span keeps from the call, by span name
EXTRACT = {
    "linalg.rref": _rref_size,
    "spectral.build_pages": _length,
    "cochain.lambda_basis": _length,
}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list = []
        self.verdict: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._wrappers: dict = {}  # id -> wrapper, kept alive

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = EXTRACT.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.verdict, None)
            if extract is not None:
                spans[idx] = spans[idx][:5] + (extract(args, kwargs, result),)
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _modules(self) -> list:
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "filiform" or k.startswith("filiform."))]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, qual in TRACED:
            mod = sys.modules[f"filiform.{mod_name}"]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            orig = getattr(mod, qual)
            new = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig))

    def remove(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def patched(self) -> list[str]:
        """Names of every binding that currently holds a wrapper."""
        out = []
        for m in self._modules():
            for key, value in vars(m).items():
                if id(value) in self._wrappers:
                    out.append(f"{m.__name__}.{key}")
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if id(fn) in self._wrappers:
                            out.append(f"{m.__name__}.{key}.{attr}")
        return out

    # -- results ----------------------------------------------------------

    def summary(self, start: int = 0) -> dict:
        """Per-function and per-layer totals over spans[start:]."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        in_spectral = [False] * len(spans)
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            p = parent - start
            in_spectral[i] = name.startswith("spectral.") or (p >= 0 and in_spectral[p])
            if p >= 0:
                child[p] += t1 - t0
        out: dict = {}
        for (mod_name, qual) in TRACED:
            out[f"{mod_name}.{qual}.calls"] = 0
            out[f"{mod_name}.{qual}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        out.update({"linalg.rref.rows_in": 0, "linalg.rref.rank_out": 0,
                    "linalg.rref.calls_in_spectral": 0, "spectral.pages_built": 0,
                    "cochain.lambda_basis.items_out": 0})
        for i, (name, t0, t1, parent, _, extra) in enumerate(spans):
            own = t1 - t0 - child[i]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            out[name.split(".")[0] + ".self_s"] += own
            if name == "linalg.rref":
                out["linalg.rref.rows_in"] += extra[0]
                out["linalg.rref.rank_out"] += extra[1]
                out["linalg.rref.calls_in_spectral"] += in_spectral[i]
            elif name == "spectral.build_pages":
                out["spectral.pages_built"] += extra
            elif name == "cochain.lambda_basis":
                out["cochain.lambda_basis.items_out"] += extra
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent, verdict."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tverdict\n")
            for i, (name, t0, t1, parent, verdict, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{verdict}\n")
