"""Static hygiene of the package, read with ``ast`` only.

No module but ``__init__`` (which re-exports) imports a name it never uses,
and every module-level private name is referenced somewhere in ``src/`` or
``tests/``, so dead helpers are noticed when their last caller goes.  Every
module-level public name is referenced outside its own definition somewhere
in ``src/``, ``tests/``, ``demos/``, ``perfbench/`` or ``README.md``; a
dotted string such as a ``perfbench/tracer.py`` ``TRACED`` entry or a
monkeypatch target counts, so no public name outlives its last reader.  An
import of the form ``from m import x as x`` is an explicit re-export (the
PEP 484 convention) and counts as used.  Every import sits at module level,
so the import graph of the package is the one its module heads show.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "filiform"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of every import in the module, explicit re-exports
    excepted."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    """The names the module reads and the attributes it takes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """{name: line} of the module-level private functions, classes and
    assignments (dunder names excluded)."""
    return {name: node.lineno for node in tree.body for name in defined_names(node)
            if name.startswith("_") and not name.startswith("__")}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """{name: line} of the module-level public functions, classes and
    assignments."""
    return {name: node.lineno for node in tree.body for name in defined_names(node)
            if not name.startswith("_")}


def outside_references(tree: ast.Module) -> set[str]:
    """The names each module-level statement reads, takes as an attribute or
    spells in a dotted string, less the names that statement defines."""
    out = set()
    for stmt in tree.body:
        names = used_names(stmt)
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and all(part.isidentifier() for part in node.value.split("."))):
                names |= set(node.value.split("."))
        out |= names - set(defined_names(stmt))
    return out


def modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def test_no_unused_imports():
    unused = []
    for path in modules():
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, unused


def test_every_private_name_is_referenced():
    referenced = set()
    for path in [*modules(), *sorted((ROOT / "tests").glob("*.py"))]:
        referenced |= used_names(parse(path))
    dead = [f"{path.name}:{line} {name}" for path in modules()
            for name, line in private_definitions(parse(path)).items()
            if name not in referenced]
    assert not dead, dead


def test_no_import_inside_a_function():
    nested = set()
    for path in modules():
        for fn in ast.walk(parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not nested, sorted(nested)


def test_every_public_name_is_referenced():
    sources = [*modules(), *(p for d in ("tests", "demos", "perfbench")
                             for p in sorted((ROOT / d).rglob("*.py")))]
    referenced = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in sources:
        referenced |= outside_references(parse(path))
    dead = [f"{path.name}:{line} {name}" for path in modules() if path.name != "__init__.py"
            for name, line in public_definitions(parse(path)).items()
            if name not in referenced]
    assert not dead, dead
