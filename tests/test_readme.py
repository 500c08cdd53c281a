"""The README's library quick start runs and prints what its comments say.

The package root exports exactly the names the quick start imports, so this
test guards the root surface as well.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import filiform

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_root_exports_the_quick_start_names():
    imported = {alias.name for node in ast.walk(ast.parse(quick_start()))
                if isinstance(node, ast.ImportFrom) and node.module == "filiform"
                for alias in node.names}
    assert sorted(filiform.__all__) == sorted(imported)


def test_quick_start_prints_what_it_promises():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start(), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "3"
    # m0, m2, m02 + the g10 family
    assert [line.split("(")[0] for line in lines[1:-1]] == ["m0", "m2", "m02", "g10"]
    assert all("(10)" in line for line in lines[1:4])
    assert lines[-1].startswith("SpectralObstruction")
    assert "(-2)*e2^e3^e4" in lines[-1]
