"""The README's library quick start runs and prints what its comments say,
and every command of its command-line block exits 0.

The package root exports exactly the names the quick start imports, so this
test guards the root surface as well.
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import filiform
from filiform.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def quick_start() -> str:
    return first_block("## Library quick start", "python")


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


def test_command_line_block_exits_zero(tmp_path, monkeypatch, capsys):
    # in process; CI runs the same block through the installed console script
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in first_block("## Command line", "sh").splitlines()]
    assert commands and all(argv[0] == "filiform" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
