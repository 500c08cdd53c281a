"""CLI: commands, exit codes, canonical JSON output."""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from filiform import catalog, cli
from filiform.cli import main
from filiform.cochain import Form, differential
from filiform.linalg import pfaffian
from test_lie import computations, random_base_change


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def write_algebra(tmp_path, name, **params):
    from filiform import catalog
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.build(name, **params).to_dict()))
    return str(path)


def test_check_passes_on_catalog_dump(tmp_path, capsys):
    path = write_algebra(tmp_path, "m2", n=7)
    code, doc = run(capsys, "check", path)
    assert code == 0
    assert doc["result"]["jacobi_ok"] and doc["result"]["filiform"]
    assert doc["result"]["central_series_dims"] == [7, 5, 4, 3, 2, 1, 0]


def test_check_fails_on_broken_jacobi(tmp_path, capsys):
    from filiform import catalog
    bad = catalog.build("m0", n=5).to_dict()
    bad["brackets"].append([2, 3, [[4, "1"]]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc = run(capsys, "check", str(path))
    assert code == 1
    assert not doc["result"]["jacobi_ok"]
    assert doc["result"]["jacobi_violations"][0][:3] == [1, 2, 3]


def test_check_sl2_is_not_nilpotent(tmp_path, capsys):
    # C^2 = sl2 = g, so no unit vector lies off C^2 and the central series
    # falls back to bracketing with every basis vector
    sl2 = {"dim": 3, "brackets": [[1, 2, [[2, "2"]]], [1, 3, [[3, "-2"]]],
                                  [2, 3, [[1, "1"]]]]}
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(sl2))
    code, doc = run(capsys, "check", str(path))
    assert code == 0
    assert doc["result"]["jacobi_ok"]
    assert doc["result"]["nilpotent"] is False
    assert not doc["result"]["filiform"]
    assert doc["result"]["central_series_dims"] == [3, 3]


def test_check_series_of_a_non_jacobi_table_brackets_every_basis_vector(tmp_path, capsys):
    # e3 and e5 are off the pivots of C^2, but without the Jacobi identity
    # they need not generate; bracketing with them alone gives [5, 3, 2, 1, 0]
    doc = {"dim": 5, "brackets": [[1, 5, [[4, "2"]]], [2, 4, [[4, "1"]]],
                                  [3, 4, [[2, "2"]]], [3, 5, [[1, "2"]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 1 and not out["result"]["jacobi_ok"]
    assert out["result"]["central_series_dims"] == [5, 3, 2, 2]
    assert out["result"]["nilpotent"] is False


@pytest.mark.parametrize("argv", [["check"], ["cohomology", "--degree", "2"],
                                  ["symplectic"], ["spectral", "--report"]])
def test_each_command_decides_the_jacobi_identity_once(tmp_path, capsys, monkeypatch, argv):
    seen = computations(monkeypatch, "jacobi_defects")
    path = write_algebra(tmp_path, "deformation_23", alphas=(1, 2, 3))
    assert main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(seen) == 1


@pytest.mark.parametrize("argv", [["check"], ["cohomology", "--degree", "2"],
                                  ["symplectic"], ["spectral", "--report"]])
def test_each_command_builds_the_series_and_the_adapted_basis_once(
        tmp_path, capsys, monkeypatch, argv):
    series = computations(monkeypatch, "central_series")
    bases = computations(monkeypatch, "adapted_basis")
    path = write_algebra(tmp_path, "deformation_23", alphas=(1, 2, 3))
    assert main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(series) <= 1
    assert len(bases) == (argv[0] in ("symplectic", "spectral"))


def test_check_m1_reports_filiform_but_not_graded(tmp_path, capsys):
    path = write_algebra(tmp_path, "m1", n=8)
    code, doc = run(capsys, "check", path)
    assert code == 0
    assert doc["result"]["filiform"]
    assert not doc["result"]["n_graded_weights_1_to_n"]


def test_cohomology_dims(tmp_path, capsys):
    path = write_algebra(tmp_path, "m0", n=9)
    code, doc = run(capsys, "cohomology", path, "--degree", "2")
    assert code == 0 and doc["result"]["dim"] == 5
    code, doc = run(capsys, "cohomology", path, "--degree", "9")
    assert code == 0 and doc["result"]["dim"] == 1


def test_cohomology_weight_block(tmp_path, capsys):
    from fractions import Fraction
    path = write_algebra(tmp_path, "g8", alpha=Fraction(-5, 2))
    code, doc = run(capsys, "cohomology", path, "--degree", "2", "--weight", "9")
    assert code == 0
    assert doc["result"]["dim"] == 1
    # no representative touches e^1 ^ e^8: no filiform extension at -5/2
    assert all([1, 8] not in [idx for idx, _ in rep]
               for rep in doc["result"]["representatives"])


def test_classify_graded_table(tmp_path, capsys):
    code = main(["classify-graded", "--dim", "7"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0
    names = sorted(r["name"] for r in doc["result"])
    assert names == ["g7", "m0", "m01", "m2"]
    fam = next(r for r in doc["result"] if r["family"])
    assert fam["coincidences"] == [["-2", "m01"]]
    assert "dimension 7" in captured.err


def test_symplectic_negative_verdict_is_exit_zero(tmp_path, capsys):
    path = write_algebra(tmp_path, "m1", n=8)
    code, doc = run(capsys, "symplectic", path)
    assert code == 0
    assert doc["result"] == {"exists": False, "reason": "GrCNotM0"}


def test_symplectic_positive(tmp_path, capsys):
    path = write_algebra(tmp_path, "deformation_21", n=8, alphas=(1,))
    code, doc = run(capsys, "symplectic", path)
    assert code == 0 and doc["result"]["exists"]


def test_symplectic_obstruction_witness(tmp_path, capsys):
    path = write_algebra(tmp_path, "deformation_23", alphas=(1, 2, 3))
    code, doc = run(capsys, "symplectic", path)
    assert code == 0
    obs = doc["result"]["obstruction"]
    assert obs["page"] == 2
    assert obs["image"] == [[[2, 3, 4], "-2"]]


def test_contact_commands(tmp_path, capsys):
    path = write_algebra(tmp_path, "m01", n=7)
    code, doc = run(capsys, "contact", path)
    assert code == 0 and doc["result"]["exists"]
    path = write_algebra(tmp_path, "m0", n=5)
    code, doc = run(capsys, "contact", path)
    assert code == 0 and not doc["result"]["exists"]


def test_spectral_report(tmp_path, capsys):
    path = write_algebra(tmp_path, "deformation_23", alphas=(0, 0, 0))
    code, doc = run(capsys, "spectral", path, "--report")
    assert code == 0
    assert not doc["result"]["symplectic_survival"]["survives"]
    page1 = doc["result"]["pages"][0]
    assert [-11, 13, 2] in page1["blocks"]
    assert doc["result"]["symplectic_survival"]["obstruction"] == {
        "page": 2,
        "class": [[[2, 9], "1"], [[3, 8], "-1"], [[4, 7], "1"], [[5, 6], "-1"]],
        "image": [[[2, 3, 4], "-2"]],
    }


@pytest.mark.parametrize("argv, name, params, calls", [
    (["spectral", "--report"], "deformation_23", {"alphas": (1, 2, 3)}, 1),
    (["spectral"], "deformation_21", {"n": 9}, 0),  # odd: no survival question
    (["symplectic"], "deformation_23", {"alphas": (1, 2, 3)}, 1),
    (["symplectic"], "m1", {"n": 8}, 0),  # GrCNotM0 comes first
])
def test_commands_ask_the_one_survival_entry(tmp_path, capsys, monkeypatch,
                                             argv, name, params, calls):
    # the spectral command and the symplectic verdict reach the survival step
    # through spectral.symplectic_survival itself, so a tracer of it sees them
    from filiform import spectral, structures
    seen = []

    def counted(a, survival=spectral.symplectic_survival):
        seen.append(a)
        return survival(a)

    for module in (cli, structures):
        monkeypatch.setattr(module, "symplectic_survival", counted)
    path = write_algebra(tmp_path, name, **params)
    assert main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(seen) == calls


def test_obstruction_witness_is_built_when_read(tmp_path, capsys, monkeypatch):
    # symplectic reads only graded_symplectic, so past a non-symplectic E_1
    # corner it reduces no pairing; spectral reads the witness, and g8(-1)
    # is graded, so no differential leaves the corner
    from filiform import spectral
    reduced = []
    pairing = spectral._PageComputer.pairing

    def counted(comp, p):
        reduced.append(p)
        return pairing(comp, p)

    monkeypatch.setattr(spectral._PageComputer, "pairing", counted)
    path = write_algebra(tmp_path, "g8", alpha=-1)
    code, doc = run(capsys, "symplectic", path)
    assert (code, doc["result"]) == (0, {"exists": False, "reason": "GrLNotSymplectic"})
    assert reduced == []
    code, doc = run(capsys, "spectral", path)
    assert code == 0 and doc["result"]["symplectic_survival"] == {"survives": False}


# what a change of basis keeps, per command, of a command's result
_INVARIANT_FIELDS = [
    (["symplectic"], lambda r: (r["exists"], r.get("reason"))),
    (["contact"], lambda r: r["exists"]),
    (["check"], lambda r: (r["central_series_dims"], r["filiform"])),
    (["cohomology", "--degree", "2"], lambda r: r["dim"]),
    (["spectral", "--report"],
     lambda r: ([t["blocks"] for t in r["pages"]],
                r.get("symplectic_survival", {}).get("survives"))),
]


def _invariants(capsys, path) -> dict:
    out = {}
    for argv, read in _INVARIANT_FIELDS:
        code, doc = run(capsys, argv[0], path, *argv[1:])
        out[argv[0]] = (code, read(doc["result"]) if code == 0 else None)
    return out


@pytest.mark.parametrize("name, params", [
    ("deformation_23", {"alphas": (1, 2, 3)}), ("deformation_23", {"alphas": (0, 0, 0)}),
    ("m0", {"n": 8}), ("g8", {"alpha": 3}), ("m1", {"n": 8}), ("V", {"n": 9}),
    ("deformation_21", {"n": 10, "alphas": (1,)}),
])
def test_verdicts_survive_a_random_base_change(tmp_path, capsys, name, params):
    # metamorphic: the same algebra in a seeded dense basis, without its
    # weights, gets the same verdicts, series, H^2 and page dimensions
    a = catalog.build(name, **params)
    doc = random_base_change(a, random.Random(f"{name}{params}"), 0.5).to_dict()
    doc.pop("weights", None)
    plain, changed = tmp_path / "plain.json", tmp_path / "changed.json"
    plain.write_text(json.dumps(a.to_dict()))
    changed.write_text(json.dumps(doc))
    assert _invariants(capsys, str(changed)) == _invariants(capsys, str(plain))


def test_catalog_roundtrip(tmp_path, capsys):
    out = tmp_path / "v12.json"
    code = main(["catalog", "--name", "V", "--dim", "12", "--emit", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    from filiform.lie import LieAlgebra
    from filiform import catalog
    assert LieAlgebra.from_dict(doc).brackets == catalog.build("V", n=12).brackets
    capsys.readouterr()


def test_catalog_guard_is_input_error(capsys):
    code = main(["catalog", "--name", "g11", "--alpha=-5/2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (["--name", "g8", "--alpha", "1/0"], "zero denominator"),
    (["--name", "g8", "--alpha", "x"], "Invalid literal"),
    (["--name", "deformation_23", "--alphas", "1,x"], "Invalid literal"),
    (["--name", "m0", "--dim", "65"], "exceeds the bound"),
    (["--name", "V", "--dim", "5", "--alpha", "2"], "V takes no --alpha"),
    (["--name", "heisenberg"], "heisenberg needs --dim"),
    (["--name", "abelian", "--dim", "0"], "abelian(n) needs n >= 1"),
    (["--name", "abelian", "--dim", "-3"], "abelian(n) needs n >= 1"),
    (["--name", "deformation_21", "--dim", "6"], "deformation_21 needs n >= 7"),
])
def test_bad_catalog_parameter_is_input_error(capsys, argv, reason):
    code = main(["catalog", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err


def test_catalog_reads_parameters_by_the_document_rule(capsys):
    # Fraction alone reads the exponent and builds a 3 * 10^6-digit integer
    start = time.perf_counter()
    code = main(["catalog", "--name", "g8", "--alpha", "1e3000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and elapsed < 1
    assert captured.err.startswith("error: ") and "decimal digits: '1e3000000'" in captured.err
    assert main(["catalog", "--name", "deformation_23", "--alphas", "1,2/3,-1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    from fractions import Fraction
    alphas = (1, Fraction(2, 3), Fraction(-1, 2))
    assert doc == catalog.build("deformation_23", alphas=alphas).to_dict()


def test_catalog_accepts_the_dimension_bound(capsys):
    assert main(["catalog", "--name", "abelian", "--dim", str(cli.MAX_DIM)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == cli.MAX_DIM


def _limit_memory():
    # a run that tries to enumerate exterior powers fails instead of
    # exhausting the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _cli_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.parametrize("argv", [
    ["check", "{doc}"], ["cohomology", "{doc}", "--degree", "2"],
    ["symplectic", "{doc}"], ["contact", "{doc}"], ["spectral", "{doc}"],
    ["catalog", "--name", "m0", "--dim", "1000000"],
    ["classify-graded", "--dim", "1000000"],
])
def test_huge_dimension_is_a_prompt_input_error(tmp_path, argv):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"dim": 1000000, "brackets": []}))
    proc = subprocess.run(
        [sys.executable, "-m", "filiform.cli", *(a.format(doc=doc) for a in argv)],
        capture_output=True, text=True, timeout=30, env=_cli_env(),
        preexec_fn=_limit_memory)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exceeds the bound" in proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_quietly(unbuffered):
    # unbuffered, the JSON print meets the closed pipe; buffered, the flush
    # after the command does
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "filiform.cli", "classify-graded", "--dim", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err


@pytest.mark.parametrize("name, expect", [("m1", "GrCNotM0"), ("m0", None)])
def test_dense_basis_symplectic_is_prompt(tmp_path, name, expect):
    # in a random dense basis, m1(10) once took minutes: the adapted basis
    # was searched for over (e_1, e_2) pairs
    a = random_base_change(catalog.build(name, n=10), random.Random(1), 0.5)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(a.to_dict()))
    proc = subprocess.run([sys.executable, "-m", "filiform.cli", "symplectic", str(path)],
                          capture_output=True, text=True, timeout=10, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    if expect:
        assert result == {"exists": False, "reason": expect}
    else:
        omega = Form.from_pairs(2, result["form"])
        assert result["exists"] and differential(a, omega).is_zero()
        assert pfaffian(a.dim, omega.coeffs)


def test_deterministic_output(tmp_path, capsys):
    path = write_algebra(tmp_path, "m0", n=6)
    _, first = run(capsys, "cohomology", path, "--degree", "2")
    _, second = run(capsys, "cohomology", path, "--degree", "2")
    assert first == second


def test_missing_file_is_input_error(capsys):
    code = main(["check", "/nonexistent/whatever.json"])
    assert code == 1


def _zero_denominator(doc):
    doc["brackets"][0][2][0][1] = "1/0"


def _short_weights(doc):
    doc["weights"] = doc["weights"][:-1]


def _null_weight(doc):
    doc["weights"][0] = None


def _broken_jacobi(doc):
    doc["brackets"].append([2, 3, [[4, "1"]]])


def _broken_grading(doc):
    doc["weights"] = doc["weights"][::-1]


def _fractional_index(doc):
    doc["brackets"][0][0] = 1.5  # int() would read [e1, e2] = e3


def _bool_index(doc):
    doc["brackets"][0][0] = True


def _fractional_dim(doc):
    doc["dim"] = 6.7


def _bool_coefficient(doc):
    doc["brackets"][0][2][0][1] = True


def _float_coefficient(doc):
    doc["brackets"][0][2][0][1] = 1.0


def _exponent_coefficient(doc):
    doc["brackets"][0][2][0][1] = "1e100000"  # Fraction reads 10^100000


def _string_component(doc):
    doc["brackets"][0][2][0][0] = "3"


def _zero_dim(doc):
    doc.update(dim=0, brackets=[], weights=[])


def _repeated_pair(doc):
    doc["brackets"].append([1, 2, [[3, "2"]]])  # the last entry would win


def _reversed_pair(doc):
    doc["brackets"].append([2, 1, [[3, "1"]]])  # the two would cancel


def _diagonal_entry(doc):
    doc["brackets"].append([2, 2, [[4, "1"]]])  # would be dropped


def _repeated_component(doc):
    doc["brackets"][0][2].append([3, "2"])  # the last component would win


@pytest.mark.parametrize("corrupt, reason", [
    (_zero_denominator, "zero denominator"),
    (_short_weights, "5 weights for dimension 6"),
    (_null_weight, "weights must be integers"),
    (_broken_jacobi, "Jacobi identity fails"),
    (_broken_grading, "weights break the grading at (i, j, k) = (1, 2, 3)"),
    (_fractional_index, "bracket index must be an integer, not 1.5"),
    (_bool_index, "bracket index must be an integer, not True"),
    (_fractional_dim, "dim must be an integer, not 6.7"),
    (_bool_coefficient, 'coefficient must be an integer or a "num/den" string, not True'),
    (_float_coefficient, 'coefficient must be an integer or a "num/den" string, not 1.0'),
    (_exponent_coefficient, 'coefficient must be an integer or a "num/den" string, not \'1e100000\''),
    (_string_component, "component index must be an integer, not '3'"),
    (_zero_dim, "dimension 0 is not positive"),
    (_repeated_pair, "bracket entry [1, 2] repeats the pair (1, 2)"),
    (_reversed_pair, "bracket entry [2, 1] repeats the pair (1, 2)"),
    (_diagonal_entry, "bracket entry [2, 2] brackets e_2 with itself"),
    (_repeated_component, "bracket entry [1, 2] lists component 3 twice"),
])
def test_malformed_document_is_input_error(tmp_path, capsys, corrupt, reason):
    from filiform import catalog
    doc = catalog.build("m0", n=6).to_dict()
    corrupt(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["check"], ["cohomology", "--degree", "2"], ["spectral"],
                 ["symplectic"], ["contact"]):
        code = main([argv[0], str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 1, argv
        if corrupt in (_broken_jacobi, _broken_grading) and argv == ["check"]:
            # check loads unchecked and reports the violations itself
            result = json.loads(captured.out)["result"]
            if corrupt is _broken_jacobi:
                assert not result["jacobi_ok"]
            else:
                assert result["grading_violations"][0] == [1, 2, 3]
                assert not result["n_graded_weights_1_to_n"]
            continue
        assert captured.err.startswith("error: cannot read algebra")
        assert reason in captured.err
        assert "Traceback" not in captured.out + captured.err


def test_deeply_nested_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err


# -- fuzzing the document loader ---------------------------------------------------

FUZZ_COMMANDS = (["check"], ["cohomology", "--degree", "2"], ["symplectic"],
                 ["contact"], ["spectral", "--report"])

# rationals as a document may spell them: signs, zero and huge denominators,
# spaces, decimals, exponents, and strings that are no number at all
ODD_RATIONALS = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)),
    st.integers(-10**30, 10**30),
    st.sampled_from(["0", "-0", "1/0", "0/0", "3/-4", " 1/2 ", "1.5", "1e400", "1e100000",
                     "-2.5e-3", "nan", "inf", "", "1//2", "1/2/3", "0x10", "\u00bd", "\u0661"]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4)
    | ODD_RATIONALS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)


def _slots(node, path=()):
    """The path of every value inside a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """m0(6) with one to three fields dropped, retyped, nested or re-spelled,
    or now and then no document at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = catalog.build("m0", n=6).to_dict()
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        *head, key = draw(st.sampled_from(slots))
        parent = doc
        for k in head:
            parent = parent[k]
        action = draw(st.sampled_from(["drop", "retype", "nest", "rational", "index"]))
        if action == "drop":
            del parent[key]
        elif action == "retype":
            parent[key] = draw(JSON_VALUES)
        elif action == "nest":
            parent[key] = draw(st.sampled_from([[parent[key]], {"v": parent[key]}]))
        elif action == "rational":
            parent[key] = draw(ODD_RATIONALS)
        else:
            parent[key] = draw(st.integers(-1, 8))
    return doc


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=mutated_documents())
@example(doc={"dim": 6, "brackets": [[1.5, 2, [[3, "1"]]]]})
@example(doc={"dim": 0, "brackets": []})
# a verdict whose exact output passes Python's 4300-digit str() cap
@example(doc={"dim": 6, "brackets": [[1, 2, [[3, "9" * 4000]]], [1, 3, [[4, "1"]]],
                                     [1, 4, [[5, "1"]]], [1, 5, [[6, "1"]]]]})
def test_fuzzed_document_gets_a_verdict_or_a_reason(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    for argv in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err
        if code == 1 and not (argv == ["check"] and out):
            # check reports a broken table on stdout and exits 1
            assert err.startswith("error: ") and err.strip() != "error:", (argv, err)
        if code == 2:
            assert err.startswith("internal invariant violation: "), (argv, err)
    assert time.perf_counter() - t0 < 5, doc


def _grid_exhausted(a):
    raise RuntimeError("bounded search exhausted; raise FILIFORM_MAX_GRID to decide")


def _library_fails(exc_type):
    def fail(*args):
        raise exc_type("the library gives up")
    fail.__name__ = exc_type.__name__
    return fail


# command -> the library entry it calls through filiform.cli
_LIBRARY_ENTRIES = {"check": "central_series", "cohomology": "cohomology",
                    "classify-graded": "enumerate_graded_filiform",
                    "symplectic": "symplectic_exists", "contact": "contact_exists",
                    "spectral": "page_dimensions"}


@pytest.mark.parametrize("command, target, fail, reason", [
    ("symplectic", "symplectic_exists", _grid_exhausted, "FILIFORM_MAX_GRID"),
    *((command, target, _library_fails(exc), "the library gives up")
      for command, target in _LIBRARY_ENTRIES.items()
      for exc in (ValueError, RuntimeError)),
])
def test_undecided_search_is_input_error(tmp_path, capsys, monkeypatch,
                                         command, target, fail, reason):
    # main is the one boundary that turns a library ValueError or
    # RuntimeError into an input error
    monkeypatch.setattr(cli, target, fail)
    path = write_algebra(tmp_path, "m0", n=6)
    args = {"classify-graded": ["--dim", "7"],
            "cohomology": [path, "--degree", "2"]}.get(command, [path])
    code = main([command, *args])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["spectral", "symplectic"])
def test_adapted_shape_defect_is_invariant_violation(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("filiform.lie._adapted_defects", lambda a: [(2, 3, 4)])
    path = write_algebra(tmp_path, "m0", n=6)
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("internal invariant violation: ")
    assert "(2, 3, 4)" in captured.err and "Traceback" not in captured.err


H5_R = {"dim": 6, "brackets": [[1, 2, [[5, "1"]]], [3, 4, [[5, "1"]]]]}


@pytest.mark.parametrize("command, doc", [
    ("symplectic", H5_R),
    ("contact", catalog.build("m0", n=7).to_dict()),
])
def test_search_bound_decides_or_exits_with_input_error(tmp_path, capsys, monkeypatch,
                                                        command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.delenv("FILIFORM_MAX_GRID", raising=False)
    code, out = run(capsys, command, str(path))
    assert code == 0 and out["result"]["exists"] is False
    # the negative certificate expands more than one term
    monkeypatch.setenv("FILIFORM_MAX_GRID", "1")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "FILIFORM_MAX_GRID" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, doc", [
    ("symplectic", H5_R),
    ("contact", catalog.build("m0", n=7).to_dict()),
])
@pytest.mark.parametrize("value", ["abc", "", "-5", "0", "2.5"])
def test_search_bound_must_be_a_positive_integer(tmp_path, capsys, monkeypatch,
                                                 command, doc, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("FILIFORM_MAX_GRID", value)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: FILIFORM_MAX_GRID must be an integer >= 1")
    assert "Traceback" not in captured.err


def _parse_outcome(parse, argv, capsys):
    """(exit code or None, stdout, stderr, parsed namespace or None)."""
    try:
        ns = parse(argv)
        code = None
    except SystemExit as exc:
        ns, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, ns


@pytest.mark.parametrize("argv", [
    *([cmd, "--help"] for cmd in cli._COMMANDS),
    *([cmd] for cmd in cli._COMMANDS),  # a required argument is missing
    ["cohomology", "a.json", "--degree", "x"],
    ["check", "a.json", "--bogus"],
    ["spectral", "a.json", "b.json"],
    ["catalog", "--name", "m0", "--dim", "5"],
    ["cohomology", "a.json", "--degree", "3", "--weight", "7"],
    ["-h"], [], ["bogus"]])
def test_one_subcommand_parser_matches_the_full_parser(argv, capsys, monkeypatch):
    # the one parser, built once and reused by every main, parses as a fresh
    # one does; help text wraps at the width read when it is formatted
    assert cli.build_parser() is cli.build_parser()
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = _parse_outcome(cli.build_parser.__wrapped__().parse_args, argv, capsys)
        for _ in range(2):
            assert _parse_outcome(cli.build_parser().parse_args, argv, capsys) == fresh
        if fresh[0] is not None:
            assert fresh[2] or fresh[1]  # help on stdout or usage error on stderr
            # help exits 0; a usage error is an input error, as the README says
            assert fresh[0] == (0 if {"-h", "--help"} & set(argv) else 1), argv
