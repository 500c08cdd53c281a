"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import contextlib
import io
import json
import os
import sys

import pytest

import checks
import run
import workloads
from child import run_pass, run_verdict
from tracer import TRACED, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bindings():
    """Every filiform binding of a traced name: {(owner, key): object}."""
    out = {}
    mods = [m for k, m in sys.modules.items() if k.startswith("filiform")]
    for mod_name, qual in TRACED:
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(sys.modules[f"filiform.{mod_name}"], cls_name)
            out[(cls.__qualname__, attr)] = cls.__dict__[attr]
        else:
            orig = getattr(sys.modules[f"filiform.{mod_name}"], qual)
            for m in mods:
                for key, value in vars(m).items():
                    if value is orig:
                        out[(m.__name__, key)] = value
    return out


@pytest.fixture(scope="module")
def cli():
    import filiform.cli
    return filiform.cli


@pytest.fixture
def small_plan(cli):
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    verdicts = [workloads.cohomology_v_verdict(12, 2),
                workloads.symplectic_verdict("m0", True, n=8),
                workloads.classify_verdict(11)]
    plan = []
    for i, v in enumerate(verdicts):
        text = workloads.build_document(v)
        path = None
        if text is not None:
            path = os.path.join(base, f"test-doc{i}-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        plan.append((v, path))
    yield plan
    for _, path in plan:
        if path:
            os.remove(path)


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.verdicts(name, 7)
        b = workloads.verdicts(name, 7)
        assert a == b
        assert ([workloads.build_document(v) for v in a]
                == [workloads.build_document(v) for v in b])
    draws = {tuple(v.id for v in workloads.verdicts("pages", s)) for s in range(6)}
    assert len(draws) > 1


def test_every_drawable_verdict_has_a_recorded_digest():
    with open(os.path.join(run.HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    for name in workloads.WORKLOADS:
        for v in workloads.universe(name):
            assert v.id in digests, v.id
        for seed in range(20):
            assert {v.id for v in workloads.verdicts(name, seed)} <= {
                v.id for v in workloads.universe(name)}


def test_wrappers_are_removed_after_the_traced_run(cli, small_plan):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        import filiform.cochain
        import filiform.spectral
        assert filiform.cochain.rref is not before[("filiform.linalg", "rref")]
        assert filiform.spectral.kernel_basis is not before[("filiform.linalg", "kernel_basis")]
        assert tracer.patched()
        run_pass(cli, small_plan, {}, tracer)
    finally:
        tracer.remove()
    assert tracer.patched() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "linalg.rref", "cochain.cohomology"} <= names
    assert all(s[4] is not None for s in tracer.spans)  # every span has a verdict id


def test_traced_stdout_is_identical(cli, small_plan):
    plain = run_pass(cli, small_plan, {})
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, small_plan, {}, tracer)
    finally:
        tracer.remove()
    assert [r[3] for r in plain["rows"]] == [r[3] for r in traced["rows"]]
    summary = tracer.summary()
    assert summary["cli.main.calls"] == len(small_plan)
    total = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(summary[f"{layer}.self_s"] for layer in run.LAYERS) == pytest.approx(total)


def test_injected_wrong_expected_value_is_an_error(cli, small_plan):
    outputs = []
    for v, path in small_plan:
        _, rc, error, stdout = run_verdict(cli, v.argv(path))
        assert rc == 0 and error is None
        doc = open(path, encoding="utf-8").read() if path else None
        assert checks.check_output(v, doc, stdout) == []
        outputs.append((v, doc, stdout))
    (h2, h2_doc, h2_out), (sym, sym_doc, sym_out), (cls, _, cls_out) = outputs
    wrong = workloads.Verdict(h2.id, h2.args, h2.doc, h2.kind, {"dim": 4})
    assert checks.check_output(wrong, h2_doc, h2_out)
    wrong = workloads.Verdict(sym.id, sym.args, sym.doc, sym.kind, {"exists": False})
    assert checks.check_output(wrong, sym_doc, sym_out)
    classes = [list(c) for c in cls.expect["classes"]]
    classes[0][0] = "m1"
    wrong = workloads.Verdict(cls.id, cls.args, cls.doc, cls.kind, {"classes": classes})
    assert checks.check_output(wrong, None, cls_out)
    # a certificate whose form was tampered with fails the independent check
    tampered = json.loads(sym_out)
    tampered["result"]["form"] = tampered["result"]["form"][:1]
    assert checks.check_output(sym, sym_doc, json.dumps(tampered))


def test_digest_mismatch_counts_as_a_failed_verdict(cli, small_plan):
    texts: dict = {}
    p = run_pass(cli, small_plan, texts)
    rows = p["rows"]
    result = {"verdicts": [v.id for v, _ in small_plan], "texts": texts,
              "passes": [p], "traced": []}
    good = {v.id: r[3] for (v, _), r in zip(small_plan, rows)}
    assert run.verify(result, small_plan, good)[:2] == (3, 0)
    bad = dict(good)
    bad[small_plan[0][0].id] = "0" * 64
    attempted, failed, problems = run.verify(result, small_plan, bad)
    assert (attempted, failed) == (3, 1) and "recorded digest" in problems[0]


def test_program_failures_are_counted(cli):
    v = workloads.Verdict("cohomology missing", ("cohomology", "{doc}", "--degree", "2"),
                          ("raw", {}), "cohomology")
    _, rc, error, _ = run_verdict(cli, v.argv(os.path.join(ROOT, "no-such-file.json")))
    assert rc == 1 and error


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)


def test_verdict_time_is_the_median_over_passes():
    passes = [{"rows": [[1.0], [5.0]]}, {"rows": [[3.0], [4.0]]}, {"rows": [[2.0], [9.0]]}]
    assert run.typical(passes) == [2.0, 5.0]


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_metrics()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()


def test_refuses_to_run_without_the_program(monkeypatch):
    monkeypatch.chdir(run.HERE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "pages", "--seed", "1", "--seconds", "1"])
    assert code != 0 and out.getvalue() == ""
