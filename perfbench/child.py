"""The benchmark's workload process; ``run.py`` starts a fresh one per run.

``child.py setup WORKLOAD SEED WORKDIR RESULT`` times importing ``filiform``
and generating the workload's documents, once.

``child.py measure WORKLOAD SEED WORKDIR RESULT SECONDS TRACE`` does the same
set-up, then runs the verdict list in passes through ``filiform.cli.main``
until the next pass would end after SECONDS (at least three passes, so that
every verdict's median is taken over three or more times).  With TRACE 1
each pass is followed by a traced pass.  After each pass it starts one
``setup`` process and waits for it, so the set-up samples are spread over
the whole run, and times a fixed reference loop.  Every verdict's stdout is
captured and hashed as soon as the verdict returns; the first text of each
distinct output goes into the result file for the checks in ``run.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction


def setup(workload: str, seed: int, workdir: str):
    """Import filiform and write the workload's documents; (cli, plan, seconds)."""
    t0 = time.perf_counter()
    import filiform.cli
    import workloads
    plan = []
    for i, verdict in enumerate(workloads.verdicts(workload, seed)):
        text = workloads.build_document(verdict)
        path = None
        if text is not None:
            path = os.path.join(workdir, f"doc{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        plan.append((verdict, path))
    return filiform.cli, plan, time.perf_counter() - t0


def run_verdict(cli, argv: list[str]) -> tuple:
    """(seconds, exit code, error or None, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the verdict fails; the run goes on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if rc != 0 and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    return dt, rc, error, out.getvalue()


def run_pass(cli, plan, texts: dict, tracer=None) -> dict:
    """One pass over the plan; rows are [seconds, exit code, error, stdout sha].

    The first stdout of each (verdict id, sha) goes into ``texts``, so the
    memory kept does not grow with the number of passes.
    """
    rows = []
    wall = 0.0
    for verdict, path in plan:
        if tracer is not None:
            tracer.verdict = verdict.id
        dt, rc, error, stdout = run_verdict(cli, verdict.argv(path))
        wall += dt
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        texts.setdefault(f"{verdict.id}\n{sha}", stdout)
        rows.append([dt, rc, error, sha])
    return {"wall_s": wall, "rows": rows}


def probe_setup(workload: str, seed: int, workdir: str, k: int) -> float:
    """Set-up seconds of one fresh ``setup`` process."""
    pdir = os.path.join(workdir, f"setup{k}")
    os.mkdir(pdir)
    path = os.path.join(pdir, "result.json")
    subprocess.run([sys.executable, os.path.abspath(__file__), "setup", workload,
                    str(seed), pdir, path], check=True, timeout=60)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["setup_s"]


def reference_s() -> float:
    """Seconds of a fixed Fraction loop that does not touch filiform.

    Recorded beside the metrics, not as one: it shows how fast the machine
    ran during the run, so that a shift between runs can be told apart from
    a change in the program.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 12000):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 7)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, workdir: str, seconds: float, trace: bool) -> dict:
    cli, plan, _ = setup(workload, seed, workdir)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    passes, traced, layers, setups, refs = [], [], [], [], []
    texts: dict = {}
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(cli, plan, texts))
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(cli, plan, texts, tracer))
            finally:
                tracer.remove()
            layers.append(tracer.summary(first))
        setups.append(probe_setup(workload, seed, workdir, len(setups)))
        refs.append(reference_s())
        now = time.perf_counter()
        if len(passes) >= 3 and now - begin + (now - start) > seconds:
            break
    result = {
        "setup_s": setups,
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": [v.id for v, _ in plan],
        "documents": [path for _, path in plan],
        "passes": passes,
        "traced": traced,
        "layers": layers,
        "texts": texts,
    }
    if tracer is not None:
        out_dir = os.path.join(os.getcwd(), ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        result["spans_file"] = os.path.join(out_dir, f"spans-{workload}-seed{seed}.tsv.gz")
        result["spans"] = len(tracer.spans)
        tracer.write(result["spans_file"])
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir, result_path = argv[:5]
    if mode == "setup":
        result = {"setup_s": setup(workload, int(seed), workdir)[2]}
    else:
        result = measure(workload, int(seed), workdir, float(argv[5]), argv[6] == "1")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
