"""Benchmark of filiform verdicts, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload pages --seed 1 --seconds 50 --trace 0

Each run starts one workload process (``child.py``) with ``PYTHONPATH=src``.
It runs the seeded verdict list in passes for ``--seconds``, and after each
pass times one fresh process that imports ``filiform`` and generates the
documents; the median of these samples is ``setup_s``.  A verdict's time is
its median over the passes; ``wall_s`` sums these over the list, and
``verdict_s.p50`` and ``verdict_s.tail`` are their median and the highest
percentile with at least ten verdicts above it (the slowest verdict when the
list is shorter than 20).
``peak_rss_mb`` is the workload process's ``ru_maxrss``.  Outside the timed
region every output is checked against the stdout digest recorded for that
verdict in ``digests.json`` and by the independent checks of ``checks.py``; a
verdict fails on a nonzero exit, an exception or any mismatch.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every untraced pass is followed by a traced pass, whose stdout must equal the
untraced one byte for byte, and the metrics are the per-module ones from the
spans of ``tracer.py``.  The second-to-last line of stdout records the
environment, the drawn verdicts and the sample counts; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, TRACED  # noqa: E402

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def end_to_end_metrics() -> dict:
    return {"wall_s": "s", "verdict_s.p50": "s", "verdict_s.tail": "s",
            "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_metrics() -> dict:
    out = {}
    for mod, qual in TRACED:
        out[f"{mod}.{qual}.calls"] = "count"
        out[f"{mod}.{qual}.self_s"] = "s"
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
    out.update({"linalg.rref.rows_in": "count", "linalg.rref.rank_out": "count",
                "linalg.rref.rank_per_row": "ratio",
                "linalg.rref.calls_in_spectral": "count",
                "spectral.pages_built": "count",
                "cochain.lambda_basis.items_out": "count",
                "trace.overhead_s": "s"})
    return out


def _child(root: str, args: list[str]) -> dict:
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result_path = args[4]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")] + args,
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 verdicts above it.

    With fewer than 20 verdicts the slowest verdict stands in (percentile 100).
    """
    d = sorted(durations)
    n = len(d)
    if n < 20:
        return d[-1], 100.0
    return d[n - 11], 100.0 * (n - 10) / n


def typical(passes: list) -> list[float]:
    """Each verdict's median time over the passes.

    On a shared machine both slow bursts (other tenants busy) and fast
    bursts (other tenants idle) come and go; the median is steady under
    either, where the minimum follows the rare fast bursts.
    """
    return [statistics.median(p["rows"][i][0] for p in passes)
            for i in range(len(passes[0]["rows"]))]


def verify(result: dict, plan: list, digests: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass, traced ones included."""
    docs = {}
    for verdict, path in plan:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                docs[verdict.id] = fh.read()
    verdict_of = {v.id: v for v, _ in plan}
    judged: dict = {}  # (verdict id, sha) -> problems of that output

    def judge(vid: str, sha: str) -> list[str]:
        key = (vid, sha)
        if key not in judged:
            problems = []
            if digests.get(vid) is None:
                problems.append("no recorded digest")
            elif digests[vid] != sha:
                problems.append("stdout differs from the recorded digest")
            problems += checks.check_output(verdict_of[vid], docs.get(vid),
                                            result["texts"][f"{vid}\n{sha}"])
            judged[key] = problems
        return judged[key]

    attempted = failed = 0
    problems: list[str] = []
    untraced = result["passes"]
    for n_pass, p in enumerate(untraced + result["traced"]):
        twin = untraced[n_pass - len(untraced)] if n_pass >= len(untraced) else None
        group_out: dict = {}
        bad = set()
        for i, (vid, (_, rc, error, sha)) in enumerate(zip(result["verdicts"], p["rows"])):
            mine = [error] if error else judge(vid, sha)
            if twin is not None and twin["rows"][i][3] != sha:
                mine = mine + ["traced stdout differs from the untraced stdout"]
            if mine:
                bad.add(i)
                problems += [f"{vid}: {m}" for m in mine]
            group = verdict_of[vid].group
            if group is not None:
                group_out.setdefault(group, []).append(i)
        for group, members in group_out.items():
            if any(i in bad for i in members):
                continue
            outs = [(verdict_of[result["verdicts"][i]],
                     result["texts"][f"{result['verdicts'][i]}\n{p['rows'][i][3]}"])
                    for i in members]
            mine = checks.check_group(outs)
            if mine:
                bad.update(members)
                problems += [f"{group}: {m}" for m in mine]
        attempted += len(p["rows"])
        failed += len(bad)
    return attempted, failed, problems


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(record, result object) of one benchmark run."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base)
    try:
        result = _child(root, ["measure", workload, str(seed), workdir,
                               os.path.join(workdir, "result.json"), str(seconds),
                               "1" if trace else "0"])
        plan = list(zip(workloads.verdicts(workload, seed), result["documents"]))
        if [v.id for v, _ in plan] != result["verdicts"]:
            raise BenchError("workload process ran a different verdict list")
        attempted, failed, problems = verify(result, plan, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [p["wall_s"] for p in result["passes"]]
    times = typical(result["passes"])
    tail_value, tail_pct = tail(times)
    record = {"environment": environment(), "seed": seed, "workload": workload,
              "why": workloads.WORKLOADS[workload], "verdicts": result["verdicts"],
              "samples": {"verdicts": len(times), "passes": len(walls),
                          "traced_passes": len(result["traced"]),
                          "setup_probes": len(result["setup_s"])},
              "pass_walls_s": walls, "tail_percentile": tail_pct,
              "reference_s": statistics.median(result["reference_s"]),
              "error_rate": failed / attempted, "problems": problems[:20]}
    if trace:
        layers = result["layers"]
        metrics = {k: statistics.median(s[k] for s in layers)
                   for k in layers[0]}
        rows_in = metrics["linalg.rref.rows_in"]
        metrics["linalg.rref.rank_per_row"] = (
            metrics["linalg.rref.rank_out"] / rows_in if rows_in else 0.0)
        metrics["trace.overhead_s"] = sum(typical(result["traced"])) - sum(times)
        traced_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        record["self_share"] = {layer: metrics[f"{layer}.self_s"] / traced_total
                                for layer in LAYERS}
        record["rank_per_row_base_rows"] = rows_in
        record["spans_file"] = os.path.relpath(result["spans_file"], root)
        record["spans"] = result["spans"]
        units = per_layer_metrics()
    else:
        metrics = {"wall_s": sum(times),
                   "verdict_s.p50": statistics.median(times),
                   "verdict_s.tail": tail_value,
                   "peak_rss_mb": result["peak_rss_mb"],
                   "setup_s": statistics.median(result["setup_s"])}
        units = end_to_end_metrics()
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return record, final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "filiform", "cli.py")):
        print("error: run from the repository root; src/filiform is missing",
              file=sys.stderr)
        return 2
    try:
        record, final = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
