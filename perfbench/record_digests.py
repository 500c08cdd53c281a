"""Record the stdout digest of every verdict any seed can draw.

Run from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record_digests.py [WORKLOAD ...]

Every output must first pass the independent checks of ``checks.py``; the
digests of the named workloads (default: all) are then merged into
``perfbench/digests.json``, and digests of verdicts no seed can draw any more
are dropped.  The benchmark counts any later stdout that
differs from its recorded digest as a failed verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from child import run_verdict  # noqa: E402


def record(names: list[str]) -> dict:
    import filiform.cli
    out = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench-record-") as tmp:
        for name in names:
            groups = defaultdict(list)
            for i, verdict in enumerate(workloads.universe(name)):
                text = workloads.build_document(verdict)
                path = None
                if text is not None:
                    path = os.path.join(tmp, f"{name}{i}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                dt, rc, error, stdout = run_verdict(filiform.cli, verdict.argv(path))
                problems = [error] if error else checks.check_output(verdict, text, stdout)
                if problems:
                    raise SystemExit(f"{verdict.id}: {problems}")
                if verdict.group is not None:
                    groups[verdict.group].append((verdict, stdout))
                out[verdict.id] = hashlib.sha256(stdout.encode()).hexdigest()
                print(f"{dt:8.3f}s  {verdict.id}", flush=True)
            for group, outs in groups.items():
                problems = checks.check_group(outs)
                if problems:
                    raise SystemExit(f"{group}: {problems}")
    return out


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    path = os.path.join(HERE, "digests.json")
    digests = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            digests = json.load(fh)
    digests.update(record(names))
    drawable = {v.id for name in workloads.WORKLOADS for v in workloads.universe(name)}
    digests = {k: v for k, v in digests.items() if k in drawable}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
