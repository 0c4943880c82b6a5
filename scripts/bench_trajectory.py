"""Append one benchmark entry to BENCH_trajectory.json.

Usage, from anywhere:

    python3 scripts/bench_trajectory.py --pr N --side change
    python3 scripts/bench_trajectory.py --pr N --side parent --root <checkout>

Runs ``python3 perfbench/run.py`` in ``--root`` (default: this repository)
on every workload that ``BENCHMARK.json`` lists, on seed 1 for the
benchmark's ``run_seconds``, with ``--trace 0``, one after another, and
appends one entry to ``--out`` (default: ``BENCH_trajectory.json`` beside
this repository's ``BENCHMARK.json``).

An entry holds the PR number and side, the env block of its first run,
and per workload the seed, the seconds, the end-to-end metrics, the call
count and ``outputs_sha256``: the sha256 of the ``output_sha256`` of calls
0 .. ``outputs_calls`` - 1, one per line.  ``outputs_calls`` is
``OUTPUT_PREFIX``, or every call when a run made fewer.  A closed-loop run
makes as many calls as its speed allows, so only this fixed prefix can be
compared between entries: two entries with the same seed and
``outputs_calls`` produced byte-identical outputs on it iff their
``outputs_sha256`` agree.

``head`` is the checkout's HEAD.  ``commit`` is HEAD when ``src/`` has no
uncommitted change and null otherwise: an entry measured before its
change was committed is tied to that commit by ``head`` (its parent) and
``env.source_sha256``.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PER_RUN_ENV = ("loadavg_start", "loadavg_end")
SEED = 1
OUTPUT_PREFIX = 32


def outputs_digest(calls: list) -> tuple:
    """(count, sha256) over the output hashes of the first ``OUTPUT_PREFIX``
    calls by index, one per line."""
    prefix = sorted(calls, key=lambda c: c["index"])[:OUTPUT_PREFIX]
    lines = "".join(f"{c['output_sha256']}\n" for c in prefix)
    return len(prefix), hashlib.sha256(lines.encode()).hexdigest()


def workload_record(report: dict, metric_names: list) -> dict:
    """The trajectory record of one perfbench report (``--trace 0``)."""
    hashed, digest = outputs_digest(report["calls"])
    return {"seed": report["seed"],
            "seconds": report["seconds"],
            "metrics": {name: report["metrics"][name]["value"] for name in metric_names},
            "calls": report["attempted"],
            "failed": report["failed"],
            "outputs_calls": hashed,
            "outputs_sha256": digest,
            "loadavg": [report["env"][k] for k in PER_RUN_ENV]}


def make_entry(pr: int, side: str, reports: dict, metric_names: list,
               src_committed: bool) -> dict:
    """One entry from the perfbench reports of every workload, by name."""
    first = next(iter(reports.values()))
    env = {k: v for k, v in first["env"].items() if k not in PER_RUN_ENV}
    head = env.pop("commit")
    return {"pr": pr, "side": side, "commit": head if src_committed else None,
            "head": head, "env": env,
            "workloads": {name: workload_record(r, metric_names)
                          for name, r in reports.items()}}


def src_committed(root: Path) -> bool:
    """Whether ``src/`` in the checkout matches its HEAD (False outside git)."""
    diff = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                          capture_output=True, text=True)
    return diff.returncode == 0 and diff.stdout == ""


def run_workload(root: Path, workload: str, seconds: float) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / ".perfbench_out" / f"{workload}-seed{SEED}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--side", choices=("parent", "change"), required=True)
    ap.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_trajectory.json")
    args = ap.parse_args(argv)
    metric_names = [m["name"] for m in bench["end_to_end"]]
    reports = {w["name"]: run_workload(args.root, w["name"], bench["run_seconds"])
               for w in bench["workloads"]}
    entry = make_entry(args.pr, args.side, reports, metric_names, src_committed(args.root))
    entries = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else []
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    for name, rec in entry["workloads"].items():
        print(f"{name}: items_per_s {rec['metrics']['items_per_s']:.4g}, "
              f"{rec['calls']} calls, {rec['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
