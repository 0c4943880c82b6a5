"""Run a fixed set of ``qml`` invocations in one process, one line each.

Usage, from anywhere:

    python3 scripts/cli_matrix.py > change.txt
    python3 scripts/cli_matrix.py --root <other checkout> > parent.txt
    diff parent.txt change.txt

Imports ``qmlib.cli`` from ``--root``/src (default: this repository) and
calls ``main(argv)`` on each invocation, in order.  A line is the
invocation (``QML_WORKERS=k`` when not 1, then argv as JSON, with long
arguments cut to their start), the exit code, and the sha256 of stdout
and of stderr, tab-separated; when ``--out`` names a file that exists
after the call, the sha256 of that file follows.

The set: ``check`` and ``audit`` in JSON and markdown on every
``tests/data`` file, ``audit --second-distance``, every gallery fixture
at cutoffs 16/50/100/200 (and its markdown and ``--json`` forms at 16),
``random`` under ``QML_WORKERS`` 1 and 2 and with ``--theorems`` in
either order and repeated, ``report`` over the JSON outputs, ``--out``
into a missing directory (with a bad input too), ``report`` onto the
file it reads, failing ``audit`` runs onto an existing ``--out`` file,
``check`` and ``audit`` in JSON and markdown on two spaces that fail the
triangle law (one violation, and more than ``MAX_VIOLATIONS`` so that
the cut is under the diff), and the bad-input tables of
``tests/bad_inputs.py``.  The inputs come from this repository, whatever
``--root`` is, and are written to a temporary working directory under
fixed relative names, so no line depends on where either checkout lives.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
sys.path.insert(0, str(REPO))
from tests.bad_inputs import (BAD_ARGUMENTS, BAD_FILES, BAD_REPORTS, BAD_SIZES,  # noqa: E402
                              BAD_SPACES, BAD_WORKERS)

FIXTURES = ("halfopen", "projection", "fm_counterexample", "x_one_minus_y")
CUTOFFS = (16, 50, 100, 200)
MARKDOWN = ["--format", "markdown"]


def invocations() -> list:
    """(QML_WORKERS, argv) pairs; argv names files relative to the working
    directory that ``write_inputs`` fills, where ``out/k.json`` is the
    stdout of invocation k."""
    runs = []
    for path in sorted(DATA.glob("*.json")):
        # audit refuses a family file: that refusal is run below, apart
        # from the outputs the report merges
        family = "rule" in json.loads(path.read_text(encoding="utf-8"))
        for command in ("check",) if family else ("check", "audit"):
            argv = [command, f"data/{path.name}"]
            runs += [("1", argv), ("1", argv + MARKDOWN)]
    second = ["audit", "data/pair_n8_d.json", "--second-distance", "data/pair_n8_e.json"]
    runs += [("1", second), ("1", second + MARKDOWN)]
    for name in FIXTURES:
        runs += [("1", ["gallery", name, "--cutoff", str(c)]) for c in CUTOFFS]
        at16 = ["gallery", name, "--cutoff", "16"]
        runs += [("1", at16 + MARKDOWN), ("1", at16 + ["--json", *MARKDOWN]),
                 ("1", at16 + [*MARKDOWN, "--json"])]
    for workers in ("1", "2"):
        sweep = ["random", "--n", "6", "--count", "40", "--seed", "1"]
        runs += [(workers, sweep), (workers, sweep + MARKDOWN)]
    # every JSON output so far, merged in one report
    reported = [f"out/{i}.json" for i, (_, argv) in enumerate(runs) if "--format" not in argv]
    runs.append(("1", ["report", *reported]))
    picked = ["random", "--n", "5", "--count", "8", "--seed", "3", "--theorems"]
    runs += [("1", picked + names) for names in
             (["sup_upgrade", "cauchy_to_directed"], ["cauchy_to_directed", "sup_upgrade"],
              ["sup_upgrade", "cauchy_to_directed", "sup_upgrade"])]
    missing = ["--out", "missing/out.json"]
    runs += [("1", ["check", "data/plain_n10.json", *missing]),
             ("1", ["audit", "data/plain_n10.json", *missing]),
             ("1", ["gallery", "halfopen", "--cutoff", "4", *missing]),
             ("1", ["random", "--n", "3", "--count", "2", *missing]),
             ("1", ["report", "data/plain_n10.json", *missing]),
             ("1", ["check", "bad/file-0.json", *missing])]
    # keep/*.json exist beforehand: report replaces the file it reads, and
    # a run that exits 2 or 3 leaves its --out file as it was
    runs += [("1", ["report", "keep/report.json", "--out", "keep/report.json"]),
             ("1", ["audit", "data/fm_c256.json", "--out", "keep/audit.json"]),
             ("1", ["audit", "bad/file-0.json", "--out", "keep/audit.json"])]
    runs += [("1", ["audit", "data/plain_n10.json", "--second-distance", "data/pair_n8_e.json"]),
             ("1", ["audit", "data/fm_c256.json"]),
             ("1", ["audit", "data/plain_n10.json", "--second-distance", "data/fm_c256.json"])]
    # spaces that fail the triangle law: check exits 1 and audit 3
    for name in ("one-violation", "past-the-cut"):
        for command in ("check", "audit"):
            argv = [command, f"nondistance/{name}.json"]
            runs += [("1", argv), ("1", argv + MARKDOWN)]
    runs += [("1", ["check", f"bad/space-{i}.json"]) for i in range(len(BAD_SPACES))]
    for i in range(len(BAD_FILES)):
        bad = f"bad/file-{i}.json"
        runs += [("1", ["check", bad]),
                 ("1", ["audit", bad, "--second-distance", "data/plain_n10.json"]),
                 ("1", ["audit", "data/plain_n10.json", "--second-distance", bad]),
                 ("1", ["report", "data/plain_n10.json", bad])]
    runs += [("1", ["report", f"bad/report-{i}.json"]) for i in range(len(BAD_REPORTS))]
    runs += [("1", argv) for argv in BAD_SIZES.values()]
    runs += [(value, ["check", "data/plain_n10.json"]) for value in BAD_WORKERS.values()]
    runs += [("1", argv) for argv in BAD_ARGUMENTS.values()]
    return runs


def write_inputs(work: Path) -> None:
    """Copy ``tests/data`` and write the two non-distances and the
    bad-input tables under ``work``."""
    shutil.copytree(DATA, work / "data")
    (work / "bad").mkdir()
    (work / "out").mkdir()
    (work / "keep").mkdir()
    for name in ("report.json", "audit.json"):
        shutil.copyfile(DATA / "plain_n10.json", work / "keep" / name)
    (work / "nondistance").mkdir()
    # one failing triple: d(a, b) = 3 > d(a, c) + d(c, b) = 2
    one = {"points": ["a", "b", "c"],
           "matrix": [["0", "3", "1"], ["inf", "0", "inf"], ["inf", "1", "0"]]}
    # every ordered pair of distinct points p0..p5 sits at 3, and the hub
    # h at 1 from and to each: 30 failing triples, past the cut at
    # MAX_VIOLATIONS = 20
    points = [f"p{i}" for i in range(6)] + ["h"]
    hub = len(points) - 1
    past = {"points": points,
            "matrix": [["0" if i == j else "1" if hub in (i, j) else "3"
                        for j in range(len(points))] for i in range(len(points))]}
    for name, data in (("one-violation", one), ("past-the-cut", past)):
        (work / "nondistance" / f"{name}.json").write_text(json.dumps(data))
    for i, data in enumerate(BAD_SPACES.values()):
        (work / "bad" / f"space-{i}.json").write_text(json.dumps(data))
    for i, content in enumerate(BAD_FILES.values()):
        (work / "bad" / f"file-{i}.json").write_bytes(content)
    for i, data in enumerate(BAD_REPORTS.values()):
        (work / "bad" / f"report-{i}.json").write_text(json.dumps(data))


def run_one(main, workers: str, argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)`` under ``QML_WORKERS``."""
    os.environ["QML_WORKERS"] = workers
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:   # a traceback where a one-line error belongs
            rc = f"raised {type(e).__name__}"
    return rc, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "backslashreplace")).hexdigest()


def _cut(text: str) -> str:
    return text if len(text) <= 40 else f"{text[:24]}...({len(text)} chars)"


def _shown(workers: str, argv: list) -> str:
    env = "" if workers == "1" else f"QML_WORKERS={json.dumps(_cut(workers))} "
    return env + json.dumps([_cut(a) for a in argv])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(REPO),
                    help="checkout whose src/qmlib is run (default: this repository)")
    args = ap.parse_args(argv)
    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import qmlib.cli as cli
    if Path(cli.__file__).resolve().parent != src / "qmlib":
        raise SystemExit(f"cli_matrix: qmlib imported from {cli.__file__}, not {src}")

    saved_env = os.environ.get("QML_WORKERS")
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli_matrix_") as tmp:
        work = Path(tmp)
        os.chdir(work)
        try:
            write_inputs(work)
            for i, (workers, argv) in enumerate(invocations()):
                rc, out, err = run_one(cli.main, workers, argv)
                (work / "out" / f"{i}.json").write_text(out, errors="backslashreplace")
                line = f"{_shown(workers, argv)}\t{rc}\t{_sha(out)}\t{_sha(err)}"
                target = work / argv[argv.index("--out") + 1] if "--out" in argv else work
                if target.is_file():
                    line += "\t" + hashlib.sha256(target.read_bytes()).hexdigest()
                print(line, flush=True)
        finally:
            os.chdir(home)
            if saved_env is None:
                os.environ.pop("QML_WORKERS", None)
            else:
                os.environ["QML_WORKERS"] = saved_env
    return 0


if __name__ == "__main__":
    sys.exit(main())
