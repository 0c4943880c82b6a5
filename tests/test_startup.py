"""Starting ``qml`` loads only what every command needs.

``import qmlib.cli`` runs before any command, in every process.  The
records are named tuples, so it loads no ``dataclasses`` (nor the
``inspect`` that comes with it); ``hashlib`` is loaded by the random
sweep's content hash and ``fractions`` (with ``decimal``) by the gallery's
grid and chain fixtures, each at first use.  ``concurrent.futures``
(with ``multiprocessing``, ``socket``, ``subprocess`` and ``logging``) is
loaded only when a random sweep starts a worker pool.  One fresh
interpreter runs the commands in turn and reports which of these modules
it has loaded after each; the probe imports the ``qmlib`` that this test
imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qmlib

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(qmlib.__file__).resolve().parent.parent
POOL = ("concurrent.futures", "logging", "multiprocessing", "socket", "subprocess")
DEFERRED = ("dataclasses", "inspect", "hashlib", "fractions", "decimal") + POOL

PROBE = """
import json, os, sys
import qmlib.cli as cli
deferred, steps = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in deferred if m in sys.modules)
seen = {"import": [0, loaded()]}
for name, workers, argv in steps:
    os.environ["QML_WORKERS"] = workers
    seen[name] = [cli.main(argv), loaded()]
print(json.dumps(seen))
"""


def test_commands_load_only_what_they_use(tmp_path):
    out = str(tmp_path / "out.json")
    # 20 instances make two chunks, so the pooled sweep starts two workers
    steps = [
        ("check", "1", ["check", str(ROOT / "tests" / "data" / "coprime_n8.json"),
                        "--out", out]),
        ("gallery", "1", ["gallery", "halfopen", "--cutoff", "16", "--out", out]),
        ("random", "1", ["random", "--n", "3", "--count", "4", "--out", out]),
        ("pooled", "2", ["random", "--n", "3", "--count", "20", "--out", out]),
    ]
    run = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([DEFERRED, steps])],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen == {"import": [0, []],
                    "check": [0, []],
                    "gallery": [0, ["decimal", "fractions"]],
                    "random": [0, ["decimal", "fractions", "hashlib"]],
                    "pooled": [0, sorted(("decimal", "fractions", "hashlib") + POOL)]}
