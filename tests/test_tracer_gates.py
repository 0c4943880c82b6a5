"""The benchmark's layer tracer still finds the layers it gates on.

``perfbench/tracer.py`` wraps named ``qmlib`` functions and requires some
of their counters to be nonzero on given workloads: ``LAYER_METRICS``
maps each per-layer metric to the workloads it gates.  A refactor that
renames a traced function, or routes a call around its module binding,
zeroes such a counter; these tests catch that on a small run of each
in-process workload, against every metric ``LAYER_METRICS`` maps to it.
The tracer is read from its source without writing any file under
``perfbench/``.
"""

import types
from pathlib import Path

import qmlib.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent / "data"

# a small run of each workload that runs in this process; sweep_pool2 is
# the sweep_n6 call list on a pool.  The gallery_c100 fixtures reach the
# family and gallery layers, the grid fixture the cubic space validation.
RUNS = {
    "sweep_n6": [["random", "--n", "6", "--count", "16"]],
    "audit_n12": [["audit", str(DATA / "plain_n10.json")]],
    "check_coprime": [["check", str(DATA / "coprime_n15.json")]],
    "gallery_c100": [["gallery", name, "--cutoff", "16"]
                     for name in ("fm_counterexample", "halfopen", "projection")],
}


def _load_tracer():
    """The tracer module, executed from its source (no bytecode cache)."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _snapshot() -> dict:
    return {p: p.read_bytes() for p in PERFBENCH.rglob("*") if p.is_file()}


def _assert_traced_runs_feed(workload, monkeypatch) -> None:
    """Run the workload's commands in this process under the tracer: every
    command exits 0, the tracer finds every target, every metric gated on
    the workload reads nonzero, every binding is restored and no file
    under ``perfbench/`` changes."""
    monkeypatch.delenv("QML_WORKERS", raising=False)
    before = _snapshot()
    tracer = _load_tracer()
    gates = [name for name, (_, _, workloads) in tracer.LAYER_METRICS.items()
             if workload in workloads]
    assert gates
    runs = RUNS[workload]
    bindings = tracer.bindings()
    t = tracer.Tracer()
    t.install()
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        t.restore()
    assert codes == [cli.EXIT_OK] * len(runs)
    assert t.missing == []
    values = t.metrics()
    assert all(values[name] > 0 for name in gates), {name: values[name] for name in gates}
    assert tracer.changed_bindings(bindings) == []
    assert _snapshot() == before


def test_sweep_feeds_every_gated_counter(capsys, monkeypatch):
    _assert_traced_runs_feed("sweep_n6", monkeypatch)
    capsys.readouterr()


def test_audit_feeds_every_gated_counter(capsys, monkeypatch):
    _assert_traced_runs_feed("audit_n12", monkeypatch)
    capsys.readouterr()


def test_check_feeds_every_gated_counter(capsys, monkeypatch):
    _assert_traced_runs_feed("check_coprime", monkeypatch)
    capsys.readouterr()


def test_gallery_feeds_every_gated_counter(capsys, monkeypatch):
    _assert_traced_runs_feed("gallery_c100", monkeypatch)
    capsys.readouterr()
