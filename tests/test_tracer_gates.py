"""The benchmark's layer tracer still finds the layers it gates on.

``perfbench/tracer.py`` wraps named ``qmlib`` functions and requires some
of their counters to be nonzero on given workloads.  A refactor that
renames a traced function, or routes a call around its module binding,
zeroes such a counter; this test catches that on one ``qml audit`` run.
The tracer is read from its source without writing any file under
``perfbench/``.
"""

import types
from pathlib import Path

import qmlib.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent / "data"

# directed_ratio counts only the is_directed calls made inside
# check_ed_complete, so it reads 0 when that call bypasses the module binding
GATES = ("order.is_directed.calls", "order.check_ed_complete.subsets_checked",
         "order.check_ed_complete.directed_ratio", "nets.zero_cliques.cliques",
         "topology.is_complete.cliques_checked")


def _load_tracer():
    """The tracer module, executed from its source (no bytecode cache)."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _snapshot() -> dict:
    return {p: p.read_bytes() for p in PERFBENCH.rglob("*") if p.is_file()}


def test_audit_feeds_every_gated_counter(capsys):
    before = _snapshot()
    tracer = _load_tracer()
    bindings = tracer.bindings()
    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main(["audit", str(DATA / "plain_n10.json")])
    finally:
        t.restore()
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert t.missing == []
    values = t.metrics()
    assert all(values[name] > 0 for name in GATES), {name: values[name] for name in GATES}
    assert tracer.changed_bindings(bindings) == []
    assert _snapshot() == before
