"""The benchmark's layer tracer still finds the layers it gates on.

``perfbench/tracer.py`` wraps named ``qmlib`` functions and requires some
of their counters to be nonzero on given workloads.  A refactor that
renames a traced function, or routes a call around its module binding,
zeroes such a counter; these tests catch that on one ``qml audit`` run
and on ``qml gallery`` runs of the fixtures that reach the gallery gates.
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
# the gallery_c100 workload's gates: the family fixtures reach the family
# and gallery layers, the grid fixture the cubic space validation
GALLERY_GATES = ("family.FamilySpace.dist.calls", "space.validate.calls",
                 "family.family_is_complete.self_s", "gallery.build.self_s",
                 "gallery.verify.self_s")
GALLERY_RUNS = [["gallery", name, "--cutoff", "16"]
                for name in ("fm_counterexample", "halfopen", "projection")]


def _load_tracer():
    """The tracer module, executed from its source (no bytecode cache)."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _snapshot() -> dict:
    return {p: p.read_bytes() for p in PERFBENCH.rglob("*") if p.is_file()}


def _assert_traced_runs_feed(runs, gates) -> None:
    """Run the commands in this process under the tracer: every command
    exits 0, the tracer finds every target, every gate reads nonzero,
    every binding is restored and no file under ``perfbench/`` changes."""
    before = _snapshot()
    tracer = _load_tracer()
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


def test_audit_feeds_every_gated_counter(capsys):
    _assert_traced_runs_feed([["audit", str(DATA / "plain_n10.json")]], GATES)
    capsys.readouterr()


def test_gallery_feeds_every_gated_counter(capsys):
    _assert_traced_runs_feed(GALLERY_RUNS, GALLERY_GATES)
    capsys.readouterr()
