"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, seed, directory, monkeypatch, count=8):
    """argv and input bytes of the first ``count`` calls, generated in ``directory``."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    out = []
    for call in itertools.islice(workloads.calls(workload, seed), count):
        out.append((call.argv, [Path(p).read_bytes() for p in call.inputs]))
    return out


def _matrix(path):
    doc = json.loads(Path(path).read_text())
    return [[workloads.decode(v) for v in row] for row in doc["matrix"]]


def test_inputs_deterministic_per_seed(tmp_path, monkeypatch):
    for name in workloads.WORKLOADS:
        a = _inputs(name, 7, tmp_path / f"{name}-a", monkeypatch)
        b = _inputs(name, 7, tmp_path / f"{name}-b", monkeypatch)
        c = _inputs(name, 8, tmp_path / f"{name}-c", monkeypatch)
        assert a == b, name
        assert a != c, name
        # every call of a run has distinct input
        keys = [json.dumps([argv[:-2], [hashlib.sha256(x).hexdigest() for x in files]])
                for argv, files in a]
        if name.startswith("sweep") or name.startswith("gallery"):
            assert len(set(keys)) == len(keys), name
        else:
            assert len({k for _, files in a for k in files}) == sum(len(f) for _, f in a)


def test_sweeps_share_one_call_list(tmp_path, monkeypatch):
    assert (_inputs("sweep_n6", 3, tmp_path / "s", monkeypatch)
            == _inputs("sweep_pool2", 3, tmp_path / "p", monkeypatch))


def test_check_files_valid_with_coprime_denominators(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for call in itertools.islice(workloads.calls("check_coprime", 11), 6):
        rows = _matrix(call.inputs[0])
        n = len(rows)
        assert n == workloads.CHECK_N
        assert workloads.triangle_ok(rows)
        assert all(v != math.inf for row in rows for v in row)
        diag_zero = all(rows[i][i] == 0 for i in range(n))
        assert diag_zero is call.expect["hemimetric"]
        values = {v for row in rows for v in row if v != 0}
        assert len(values) >= 80
        dens = sorted({v.denominator for v in values} - {1})
        assert len(dens) >= 15
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(dens, 2))


def test_audit_files_valid_and_stratified(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for call in itertools.islice(workloads.calls("audit_n12", 5), 8):
        mats = [_matrix(p) for p in call.inputs]
        for rows in mats:
            assert len(rows) == workloads.AUDIT_N
            assert workloads.triangle_ok(rows)
        kind = call.expect["kind"]
        assert len(mats) == (2 if kind == "value_pair" else 1)
        if kind == "plain":
            assert not workloads.sup_upgrade_hypothesis(mats[0])
        if kind == "hemimetric":
            assert workloads.sup_upgrade_hypothesis(mats[0])
            assert all(mats[0][i][i] == 0 for i in range(workloads.AUDIT_N))


def test_sup_upgrade_hypothesis_on_truncated_difference():
    vals = [Fraction(k, 4) for k in (0, 1, 3, 6)]
    rows = [[max(a - b, Fraction(0)) for b in vals] for a in vals]
    assert workloads.sup_upgrade_hypothesis(rows)
    # a two-point discrete metric: radius-1 lower balls are singletons
    # bounded by themselves, but the radius-inf ball needs a common upper
    # bound, which does not exist
    assert not workloads.sup_upgrade_hypothesis([[Fraction(0), Fraction(1)],
                                                 [Fraction(1), Fraction(0)]])


def test_gallery_cutoffs_distinct_and_balanced():
    from random import Random
    cut = list(itertools.islice(workloads.gallery_cutoffs(Random(1)), 41))
    assert len(set(cut)) == len(cut)
    assert sum(cut[:21]) == 21 * workloads.GALLERY_CENTRE


def test_periods_match_the_rotations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert set(workloads.PERIODS) == set(workloads.WORKLOADS)
    for name, key in (("audit_n12", "kind"), ("check_coprime", "hemimetric"),
                      ("gallery_c100", "fixture")):
        period = workloads.PERIODS[name]
        seq = [c.expect[key] for c in itertools.islice(workloads.calls(name, 2), 2 * period)]
        assert seq[:period] == seq[period:], name


def test_patched_functions_are_originals_after_traced_run(tmp_path, monkeypatch):
    import qmlib.cli as cli
    from qmlib.extreal import ExtReal
    monkeypatch.chdir(tmp_path)
    argv = ["random", "--n", "4", "--count", "4", "--seed", "1", "--out", "plain.json"]
    assert cli.main(argv) == 0
    before = tracer.bindings()
    t = tracer.Tracer()
    t.install()
    try:
        changed = tracer.changed_bindings(before)
        # every module that imported a wrapped name got the wrapper
        for name in ("qmlib.cli.audit", "qmlib.theorems.suprema", "qmlib.order.suprema",
                     "qmlib.space._validate", "qmlib.family.FamilySpace.dist",
                     "qmlib.extreal.ExtReal.__lt__", "qmlib.cli.ProcessPoolExecutor"):
            assert name in changed, name
        assert cli.main(argv[:-1] + ["traced.json"]) == 0
    finally:
        t.restore()
    assert tracer.changed_bindings(before) == []
    assert vars(ExtReal)["__add__"] is before["qmlib.extreal.ExtReal.__add__"]
    assert Path("plain.json").read_bytes() == Path("traced.json").read_bytes()
    values = t.metrics()
    assert set(values) == set(tracer.LAYER_METRICS)
    assert values["order.suprema.calls"] > 0
    assert values["extreal.compare_calls"] > 0


def test_benchmark_json_matches_the_code():
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(k, unit, better) for k, (unit, better, _) in tracer.LAYER_METRICS.items()]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
