"""``scripts/bench_trajectory.py`` turns perfbench reports into one entry,
and every entry of the committed ``BENCH_trajectory.json`` is either
measured or names its source."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_trajectory.py"
METRICS = ["items_per_s", "call_p50_s", "peak_rss_mb", "setup_s"]


def _load():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(seed: int, hashes: list) -> dict:
    return {"seed": seed, "seconds": 20.0, "attempted": len(hashes), "failed": 0,
            "env": {"python": "3.11", "nproc": 2, "commit": "abc", "source_sha256": "s",
                    "loadavg_start": [1.0, 1.0, 1.0], "loadavg_end": [2.0, 2.0, 2.0]},
            "metrics": {name: {"value": float(k), "unit": "u"}
                        for k, name in enumerate(METRICS + ["extra"])},
            "calls": [{"index": k, "output_sha256": h} for k, h in enumerate(hashes)]}


def test_entry_holds_the_metrics_and_the_output_digest():
    bt = _load()
    entry = bt.make_entry(7, "change", {"w1": _report(1, ["a", "b"]),
                                        "w2": _report(1, ["c"])}, METRICS, True)
    assert (entry["pr"], entry["side"], entry["commit"], entry["head"]) \
        == (7, "change", "abc", "abc")
    assert entry["env"] == {"python": "3.11", "nproc": 2, "source_sha256": "s"}
    w1 = entry["workloads"]["w1"]
    assert w1["metrics"] == {name: float(k) for k, name in enumerate(METRICS)}
    assert (w1["seed"], w1["seconds"], w1["calls"], w1["failed"]) == (1, 20.0, 2, 0)
    assert w1["outputs_calls"] == 2
    assert w1["outputs_sha256"] == hashlib.sha256(b"a\nb\n").hexdigest()
    assert w1["loadavg"] == [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]


def test_uncommitted_source_has_no_commit():
    entry = _load().make_entry(7, "change", {"w1": _report(1, ["a"])}, METRICS, False)
    assert (entry["commit"], entry["head"]) == (None, "abc")


def test_the_output_digest_reads_a_fixed_prefix_by_index():
    bt = _load()
    hashes = [f"h{k}" for k in range(bt.OUTPUT_PREFIX + 40)]
    short = _report(1, hashes[:bt.OUTPUT_PREFIX])
    long = _report(1, hashes)
    long["calls"].reverse()
    assert bt.outputs_digest(long["calls"]) == bt.outputs_digest(short["calls"])
    assert bt.outputs_digest(long["calls"])[0] == bt.OUTPUT_PREFIX


def test_committed_entries_are_measured_or_sourced():
    # a measured entry carries the checkout's HEAD and its env block; a
    # backfilled one names where its numbers come from, with null for
    # every field that source does not state
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    entries = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    assert entries
    for entry in entries:
        measured = entry.get("head") is not None and entry.get("env") is not None
        sourced = isinstance(entry.get("source"), str) and entry["source"] != ""
        assert measured != sourced, entry["pr"]
        assert entry["side"] in ("parent", "change")
        assert entry["workloads"] and set(entry["workloads"]) <= workloads
        for record in entry["workloads"].values():
            assert set(record["metrics"]) == set(METRICS)
            values = [v for v in record["metrics"].values() if v is not None]
            assert values and all(v > 0 for v in values)
            if measured:
                assert len(values) == len(METRICS) and record["outputs_sha256"]
