"""CLI commands, exit codes, file formats, and report determinism."""

import json
import time

import pytest

from qmlib import cli, order
from qmlib.cli import (EXIT_FAILURE, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, MAX_WORKERS,
                       canonical_json, main)
from qmlib.family import MAX_CUTOFF, RULES
from qmlib.nets import MAX_CLASS_SIZE, MAX_DIRECTED_CLASSES


@pytest.fixture
def discrete_file(tmp_path):
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(
        {"points": ["a", "b"], "matrix": [["0", "1"], ["1", "0"]]}))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(
        {"points": ["a", "b", "c"],
         "matrix": [["0", "5", "1"], ["1", "0", "inf"], ["inf", "1", "0"]]}))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(
        {"rule": "sup-truncated-difference", "cutoff": 8,
         "params": {"prefix": "f"}}))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestCheck:
    def test_discrete_metric(self, capsys, discrete_file):
        rc, out = run(capsys, ["check", discrete_file])
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["validation"]["is_metric"] is True
        assert data["completeness"]["complete"] is True
        assert data["derived"]["d_up"]["values"] == ["0", "inf"]

    def test_invalid_distance_exits_nonzero(self, capsys, broken_file):
        rc, out = run(capsys, ["check", broken_file])
        assert rc == EXIT_FAILURE
        data = json.loads(out)
        assert data["validation"]["is_distance"] is False

    def test_family_file(self, capsys, family_file):
        rc, out = run(capsys, ["check", family_file])
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["kind"] == "family"
        assert data["completeness"]["complete"] is False

    def test_markdown_format(self, capsys, discrete_file):
        rc, out = run(capsys, ["check", discrete_file, "--format", "markdown"])
        assert rc == EXIT_OK and out.startswith("# check")

    def test_missing_file(self, capsys):
        rc, _ = run(capsys, ["check", "/nonexistent/space.json"])
        assert rc == EXIT_PARSE

    def test_unparseable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        rc, _ = run(capsys, ["check", str(bad)])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("data", [
        {"points": ["a", "b"], "matrix": [["0", "1/0"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "0/0"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "abc"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "0.5"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "-1"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", True], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "1_0"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "\u0663"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "1/\u0663"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "-1/-2"], ["1", "0"]]},
        {"points": ["a", "b"], "matrix": [["0", "1"], ["+1", "0"]]},
        {"rule": "sup-truncated-difference", "cutoff": "x"},
        {"rule": "sup-truncated-difference", "cutoff": 8.5},
        {"rule": "sup-truncated-difference", "cutoff": "8"},
        5,
        {"points": ["a"], "matrix": 5},
        {"points": [["a"]], "matrix": [["0"]]},
        {"rule": "order-characteristic", "cutoff": 8, "params": 5},
        {"rule": "order-characteristic", "cutoff": 8, "params": [["values", "natural"]]},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": 5}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"zz": "abc"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"zz": 2}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"zz": "1/0"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"h": "1_0"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"h": "\u0663"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"h": "1e3"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"h": "0.5"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"extras": {"h": "-1/2"}}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"values": "odd"}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"colour": "red"}},
        {"rule": "order-characteristic", "cutoff": 8, "params": {"prefix": "f"}},
        {"rule": "sup-truncated-difference", "cutoff": 8, "params": {"prefix": 3}},
        {"rule": "sup-truncated-difference", "cutoff": 8, "params": {"coordinate_cutoff": "x"}},
        {"rule": "sup-truncated-difference", "cutoff": 8, "params": {"coordinate_cutoff": 9.0}},
        {"rule": "sup-truncated-difference", "cutoff": 8,
         "params": {"coordinate_cutoff": True}},
        {"rule": "sup-truncated-difference", "cutoff": 8,
         "params": {"extras": {"zz": "1"}}},
        {"rule": "sup-truncated-difference", "cutoff": 8,
         "params": {"coordinate_cutoff": 64}},
    ], ids=["1/0", "0/0", "abc", "0.5", "-1", "true", "underscore", "arabic-indic-digit",
            "arabic-indic-denominator", "signed-fraction", "plus-sign", "cutoff-x", "cutoff-float", "cutoff-text",
            "not-an-object", "matrix-not-a-list", "label-not-a-string",
            "params-not-an-object", "params-a-list", "extras-not-an-object",
            "extra-not-rational", "extra-not-text", "extra-zero-denominator",
            "extra-underscore", "extra-arabic-indic-digit", "extra-exponent",
            "extra-decimal-point", "extra-negative",
            "unknown-value-form", "unknown-param", "param-of-another-rule",
            "prefix-not-a-string", "window-text", "window-float", "window-bool",
            "extras-on-vector-rule", "window-integer"])
    def test_bad_input_is_one_line_parse_error(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["check", str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("content", [b"\xff\xfe{}", None], ids=["not-utf8", "a-directory"])
    def test_unreadable_input_is_one_line_parse_error(self, capsys, tmp_path, content):
        target = tmp_path / "space.json"
        if content is None:
            target.mkdir()
        else:
            target.write_bytes(content)
        rc = main(["check", str(target)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("rule", RULES)
    def test_cutoff_above_the_ceiling_is_precondition_error(self, capsys, tmp_path, rule):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rule": rule, "cutoff": MAX_CUTOFF + 1}))
        t0 = time.monotonic()
        rc = main(["check", str(path)])
        assert time.monotonic() - t0 < 1.0
        assert rc == EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    def test_cutoff_at_the_ceiling_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "ceiling.json"
        path.write_text(json.dumps({"rule": "order-characteristic", "cutoff": MAX_CUTOFF}))
        rc, out = run(capsys, ["check", str(path)])
        assert rc == EXIT_OK
        assert json.loads(out)["space"]["cutoff"] == MAX_CUTOFF

    def test_natural_values_with_extras_are_undecided(self, capsys, tmp_path):
        # the natural-order certificate covers bare naturals only
        path = tmp_path / "naturals.json"
        path.write_text(json.dumps({"rule": "order-characteristic", "cutoff": 8,
                                    "params": {"values": "natural", "extras": {"h": "1/3"}}}))
        rc, out = run(capsys, ["check", str(path)])
        assert rc == EXIT_OK
        assert json.loads(out)["completeness"]["complete"] is None

    def test_chain_with_a_value_one_point_is_undecided(self, capsys, tmp_path):
        # the point of value 1 is the chain's double-hole limit: no witness
        # rejects it, so the verdict is undecided and names no rejection
        path = tmp_path / "chain_one.json"
        path.write_text(json.dumps({"rule": "truncated-difference", "cutoff": 8,
                                    "params": {"values": "one_minus_unit",
                                               "extras": {"0": "0", "1": "1"}}}))
        rc, out = run(capsys, ["check", str(path)])
        assert rc == EXIT_OK
        comp = json.loads(out)["completeness"]
        assert comp["complete"] is None and comp["rejections"] == []

    @staticmethod
    def _all_zero(tmp_path, n):
        path = tmp_path / f"zero{n}.json"
        path.write_text(json.dumps({"points": [f"p{i}" for i in range(n)],
                                    "matrix": [["0"] * n for _ in range(n)]}))
        return str(path)

    def test_class_above_the_ceiling_is_precondition_error(self, capsys, tmp_path):
        path = self._all_zero(tmp_path, MAX_CLASS_SIZE + 1)
        t0 = time.monotonic()
        rc = main(["check", path])
        assert time.monotonic() - t0 < 1.0
        assert rc == EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    def test_class_at_the_ceiling_is_accepted(self, capsys, tmp_path):
        rc, out = run(capsys, ["check", self._all_zero(tmp_path, MAX_CLASS_SIZE)])
        assert rc == EXIT_OK
        assert json.loads(out)["completeness"]["cliques_checked"] == 2 ** MAX_CLASS_SIZE - 1

    @staticmethod
    def _chain(tmp_path, n):
        # d(i, j) = 0 if i <= j else 1: one specialization class per point
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps({
            "points": [f"p{i}" for i in range(n)],
            "matrix": [["0" if i <= j else "1" for j in range(n)] for i in range(n)]}))
        return str(path)

    @pytest.mark.parametrize("extra, code", [(0, EXIT_OK), (1, EXIT_PRECONDITION)],
                             ids=["at-the-ceiling", "above-the-ceiling"])
    def test_directed_subset_walk_ceiling(self, capsys, monkeypatch, tmp_path, extra, code):
        # the walk itself is stubbed out: only whether it starts is under test
        walks = []

        def no_walk(mask):
            walks.append(mask)
            return iter(())

        monkeypatch.setattr(order, "submasks", no_walk)
        path = self._chain(tmp_path, MAX_DIRECTED_CLASSES + extra)
        t0 = time.monotonic()
        rc = main(["audit", path])
        captured = capsys.readouterr()
        assert rc == code
        if code == EXIT_OK:
            assert [m.bit_count() for m in walks] == [MAX_DIRECTED_CLASSES]
        else:
            assert time.monotonic() - t0 < 1.0
            assert walks == [] and captured.out == ""
            assert len(captured.err.splitlines()) == 1


BAD_FILE_CONTENTS = [b"\xff\xfe{}", b"{not json", b"[1, 2]"]
BAD_FILE_IDS = ["not-utf8", "invalid-json", "not-an-object"]


class TestBadFiles:
    @pytest.mark.parametrize("content", BAD_FILE_CONTENTS, ids=BAD_FILE_IDS)
    @pytest.mark.parametrize("role", ["check", "audit-main", "audit-second",
                                      "report-second"])
    def test_bad_file_is_named_on_stderr(self, capsys, tmp_path, discrete_file,
                                         role, content):
        bad = tmp_path / "bad_input.json"
        bad.write_bytes(content)
        good_report = tmp_path / "good_report.json"
        good_report.write_text(json.dumps({"command": "other"}))
        argv = {"check": ["check", str(bad)],
                "audit-main": ["audit", str(bad), "--second-distance", discrete_file],
                "audit-second": ["audit", discrete_file, "--second-distance", str(bad)],
                "report-second": ["report", str(good_report), str(bad)]}[role]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(bad) in captured.err


class TestAudit:
    def test_audit_ok(self, capsys, discrete_file):
        rc, out = run(capsys, ["audit", discrete_file])
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["report"]["ok"] is True
        stmts = {e["statement"] for e in data["report"]["entries"]}
        assert "completeness_criterion_1" in stmts

    def test_theorem_selector(self, capsys, discrete_file):
        rc, out = run(capsys, ["audit", discrete_file, "--theorems", "sup_upgrade"])
        data = json.loads(out)
        assert [e["statement"] for e in data["report"]["entries"]] == ["sup_upgrade"]

    def test_second_distance(self, capsys, discrete_file, tmp_path):
        rc, out = run(capsys, ["audit", discrete_file,
                               "--second-distance", discrete_file])
        assert rc == EXIT_OK

    def test_family_input_is_precondition_error(self, capsys, family_file):
        rc, _ = run(capsys, ["audit", family_file])
        assert rc == EXIT_PRECONDITION

    def test_nonvalidated_input_is_precondition_error(self, capsys, broken_file):
        rc, _ = run(capsys, ["audit", broken_file])
        assert rc == EXIT_PRECONDITION


class TestGallery:
    def test_halfopen_json(self, capsys):
        rc, out = run(capsys, ["gallery", "halfopen", "--cutoff", "10", "--json"])
        assert rc == EXIT_OK
        data = json.loads(out)
        facts = {f["id"]: f for f in data["report"]["facts"]}
        assert facts["order_sup"]["actual"] == "2"
        assert facts["no_metric_sup"]["actual"] == ""

    def test_markdown(self, capsys):
        rc, out = run(capsys, ["gallery", "projection", "--cutoff", "4",
                               "--format", "markdown"])
        assert rc == EXIT_OK and out.startswith("# gallery projection")

    def test_cutoff_above_the_ceiling_is_precondition_error(self, capsys):
        t0 = time.monotonic()
        rc, out = run(capsys, ["gallery", "projection", "--cutoff", str(MAX_CUTOFF + 1)])
        assert time.monotonic() - t0 < 1.0
        assert rc == EXIT_PRECONDITION and out == ""

    def test_unknown_fixture_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gallery", "mystery"])
        assert exc.value.code == 2


class TestRandom:
    def test_small_sweep(self, capsys):
        rc, out = run(capsys, ["random", "--n", "4", "--count", "8", "--seed", "5"])
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["instances_audited"] == 8
        assert data["failures"] == []
        assert set(data) == {"command", "config", "instances_audited", "summary",
                             "failures", "searches", "content_hash"}
        assert set(data["searches"]) == {"same_order_different_sups",
                                         "two_distance_met_with_nonjoin_e"}

    def test_determinism_bytes(self, capsys):
        _, out1 = run(capsys, ["random", "--n", "4", "--count", "6", "--seed", "9"])
        _, out2 = run(capsys, ["random", "--n", "4", "--count", "6", "--seed", "9"])
        assert out1.encode() == out2.encode()

    def test_seed_changes_output(self, capsys):
        _, out1 = run(capsys, ["random", "--n", "4", "--count", "6", "--seed", "9"])
        _, out2 = run(capsys, ["random", "--n", "4", "--count", "6", "--seed", "10"])
        assert out1 != out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.json"
        rc, out = run(capsys, ["random", "--n", "4", "--count", "4", "--seed", "1",
                               "--out", str(target)])
        assert rc == EXIT_OK and out == ""
        assert json.loads(target.read_text())["command"] == "random"

    # integers are ASCII digits only: no sign, "_", p/q or non-ASCII digit
    @pytest.mark.parametrize("argv", [
        ["random", "--n", "0"], ["random", "--n", "-1"], ["random", "--count", "-3"],
        ["random", "--n", "x"], ["random", "--n", "\u0663"], ["random", "--count", "1_0"],
        ["random", "--count", "+1"], ["random", "--n", "4/2"], ["random", "--seed", "-5"],
        ["random", "--seed", "+5"], ["gallery", "halfopen", "--cutoff", "1_6"],
        ["gallery", "halfopen", "--cutoff", "-8"], ["gallery", "halfopen", "--cutoff", "16/2"]],
        ids=["n-0", "n-negative", "count-negative", "n-not-an-int", "n-arabic-indic",
             "count-underscore", "count-plus", "n-fraction", "seed-negative", "seed-plus",
             "cutoff-underscore", "cutoff-negative", "cutoff-fraction"])
    def test_bad_size_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_zero_count_is_an_empty_sweep(self, capsys):
        rc, out = run(capsys, ["random", "--n", "3", "--count", "0"])
        assert rc == EXIT_OK
        assert json.loads(out)["instances_audited"] == 0

    def test_worker_pool_matches_serial(self, capsys, tmp_path, monkeypatch):
        # 20 instances make two chunks, so two workers both start
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        run(capsys, ["random", "--n", "4", "--count", "20", "--seed", "3",
                     "--out", str(serial)])
        monkeypatch.setenv("QML_WORKERS", "2")
        run(capsys, ["random", "--n", "4", "--count", "20", "--seed", "3",
                     "--out", str(pooled)])
        assert serial.read_bytes() == pooled.read_bytes()


class TestReport:
    def test_merge_to_markdown(self, capsys, tmp_path, discrete_file):
        audit_json = tmp_path / "audit.json"
        rc, _ = run(capsys, ["audit", discrete_file, "--out", str(audit_json)])
        assert rc == EXIT_OK
        sweep_json = tmp_path / "sweep.json"
        run(capsys, ["random", "--n", "4", "--count", "4", "--seed", "1",
                     "--out", str(sweep_json)])
        rc, out = run(capsys, ["report", str(audit_json), str(sweep_json)])
        assert rc == EXIT_OK
        assert "# audit" in out and "# random sweep" in out

    def test_bad_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        rc, _ = run(capsys, ["report", str(bad)])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("data", [
        [1, 2],
        "random",
        {"command": "gallery"},
        {"command": "gallery", "report": {"fixture": "halfopen", "cutoff": 4, "facts": [5]}},
        {"command": "random", "config": {}},
        {"command": "random", "config": {"n": 4, "count": 1, "seed": 0}, "summary": [],
         "searches": {}, "content_hash": "0"},
        {"command": "audit", "input": "x.json", "report": {"entries": [{}]}},
        {"command": "check", "input": "x.json", "kind": "finite"},
    ], ids=["list", "string", "gallery-no-report", "gallery-fact-not-an-object",
            "random-empty-config", "random-summary-a-list", "audit-empty-entry",
            "check-no-validation"])
    def test_malformed_report_is_one_line_parse_error(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["report", str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_command_is_echoed(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"command": ["not", "a", "name"], "x": 1}))
        rc, out = run(capsys, ["report", str(other)])
        assert rc == EXIT_OK
        assert out.startswith(f"# {other}") and '"x": 1' in out


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is
    asked for and maps in this process, so no worker is started."""
    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestWorkers:
    @pytest.mark.parametrize("workers, count, size", [
        (MAX_WORKERS, 16, None), (MAX_WORKERS, 40, 3), (2, 128, 2), (4, 17, 2),
        (3, 0, None), (1, 64, None)])
    def test_pool_size_is_capped_by_the_chunk_count(self, capsys, monkeypatch,
                                                    workers, count, size):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setenv("QML_WORKERS", str(workers))
        rc, _ = run(capsys, ["random", "--n", "2", "--count", str(count)])
        assert rc == EXIT_OK
        assert RecordingPool.sizes == ([] if size is None else [size])

    def test_pool_size_above_the_ceiling_is_one_line_parse_error(
            self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setenv("QML_WORKERS", str(MAX_WORKERS + 1))
        rc = main(["random", "--n", "2", "--count", "16"])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "QML_WORKERS" in captured.err and str(MAX_WORKERS) in captured.err
        assert RecordingPool.sizes == []

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", "", "+1", "1_0", "2/1",
                                       "\u0661"])
    def test_bad_pool_size_is_one_line_parse_error(self, capsys, monkeypatch,
                                                   discrete_file, value):
        monkeypatch.setenv("QML_WORKERS", value)
        rc = main(["check", discrete_file])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "QML_WORKERS" in captured.err


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [2, 3]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
