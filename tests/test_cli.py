"""CLI commands, exit codes, file formats, and report determinism."""

import collections
import hashlib
import itertools
import json
import os
import select
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qmlib import cli, order, theorems
from qmlib.cli import (EXIT_FAILURE, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, MAX_WORKERS,
                       canonical_json, main)
from qmlib.family import MAX_CUTOFF, RULES
from qmlib.gallery import GALLERY_NAMES
from qmlib.nets import MAX_CLASS_SIZE
from qmlib.order import MAX_DIRECTED_CLASSES
from qmlib.theorems import audit
from tests.bad_inputs import (BAD_ARGUMENTS, BAD_FILES, BAD_REPORTS, BAD_SIZES, BAD_SPACES,
                              BAD_WORKERS)
from tests.oracles import instance_stream

DATA = Path(__file__).parent / "data"
# the per-test deadline of tests/conftest.py, about five times the slowest
# test here (about 1 s), so that a pool child blocked on its pipe fails
# its test sooner
DEADLINE_S = 5


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

    @pytest.mark.parametrize("data", list(BAD_SPACES.values()), ids=list(BAD_SPACES))
    def test_bad_input_is_one_line_parse_error(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["check", str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err) < 200
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case, key", [("family-with-a-matrix", "'points'"),
                                           ("space-with-an-extra-key", "'extra'")])
    def test_unknown_top_level_key_is_named(self, capsys, tmp_path, case, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_SPACES[case]))
        assert main(["check", str(bad)]) == EXIT_PARSE
        assert f"error: unknown key {key} in a " in capsys.readouterr().err

    # true and 1.0 hash equal to 1, so a memoised 1 must not let them through
    @pytest.mark.parametrize("command", ["check", "audit"])
    @pytest.mark.parametrize("entry, kind", [("true", "bool"), ("1.0", "float")])
    def test_bool_or_float_after_an_equal_int_names_its_entry(self, capsys, tmp_path,
                                                              command, entry, kind):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": ["a", "b"], "matrix": [[0, 1], [%s, 0]]}' % entry)
        rc = main([command, str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == (f"error: bad matrix entry at row 1, column 0: {kind} entries "
                                "are not distances; write an integer or p/q text\n")

    # a JSON number has one reading: an integer is its decimal text, and a
    # float (an exponent, a decimal point, Infinity) is never an entry
    @pytest.mark.parametrize("command", ["check", "audit"])
    @pytest.mark.parametrize("entry", ["7" * 4000, "1e400", "Infinity", "0.5", "7" * 5000],
                             ids=["integer-of-4000-digits", "float-overflow", "infinity",
                                  "decimal-point", "integer-past-the-json-limit"])
    def test_json_number_is_read_as_its_text(self, capsys, tmp_path, command, entry):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": ["a", "b"], "matrix": [[0, %s], [1, 0]]}' % entry)
        rc = main([command, str(bad)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err) < 200 + len(str(bad))

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", None,
                                         b'{"points": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
                             ids=["not-utf8", "a-directory", "nested-too-deeply"])
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

    def test_chain_successor_past_the_window(self, capsys, tmp_path):
        # 13/14 lies between x_5 = 5/6 and 1: its successor is x_14 = 14/15
        path = tmp_path / "chain_far.json"
        path.write_text(json.dumps({"rule": "truncated-difference", "cutoff": 4,
                                    "params": {"extras": {"e": "13/14"}}}))
        rc, out = run(capsys, ["check", str(path)])
        assert rc == EXIT_OK
        comp = json.loads(out)["completeness"]
        assert comp["complete"] is False
        assert comp["rejections"][0] == {"candidate": "e", "center": "14/15", "limit": "0",
                                         "required": "1/210", "topology": "lower_hole"}

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

        def no_walk(space, points):
            walks.append(points)
            return order.EdCompletenessReport(True)

        monkeypatch.setattr(order, "_walk_directed", no_walk)
        path = self._chain(tmp_path, MAX_DIRECTED_CLASSES + extra)
        t0 = time.monotonic()
        rc = main(["audit", path])
        captured = capsys.readouterr()
        assert rc == code
        if code == EXIT_OK:
            assert [len(points) for points in walks] == [MAX_DIRECTED_CLASSES]
        else:
            assert time.monotonic() - t0 < 1.0
            assert walks == [] and captured.out == ""
            assert len(captured.err.splitlines()) == 1


class TestBadFiles:
    @pytest.mark.parametrize("content", list(BAD_FILES.values()), ids=list(BAD_FILES))
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

    @pytest.mark.parametrize("argv", list(BAD_ARGUMENTS.values()), ids=list(BAD_ARGUMENTS))
    def test_bad_argument_is_one_line_parse_error(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(DATA.parent)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


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

    @pytest.mark.parametrize("points, difference", [
        (["b", "a"], "at position 0 the first has 'a' and the second has 'b'"),
        (["a", "b", "c"], "at position 2 the first has no point and the second has 'c'")],
        ids=["another-order", "one-more-point"])
    def test_second_distance_on_other_points_names_the_first_difference(
            self, capsys, tmp_path, discrete_file, points, difference):
        second = tmp_path / "second.json"
        second.write_text(json.dumps({"points": points,
                                      "matrix": [["0"] * len(points) for _ in points]}))
        rc = main(["audit", discrete_file, "--second-distance", str(second)])
        captured = capsys.readouterr()
        assert rc == EXIT_PRECONDITION and captured.out == ""
        assert captured.err == ("precondition failed: second distance must list the same "
                                f"points in the same order; {difference}\n")


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
    @pytest.mark.parametrize("argv", list(BAD_SIZES.values()), ids=list(BAD_SIZES))
    def test_bad_size_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and len(captured.err) < 200
        assert "Traceback" not in captured.err

    def test_theorem_order_and_repeats_leave_the_content_hash(self, capsys):
        # config.theorems lists the statements that ran, in table order, once each
        sweep = ["random", "--n", "5", "--count", "8", "--seed", "3", "--theorems"]
        runs = [run(capsys, sweep + names) for names in
                (["sup_upgrade", "cauchy_to_directed"], ["cauchy_to_directed", "sup_upgrade"],
                 ["sup_upgrade", "cauchy_to_directed", "sup_upgrade"])]
        assert runs[0][0] == EXIT_OK and runs[1] == runs[0] and runs[2] == runs[0]
        theorems = json.loads(runs[0][1])["config"]["theorems"]
        assert theorems == [s for s in cli.STATEMENTS
                            if s in ("sup_upgrade", "cauchy_to_directed")]
        assert len(theorems) == 2

    def test_zero_count_is_an_empty_sweep(self, capsys):
        rc, out = run(capsys, ["random", "--n", "3", "--count", "0"])
        assert rc == EXIT_OK
        assert json.loads(out)["instances_audited"] == 0

    # 17 instances make two chunks, 33 and 40 three with a short last one,
    # and 100 seven, so some workers get more chunks than others
    @pytest.mark.parametrize("workers, count", list(itertools.product(
        ("1", "2", "3", "5"), (0, 17, 33, 40, 100))))
    def test_worker_pool_matches_serial(self, capsys, monkeypatch, workers, count):
        argv = ["random", "--n", "4", "--count", str(count), "--seed", "3"]
        serial = run(capsys, argv)
        monkeypatch.setenv("QML_WORKERS", workers)
        assert run(capsys, argv) == serial
        assert_no_child_left()

    def test_a_failing_sweep_renders_each_failing_entry(self, capsys, monkeypatch):
        # sup_upgrade decided False on every instance that meets its
        # hypotheses; forked children inherit the patched table
        hypotheses, _ = theorems.STATEMENT_TABLE["sup_upgrade"]
        monkeypatch.setitem(theorems.STATEMENT_TABLE, "sup_upgrade", (
            hypotheses, lambda ctx: (False, {"Y": [ctx.space.labels[0]]})))
        argv = ["random", "--n", "4", "--count", "40", "--seed", "3"]
        serial = run(capsys, argv)
        monkeypatch.setenv("QML_WORKERS", "3")
        assert run(capsys, argv) == serial
        assert_no_child_left()
        rc, out = serial
        assert rc == EXIT_FAILURE
        data = json.loads(out)
        want = []
        for i, kind, space, second in instance_stream(3, 4, 40):
            for e in audit(space, second=second).entries:
                if e.failed:
                    want.append({"instance": i, "kind": kind, "entry": e.to_dict()})
        assert data["failures"] == want
        assert [f["entry"]["statement"] for f in want] == ["sup_upgrade"] * 10
        assert data["summary"]["sup_upgrade"] == {
            "instances": 40, "hypotheses_met": 10, "verified": 0, "vacuous": 30,
            "failures": 10}
        assert all(s["failures"] == 0 for name, s in data["summary"].items()
                   if name != "sup_upgrade")

    def test_a_sweep_without_failures_renders_no_entry(self, capsys, monkeypatch):
        calls = [0]
        real = theorems.AuditEntry.to_dict

        def counting(entry):
            calls[0] += 1
            return real(entry)

        monkeypatch.setattr(theorems.AuditEntry, "to_dict", counting)
        rc, _ = run(capsys, ["random", "--n", "6", "--count", "16"])
        assert rc == EXIT_OK
        assert calls[0] == 0


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

    @pytest.mark.parametrize("data", list(BAD_REPORTS.values()), ids=list(BAD_REPORTS))
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


# name -> (argv run in tests/data, sha256 of its --format markdown bytes,
# recorded when each command still wrote its own output)
MARKDOWN_RUNS = {
    "check-finite": (["check", "plain_n10.json"],
                     "3bbb59408f8b0d9756b4035e070cc3a0482bc7fa7716ae13285ef1b353673616"),
    "check-family": (["check", "fm_c256.json"],
                     "556ca708a487948d20de8a53d2a627e3e7d7691b6413cbd8d9cc994a599e9ec5"),
    "audit": (["audit", "plain_n10.json"],
              "49a899acbd04d3b2b3cca30b13659172086a0c7abbb8eebccbf3a3602473ee93"),
    "audit-second": (["audit", "pair_n8_d.json", "--second-distance", "pair_n8_e.json"],
                     "4218dacda6476c4359ab4221c1ff14f8798a7ce7f615cff46fc0aebd3698e7fd"),
    "gallery": (["gallery", "halfopen", "--cutoff", "16"],
                "b3485345e4e6486660ea804ecd079d955602132610918e4d643972b42895eb56"),
    "random": (["random", "--n", "4", "--count", "8", "--seed", "5"],
               "906fd3780acde93c852d0f4d1c325d083943d79ea0b8979903c1172320f95be3"),
}


class TestEmit:
    """``main`` renders, writes and maps the exit code of every command."""

    @pytest.mark.parametrize("argv, digest", list(MARKDOWN_RUNS.values()),
                             ids=list(MARKDOWN_RUNS))
    def test_markdown_is_the_report_of_the_runs_json(self, capsys, monkeypatch, tmp_path,
                                                     argv, digest):
        monkeypatch.chdir(DATA)
        markdown_argv = argv + ["--format", "markdown"]
        rc, markdown = run(capsys, markdown_argv)
        # the payload main rendered, from the command's own load-and-decide step
        args = cli._parser().parse_args(markdown_argv)
        args.workers = 1
        payload, ok = args.run(args)
        assert rc == (EXIT_OK if ok else EXIT_FAILURE)
        assert run(capsys, argv) == (rc, canonical_json(payload))
        if argv[0] == "random":
            assert f"- content hash: {payload['content_hash']}\n" in markdown
        (tmp_path / "run.json").write_text(canonical_json(payload))
        assert run(capsys, ["report", str(tmp_path / "run.json")]) == (EXIT_OK, markdown)
        assert hashlib.sha256(markdown.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [["--json", "--format", "markdown"],
                                       ["--format", "markdown", "--json"]],
                             ids=["json-first", "format-first"])
    def test_gallery_json_flag_wins_over_markdown(self, capsys, flags):
        argv = ["gallery", "halfopen", "--cutoff", "10"]
        assert run(capsys, argv + flags) == run(capsys, argv)

    @pytest.mark.parametrize("command", ["check", "audit", "gallery", "random", "report"])
    def test_out_into_a_missing_directory_is_one_line_parse_error(self, capsys, tmp_path,
                                                                 discrete_file, command):
        argv = {"check": ["check", discrete_file], "audit": ["audit", discrete_file],
                "gallery": ["gallery", "halfopen", "--cutoff", "4"],
                "random": ["random", "--n", "3", "--count", "2"],
                "report": ["report", discrete_file]}[command]
        out = tmp_path / "missing" / "out.json"
        rc = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and str(out) in captured.err
        assert not out.parent.exists()

    def test_an_unopenable_out_exits_before_any_work(self, capsys, monkeypatch, tmp_path):
        def no_instances(*args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(cli, "instance_seeds", no_instances)
        monkeypatch.setattr(cli, "instance", no_instances)
        out = tmp_path / "missing" / "x.json"
        rc = main(["random", "--count", "300", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE and captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_an_unopenable_out_wins_over_a_bad_input(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        rc = main(["check", str(tmp_path / "absent.json"), "--out", str(out)])
        assert rc == EXIT_PARSE and str(out) in capsys.readouterr().err

    def test_report_reads_its_out_file_before_replacing_it(self, capsys, tmp_path,
                                                          discrete_file):
        target = tmp_path / "audit.json"
        run(capsys, ["audit", discrete_file, "--out", str(target)])
        rc, want = run(capsys, ["report", str(target)])
        assert rc == EXIT_OK
        assert run(capsys, ["report", str(target), "--out", str(target)]) == (EXIT_OK, "")
        assert target.read_text() == want and want.startswith("# audit")

    @pytest.mark.parametrize("argv, code", [
        (["check", "absent.json"], EXIT_PARSE),
        (["audit", "fm.json"], EXIT_PRECONDITION),
        (["gallery", "halfopen", "--cutoff", str(MAX_CUTOFF + 1)], EXIT_PRECONDITION),
    ], ids=["parse", "precondition", "gallery-ceiling"])
    def test_a_failed_run_leaves_an_existing_out_file_as_it_was(
            self, capsys, monkeypatch, tmp_path, family_file, argv, code):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "kept.json"
        target.write_bytes(b"earlier bytes\n")
        assert main(argv + ["--out", str(target)]) == code
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == b"earlier bytes\n"


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

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        return map(fn, *iterables)


class ToyError(Exception):
    pass


def toy_square(i, fail):
    """i squared, or what ``fail`` names for i: an exception, an unpicklable
    exception, an interrupt, an exit without a result, or a result larger
    than a pipe holds."""
    action = fail.get(i)
    if action == "big":
        return "x" * 200_000
    if action == "interrupt":
        raise KeyboardInterrupt
    if action == "raise":
        raise ToyError(i)
    if action == "unpicklable":
        raise ToyError(lambda: i)
    if action == "exit":
        os._exit(3)
    return i * i


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkPool:
    """``cli.ProcessPoolExecutor(2)`` on 48 tasks in chunks of 16: the child
    runs chunk 1 (tasks 16..31), this process chunks 0 and 2."""

    @staticmethod
    def squares(fail, workers=2, count=48):
        with cli.ProcessPoolExecutor(workers) as pool:
            return list(pool.map(toy_square, range(count), itertools.repeat(fail),
                                 chunksize=16))

    @pytest.mark.parametrize("workers, count", [(2, 48), (3, 33), (5, 100), (4, 17)])
    def test_results_in_task_order(self, workers, count):
        assert self.squares({}, workers, count) == [i * i for i in range(count)]
        assert_no_child_left()

    def test_the_lowest_chunk_failure_is_raised(self):
        # the child's failure at 20 is collected after this process's at 40
        with pytest.raises(ToyError) as err:
            self.squares({20: "raise", 40: "raise"})
        assert err.value.args == (20,)
        assert_no_child_left()

    @pytest.mark.parametrize("action, status", [("exit", 3), ("unpicklable", 1)])
    def test_a_child_without_a_readable_result_is_one_runtime_error(self, action, status):
        with pytest.raises(RuntimeError, match=f"status {status} and no readable result"):
            self.squares({20: action})
        assert_no_child_left()

    def test_an_interrupt_here_ends_a_child_blocked_on_its_pipe(self):
        # the child's share outgrows the pipe, and this process stops
        # reading before it starts
        with pytest.raises(KeyboardInterrupt):
            self.squares({0: "interrupt", 20: "big"})
        assert_no_child_left()

    def test_a_failure_below_a_lost_child_is_raised(self):
        # a lost child's share starts at chunk 1, after the failure at 5
        with pytest.raises(ToyError) as err:
            self.squares({5: "raise", 20: "exit"})
        assert err.value.args == (5,)
        assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="tests/conftest.py asks Linux's prctl for it")
    def test_a_forked_child_ends_with_the_process_that_forked_it(self):
        # a child forks a sleeper that holds a pipe's write end, then
        # exits: the sleeper ends with it, so the pipe reads its end at
        # once and no orphan keeps the run's output open
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                if os.fork() == 0:
                    time.sleep(10)
            finally:
                os._exit(0)
        os.close(w)
        os.waitpid(pid, 0)
        try:
            ready, _, _ = select.select([r], [], [], 5)
            assert ready and os.read(r, 1) == b""
        finally:
            os.close(r)


class TestWorkers:
    # size: the processes that run the sweep, min(workers, chunks), or None
    # where this process runs it alone; every other one is forked
    @pytest.mark.parametrize("workers, count, size", [
        (MAX_WORKERS, 16, None), (MAX_WORKERS, 40, 3), (2, 128, 2), (4, 17, 2),
        (3, 0, None), (1, 64, None)])
    def test_pool_size_is_capped_by_the_chunk_count(self, capsys, monkeypatch,
                                                    workers, count, size):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setenv("QML_WORKERS", str(workers))
        rc, _ = run(capsys, ["random", "--n", "2", "--count", str(count)])
        assert rc == EXIT_OK
        assert len(forks) == (size or 1) - 1
        assert_no_child_left()

    def test_without_fork_a_pool_gives_the_serial_bytes(self, capsys, monkeypatch):
        argv = ["random", "--n", "4", "--count", "40", "--seed", "3"]
        serial = run(capsys, argv)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setenv("QML_WORKERS", "3")
        assert run(capsys, argv) == serial

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

    def test_worker_error_is_the_serial_line_and_the_pool_is_shut_down(
            self, capsys, monkeypatch):
        # at n = 24 every chunk has an instance past a ceiling, so the
        # child and this process both fail, and instance 0's error is raised
        argv = ["random", "--n", "24", "--count", "40"]
        assert main(argv) == EXIT_PRECONDITION
        serial = capsys.readouterr()
        monkeypatch.setenv("QML_WORKERS", "2")
        rc = main(argv)
        pooled = capsys.readouterr()
        assert rc == EXIT_PRECONDITION
        assert pooled.out == serial.out == ""
        assert len(pooled.err.splitlines()) == 1
        assert pooled.err == serial.err
        assert_no_child_left()

    @pytest.mark.parametrize("value", list(BAD_WORKERS.values()), ids=list(BAD_WORKERS))
    def test_bad_pool_size_is_one_line_parse_error(self, capsys, monkeypatch,
                                                   discrete_file, value):
        monkeypatch.setenv("QML_WORKERS", value)
        rc = main(["check", discrete_file])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and len(captured.err) < 200
        assert "QML_WORKERS" in captured.err


class TestParserReuse:
    """One process builds its parser once; every call must still answer as
    a fresh process does."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys, discrete_file):
        argvs = [["audit", discrete_file, "--theorems", "sup_upgrade", "symmetric_companion"],
                 ["random", "--n", "0"],
                 ["audit", discrete_file],
                 ["check", discrete_file],
                 ["random", "--n", "3", "--count", "3", "--seed", "2"]]
        cli._parser.cache_clear()
        in_process = []
        for argv in argvs:
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
            in_process.append((rc, capsys.readouterr().out))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        for argv, (rc, out) in zip(argvs, in_process):
            fresh = subprocess.run([sys.executable, "-m", "qmlib.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (rc, out) == (fresh.returncode, fresh.stdout), argv
        assert cli._parser.cache_info().misses == 1


# JSON text of every kind json.dumps reads: ints past 64 bits, every float,
# control characters, non-ASCII text and lone surrogates
_TEXT = st.text(st.characters(exclude_categories=()) | st.integers(0xD800, 0xDFFF).map(chr))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=True, allow_infinity=True) | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [2, 3]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_fallbacks_match_json_dumps(self):
        Pair = collections.namedtuple("Pair", "a b")

        class Label(str):
            pass
        for obj in ({"pair": Pair(1, [2])}, ["x", Label("y")], {2: "b", 10: ["a"]}):
            assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_a_mixed_key_dict_raises_as_json_dumps_does(self):
        with pytest.raises(TypeError):
            json.dumps({1: "a", "b": 2}, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            canonical_json({1: "a", "b": 2})

    @given(JSON_VALUES)
    def test_matches_json_dumps(self, obj):
        assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_report_on_a_deeply_nested_file_matches_json_dumps(self, tmp_path):
        # two frames per level outrun the recursion limit here, so the
        # emitter falls back to json.dumps (one frame per level)
        nest = 0
        for depth in range(900):
            nest = [nest] if depth % 2 else {"k": nest}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"nest": nest}))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        report = subprocess.run([sys.executable, "-m", "qmlib.cli", "report", str(path)],
                                env=env, capture_output=True, timeout=60)
        dumped = subprocess.run(
            [sys.executable, "-c", "import json, sys; sys.stdout.write(json.dumps("
             "json.load(open(sys.argv[1])), indent=2, sort_keys=True))", str(path)],
            capture_output=True, timeout=60)
        assert report.returncode == 0 and dumped.returncode == 0, report.stderr
        assert report.stdout == b"# %s\n\n```\n%s\n```\n" % (str(path).encode(), dumped.stdout)

    def test_no_command_payload_falls_back_to_json_dumps(self, capsys, monkeypatch):
        data = Path(__file__).parent / "data"
        argvs = [[command, str(path)] for path in sorted(data.glob("*.json"))
                 for command in ("check", "audit")]
        argvs.append(["audit", str(data / "pair_n8_d.json"),
                      "--second-distance", str(data / "pair_n8_e.json")])
        argvs += [["gallery", name, "--cutoff", "16", "--json"] for name in GALLERY_NAMES]
        argvs.append(["random", "--n", "6", "--count", "8"])
        expected = [run(capsys, argv) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("canonical_json fell back to json.dumps")
        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=refuse))
        assert [run(capsys, argv) for argv in argvs] == expected
        assert [rc for rc, _ in expected].count(EXIT_OK) == len(argvs) - 1   # fm_c256 audit: 3
