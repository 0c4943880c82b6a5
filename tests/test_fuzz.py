"""Hypothesis fuzz of the CLI loaders: any JSON file given to ``qml
check``, ``qml audit --second-distance`` or ``qml report`` ends in an exit
code of 0, 1, 2 or 3, and never in an exception escaping ``main``.  An
exit 2 prints exactly one stderr line.

Every integer drawn here stays below 60.  A family file's ``cutoff`` sizes
the work of ``qml check`` (the vector rule takes seconds near the
``family.MAX_CUTOFF`` ceiling, above which it exits 3), so larger values
would turn the fuzz into a timing test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qmlib.cli import EXIT_PARSE, main
from qmlib.family import RULES

SMALL_INTS = st.integers(min_value=-3, max_value=59)
scalars = (st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=6)
           | st.sampled_from(["inf", "1/0", "0/0", "1/3", "-1", "0.5", "0", "1"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)

LABELS = st.sampled_from([["a", "b"], ["a"], ["a", "b", "c"], [], ["a", "a"], ["b", "a"]])
ENTRIES = st.sampled_from(["0", "1", "2", "1/2", "inf", 0, 1, 3]) | scalars


@st.composite
def finite_files(draw):
    """Mostly well-shaped space files over small label sets, so that valid
    spaces and spaces failing one check are both common."""
    labels = draw(LABELS | st.lists(scalars, max_size=3))
    n = draw(st.integers(min_value=0, max_value=3))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [["0" if i == j else entry for j, entry in enumerate(row)]
                for i, row in enumerate(rows)]
    return {"points": labels, "matrix": draw(st.just(rows) | json_values)}


@st.composite
def family_files(draw):
    params = draw(st.dictionaries(
        st.sampled_from(["values", "extras", "prefix", "coordinate_cutoff", "colour"]),
        st.sampled_from(["natural", "one_minus_unit", "f", 1, 5]) | json_values,
        max_size=3))
    out = {"rule": draw(st.sampled_from(RULES + ("nope",)) | json_values),
           "cutoff": draw(SMALL_INTS | json_values)}
    if draw(st.booleans()):
        out["params"] = params
    return out


space_files = finite_files() | family_files() | json_values

COMMANDS = ("check", "audit", "random", "gallery")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "space.json").write_text(json.dumps(
        {"points": ["a", "b"], "matrix": [["0", "1"], ["1/2", "0"]]}))
    return path


def _run(argv):
    """main's exit code; any exception escaping main fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    assert rc in (0, 1, 2, 3)
    if rc == EXIT_PARSE:
        assert len(err.getvalue().splitlines()) == 1
    return rc


@pytest.fixture(scope="module")
def reports(workdir):
    """One real report of each kind, the seeds of the damaged reports."""
    space = workdir / "space.json"
    out = []
    for argv in (["check", space], ["audit", space],
                 ["random", "--n", "3", "--count", "2", "--seed", "1"],
                 ["gallery", "halfopen", "--cutoff", "6", "--json"]):
        _run(argv + ["--out", workdir / "report.json"])
        out.append(json.loads((workdir / "report.json").read_text()))
    assert [r["command"] for r in out] == list(COMMANDS)
    return out


@st.composite
def damaged_reports(draw, reports):
    """A real report with one nested value replaced or deleted."""
    data = json.loads(json.dumps(draw(st.sampled_from(reports))))
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return data
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return data


FUZZ = settings(max_examples=150)


@FUZZ
@given(data=space_files)
def test_check_never_escapes(workdir, data):
    (workdir / "fuzz.json").write_text(json.dumps(data))
    _run(["check", workdir / "fuzz.json"])


@FUZZ
@given(data=space_files)
def test_audit_second_distance_never_escapes(workdir, data):
    (workdir / "fuzz.json").write_text(json.dumps(data))
    _run(["audit", workdir / "space.json", "--second-distance", workdir / "fuzz.json"])


@FUZZ
@given(data=st.data())
def test_report_never_escapes(workdir, reports, data):
    doc = data.draw(damaged_reports(reports)
                    | st.fixed_dictionaries({"command": st.sampled_from(COMMANDS)},
                                            optional={"report": json_values,
                                                      "config": json_values,
                                                      "summary": json_values})
                    | json_values)
    (workdir / "fuzz.json").write_text(json.dumps(doc))
    _run(["report", workdir / "fuzz.json"])
