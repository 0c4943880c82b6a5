"""Relations between inputs that pin the verdicts without an oracle.

The differential tests compare each fast path with an oracle that often
shares its conventions (label order, walk order, class representatives).
These tests compare a space with a transformed copy of itself instead:

* Scaling: every finite entry times an integer c >= 1, built as
  ``ExtReal(num * c, den)``.  Entries keep their order, so the rank
  table ``FiniteSpace.scaled`` keeps its rows and its ``back`` becomes c
  times itself; the derived step functions scale on both axes.
* Relabelling: the points permuted.  The rank rows are permuted with
  them, and ``back`` is unchanged.  A value pair (d, e) is permuted, and
  scaled, together.
* Twin point: a copy of a point x of zero self-distance, with x's row
  and column and distance 0 to and from x.  It joins x's specialization
  class, so the audit verdicts are unchanged and ``cliques_checked``
  grows by exactly the change in ``oracles.zero_cliques_count``.

Under each, the verdict fields of ``qml check`` (validation flags, the
violation count, completeness and its clique count) and of ``qml audit``
(per statement: hypotheses, whether they are met, vacuity and the
conclusion) are unchanged.  The matrices are ``any_matrix()``'s, so
non-distances, ties, infinities and nonzero diagonals are included; the
audit runs on their min-plus closures, which are distances, and the
twin on ``distances()``, the generators' spaces and the closures.  At
the CLI, a permuted copy of each finite ``tests/data`` file (of both
files of the pair) gives the same verdict fields under ``qml check`` and
``qml audit``.
"""

import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmlib.cli import main
from qmlib.derived import derived_functions
from qmlib.extreal import ExtReal
from qmlib.generate import random_value_pair
from qmlib.space import FiniteSpace, minplus_closure
from qmlib.theorems import audit
from qmlib.topology import is_complete

from tests.oracles import zero_cliques_count
from tests.test_instances import MATRIX_FILES, any_matrix, distances, sizes

EXAMPLES = settings(max_examples=150, deadline=None)
# the relations that run three or four audits per example
AUDITS = settings(max_examples=75, deadline=None)
factors = st.integers(min_value=1, max_value=10 ** 6)


def _times(v: ExtReal, c: int) -> ExtReal:
    # infinity's den is 0, and ExtReal(k, 0) is infinity for any k
    return ExtReal(v.num * c, v.den)


def _scale(space: FiniteSpace, c: int) -> FiniteSpace:
    return FiniteSpace(space.labels, tuple(tuple(_times(v, c) for v in row)
                                           for row in space.matrix))


def _relabel(space: FiniteSpace, perm) -> FiniteSpace:
    """Point i of the copy is point perm[i] of ``space``."""
    return FiniteSpace(tuple(space.labels[p] for p in perm),
                       tuple(tuple(space.matrix[p][q] for q in perm) for p in perm))


def _twin(space: FiniteSpace, x: int) -> FiniteSpace:
    """``space`` with a copy of point x appended: x's row and column, and
    d(x, x) = 0 to and from x."""
    m = space.matrix
    rows = tuple(row + (row[x],) for row in m) + (m[x] + (m[x][x],),)
    return FiniteSpace(space.labels + (space.labels[x] + "'",), rows)


def _check_verdicts(space: FiniteSpace) -> tuple:
    v = space.validation
    verdicts = (v.is_distance, v.is_hemimetric, v.is_symmetric, v.is_metric,
                len(v.violations))
    if v.is_distance:
        report = is_complete(space)
        verdicts += (report.complete, report.cliques_checked)
    return verdicts


def _verdict_tuples(report: dict) -> tuple:
    """Whether an audit report (as JSON) is ok, and per entry the
    statement, its hypotheses, whether they are met, vacuity and the
    conclusion."""
    return report["ok"], tuple((e["statement"], tuple(sorted(e["hypotheses"].items())),
                                e["hypotheses_met"], e["vacuous"], e["conclusion_verified"])
                               for e in report["entries"])


def _audit_verdicts(space: FiniteSpace, second: FiniteSpace | None = None) -> tuple:
    return _verdict_tuples(audit(space, second=second).to_dict())


def _scaled_step(f, c: int) -> tuple:
    return (_times(f.at_zero, c), tuple(_times(v, c) for v in f.cuts),
            tuple(_times(v, c) for v in f.values))


@st.composite
def relabelled(draw):
    space = draw(any_matrix())
    return space, draw(st.permutations(range(space.n)))


@EXAMPLES
@given(any_matrix(), factors)
def test_scaling_keeps_the_ranks_and_scales_the_values(space, c):
    rows, back, sentinel = space.scaled
    big = _scale(space, c)
    assert big.scaled == (rows, tuple(_times(v, c) for v in back), sentinel)
    assert _check_verdicts(big) == _check_verdicts(space)
    want, got = derived_functions(space), derived_functions(big)
    assert tuple(got.d_up) == _scaled_step(want.d_up, c)
    assert tuple(got.d_low) == _scaled_step(want.d_low, c)


@EXAMPLES
@given(relabelled())
def test_relabelling_permutes_the_rank_rows(case):
    space, perm = case
    rows, back, sentinel = space.scaled
    moved = _relabel(space, perm)
    want = tuple(tuple(rows[p][q] for q in perm) for p in perm)
    assert moved.scaled == (want, back, sentinel)
    assert _check_verdicts(moved) == _check_verdicts(space)


@EXAMPLES
@given(relabelled(), factors)
def test_audit_verdicts_survive_scaling_and_relabelling(case, c):
    space, perm = case
    closed = minplus_closure(space.matrix)
    want = _audit_verdicts(closed)
    assert _audit_verdicts(_scale(closed, c)) == want
    assert _audit_verdicts(_relabel(closed, perm)) == want


@AUDITS
@given(st.randoms(use_true_random=False), sizes, st.data())
def test_a_value_pair_permuted_and_scaled_together_keeps_its_audit(rng, n, data):
    d, e = random_value_pair(rng, n)
    perm = data.draw(st.permutations(range(n)))
    c = data.draw(factors)
    want = _audit_verdicts(d, e)
    assert _audit_verdicts(_relabel(d, perm), _relabel(e, perm)) == want
    assert _audit_verdicts(_scale(d, c), _scale(e, c)) == want


@AUDITS
@given(distances(), st.data())
def test_a_twin_point_keeps_the_audit_and_adds_its_cliques(space, data):
    core = [i for i in range(space.n) if space.d(i, i).is_zero()]
    assume(core)
    twin = _twin(space, data.draw(st.sampled_from(core)))
    assert twin.validation.is_distance
    assert _audit_verdicts(twin) == _audit_verdicts(space)
    grown = is_complete(twin).cliques_checked - is_complete(space).cliques_checked
    assert grown == zero_cliques_count(twin) - zero_cliques_count(space)


def _cli_verdicts(capsys, files) -> tuple:
    """The exit codes and verdict fields of ``qml check`` on the first
    file and of ``qml audit`` on it (with the second as e, if any)."""
    second = ["--second-distance", str(files[1])] if len(files) > 1 else []
    rc = main(["check", str(files[0])])
    out = json.loads(capsys.readouterr().out)
    v = out["validation"]
    check = (rc, v["is_distance"], v["is_hemimetric"], v["is_symmetric"], v["is_metric"],
             len(v["violations"]), out["completeness"]["complete"],
             out["completeness"]["cliques_checked"])
    rc = main(["audit", str(files[0]), *second])
    return check, (rc, _verdict_tuples(json.loads(capsys.readouterr().out)["report"]))


def _permuted_copy(path: Path, perm, target: Path) -> Path:
    data = json.loads(path.read_text())
    labels, rows = data["points"], data["matrix"]
    target.write_text(json.dumps({"points": [labels[p] for p in perm],
                                  "matrix": [[rows[p][q] for q in perm] for p in perm]}))
    return target


@pytest.mark.parametrize("path", [p for p in MATRIX_FILES if p.name != "pair_n8_e.json"],
                         ids=lambda p: p.name)
def test_a_permuted_data_file_keeps_its_cli_verdicts(capsys, tmp_path, path):
    files = [path, path.with_name("pair_n8_e.json")] if path.name == "pair_n8_d.json" else [path]
    n = len(json.loads(path.read_text())["points"])
    perm = list(range(n))
    Random(n).shuffle(perm)
    moved = [_permuted_copy(p, perm, tmp_path / p.name) for p in files]
    assert _cli_verdicts(capsys, moved) == _cli_verdicts(capsys, files)
