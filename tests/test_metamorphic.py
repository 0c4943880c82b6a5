"""Relations between inputs that pin the verdicts without an oracle.

The differential tests compare each fast path with an oracle that often
shares its conventions (label order, walk order, class representatives).
These tests compare a space with a transformed copy of itself instead:

* Scaling: every finite entry times an integer c >= 1, built as
  ``ExtReal(num * c, den)``.  Entries keep their order, so the rank
  table ``FiniteSpace.scaled`` keeps its rows and its ``back`` becomes c
  times itself; the derived step functions scale on both axes.
* Relabelling: the points permuted.  The rank rows are permuted with
  them, and ``back`` is unchanged.

Under both, the verdict fields of ``qml check`` (validation flags, the
violation count, completeness and its clique count) and of ``qml audit``
(per statement: hypotheses, whether they are met, vacuity and the
conclusion) are unchanged.  The matrices are ``any_matrix()``'s, so
non-distances, ties, infinities and nonzero diagonals are included; the
audit runs on their min-plus closures, which are distances.
"""

from hypothesis import given, settings, strategies as st

from qmlib.derived import derived_functions
from qmlib.extreal import ExtReal
from qmlib.space import FiniteSpace, minplus_closure
from qmlib.theorems import audit
from qmlib.topology import is_complete

from tests.test_instances import any_matrix

EXAMPLES = settings(max_examples=150, deadline=None)
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


def _check_verdicts(space: FiniteSpace) -> tuple:
    v = space.validation
    verdicts = (v.is_distance, v.is_hemimetric, v.is_symmetric, v.is_metric,
                len(v.violations))
    if v.is_distance:
        report = is_complete(space)
        verdicts += (report.complete, report.cliques_checked)
    return verdicts


def _audit_verdicts(space: FiniteSpace) -> tuple:
    report = audit(space)
    return report.ok, tuple((e.statement, tuple(sorted(e.hypotheses.items())),
                             e.hypotheses_met, e.vacuous, e.conclusion_verified)
                            for e in report.entries)


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
