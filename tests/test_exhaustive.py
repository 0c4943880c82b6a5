"""Every small distance, exhaustively: the order rules against their oracles.

The 3-point distances with a zero diagonal and entries in {0, 1, 2, inf}
are few enough to list in full.  On each, ``suprema`` of every nonempty
subset, ``sups_signature`` and the walk count of ``check_ed_complete``
equal their definitional forms in ``tests/oracles.py``, and the join is
a ``ProvenDistance`` whose validation is ``join_validation_oracle``'s.
On one space per relabelling class, ``link_directed_sequence`` and
``check_hole_characterizations`` report no violation for every set Y and
every cycle, the cycle taken as a set: both audits read a cycle only
through the points it visits.

The 4-point distances with a zero diagonal and entries in {0, 1, inf}
are built by extending each 3-point one by a row and a column, and kept
as one canonical form per relabelling class.  On each class the audit
finds no failure, and ``derived_functions``, the walk count,
``sup_upgrade_counterexample``, ``validation`` and ``suprema`` equal
their oracles.

Every 3-point matrix over {0, 1, inf} has a min-plus closure that is a
``ProvenDistance`` validated as ``_validate`` validates the same matrix
as a plain space.
"""

import itertools
from functools import lru_cache
from operator import itemgetter

import pytest

from qmlib.derived import derived_functions
from qmlib.extreal import INF, ONE, ZERO
from qmlib.nets import classify, epseq
from qmlib.order import check_ed_complete, link_directed_sequence, suprema, sups_signature
from qmlib.space import (FiniteSpace, ProvenDistance, _validate, derive, minplus_closure,
                         space_from_rows)
from qmlib.theorems import AuditContext, audit, sup_upgrade_counterexample
from qmlib.topology import check_hole_characterizations

from tests.oracles import (derived_functions_oracle, directed_subsets_count,
                           join_validation_oracle, sup_upgrade_counterexample_oracle,
                           suprema_oracle, sups_signature_oracle, validate_oracle)

N = 3
ENTRIES = ("0", "1", "2", "inf")
OFF_DIAGONAL = [(i, j) for i in range(N) for j in range(N) if i != j]
SUBSETS = [list(c) for k in range(1, N + 1) for c in itertools.combinations(range(N), k)]
LABELS = [f"p{i}" for i in range(N)]


def _space(entries):
    rows = [["0"] * N for _ in range(N)]
    for (i, j), v in zip(OFF_DIAGONAL, entries):
        rows[i][j] = v
    return space_from_rows(LABELS, rows)


@lru_cache(maxsize=None)
def distances():
    """Every distance of the family, as its off-diagonal entries, then the
    least of each relabelling class."""
    found = [e for e in itertools.product(ENTRIES, repeat=len(OFF_DIAGONAL))
             if validate_oracle(_space(e)).is_distance]
    rank = {v: k for k, v in enumerate(ENTRIES)}

    def relabelled(entries, perm):
        cell = dict(zip(OFF_DIAGONAL, entries))
        return tuple(cell[perm[i], perm[j]] for i, j in OFF_DIAGONAL)

    classes = {min((relabelled(e, p) for p in itertools.permutations(range(N))),
                   key=lambda t: [rank[v] for v in t]) for e in found}
    return found, sorted(classes)


def test_the_family_has_861_distances_in_171_classes():
    found, classes = distances()
    assert (len(found), len(classes)) == (861, 171)


def test_suprema_signature_and_walk_count_match_the_oracles():
    for entries in distances()[0]:
        sp = _space(entries)
        assert sp.validation.is_distance
        for pts in SUBSETS:
            assert suprema(sp, pts) == suprema_oracle(sp, pts), (entries, pts)
        assert sups_signature(sp) == sups_signature_oracle(sp), entries
        assert check_ed_complete(sp).subsets_checked == directed_subsets_count(sp), entries


@pytest.mark.parametrize("cycle", SUBSETS, ids=str)
def test_the_limit_audits_hold_for_every_set_and_cycle(cycle):
    for entries in distances()[1]:
        sp = _space(entries)
        hole_seq = epseq([], cycle)
        assert classify(sp, hole_seq).reflexive   # the diagonal is zero
        assert check_hole_characterizations(sp, hole_seq).ok, (entries, cycle)
        for pts in SUBSETS:
            assert link_directed_sequence(sp, pts, epseq(pts, cycle)).ok, (entries, pts, cycle)


def test_the_join_of_each_distance_is_proven_and_validated_as_the_oracle():
    for entries in distances()[0]:
        sp = _space(entries)
        joined = derive(sp, "join")
        assert type(joined) is ProvenDistance, entries
        assert joined.validation == join_validation_oracle(sp), entries


# {0, 1, inf} coded so that a sum of two codes orders as the sum of the
# values does against every code: 1 + 1 = 2 lies between 1 and inf
SMALL = {0: "0", 1: "1", 3: "inf"}


def _extend(dists: list, n: int) -> list:
    """Every n-point distance with a zero diagonal over ``SMALL`` whose
    first n - 1 points form one of ``dists`` (row-major code tuples).

    Only the triples through the new point are checked: the others are
    those of the (n - 1)-point distance."""
    m = n - 1
    vectors = list(itertools.product(SMALL, repeat=m))
    found = []
    for d in dists:
        rows = [d[i * m:(i + 1) * m] for i in range(m)]
        # new -> j against new -> k -> j, and i -> new against i -> k -> new
        outs = [r for r in vectors
                if all(r[j] <= r[k] + rows[k][j] for j in range(m) for k in range(m))]
        ins = [c for c in vectors
               if all(c[i] <= rows[i][k] + c[k] for i in range(m) for k in range(m))]
        for c in ins:
            for r in outs:
                # i -> j against i -> new -> j
                if all(rows[i][j] <= c[i] + r[j] for i in range(m) for j in range(m)):
                    found.append(tuple(x for i in range(m) for x in (*rows[i], c[i]))
                                 + r + (0,))
    return found


@lru_cache(maxsize=None)
def four_point_distances():
    """The 4-point distances over ``SMALL``, then the least of each
    relabelling class."""
    dists = [(0,)]
    for n in (2, 3, 4):
        dists = _extend(dists, n)
    relabel = [itemgetter(*(4 * p[i] + p[j] for i in range(4) for j in range(4)))
               for p in itertools.permutations(range(4))]
    classes = {min(g(d) for g in relabel) for d in dists}
    return dists, sorted(classes)


def _four_point_space(codes):
    return space_from_rows([f"p{i}" for i in range(4)],
                           [[SMALL[codes[4 * i + j]] for j in range(4)] for i in range(4)])


def test_the_four_point_family_has_9040_distances_in_516_classes():
    dists, classes = four_point_distances()
    assert (len(dists), len(set(dists)), len(classes)) == (9040, 9040, 516)


def test_every_four_point_class_matches_the_oracles():
    subsets = [list(c) for k in range(1, 5) for c in itertools.combinations(range(4), k)]
    for codes in four_point_distances()[1]:
        sp = _four_point_space(codes)
        assert sp.validation == validate_oracle(sp), codes
        assert sp.validation.is_hemimetric, codes
        assert audit(sp).failures == (), codes
        assert derived_functions(sp).to_dict() == derived_functions_oracle(sp).to_dict(), codes
        assert check_ed_complete(sp).subsets_checked == directed_subsets_count(sp), codes
        assert (sup_upgrade_counterexample(AuditContext(sp, derive(sp, "join")))
                == sup_upgrade_counterexample_oracle(sp, sp.representatives)), codes
        for pts in subsets:
            assert suprema(sp, pts) == suprema_oracle(sp, pts), (codes, pts)


def test_every_closure_is_proven_and_validated_as_the_walk():
    walked = {}   # closed matrix -> its validation by the triangle walk
    for entries in itertools.product((ZERO, ONE, INF), repeat=N * N):
        closed = minplus_closure([entries[i * N:(i + 1) * N] for i in range(N)])
        assert type(closed) is ProvenDistance, entries
        want = walked.get(closed.matrix)
        if want is None:
            want = walked[closed.matrix] = _validate(FiniteSpace(closed.labels, closed.matrix))
        assert closed.validation == want, entries
    assert len(walked) == 5287
