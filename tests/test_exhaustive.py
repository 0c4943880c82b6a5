"""Every small distance, exhaustively: the order rules against their oracles.

The 3-point distances with a zero diagonal and entries in {0, 1, 2, inf}
are few enough to list in full.  On each, ``suprema`` of every nonempty
subset, ``sups_signature`` and the walk count of ``check_ed_complete``
equal their definitional forms in ``tests/oracles.py``.  On one space
per relabelling class, ``link_directed_sequence`` and
``check_hole_characterizations`` report no violation for every set Y and
every cycle, the cycle taken as a set: both audits read a cycle only
through the points it visits.
"""

import itertools
from functools import lru_cache

import pytest

from qmlib.nets import classify, epseq
from qmlib.order import check_ed_complete, link_directed_sequence, suprema, sups_signature
from qmlib.space import space_from_rows
from qmlib.topology import check_hole_characterizations

from tests.oracles import (directed_subsets_count, suprema_oracle, sups_signature_oracle,
                           validate_oracle)

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
