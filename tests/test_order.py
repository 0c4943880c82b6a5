"""Suprema in both senses, directedness, directed completeness, sequence links."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qmlib.generate import random_metric, random_space
from qmlib.nets import EpSeq, PreconditionError, epseq
from qmlib.order import (check_ed_complete, d_sup_mask, is_directed, link_directed_sequence,
                         suprema)
from qmlib.space import SpaceError, derive, minplus_closure, space_from_rows

from tests.oracles import (check_ed_complete_oracle, directed_oracle,
                           link_directed_sequence_oracle)
from tests.test_space import grid_x_one_minus_y

# zero-heavy, so upper bounds, directed sets and Cauchy cycles occur
VALUES = ("0", "0", "0", "1/3", "1/2", "1", "2", "inf")


@st.composite
def spaces_with_sequences(draw):
    """An arbitrary 1-5 point matrix or its min-plus closure (a distance),
    a nonempty point set Y and a sequence whose preperiod enumerates Y and
    whose cycle is drawn mostly from Y."""
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
    sp = space_from_rows([f"p{i}" for i in range(n)],
                         draw(st.lists(row, min_size=n, max_size=n)))
    if draw(st.booleans()):
        sp = minplus_closure(sp.matrix)
    pts = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)))
    point = st.one_of(st.sampled_from(pts), st.integers(min_value=0, max_value=n - 1))
    cycle = draw(st.lists(point, min_size=1, max_size=3))
    return sp, pts, epseq(pts, cycle)


class TestSuprema:
    def test_singleton_reflexive(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        res = suprema(sp, [0])
        assert "a" in res.d_sups

    def test_d_sups_subset_of_leq_sups(self):
        rng = Random(41)
        for _ in range(30):
            sp = random_space(rng, 5)
            for size in (1, 2, 3):
                for pts in itertools.combinations(range(5), size):
                    res = suprema(sp, list(pts))
                    assert res.d_sups <= res.leq_sups

    def test_dominating_member_is_d_sup(self):
        # any finite Y containing y0 with d(y, y0) = 0 for all y has y0 as
        # a metric supremum (triangle-law argument, checked exhaustively)
        rng = Random(42)
        hits = 0
        for _ in range(40):
            sp = random_space(rng, 5)
            for size in (1, 2, 3):
                for pts in itertools.combinations(range(5), size):
                    tops = [y0 for y0 in pts
                            if all(sp.d(y, y0).is_zero() for y in pts)]
                    if not tops:
                        continue
                    hits += 1
                    res = suprema(sp, list(pts))
                    for y0 in tops:
                        assert sp.labels[y0] in res.d_sups
        assert hits > 20

    def test_d_sups_mutually_equivalent(self):
        rng = Random(43)
        for _ in range(30):
            sp = random_space(rng, 5)
            for pts in itertools.combinations(range(5), 2):
                res = suprema(sp, list(pts))
                sups = sorted(res.d_sups)
                for a in sups:
                    for b in sups:
                        i, j = sp.index(a), sp.index(b)
                        assert sp.d(i, j).is_zero() and sp.d(j, i).is_zero()

    def test_empty_rejected(self):
        sp = space_from_rows(["a"], [["0"]])
        with pytest.raises(PreconditionError):
            suprema(sp, [])

    def test_d_sup_mask_of_the_empty_set_raises(self):
        sp = space_from_rows(["a"], [["0"]])
        with pytest.raises(PreconditionError, match="Y must be nonempty"):
            d_sup_mask(sp, [])


class TestDirected:
    def test_singleton(self):
        sp = space_from_rows(["a"], [["0"]])
        assert is_directed(sp, [0])

    def test_metric_pair_not_directed(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        assert not is_directed(sp, [0, 1])

    def test_nonreflexive_singleton_not_directed(self):
        sp = grid_x_one_minus_y()
        assert not is_directed(sp, [sp.index("1/2")])

    def test_matches_exhaustive_oracle(self):
        rng = Random(44)
        for _ in range(30):
            sp = random_space(rng, 5)
            for size in (1, 2, 3, 4):
                for pts in itertools.combinations(range(5), size):
                    assert is_directed(sp, list(pts)) == \
                        directed_oracle(sp, list(pts))

    def test_zero_three_cycle_is_not_directed(self):
        # every pair has a common upper bound inside Y, but no member bounds
        # all three: the pairwise test would call Y directed
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]])
        assert not sp.validation.is_distance
        assert not directed_oracle(sp, [0, 1, 2])
        assert not is_directed(sp, [0, 1, 2])
        assert not is_directed(sp, iter([2, 0, 1, 0]))
        assert is_directed(sp, [0, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n),
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))))
    def test_matches_exhaustive_oracle_on_any_zero_pattern(self, case):
        # arbitrary zero patterns: no triangle law, nonzero diagonals
        zeros, pts = case
        rows = [["0" if z else "1" for z in row] for row in zeros]
        sp = space_from_rows([f"p{i}" for i in range(len(rows))], rows)
        assert is_directed(sp, sorted(pts)) == directed_oracle(sp, sorted(pts))

    def test_empty_rejected(self):
        sp = space_from_rows(["a"], [["0"]])
        with pytest.raises(PreconditionError):
            is_directed(sp, [])

    def test_directed_minimizer_is_metric_sup(self):
        # the member minimizing the worst distance from Y reaches 0 and is
        # a metric supremum
        rng = Random(51)
        hits = 0
        for _ in range(40):
            sp = random_space(rng, 5)
            for size in (1, 2, 3):
                for pts in itertools.combinations(range(5), size):
                    Y = list(pts)
                    if not is_directed(sp, Y):
                        continue
                    hits += 1
                    y0 = min(Y, key=lambda y: (max(sp.d(a, y) for a in Y), y))
                    assert max(sp.d(a, y0) for a in Y).is_zero()
                    assert sp.labels[y0] in suprema(sp, Y).d_sups
        assert hits > 30


class TestEdComplete:
    def test_identity_pair_complete(self):
        rng = Random(45)
        for _ in range(20):
            sp = random_space(rng, 5)
            assert check_ed_complete(sp).complete

    def test_order_as_first_distance_complete(self):
        rng = Random(46)
        for _ in range(15):
            sp = random_space(rng, 5)
            lo = derive(sp, "leq_order")
            assert check_ed_complete_oracle(lo, sp).complete

    def test_metric_directed_sets_are_singletons(self):
        rng = Random(47)
        for _ in range(10):
            sp = random_metric(rng, 5)
            for size in (2, 3):
                for pts in itertools.combinations(range(5), size):
                    assert not is_directed(sp, list(pts))
            assert check_ed_complete(sp).complete

    def test_incomplete_pair_found(self):
        # discrete order on the x(1-y) grid: singletons are e-directed but
        # interior points have no metric supremum
        d_space = grid_x_one_minus_y()
        e_space = space_from_rows(d_space.labels,
                                  [["0" if i == j else "inf" for j in range(3)]
                                   for i in range(3)])
        rep = check_ed_complete_oracle(e_space, d_space)
        assert not rep.complete
        assert rep.failing_Y == ("1/2",)


class TestLinkDirectedSequence:
    def test_singleton_link(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        rep = link_directed_sequence(sp, [0], epseq([], [0]))
        assert rep.Y_leq_seq and rep.seq_in_Y and rep.ok

    def test_random_directed_with_enumerating_sequences(self):
        rng = Random(50)
        for _ in range(40):
            sp = random_space(rng, 5)
            for size in (1, 2, 3, 4):
                for pts in itertools.combinations(range(5), size):
                    if not is_directed(sp, list(pts)):
                        continue
                    tops = [y for y in pts if all(sp.d(a, y).is_zero() for a in pts)]
                    for top in tops:
                        seq = epseq(sorted(pts), [top])
                        rep = link_directed_sequence(sp, list(pts), seq)
                        assert rep.Y_leq_seq and rep.seq_in_Y
                        assert rep.biconditional_violations == ()
                        assert rep.tail_order_equiv is not False

    def test_tail_order_equivalence_negative_side(self):
        # a pre-Cauchy sequence whose tail is not above Y, matching a
        # backward-limit profile strictly above inf over Y
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        rep = link_directed_sequence(sp, [0], epseq([], [1]))
        assert rep.Y_leq_seq is False
        assert rep.tail_order_equiv is not False

    def test_sequence_ids_outside_the_space_raise(self):
        sp = space_from_rows(["a", "b"], [["0", "0"], ["0", "0"]])
        for cycle in ([2], [-1]):
            with pytest.raises(SpaceError):
                link_directed_sequence(sp, [0], EpSeq((), tuple(cycle)))

    @settings(max_examples=150, deadline=None)
    @given(spaces_with_sequences())
    def test_matches_the_oracle_on_any_matrix(self, case):
        # the order side on masks and rank rows against ExtReal entries
        sp, pts, seq = case
        assert link_directed_sequence(sp, pts, seq) == \
            link_directed_sequence_oracle(sp, pts, seq)
