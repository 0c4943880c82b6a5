"""Convergence flags, hole characterizations, limit sets, completeness."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings

from qmlib.extreal import INF, ZERO, ExtReal
from qmlib.generate import random_space
from qmlib.nets import PreconditionError, classify, epseq, zero_cliques
from qmlib.order import suprema
from qmlib.space import space_from_rows
from qmlib.topology import (check_hole_characterizations, convergence,
                            is_complete, limit_set, pre_cauchy_subnet_equiv)

from tests.oracles import hole_characterizations_oracle
from tests.test_nets import unrolled_tail_stats
from tests.test_order import spaces_with_sequences
from tests.test_space import projection_space


def convergence_oracle(space, seq, x):
    """Flags recomputed from definitional unrolled liminf/limsup."""
    ub = lb = uh = lh = True
    for c in range(space.n):
        inf_from_c, sup_from_c = unrolled_tail_stats(space, seq, lambda p: space.d(c, p))
        inf_to_c, sup_to_c = unrolled_tail_stats(space, seq, lambda p: space.d(p, c))
        ub &= sup_from_c <= space.d(c, x)
        lb &= sup_to_c <= space.d(x, c)
        uh &= inf_to_c >= space.d(x, c)
        lh &= inf_from_c >= space.d(c, x)
    return ub, lb, uh, lh


def random_seqs(rng, n, count, max_cycle=3, max_pre=2):
    for _ in range(count):
        pre = [rng.randrange(n) for _ in range(rng.randrange(max_pre + 1))]
        cyc = [rng.randrange(n) for _ in range(rng.randrange(1, max_cycle + 1))]
        yield epseq(pre, cyc)


class TestConvergence:
    def test_constant_sequence_all_flags(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        rep = convergence(sp, epseq([], [0]), 0)
        assert rep.upper_ball and rep.lower_ball and rep.upper_hole
        assert rep.lower_hole and rep.double_hole and rep.d_limit

    def test_projection_counterexample_witness(self):
        sp = projection_space()
        rep = convergence(sp, epseq([], [sp.index("0")]), sp.index("1/2"))
        assert rep.upper_hole and rep.lower_ball
        assert not rep.lower_hole
        center, lhs, rhs = rep.witnesses["lower_hole"]
        assert center == "0" and lhs == ZERO and rhs == ExtReal(1, 2)
        assert not rep.double_hole

    def test_cauchy_cycle_double_hole(self):
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "0", "1"], ["0", "0", "1"], ["2", "2", "0"]])
        assert sp.validation.is_distance
        seq = epseq([], [0, 1])
        for x in (0, 1):
            assert convergence(sp, seq, x).double_hole

    def test_flags_match_definitional_oracle(self):
        rng = Random(21)
        for _ in range(25):
            sp = random_space(rng, 4)
            for seq in random_seqs(rng, 4, 8):
                for x in range(4):
                    rep = convergence(sp, seq, x)
                    assert (rep.upper_ball, rep.lower_ball, rep.upper_hole,
                            rep.lower_hole) == convergence_oracle(sp, seq, x)

    def test_every_false_flag_has_witness(self):
        rng = Random(22)
        for _ in range(15):
            sp = random_space(rng, 4)
            for seq in random_seqs(rng, 4, 5):
                for x in range(4):
                    rep = convergence(sp, seq, x)
                    for t in ("upper_ball", "lower_ball", "upper_hole", "lower_hole",
                              "double_hole"):
                        if not rep.flag(t):
                            assert t in rep.witnesses


class TestHoleCharacterizations:
    def test_reflexive_two_cycle(self):
        sp = space_from_rows(["a", "b"], [["0", "0"], ["1", "0"]])
        rep = check_hole_characterizations(sp, epseq([], [0, 1]))
        assert rep.ok

    def test_constant_reflexive(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        rep = check_hole_characterizations(sp, epseq([], [0]))
        assert rep.ok

    def test_exhaustive_random_sweep(self):
        rng = Random(23)
        violations = 0
        for _ in range(40):
            sp = random_space(rng, 5)
            for cyc in itertools.chain.from_iterable(
                    itertools.product(range(5), repeat=k) for k in (1, 2, 3)):
                seq = epseq([], list(cyc))
                if classify(sp, seq).reflexive:
                    violations += len(check_hole_characterizations(sp, seq).violations)
        assert violations == 0

    @settings(max_examples=150, deadline=None)
    @given(spaces_with_sequences())
    def test_matches_the_oracle_on_any_matrix(self, case):
        # the order side on zero_down against ExtReal entries
        sp, _, seq = case
        if not classify(sp, seq).reflexive:
            with pytest.raises(PreconditionError):
                check_hole_characterizations(sp, seq)
            return
        assert check_hole_characterizations(sp, seq) == hole_characterizations_oracle(sp, seq)


class TestLimitSets:
    def test_cauchy_cycle_contains_itself(self):
        rng = Random(24)
        for _ in range(30):
            sp = random_space(rng, 5)
            for mask in zero_cliques(sp):
                members = [i for i in range(5) if mask >> i & 1]
                ls = limit_set(sp, epseq([], members), "double_hole")
                assert {sp.labels[i] for i in members} <= ls

    def test_metric_space_constant(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        assert limit_set(sp, epseq([], [0]), "double_hole") == {"a"}

    def test_nonreflexive_constant_direct_evaluation(self):
        sp = projection_space()
        seq = epseq([], [sp.index("1/2")])
        expected = {sp.labels[x] for x in range(sp.n)
                    if all(sp.d(c, x) <= sp.d(c, sp.index("1/2"))
                           and sp.d(x, c) <= sp.d(sp.index("1/2"), c)
                           for c in range(sp.n))}
        assert limit_set(sp, seq, "double_hole") == expected


class TestCompleteness:
    def test_discrete_metric(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        assert is_complete(sp).complete

    def test_every_random_space_complete(self):
        rng = Random(25)
        for _ in range(60):
            sp = random_space(rng, rng.randrange(2, 7))
            assert is_complete(sp).complete

    def test_agrees_with_exhaustive_sequence_oracle(self):
        rng = Random(26)
        for _ in range(10):
            n = 4
            sp = random_space(rng, n)
            limit_cache = {}
            for pre_len in (0, 1, 2):
                for pre in itertools.product(range(n), repeat=pre_len):
                    for k in (1, 2, 3):
                        for cyc in itertools.product(range(n), repeat=k):
                            seq = epseq(list(pre), list(cyc))
                            if not classify(sp, seq).cauchy:
                                continue
                            key = frozenset(seq.cycle)
                            if key not in limit_cache:
                                limit_cache[key] = limit_set(sp, seq, "double_hole")
                            assert limit_cache[key]
            assert is_complete(sp).complete


class TestInvariants:
    def test_metric_limits_agree_across_topologies(self):
        # for Cauchy sequences over a symmetric hemimetric, ball and
        # double-hole limit sets coincide
        rng = Random(27)
        from qmlib.generate import random_metric
        for _ in range(20):
            sp = random_metric(rng, 5)
            v = sp.validation
            assert v.is_symmetric and v.is_hemimetric
            for mask in zero_cliques(sp):
                members = [i for i in range(5) if mask >> i & 1]
                seq = epseq([], members)
                dh = limit_set(sp, seq, "double_hole")
                ub = limit_set(sp, seq, "upper_ball")
                lb = limit_set(sp, seq, "lower_ball")
                assert dh == ub == lb

    def test_order_distance_increasing_limits_are_sups(self):
        rng = Random(28)
        n = 5
        for _ in range(25):
            # random preorder: reflexive transitive closure of random arcs
            rel = [[i == j for j in range(n)] for i in range(n)]
            for _ in range(6):
                rel[rng.randrange(n)][rng.randrange(n)] = True
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
            rows = [[ZERO if rel[i][j] else INF for j in range(n)] for i in range(n)]
            sp = space_from_rows([f"p{i}" for i in range(n)], rows)
            assert sp.validation.is_distance
            # an eventually increasing sequence: a chain as preperiod, an
            # equivalence clique as cycle
            for _ in range(5):
                top = rng.randrange(n)
                below = [i for i in range(n) if rel[i][top]]
                pre = sorted(rng.sample(below, min(len(below), 2)),
                             key=lambda i: sum(rel[i]), reverse=True)
                seq = epseq(pre, [top])
                terms = set(pre) | {top}
                if not all(rel[a][b] or not rel[b][a] for a in terms for b in terms):
                    continue
                increasing = all(
                    rel[seq.term(k)][seq.term(k + 1)] for k in range(len(pre) + 2))
                if not increasing:
                    continue
                sups = suprema(sp, terms).leq_sups
                assert limit_set(sp, seq, "double_hole") == sups

    def test_d_limit_implies_hole_ball_for_pre_cauchy(self):
        rng = Random(29)
        for _ in range(30):
            sp = random_space(rng, 5)
            for mask in zero_cliques(sp):
                members = [i for i in range(5) if mask >> i & 1]
                seq = epseq([], members)
                for x in range(5):
                    rep = convergence(sp, seq, x)
                    if rep.d_limit:
                        assert rep.upper_hole and rep.lower_ball

    def test_subnet_equivalence_trivial_on_ep(self):
        rng = Random(30)
        for _ in range(20):
            sp = random_space(rng, 4)
            for seq in random_seqs(rng, 4, 5):
                if classify(sp, seq).pre_cauchy:
                    assert pre_cauchy_subnet_equiv(sp, seq)
