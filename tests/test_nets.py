"""Eventually periodic sequences: canonical form, classes, lifted distance."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from qmlib.extreal import ZERO, ExtReal
from qmlib.generate import random_space
from qmlib.nets import (EpSeq, PreconditionError, cauchy_subsequence, classify,
                        epseq, epseq_from_labels, net_distance,
                        seq_limits_against, submasks, subset_lists)
from qmlib.space import SpaceError, space_from_rows


def unrolled_tail_stats(space, seq, fn):
    """Definitional liminf/limsup oracle on a long unrolled prefix.

    Deep enough in the tail the values are periodic, so min/max over one
    full period beyond a stabilization point realize the limits.
    """
    p = len(seq.cycle)
    start = len(seq.pre) + 2 * p
    vals = [fn(seq.term(k)) for k in range(start, start + p)]
    return min(vals), max(vals)


def classify_oracle(space, seq):
    """Classes computed from the definitions on unrolled indices."""
    p = len(seq.cycle)
    start = len(seq.pre) + 2 * p
    liminfs = []
    limsups = []
    for g in range(start, start + p):
        window = [space.d(seq.term(g), seq.term(d)) for d in range(g + 1, g + 1 + p)]
        liminfs.append(min(window))
        limsups.append(max(window))
    reflexive = all(v.is_zero() for v in liminfs)
    pre_cauchy = all(v.is_zero() for v in limsups)
    cauchy = all(space.d(seq.term(g), seq.term(d)).is_zero()
                 for g in range(start, start + p)
                 for d in range(g + 1, g + 1 + 2 * p))
    return reflexive, pre_cauchy, cauchy


small_ids = st.integers(min_value=0, max_value=3)


class TestCanonicalForm:
    def test_cycle_power_reduced(self):
        assert epseq([], [1, 2, 1, 2]).cycle == (1, 2)
        assert epseq([], [3, 3, 3]).cycle == (3,)

    def test_preperiod_absorbed(self):
        s = epseq([2], [1, 2])
        assert s.pre == () and s.cycle == (2, 1)

    def test_empty_cycle_rejected(self):
        with pytest.raises(Exception):
            epseq([1], [])

    @given(st.lists(small_ids, max_size=4), st.lists(small_ids, min_size=1, max_size=4))
    def test_canonicalization_preserves_terms(self, pre, cycle):
        raw = EpSeq(tuple(pre), tuple(cycle))
        canon = epseq(pre, cycle)
        for k in range(len(pre) + 3 * len(cycle) + 2):
            assert canon.term(k) == raw.term(k)

    @given(st.lists(small_ids, max_size=3), st.lists(small_ids, min_size=1, max_size=3))
    def test_canonical_form_is_minimal(self, pre, cycle):
        s = epseq(pre, cycle)
        # cycle not a proper power
        p = len(s.cycle)
        for q in range(1, p):
            if p % q == 0:
                assert s.cycle != s.cycle[:q] * (p // q)
        # no absorbable preperiod tail
        if s.pre:
            assert s.pre[-1] != s.cycle[-1]


class TestClassify:
    def test_constant_hemimetric_point(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        cls = classify(sp, epseq([], [0]))
        assert cls.reflexive and cls.pre_cauchy and cls.cauchy

    def test_constant_at_nonreflexive_point(self):
        from tests.test_space import projection_space
        sp = projection_space()
        cls = classify(sp, epseq([], [sp.index("1/2")]))
        assert not cls.reflexive and not cls.pre_cauchy and not cls.cauchy

    def test_reflexive_not_pre_cauchy_cycle(self):
        sp = space_from_rows(["a", "b"], [["0", "0"], ["1", "0"]])
        cls = classify(sp, epseq([], [0, 1]))
        assert cls.reflexive and not cls.pre_cauchy and not cls.cauchy

    def test_matches_definitional_oracle(self):
        rng = Random(11)
        for _ in range(30):
            sp = random_space(rng, 4)
            for _ in range(10):
                pre = [rng.randrange(4) for _ in range(rng.randrange(3))]
                cyc = [rng.randrange(4) for _ in range(rng.randrange(1, 4))]
                seq = epseq(pre, cyc)
                cls = classify(sp, seq)
                assert (cls.reflexive, cls.pre_cauchy, cls.cauchy) == \
                    classify_oracle(sp, seq)

    def test_implication_chain_and_ep_sharpening(self):
        rng = Random(12)
        for _ in range(30):
            sp = random_space(rng, 5)
            for _ in range(10):
                cyc = [rng.randrange(5) for _ in range(rng.randrange(1, 4))]
                cls = classify(sp, epseq([], cyc))
                if cls.cauchy:
                    assert cls.pre_cauchy
                if cls.pre_cauchy:
                    assert cls.reflexive
                # on eventually periodic data the two upper classes coincide
                assert cls.pre_cauchy == cls.cauchy


class TestCauchySubsequence:
    def test_identity_on_cauchy(self):
        sp = space_from_rows(["a", "b"], [["0", "0"], ["0", "0"]])
        seq = epseq([], [0, 1])
        assert cauchy_subsequence(sp, seq) == seq

    def test_identity_on_singleton(self):
        sp = space_from_rows(["a"], [["0"]])
        seq = epseq([], [0])
        assert cauchy_subsequence(sp, seq) == seq

    def test_precondition(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        with pytest.raises(PreconditionError):
            cauchy_subsequence(sp, epseq([], [0, 1]))


class TestNetDistance:
    def test_constants(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        assert net_distance(sp, epseq([], [0]), epseq([], [1])) == ExtReal(1)

    def test_cycle_example(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        s = epseq([], [0, 1])
        t = epseq([], [0])
        assert net_distance(sp, s, t) == ExtReal(1)

    def test_reflexivity_iff_zero_self_distance(self):
        rng = Random(13)
        for _ in range(30):
            sp = random_space(rng, 5)
            for _ in range(8):
                cyc = [rng.randrange(5) for _ in range(rng.randrange(1, 4))]
                seq = epseq([], cyc)
                assert classify(sp, seq).reflexive == \
                    net_distance(sp, seq, seq).is_zero()

    def test_triangle_law_on_lift(self):
        rng = Random(14)
        for _ in range(20):
            sp = random_space(rng, 4)
            seqs = [epseq([], [rng.randrange(4) for _ in range(rng.randrange(1, 4))])
                    for _ in range(3)]
            a, b, c = seqs
            assert net_distance(sp, a, c) <= \
                net_distance(sp, a, b) + net_distance(sp, b, c)


class TestSeqLimits:
    def test_constant_sequence(self):
        sp = space_from_rows(["a", "b"], [["0", "1/2"], ["2", "0"]])
        lims = seq_limits_against(sp, epseq([], [0]), 1)
        assert lims.forward == ExtReal(1, 2) and lims.backward == ExtReal(2)

    def test_cauchy_cycle_forces_constant_values(self):
        rng = Random(15)
        checked = 0
        for _ in range(60):
            sp = random_space(rng, 5)
            from qmlib.nets import zero_cliques
            for mask in zero_cliques(sp):
                members = [i for i in range(5) if mask >> i & 1]
                if len(members) < 2:
                    continue
                seq = epseq([], members)
                for y in range(5):
                    lims = seq_limits_against(sp, seq, y)
                    assert lims.forward is not None and lims.backward is not None
                    checked += 1
        assert checked > 10

    def test_oscillating_tail_does_not_converge(self):
        sp = space_from_rows(["a", "b"], [["0", "0"], ["1", "0"]])
        lims = seq_limits_against(sp, epseq([], [0, 1]), 0)
        assert lims.forward is None   # d(x_k, a) alternates 0, 1
        assert lims.backward == ZERO  # d(a, x_k) is constantly 0

    def test_labels_constructor(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        seq = epseq_from_labels(sp, ["a"], ["b", "a"])
        assert seq.term(0) == 0

    def test_sequence_literal_roundtrip(self):
        from qmlib.nets import seq_from_dict
        sp = space_from_rows(["a", "b", "c"], [["0"] * 3] * 3)
        seq = seq_from_dict(sp, {"pre": ["a"], "cycle": ["b", "c"]})
        assert (seq.pre, seq.cycle) == ((0,), (1, 2))
        with pytest.raises(Exception):
            seq_from_dict(sp, {"pre": ["a"]})

    @pytest.mark.parametrize("data", [
        {"cycle": "ab"}, {"pre": "a", "cycle": ["b"]}, ["a", "b"], "cycle", None,
        {"cycle": [0, 1]}, {"cycle": [["a"]]}, {"pre": {"a": 1}, "cycle": ["a"]},
        {"pre": ["a"]}, {"cycle": []}, {"cycle": ["z"]},
    ], ids=["cycle-a-string", "pre-a-string", "a-list", "a-string", "null",
            "integer-labels", "nested-list", "pre-an-object", "no-cycle", "empty-cycle",
            "unknown-label"])
    def test_malformed_sequence_literal_is_a_space_error(self, data):
        from qmlib.nets import seq_from_dict
        sp = space_from_rows(["a", "b", "c"], [["0"] * 3] * 3)
        with pytest.raises(SpaceError):
            seq_from_dict(sp, data)


@given(st.sets(st.integers(min_value=0, max_value=11), max_size=7))
def test_subset_lists_follow_the_submasks(points):
    # each subset extends its predecessor: the lists must still be the
    # submasks' members, in the submasks' order
    pts = sorted(points)
    mask = sum(1 << p for p in pts)
    assert list(subset_lists(pts)) == [[p for p in pts if sub >> p & 1]
                                       for sub in submasks(mask)]
