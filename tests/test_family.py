"""Certified analyses of the finitely presented fixtures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmlib.extreal import INF, ZERO, ExtReal
from qmlib.family import (Analyzer, CertificateError, ChainAnalyzer, FamilySeq,
                          FamilySpace, NaturalOrderAnalyzer,
                          UndecidableAtCutoff, VectorFamilyAnalyzer, _CERT_CHECKS, analyzer_for,
                          cauchy_subsequence_family, classify_family,
                          family_is_complete, family_limits_against,
                          family_subnet_equiv)
from qmlib.nets import PreconditionError
from qmlib.space import SpaceError

from tests.oracles import (chain_completeness_oracle, chain_hole_limit_sets_oracle,
                           fm_dist_oracle)


def fm_space(cutoff=12):
    return FamilySpace("sup-truncated-difference", cutoff, {"prefix": "f"})


def halfopen_space(cutoff=12):
    return FamilySpace("truncated-difference", cutoff,
                       {"values": "one_minus_unit", "extras": {"0": "0", "2": "2"}})


def naturals_space(cutoff=12):
    return FamilySpace("order-characteristic", cutoff, {"values": "natural"})


class TestVectorFamily:
    def test_pairwise_values(self):
        sp = fm_space()
        assert sp.dist(sp.indexed(3), sp.indexed(7)) == ExtReal(1, 7)
        assert sp.dist(sp.indexed(7), sp.indexed(3)) == INF
        assert sp.dist(sp.indexed(5), sp.indexed(5)) == ZERO

    def test_dist_matches_the_coordinate_oracle(self):
        sp = fm_space(30)
        for m in range(1, 31):
            for k in range(1, 31):
                assert sp.dist(sp.indexed(m), sp.indexed(k)) == fm_dist_oracle(m, k)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dist_matches_the_oracle_in_any_query_order(self, data):
        # queries reach past the window and come in random order, so a
        # column is sometimes rebuilt longer after it was cached shorter
        cutoff = data.draw(st.integers(min_value=4, max_value=40))
        index = st.integers(min_value=1, max_value=cutoff + 3)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=60))
        sp = fm_space(cutoff)
        for m, k in pairs:
            assert sp.dist(sp.indexed(m), sp.indexed(k)) == fm_dist_oracle(m, k)

    @pytest.mark.parametrize("cutoff", [32, 64])
    def test_pairwise_certificate_is_quadratic(self, monkeypatch, cutoff):
        # one column sweep per target point: three truncated differences
        # per coordinate, where summing |m - k| + 1 coordinates for each
        # pair costs about c^3 / 3
        calls = []
        tsub = ExtReal.tsub

        def counted(self, other):
            calls.append(1)
            return tsub(self, other)

        monkeypatch.setattr(ExtReal, "tsub", counted)
        assert VectorFamilyAnalyzer(fm_space(cutoff)).cert("fm.pairwise") == "fm.pairwise"
        assert 0 < len(calls) <= 4 * cutoff ** 2

    def test_identity_sequence_cauchy(self):
        cls = classify_family(FamilySeq(fm_space(), "identity"))
        assert cls.cauchy.value is True
        assert cls.pre_cauchy.value is True and cls.reflexive.value is True
        assert "fm.pairwise" in cls.cauchy.certificates

    def test_limits_and_discreteness(self):
        sp = fm_space()
        fwd, bwd, certs = VectorFamilyAnalyzer(sp).limits(FamilySeq(sp, "identity"),
                                                          sp.indexed(3))
        assert fwd == INF and bwd == ZERO and certs == ("fm.pairwise",)

    def test_incompleteness_witnesses(self):
        sp = fm_space(10)
        comp = family_is_complete(sp)
        assert comp.complete is False
        assert len(comp.rejections) == 10
        r0 = comp.rejections[0]
        assert r0.candidate == "f1" and r0.center == "f2"
        assert r0.limit == "0" and r0.required == "inf"
        assert r0.topology == "lower_hole"

    def test_subsequence_of_cauchy_is_itself(self):
        seq = FamilySeq(fm_space(), "identity")
        assert cauchy_subsequence_family(seq) is seq


class TestChain:
    def test_chain_values(self):
        sp = halfopen_space()
        assert sp.value(sp.indexed(1)) == ExtReal(1, 2)
        assert sp.value(sp.indexed(3)) == ExtReal(3, 4)
        assert sp.label(sp.indexed(1)) == "1/2"

    def test_chain_cauchy(self):
        cls = classify_family(FamilySeq(halfopen_space(), "identity"))
        assert cls.cauchy.value is True

    def test_suprema_split(self):
        an = ChainAnalyzer(halfopen_space(20))
        sups = an.chain_suprema()
        assert sups["leq_sups"] == ["2"]
        assert sups["d_sups"] == []
        assert sups["in_window_sup_to_zero"] == str(Fraction(20, 21))
        assert sups["evidence"]["2"]["chain_sup"] == "1"
        assert sups["evidence"]["2"]["candidate"] == "2"

    def test_hole_limit_sets(self):
        an = ChainAnalyzer(halfopen_space())
        holes = an.hole_limit_sets()
        assert holes["lower_hole"] == ["2"]
        assert holes["double_hole"] == []
        assert "2" not in holes["upper_hole"]

    def test_lower_ball_gap(self):
        an = ChainAnalyzer(halfopen_space())
        gap = an.lower_ball_bound_failure()
        assert gap["value"] == "3/2" and gap["exceeds_radius"] is True

    def test_the_chain_limit_is_both_suprema(self):
        # extras 0, 1 and 2: the bounds are 1 and 2, the least is 1, and
        # only 2 overshoots the chain's sup of (value(y) - w)+ at w = 0
        sp = FamilySpace("truncated-difference", 8,
                         {"values": "one_minus_unit", "extras": {"0": "0", "1": "1", "2": "2"}})
        sups = ChainAnalyzer(sp).chain_suprema()
        assert sups["leq_sups"] == sups["d_sups"] == ["1"]
        assert sups["evidence"] == {"2": {"z": "0", "chain_sup": "1", "candidate": "2"}}

    def test_completeness_witnesses_cover_all_candidates(self):
        sp = halfopen_space(8)
        comp = family_is_complete(sp)
        assert comp.complete is False
        assert len(comp.rejections) == len(sp.points())

    def test_extras_are_parsed_once(self):
        sp = halfopen_space()
        assert sp.extras is sp.extras
        assert sp.extras == {"0": ZERO, "2": ExtReal(2)}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=4, max_value=30),
           st.lists(st.one_of(st.just(Fraction(0)), st.just(Fraction(1)),
                              st.fractions(min_value=0, max_value=1),
                              st.fractions(min_value=1, max_value=3)),
                    max_size=5))
    def test_holes_and_completeness_match_the_oracles(self, cutoff, values):
        # extras at 0, below 1 (possibly above the whole window), exactly 1
        # and above 1
        sp = FamilySpace("truncated-difference", cutoff, {
            "values": "one_minus_unit",
            "extras": {f"e{i}": str(v) for i, v in enumerate(values)}})
        an = ChainAnalyzer(sp)
        assert an.hole_limit_sets() == chain_hole_limit_sets_oracle(sp)
        assert an.completeness() == chain_completeness_oracle(sp)

    @pytest.mark.parametrize("value, center, required", [
        ("13/14", "14/15", "1/210"), ("4/5", "5/6", "1/30"), ("0", "1/2", "1/2"),
        ("999/1000", "1000/1001", "1/1001000"), ("1/2", "2/3", "1/6")])
    def test_successor_past_the_window(self, value, center, required):
        # x_n = n/(n+1) is the first chain point above v at n = floor(1/(1 - v)),
        # inside the window or past it
        sp = FamilySpace("truncated-difference", 4, {"extras": {"e": value}})
        rej = ChainAnalyzer(sp).completeness().rejections[0]
        assert (rej.candidate, rej.center, rej.topology, rej.limit, rej.required) \
            == ("e", center, "lower_hole", "0", required)

    def test_value_one_point_is_the_limit_not_a_rejection(self):
        sp = FamilySpace("truncated-difference", 8,
                         {"values": "one_minus_unit", "extras": {"0": "0", "1": "1"}})
        an = ChainAnalyzer(sp)
        assert an.hole_limit_sets()["double_hole"] == ["1"]
        assert an.completeness().complete is None
        assert an.completeness().rejections == ()
        # without it, every rejection is a genuine witness: limit < required
        comp = ChainAnalyzer(halfopen_space()).completeness()
        assert comp.complete is False
        assert all(Fraction(r.limit) < Fraction(r.required) for r in comp.rejections)

    def test_constant_sequence_trivial(self):
        sp = halfopen_space()
        cls = classify_family(FamilySeq(sp, "constant", point="2"))
        assert cls.cauchy.value is True


class TestNaturalOrder:
    def test_swap_classification(self):
        cls = classify_family(FamilySeq(naturals_space(), "swap-pairs"))
        assert cls.pre_cauchy.value is True
        assert cls.reflexive.value is True
        assert cls.cauchy.value is False

    def test_swap_extraction_odd_positions(self):
        seq = FamilySeq(naturals_space(), "swap-pairs")
        sub = cauchy_subsequence_family(seq)
        assert sub.kind == "swap-odd"
        # induced values are the increasing evens 2, 4, 6, ...
        assert [sub.term(k)[1] for k in (1, 2, 3)] == [2, 4, 6]
        assert classify_family(sub).cauchy.value is True

    def test_subnet_single_topology_flags_agree(self):
        an = NaturalOrderAnalyzer(naturals_space())
        claim = an.subnet_equiv(FamilySeq(naturals_space(), "swap-pairs"))
        assert claim.value is True

    def test_hole_flag_sets(self):
        an = NaturalOrderAnalyzer(naturals_space())
        flags = an.hole_flags(FamilySeq(naturals_space(), "swap-pairs"))
        assert flags["lower_ball"] == [] and flags["lower_hole"] == []
        assert len(flags["upper_ball"]) == 12

    def test_extraction_precondition(self):
        sp = naturals_space()
        # reversed-pair constant is fine, but a non-pre-Cauchy input raises:
        # build one via a constant at a point with nonzero self-distance
        bad = FamilySpace("truncated-difference", 8,
                          {"values": "one_minus_unit", "extras": {"z": "2"}})
        seq = FamilySeq(bad, "constant", point="z")
        cls = classify_family(seq)
        assert cls.pre_cauchy.value is True  # d(z, z) = 0 under trunc-diff
        sp2 = FamilySpace("coordinate-projection", 8,
                          {"values": "one_minus_unit", "extras": {"h": "1/3"}})
        seq2 = FamilySeq(sp2, "constant", point="h")
        assert classify_family(seq2).pre_cauchy.value is False
        with pytest.raises(PreconditionError):
            cauchy_subsequence_family(seq2)


class TestFamilyLimits:
    def test_fm_limits_against(self):
        from qmlib.family import family_limits_against
        fwd, bwd, certs = family_limits_against(FamilySeq(fm_space(), "identity"), "f3")
        assert fwd == INF and bwd == ZERO and "fm.pairwise" in certs

    def test_chain_limits_against(self):
        from qmlib.family import family_limits_against
        sp = halfopen_space()
        fwd, bwd, _ = family_limits_against(FamilySeq(sp, "identity"), "0")
        assert fwd == ExtReal(1) and bwd == ZERO
        fwd2, bwd2, _ = family_limits_against(FamilySeq(sp, "identity"), "2")
        assert fwd2 == ZERO and bwd2 == ExtReal(1)

    def test_constant_limits_against(self):
        from qmlib.family import family_limits_against
        sp = halfopen_space()
        fwd, bwd, _ = family_limits_against(
            FamilySeq(sp, "constant", point="2"), "0")
        assert fwd == ExtReal(2) and bwd == ZERO

    def test_subnet_equiv_dispatch(self):
        from qmlib.topology import pre_cauchy_subnet_equiv
        assert pre_cauchy_subnet_equiv(None, FamilySeq(naturals_space(), "swap-pairs"))
        assert pre_cauchy_subnet_equiv(None, FamilySeq(fm_space(), "identity"))


class TestTriStateAndCertificates:
    def test_uncovered_rule_is_undecidable(self):
        sp = FamilySpace("coordinate-projection", 8, {"values": "one_minus_unit"})
        cls = classify_family(FamilySeq(sp, "identity"))
        assert cls.cauchy.value is None
        with pytest.raises(UndecidableAtCutoff):
            cauchy_subsequence_family(FamilySeq(sp, "identity"))

    @pytest.mark.parametrize("space, kind, analyzer", [
        (FamilySpace("coordinate-projection", 8, {"values": "one_minus_unit"}), "identity",
         Analyzer),
        (FamilySpace("truncated-difference", 8, {"values": "natural"}), "swap-pairs", Analyzer),
        (fm_space(8), "swap-pairs", VectorFamilyAnalyzer),
        (halfopen_space(8), "swap-odd", ChainAnalyzer),
    ], ids=["uncovered-rule", "uncovered-values", "vector-uncovered-kind",
            "chain-uncovered-kind"])
    def test_every_front_door_answers_undecidable(self, space, kind, analyzer):
        # an uncovered rule gets the base Analyzer; an uncovered kind on a
        # covered rule falls through to the base class's answers
        assert type(analyzer_for(space)) is analyzer
        seq = FamilySeq(space, kind)
        cls = classify_family(seq)
        assert (cls.reflexive.value, cls.pre_cauchy.value, cls.cauchy.value) == (None,) * 3
        for call in (lambda: family_limits_against(seq, space.label(space.indexed(1))),
                     lambda: cauchy_subsequence_family(seq),
                     lambda: family_subnet_equiv(seq)):
            with pytest.raises(UndecidableAtCutoff):
                call()

    def test_no_completeness_claim_without_analyzer(self):
        sp = FamilySpace("coordinate-projection", 8, {"values": "one_minus_unit"})
        assert family_is_complete(sp).complete is None

    def test_certificate_failure_is_loud(self):
        # the genuine certificates verify, so a broken closed form fails here
        assert VectorFamilyAnalyzer(fm_space(8)).cert("fm.pairwise") == "fm.pairwise"
        assert ChainAnalyzer(halfopen_space(8)).cert(ChainAnalyzer.CERT)
        # order-characteristic over the bounded chain values breaks the
        # natural-values certificate
        sp = FamilySpace("order-characteristic", 8, {"values": "natural"})
        an = NaturalOrderAnalyzer(sp)
        sp._verified["naturals.values"] = False
        with pytest.raises(CertificateError):
            an.cert("naturals.values")

    @pytest.mark.parametrize("space, analyzer", [
        (fm_space(8), VectorFamilyAnalyzer),
        (halfopen_space(8), ChainAnalyzer),
        (naturals_space(8), NaturalOrderAnalyzer),
    ], ids=["fm.pairwise", "chain.increasing_below_one", "naturals.values"])
    def test_a_broken_closed_form_fails_its_certificate(self, monkeypatch, space, analyzer):
        # one distance (vector rule) or one value (value rules) off its
        # closed form, at x_3
        if analyzer is VectorFamilyAnalyzer:
            column = FamilySpace._vector_column

            def broken(self, q, top):
                col = column(self, q, top)
                if q == self.indexed(3):
                    col[2] = ZERO     # d(x_2, x_3) is 1/3
                return col
            monkeypatch.setattr(FamilySpace, "_vector_column", broken)
        else:
            value = FamilySpace.value
            wrong = ExtReal(1) if analyzer is ChainAnalyzer else ExtReal(4)
            monkeypatch.setattr(FamilySpace, "value",
                                lambda self, pt: wrong if pt == ("i", 3) else value(self, pt))
        assert _CERT_CHECKS[analyzer.CERT](space) is False
        with pytest.raises(CertificateError):
            analyzer(space).cert(analyzer.CERT)

    @pytest.mark.parametrize("space", [
        halfopen_space(), naturals_space(), fm_space(),
        FamilySpace("coordinate-projection", 5, {"values": "natural"})],
        ids=["fraction", "natural", "prefix", "natural-projection"])
    def test_index_of_reads_the_label(self, space):
        for n in (1, 2, 3, 9, 10, 99, 100, 12345):
            assert space.index_of(space.label(space.indexed(n))) == n
        for label in ("03/4", "3/5", "x03", "", "0", "0/1", "f03", "f0", "f", "1/2/3",
                      "\u0663/4", "\u0663", "f\u0663", "-1", "+1"):
            assert space.index_of(label) is None
        for label in space.params.get("extras", {}):
            assert space.index_of(label) is None

    def test_point_by_label_reads_the_window(self):
        sp = halfopen_space(8)
        assert sp.point_by_label("2") == ("e", "2")
        assert sp.point_by_label("8/9") == sp.indexed(8)
        for label in ("9/10", "08/9", "nope"):
            with pytest.raises(SpaceError):
                sp.point_by_label(label)

    def test_a_long_unknown_label_is_cut(self):
        with pytest.raises(SpaceError, match="^unknown point 'xxx") as err:
            halfopen_space(8).point_by_label("x" * 5000)
        assert len(str(err.value)) < 100

    def test_overlong_label_names_no_point(self):
        # too long for int(); an extra of that label is just an extra
        label = "9" * 5000 + "/1"
        assert halfopen_space().index_of(label) is None
        sp = FamilySpace("truncated-difference", 4, {"extras": {label: "2"}})
        assert sp.point_by_label(label) == ("e", label)

    def test_rule_validation(self):
        with pytest.raises(SpaceError):
            FamilySpace("nope", 8)
        with pytest.raises(SpaceError):
            FamilySpace("truncated-difference", 2)
        with pytest.raises(SpaceError):
            FamilySeq(halfopen_space(), "constant")
