"""Gallery fixtures: every expected fact holds, stably under cutoff growth."""

import pytest

from qmlib import family
from qmlib.extreal import ZERO
from qmlib.family import CandidateRejection, ChainAnalyzer, FamilyCompleteness
from qmlib.gallery import GALLERY_NAMES, Fact, build, verify
from qmlib.space import FiniteSpace, SpaceError

from tests.oracles import GRID_DISTANCES, grid_space_oracle


SMALL = {"projection": 4, "x_one_minus_y": 4, "halfopen": 8, "fm_counterexample": 8}


class TestBuildAndVerify:
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_all_facts_pass(self, name):
        rep = verify(build(name, SMALL[name]))
        failed = [e for e in rep.entries if not e["pass"]]
        assert rep.ok, failed

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_facts_stable_under_doubling(self, name):
        small = verify(build(name, SMALL[name]))
        large = verify(build(name, SMALL[name] * 2))
        small_ids = {e["id"]: e["pass"] for e in small.entries}
        large_ids = {e["id"]: e["pass"] for e in large.entries}
        assert set(small_ids) == set(large_ids)
        for fact_id, passed in small_ids.items():
            assert large_ids[fact_id] == passed

    def test_certificate_checked_once_per_space(self, monkeypatch):
        # the fixture's own analyzer, family_is_complete and the Cauchy
        # fact each build an analyzer; the space keeps the one verdict
        calls = []

        def counting(space):
            calls.append(space)
            return family._check_vector_pairwise(space)

        monkeypatch.setitem(family._CERT_CHECKS, "fm.pairwise", counting)
        assert verify(build("fm_counterexample", 16)).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("cutoff", [16, 32])
    def test_fm_walks_its_pairs_once(self, monkeypatch, cutoff):
        # the certificate compares the c^2 pairs; the pairwise facts read
        # its verdict instead of comparing them again (a second walk makes
        # 2c^2 + 325 calls)
        calls = []
        dist = family.FamilySpace.dist

        def counted(self, p, q):
            calls.append(1)
            return dist(self, p, q)

        monkeypatch.setattr(family.FamilySpace, "dist", counted)
        assert verify(build("fm_counterexample", cutoff)).ok
        assert len(calls) <= cutoff ** 2 + 400

    def test_a_broken_certificate_stops_the_build(self, monkeypatch):
        # d(f_2, f_3) off its closed form: the certificate fails while the
        # fixture is built, so no fact can print a wrong "true"
        column = family.FamilySpace._vector_column

        def broken(self, q, top):
            col = column(self, q, top)
            if q == self.indexed(3):
                col[2] = ZERO
            return col

        evaluated = []
        evaluate = Fact.evaluate
        monkeypatch.setattr(family.FamilySpace, "_vector_column", broken)
        monkeypatch.setattr(Fact, "evaluate",
                            lambda fact: evaluated.append(fact) or evaluate(fact))
        with pytest.raises(family.CertificateError):
            build("fm_counterexample", 16)
        assert evaluated == []

    def test_unknown_name(self):
        with pytest.raises(SpaceError):
            build("mystery", 8)

    def test_cutoff_floor(self):
        with pytest.raises(SpaceError):
            build("projection", 3)


@pytest.mark.parametrize("name", sorted(GRID_DISTANCES))
def test_grid_fixtures_match_their_fraction_oracle(name):
    # the grids are built from integer numerators; labels and every entry
    # must equal the Fraction definitions
    for cutoff in range(4, 41):
        got = build(name, cutoff).space
        want = grid_space_oracle(name, cutoff)
        assert got.labels == want.labels, cutoff
        assert got.matrix == want.matrix, cutoff


class TestFixtureShapes:
    def test_finite_fixtures_are_valid_distances(self):
        for name in ("projection", "x_one_minus_y"):
            fx = build(name, 4)
            assert isinstance(fx.space, FiniteSpace)
            assert fx.space.validation.is_distance

    def test_projection_sequence_designated(self):
        fx = build("projection", 4)
        assert "const_zero" in fx.sequences

    def test_fm_spot_value_scales_with_cutoff(self):
        rep = verify(build("fm_counterexample", 12))
        spot = next(e for e in rep.entries if e["id"] == "spot_value")
        assert spot["expected"] == "1/7" and spot["pass"]

    def test_halfopen_report_fields(self):
        rep = verify(build("halfopen", 10)).to_dict()
        ids = {f["id"] for f in rep["facts"]}
        assert {"order_sup", "no_metric_sup", "lower_ball_bound_gap"} <= ids

    def test_halfopen_rejections_must_be_witnesses(self, monkeypatch):
        # one rejection per point, but each with limit == required: the
        # count matches, yet no rejection is a witness
        def hollow(an):
            return FamilyCompleteness(False, "identity", tuple(
                CandidateRejection(an.space.label(pt), an.space.label(pt),
                                   "lower_hole", "0", "0")
                for pt in an.space.points()))

        monkeypatch.setattr(ChainAnalyzer, "completeness", hollow)
        rep = verify(build("halfopen", 10))
        fact = next(e for e in rep.entries if e["id"] == "incomplete_with_witnesses")
        assert not fact["pass"] and fact["actual"] == "false|missing"
