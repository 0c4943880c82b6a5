"""Formal-ball distance, ball identities, and completeness transfer.

The sampled generators of Cauchy formal-ball sequences, directed subsets
of X x grid and ball-identity tuples live in ``tests.oracles``; here they
pin the exact ``kw_audit`` report.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qmlib.extreal import INF, ONE, ZERO, ExtReal
from qmlib.formal_balls import (DEFAULT_RADIUS_GRID, FormalBall, RadiusSeq,
                                fb_distance, fb_distance_raw, formal_ball,
                                formal_ball_from_dict, kw_audit, kw_limit)
from qmlib.generate import random_space
from qmlib.nets import PreconditionError, epseq
from qmlib.space import SpaceError, space_from_rows

from tests.oracles import (_sample_cauchy_fb_sequences, ball_identities,
                           directed_fb_subsets_have_sups, fb_leq,
                           signed_fb_distance_oracle)


def two_point(d_ab="1", d_ba="1"):
    return space_from_rows(["a", "b"], [["0", d_ab], [d_ba, "0"]])


def zero_self_distance_classes(space):
    """The specialization classes of the points with d(x, x) = 0, as
    sorted member lists, read straight off the matrix."""
    classes = {tuple(j for j in range(space.n)
                     if space.d(i, j).is_zero() and space.d(j, i).is_zero())
               for i in range(space.n) if space.d(i, i).is_zero()}
    return sorted(list(c) for c in classes)


@st.composite
def sampled_spaces(draw):
    """A random 1-7 point plain or hemimetric space, with the seeded
    ``Random`` that drew it for the samplers to continue."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=1, max_value=7))
    return random_space(rng, n, hemimetric=draw(st.booleans())), rng


RADII = st.fractions(min_value=0, max_value=3, max_denominator=6).map(
    lambda f: ExtReal(*f.as_integer_ratio()))


class TestDistance:
    def test_embedding_at_zero_radius(self):
        sp = two_point()
        assert fb_distance(sp, formal_ball(sp, "a", 0),
                           formal_ball(sp, "b", 0)) == ExtReal(1)

    def test_radius_absorbs_distance(self):
        sp = two_point()
        a = formal_ball(sp, "a", 1)
        b = formal_ball(sp, "b", 0)
        assert fb_distance(sp, a, b) == ZERO
        assert fb_leq(sp, a, b)

    def test_same_point_radius_gap(self):
        sp = two_point()
        a = formal_ball(sp, "a", "1/2")
        b = formal_ball(sp, "a", ONE)
        assert fb_distance(sp, a, b) == ExtReal(1, 2)

    def test_positive_radius_rejected(self):
        # a radius is an ExtReal or text, so a Fraction is refused at any
        # sign: no second number type enters the extension
        sp = two_point()
        with pytest.raises(SpaceError):
            formal_ball(sp, "a", Fraction(1, 2))

    def test_literal_roundtrip(self):
        sp = two_point()
        fb = formal_ball_from_dict(sp, {"point": "a", "radius": "1/3"})
        assert fb.point == 0 and fb.radius == ExtReal(1, 3)
        assert fb.label(sp) == {"point": "a", "radius": "1/3"}

    # the nonpositive literals of the signed convention, text or number,
    # are refused rather than reinterpreted, as is every inexact form
    @pytest.mark.parametrize("radius", [
        "-1e-3", "-0.5", "-1/-2", "--1", "+0", "-1/0", "\u0663", -0.1, 0.0, True, None,
        "-1/3", "-0", " -2/6 ", -2, Fraction(-1, 4), "inf", INF])
    def test_radius_is_exact_nonpositive_text_or_number(self, radius):
        with pytest.raises(SpaceError):
            formal_ball_from_dict(two_point(), {"point": "a", "radius": radius})

    @pytest.mark.parametrize("radius, value", [
        ("0", ZERO), ("1/2", ExtReal(1, 2)), (" 2/6 ", ExtReal(1, 3)),
        (2, ExtReal(2)), (ExtReal(1, 4), ExtReal(1, 4))])
    def test_exact_radii_load(self, radius, value):
        fb = formal_ball_from_dict(two_point(), {"point": "b", "radius": radius})
        assert fb.radius == value and isinstance(fb.radius, ExtReal)

    @pytest.mark.parametrize("fields", [
        {"kind": "constant", "value": -0.5},
        {"kind": "harmonic", "scale": 0.5},
        {"kind": "periodic", "cycle": (ZERO, 1.0)},
        {"kind": "constant", "value": False},
        {"kind": "constant", "value": Fraction(1, 2)},
        {"kind": "harmonic", "value": INF}])
    def test_radius_sequences_reject_floats(self, fields):
        with pytest.raises(SpaceError):
            RadiusSeq(**fields)

    @given(sampled_spaces(), RADII, RADII)
    def test_distance_is_the_signed_formula_at_negated_radii(self, case, r, s):
        sp, _ = case
        neg_r, neg_s = Fraction(-r.num, r.den), Fraction(-s.num, s.den)
        for x in range(sp.n):
            for y in range(sp.n):
                assert (fb_distance_raw(sp, x, r, y, s)
                        == signed_fb_distance_oracle(sp, x, neg_r, y, neg_s))

    def test_infinite_base_distance(self):
        sp = space_from_rows(["a", "b"], [["0", "inf"], ["1", "0"]])
        assert fb_distance_raw(sp, 0, ExtReal(5), 1, ZERO) == INF

    def test_triangle_law_inherited(self):
        rng = Random(71)
        for _ in range(20):
            sp = random_space(rng, 4)
            for _ in range(50):
                pts = [rng.randrange(4) for _ in range(3)]
                rads = [ExtReal(rng.randrange(0, 5), 2) for _ in range(3)]
                d_ac = fb_distance_raw(sp, pts[0], rads[0], pts[2], rads[2])
                d_ab = fb_distance_raw(sp, pts[0], rads[0], pts[1], rads[1])
                d_bc = fb_distance_raw(sp, pts[1], rads[1], pts[2], rads[2])
                assert d_ac <= d_ab + d_bc

    def test_embedding_isometric(self):
        rng = Random(72)
        for _ in range(10):
            sp = random_space(rng, 4)
            for i in range(4):
                for j in range(4):
                    assert fb_distance_raw(sp, i, ZERO, j, ZERO) == sp.d(i, j)

    def test_order_characterization(self):
        rng = Random(73)
        for _ in range(10):
            sp = random_space(rng, 4)
            for _ in range(40):
                x, y = rng.randrange(4), rng.randrange(4)
                r = Fraction(rng.randrange(0, 5), 2)
                s = Fraction(rng.randrange(0, 5), 2)
                lhs = fb_distance_raw(sp, x, ExtReal(*r.as_integer_ratio()),
                                      y, ExtReal(*s.as_integer_ratio())).is_zero()
                d = sp.d(x, y)
                rhs = not d.is_inf and Fraction(d.num, d.den) <= r - s
                assert lhs == rhs


class TestBallIdentities:
    def test_exact_identity_zero_violations(self):
        rng = Random(74)
        for _ in range(10):
            sp = random_space(rng, 5)
            rep = ball_identities(sp, Random(rng.getrandbits(32)), 200)
            assert rep.identity_violations == 0

    def test_hemimetric_bound_witnesses(self):
        rng = Random(75)
        for _ in range(10):
            sp = random_space(rng, 5, hemimetric=True)
            rep = ball_identities(sp, Random(rng.getrandbits(32)), 100)
            assert rep.d_up_leq_identity is True
            assert rep.d_low_leq_identity is True

    def test_non_hemimetric_reports_none(self):
        sp = space_from_rows(["a"], [["1"]])
        rep = ball_identities(sp, Random(0), 20)
        assert rep.identity_violations == 0
        assert rep.d_up_leq_identity is None


class TestKwLimit:
    def test_constant_sequence(self):
        sp = two_point()
        res = kw_limit(sp, epseq([], [0]), RadiusSeq("constant", ExtReal(1, 3)))
        assert res.limit == {"point": "a", "radius": "1/3"}
        assert res.verified

    def test_harmonic_radii(self):
        sp = two_point()
        res = kw_limit(sp, epseq([], [0]), RadiusSeq("harmonic", ZERO))
        assert res.limit == {"point": "a", "radius": "0"}
        assert res.verified

    def test_zero_clique_cycle(self):
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "0", "1"], ["0", "0", "1"], ["2", "2", "0"]])
        res = kw_limit(sp, epseq([], [0, 1]), RadiusSeq("harmonic", ZERO))
        assert res.verified
        assert res.limit["point"] in ("a", "b") and res.limit["radius"] == "0"

    def test_non_cauchy_points_rejected(self):
        sp = two_point()
        with pytest.raises(PreconditionError):
            kw_limit(sp, epseq([], [0, 1]), RadiusSeq("constant", ZERO))

    def test_oscillating_radii_undecidable(self):
        sp = two_point()
        res = kw_limit(sp, epseq([], [0]),
                       RadiusSeq("periodic", cycle=(ZERO, ONE)))
        assert res.undecidable and not res.verified

    def test_radius_sequence_terms(self):
        r = RadiusSeq("harmonic", ZERO, ExtReal(1, 2))
        assert r.term(1) == ExtReal(1, 2) and r.term(2) == ExtReal(1, 4)
        assert r.limit() == ZERO


class TestKwAudit:
    def test_random_spaces_all_sides_confirmed(self):
        rng = Random(76)
        for _ in range(6):
            sp = random_space(rng, 5, hemimetric=True)
            rep = kw_audit(sp).to_dict()
            assert rep["base_complete"]
            limits = rep["cauchy_limits"]
            assert limits["method"] == "exhaustive"
            assert limits["enumerated"] == limits["of"] == limits["verified"] > 0
            assert rep["directed_sups"] == {
                "method": "identity", "identity": "finite directed set has a top member"}
            assert rep["ball_identities"] == {"method": "identity", "identity": "radius shift"}
            assert rep["chain_d_low_leq_identity"] is True
            assert rep["equivalence_confirmed"]

    def test_order_chain_grid_sups_match_brute_force(self):
        # three-point order chain a <= b <= c as a 0/inf distance
        sp = space_from_rows(
            ["a", "b", "c"],
            [["0", "0", "0"], ["inf", "0", "0"], ["inf", "inf", "0"]])
        rng = Random(77)
        carrier = [FormalBall(i, u) for i in range(3) for u in DEFAULT_RADIUS_GRID]
        checked, with_sup = directed_fb_subsets_have_sups(sp, rng, samples=300)
        assert checked > 0 and checked == with_sup
        assert kw_audit(sp).to_dict()["directed_sups"]["method"] == "identity"
        # brute-force least-upper-bound oracle over the grid carrier
        import itertools
        for size in (1, 2, 3):
            for subset in itertools.combinations(carrier, size):
                directed = all(
                    any(fb_leq(sp, a, c) and fb_leq(sp, b, c) for c in subset)
                    for a, b in itertools.combinations_with_replacement(subset, 2))
                if not directed:
                    continue
                tops = [m for m in subset if all(fb_leq(sp, e, m) for e in subset)]
                assert tops
                ubs = [u for u in carrier if all(fb_leq(sp, e, u) for e in subset)]
                for m in tops:
                    assert all(fb_leq(sp, m, u) for u in ubs)

    def test_discrete_metric_singleton_sups(self):
        sp = two_point()
        rep = kw_audit(sp)
        assert rep.equivalence_confirmed
        assert rep.to_dict()["cauchy_limits"] == {
            "method": "exhaustive", "enumerated": 2, "of": 2, "verified": 2}

    def test_deterministic_with_a_method_per_side(self):
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "0", "1"], ["0", "0", "1"], ["2", "2", "0"]])
        rep = kw_audit(sp).to_dict()
        assert rep == kw_audit(sp).to_dict()
        assert list(rep) == ["base_complete", "cauchy_limits", "directed_sups",
                             "ball_identities", "chain_d_low_leq_identity",
                             "equivalence_confirmed"]
        assert all("method" in v for v in rep.values() if isinstance(v, dict))
        # {a, b} and {c}: two classes, however many zero cliques {a, b} holds
        assert rep["cauchy_limits"]["of"] == 2

    def test_no_zero_self_distance_point(self):
        sp = space_from_rows(["a"], [["1"]])
        rep = kw_audit(sp)
        assert rep.to_dict()["cauchy_limits"]["of"] == 0
        assert rep.chain_d_low_leq_identity is None
        assert rep.equivalence_confirmed


class TestKwAuditAgainstSamplers:
    @settings(max_examples=60, deadline=None)
    @given(sampled_spaces())
    def test_exact_report_agrees_with_the_sampled_oracles(self, case):
        sp, rng = case
        rep = kw_audit(sp)
        classes = len(zero_self_distance_classes(sp))
        limits = rep.to_dict()["cauchy_limits"]
        assert limits["enumerated"] == limits["of"] == limits["verified"] == classes
        for pts, radii in _sample_cauchy_fb_sequences(sp, rng, 20):
            assert kw_limit(sp, pts, radii).verified
        checked, with_sup = directed_fb_subsets_have_sups(sp, rng, samples=40)
        assert checked == with_sup
        ids = ball_identities(sp, rng, 40)
        assert ids.ok
        assert rep.chain_d_low_leq_identity == ids.d_low_leq_identity
        assert rep.equivalence_confirmed

    @settings(max_examples=40, deadline=None)
    @given(sampled_spaces(), RADII, st.lists(RADII, min_size=1, max_size=4, unique=True))
    def test_class_verdict_ignores_radius_limit_and_grid(self, case, r_star, grid):
        sp, _ = case
        for members in zero_self_distance_classes(sp):
            pts = epseq([], members)
            base = kw_limit(sp, pts, RadiusSeq("constant", ZERO))
            for radii in (RadiusSeq("constant", r_star), RadiusSeq("harmonic", r_star)):
                res = kw_limit(sp, pts, radii, tuple(grid))
                assert res.verified == base.verified is True
                assert res.limit["point"] == base.limit["point"]
