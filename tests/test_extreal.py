"""Exact arithmetic laws for the extended nonnegative rationals."""

import operator
import pickle
import sys
from fractions import Fraction
from math import gcd

import pytest

from hypothesis import given, strategies as st

from qmlib.extreal import INF, ONE, ZERO, ExtReal


def rationals():
    return st.fractions(min_value=0, max_value=100)


def finite_ext_reals():
    return rationals().map(lambda f: ExtReal(*f.as_integer_ratio()))


def ext_reals():
    return st.one_of(st.just(INF), finite_ext_reals())


class TestBasics:
    def test_add_examples(self):
        assert ExtReal(1, 2) + ExtReal(1, 3) == ExtReal(5, 6)
        assert ExtReal(1, 2) + INF == INF
        assert ZERO + ZERO == ZERO

    def test_tsub_examples(self):
        assert ExtReal(3, 2).tsub(ExtReal(1, 2)) == ONE
        assert ExtReal(1, 2).tsub(ExtReal(3, 2)) == ZERO
        assert INF.tsub(INF) == ZERO
        assert INF.tsub(ExtReal(7)) == INF
        assert ExtReal(7).tsub(INF) == ZERO

    def test_scale_inf_examples(self):
        assert ZERO.scale_inf() == ZERO
        assert ExtReal(1, 7).scale_inf() == INF
        assert INF.scale_inf() == INF

    def test_lowest_terms(self):
        assert ExtReal(2, 4) == ExtReal(1, 2)
        assert str(ExtReal(6, 3)) == "2"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtReal(-1, 2)

    def test_parse_format_roundtrip(self):
        for text in ("0", "1/2", "7", "inf", "22/7"):
            assert str(ExtReal.parse(text)) == text

    @pytest.mark.parametrize("text", [
        "-1/-2", "+1", "-0", "1e3", "0.5", "1_0", "1/", "/2", "1/0", "1 / 2", "\u0663", "", 1])
    def test_parse_rejects_all_but_digits(self, text):
        with pytest.raises(ValueError):
            ExtReal.parse(text)

    def test_parse_refuses_integers_whose_products_cannot_print(self, monkeypatch):
        # the least limit Python allows: 319 digits per integer, so a sum of
        # two products has at most 639
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        most = "9" * 319
        assert ExtReal.parse(f"{most}/{int(most) - 1}") == ExtReal(int(most), int(most) - 1)
        for text in ("1" + "0" * 319, f"1/{most}0", "0" * 320):
            with pytest.raises(ValueError, match="at most 319 digits"):
                ExtReal.parse(text)

    def test_parse_rational_grammar(self):
        # one reader, no signed mode: the old nonpositive radii are refused
        assert ExtReal.parse(" 6/4 ") == ExtReal(3, 2)
        assert ExtReal.parse(" inf ") == INF
        for text in ("-1/2", "-2/6", "-+1", "-0.5", "-inf", -1, Fraction(1, 2)):
            with pytest.raises(ValueError):
                ExtReal.parse(text)

    def test_total_order(self):
        chain = [ZERO, ExtReal(1, 4), ExtReal(1, 2), ONE, ExtReal(2), INF]
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                assert (a < b) == (i < j)
                assert (a <= b) == (i <= j)

    def test_hash_consistency(self):
        assert hash(ExtReal(2, 4)) == hash(ExtReal(1, 2))
        assert len({ZERO, ExtReal(0, 5), INF, ExtReal(3, 0)}) == 2


class TestLaws:
    @given(ext_reals(), ext_reals())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(ext_reals(), ext_reals(), ext_reals())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(ext_reals(), ext_reals(), ext_reals())
    def test_add_monotone(self, a, b, c):
        if a <= b:
            assert a + c <= b + c

    @given(ext_reals())
    def test_zero_identity(self, a):
        assert a + ZERO == a

    @given(ext_reals())
    def test_tsub_self_is_zero(self, a):
        assert a.tsub(a) == ZERO

    @given(ext_reals(), finite_ext_reals(), ext_reals())
    def test_adjunction_finite_middle(self, a, b, c):
        # (a - b)+ <= c iff a <= b + c, for finite b
        assert (a.tsub(b) <= c) == (a <= b + c)

    @given(ext_reals(), ext_reals())
    def test_tsub_bounded_by_minuend(self, a, b):
        if not a.is_inf:
            assert a.tsub(b) <= a


# Few, small denominators, so even independent draws often share one.
DENS = (1, 2, 3, 4, 6, 12, 60)


def _over(den):
    """Values k/den already in lowest terms, so every draw keeps ``den``."""
    return st.integers(min_value=0, max_value=500).filter(
        lambda k: gcd(k, den) == 1).map(lambda k: ExtReal(k, den))


@st.composite
def ext_pairs(draw):
    """Two values, sharing their reduced denominator about half the time;
    either side may be inf."""
    if draw(st.booleans()):
        den = draw(st.sampled_from(DENS))
        a, b = draw(_over(den)), draw(_over(den))
    else:
        a, b = (draw(st.sampled_from(DENS).flatmap(_over)) for _ in range(2))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        a = INF
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        b = INF
    return a, b


def _key(x):
    """The Fraction reading of a value, ordered with inf above every rational."""
    return (1, Fraction(0)) if x.is_inf else (0, Fraction(x.num, x.den))


def _from_key(key):
    return INF if key[0] else ExtReal(*key[1].as_integer_ratio())


def _assert_reduced(x):
    assert type(x.num) is int and type(x.den) is int
    if x.is_inf:
        assert (x.num, x.den) == (1, 0)
    else:
        assert x.den >= 1 and gcd(x.num, x.den) == 1


class TestAgainstFraction:
    """Sums, truncated differences, the order and hashing, pinned to
    ``Fraction`` with an explicit top; equal-denominator pairs run the
    fast paths."""

    @given(ext_pairs())
    def test_add_and_tsub(self, pair):
        a, b = pair
        (ia, fa), (ib, fb) = _key(a), _key(b)
        total = a + b
        assert total == _from_key((1, 0) if ia or ib else (0, fa + fb))
        diff = a.tsub(b)
        assert diff == (ZERO if ib else INF if ia else
                        _from_key((0, max(fa - fb, Fraction(0)))))
        _assert_reduced(total)
        _assert_reduced(diff)

    @given(ext_pairs())
    def test_comparisons(self, pair):
        a, b = pair
        for op in (operator.lt, operator.le, operator.gt, operator.ge,
                   operator.eq, operator.ne):
            assert op(a, b) == op(_key(a), _key(b)), op.__name__

    @given(ext_pairs())
    def test_hash_follows_equality(self, pair):
        a, b = pair
        if a == b:
            assert hash(a) == hash(b)
        assert hash(a) == hash(_from_key(_key(a)))

    @given(ext_pairs())
    def test_pickle_round_trip_and_immutability(self, pair):
        for x in pair:
            _assert_reduced(x)
            back = pickle.loads(pickle.dumps(x))
            assert type(back) is ExtReal and back == x
            assert (back.num, back.den) == (x.num, x.den)
            with pytest.raises(AttributeError):
                x.num = 2
            with pytest.raises(AttributeError):
                x.den = 2
            with pytest.raises(AttributeError):
                x.other = 0
