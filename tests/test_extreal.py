"""Exact arithmetic laws for the extended nonnegative rationals."""

import pytest

from hypothesis import given, strategies as st

from fractions import Fraction

from qmlib.extreal import (INF, ONE, ZERO, ExtReal, add, ext, parse_rational,
                           scale_inf, tsub)


def rationals():
    return st.fractions(min_value=0, max_value=100)


def ext_reals():
    return st.one_of(
        st.just(INF),
        rationals().map(ExtReal.from_fraction),
    )


class TestBasics:
    def test_add_examples(self):
        assert add(ext(1, 2), ext(1, 3)) == ext(5, 6)
        assert add(ext(1, 2), INF) == INF
        assert add(ZERO, ZERO) == ZERO

    def test_tsub_examples(self):
        assert tsub(ext(3, 2), ext(1, 2)) == ONE
        assert tsub(ext(1, 2), ext(3, 2)) == ZERO
        assert tsub(INF, INF) == ZERO
        assert tsub(INF, ext(7)) == INF
        assert tsub(ext(7), INF) == ZERO

    def test_scale_inf_examples(self):
        assert scale_inf(ZERO) == ZERO
        assert scale_inf(ext(1, 7)) == INF
        assert scale_inf(INF) == INF

    def test_lowest_terms(self):
        assert ext(2, 4) == ext(1, 2)
        assert str(ext(6, 3)) == "2"

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

    def test_parse_rational_grammar(self):
        assert parse_rational(" 6/4 ") == Fraction(3, 2)
        assert parse_rational("-2/6", nonpositive=True) == Fraction(-1, 3)
        assert parse_rational("0", nonpositive=True) == 0
        for text, nonpositive in (("-1/2", False), ("1/2", True), ("-+1", True),
                                  ("-1/-2", True), ("-0.5", True), (-1, True)):
            with pytest.raises(ValueError):
                parse_rational(text, nonpositive=nonpositive)

    def test_total_order(self):
        chain = [ZERO, ext(1, 4), ext(1, 2), ONE, ext(2), INF]
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                assert (a < b) == (i < j)
                assert (a <= b) == (i <= j)

    def test_hash_consistency(self):
        assert hash(ext(2, 4)) == hash(ext(1, 2))
        assert len({ZERO, ext(0, 5), INF, ExtReal(3, 0)}) == 2


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
        assert tsub(a, a) == ZERO

    @given(ext_reals(), rationals().map(ExtReal.from_fraction), ext_reals())
    def test_adjunction_finite_middle(self, a, b, c):
        # (a - b)+ <= c iff a <= b + c, for finite b
        assert (tsub(a, b) <= c) == (a <= b + c)

    @given(ext_reals(), ext_reals())
    def test_tsub_bounded_by_minuend(self, a, b):
        if not a.is_inf:
            assert tsub(a, b) <= a
