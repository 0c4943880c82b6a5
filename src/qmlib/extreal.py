"""Exact arithmetic on the extended nonnegative rationals [0, inf].

Every distance value in this package is an :class:`ExtReal`: a nonnegative
rational kept in lowest terms, or the absorbing top element ``inf``.  The
conventions that matter downstream are fixed here once:

* addition absorbs infinity,
* truncated subtraction ``(a - b)+`` treats ``inf - inf = 0`` and
  ``finite - inf = 0``,
* scaling by infinity sends 0 to 0 and everything else to ``inf``.

All operations are exact; floats never appear.

Every value is built through ``ExtReal.__init__``, which reduces it to
lowest terms; nothing constructs an instance around it (no
``object.__new__``), so a count of ``__init__`` calls counts every value
made.  ``__init__`` writes the two slots through their descriptors.
Addition and the order take two values of one denominator (infinity's
``den == 0`` included) without cross-multiplying, and ``<=``, ``>`` and
``>=`` compare directly rather than through ``==`` and ``<``.
"""

from __future__ import annotations

import sys
from math import gcd


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to its start when long."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


class ExtReal:
    """A nonnegative rational or infinity.

    Finite values store a reduced ``num/den`` pair with ``den >= 1``;
    infinity is encoded as ``den == 0``.  Instances are immutable,
    hashable and totally ordered, with infinity as the maximum.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            _set_num(self, 1)
            _set_den(self, 0)
            return
        if den < 0:
            num, den = -num, -den
        if num < 0:
            raise ValueError(f"negative value {num}/{den} is not a distance")
        g = gcd(num, den)
        _set_num(self, num // g)
        _set_den(self, den // g)

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

    def __reduce__(self):
        return (ExtReal, (self.num, self.den))

    @classmethod
    def parse(cls, text: str) -> "ExtReal":
        """Read ``"inf"`` or rational text: an integer or ``p/q`` in ASCII
        digits.

        This is the one grammar for numeric input.  Surrounding whitespace
        is ignored; a sign, ``_``, an exponent, a decimal point or a
        non-ASCII digit is not read (``int()`` alone would take ``"+1"``,
        ``"1_0"`` or an Arabic-Indic three).  Anything else, including a
        zero denominator, raises ``ValueError``.  So does an integer of
        more than half the digits Python prints
        (``sys.get_int_max_str_digits()``): results print as text, and a
        sum of two products of input integers must stay printable.
        """
        if not isinstance(text, str):
            raise ValueError(f"{_shown(text)} is not rational text")
        t = text.strip()
        if t in ("inf", "Inf", "INF", "oo"):
            return INF
        p, slash, q = t.partition("/")
        if not (p.isascii() and p.isdigit()
                and (not slash or q.isascii() and q.isdigit())):
            raise ValueError(f"{_shown(text)}: a rational is an integer or p/q with "
                             "ASCII digits only")
        if len(t) > 319:   # Python's least nonzero limit is 640, so no cap is below 319
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()   # 0: no limit
            digits = max(len(p), len(q))
            if limit and digits > (limit - 1) // 2:   # one digit spare for a sum's carry
                raise ValueError(f"a rational of {digits} digits: at most "
                                 f"{(limit - 1) // 2} digits per integer")
        den = int(q) if slash else 1
        if den == 0:
            raise ValueError(f"zero denominator in {_shown(text)}")
        return cls(int(p), den)

    @property
    def is_inf(self) -> bool:
        return self.den == 0

    def __add__(self, other: "ExtReal") -> "ExtReal":
        d, e = self.den, other.den
        if d == e:
            return ExtReal(self.num + other.num, d) if d else INF
        if d == 0 or e == 0:
            return INF
        return ExtReal(self.num * e + other.num * d, d * e)

    def tsub(self, other: "ExtReal") -> "ExtReal":
        """Truncated subtraction ``(self - other)+``.

        ``inf - finite = inf``; ``anything - inf = 0`` (in particular
        ``inf - inf = 0``, which makes self-distances of all-infinite
        coordinate vectors vanish).
        """
        if other.den == 0:
            return ZERO
        if self.den == 0:
            return INF
        num = self.num * other.den - other.num * self.den
        if num <= 0:
            return ZERO
        return ExtReal(num, self.den * other.den)

    def scale_inf(self) -> "ExtReal":
        """Multiply by infinity with the convention ``inf * 0 = 0``."""
        return ZERO if (self.den != 0 and self.num == 0) else INF

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # Lowest terms make equal denominators compare on numerators alone;
    # otherwise infinity (den == 0) decides, then cross-multiplication.
    def __lt__(self, other: "ExtReal") -> bool:
        d, e = self.den, other.den
        if d == e:
            return d != 0 and self.num < other.num
        if d == 0 or e == 0:
            return e == 0
        return self.num * e < other.num * d

    def __le__(self, other: "ExtReal") -> bool:
        d, e = self.den, other.den
        if d == e:
            return d == 0 or self.num <= other.num
        if d == 0 or e == 0:
            return e == 0
        return self.num * e <= other.num * d

    def __gt__(self, other: "ExtReal") -> bool:
        d, e = self.den, other.den
        if d == e:
            return d != 0 and self.num > other.num
        if d == 0 or e == 0:
            return d == 0
        return self.num * e > other.num * d

    def __ge__(self, other: "ExtReal") -> bool:
        d, e = self.den, other.den
        if d == e:
            return d == 0 or self.num >= other.num
        if d == 0 or e == 0:
            return d == 0
        return self.num * e >= other.num * d

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"ExtReal({self})"

    def is_zero(self) -> bool:
        return self.den != 0 and self.num == 0


_set_num = ExtReal.num.__set__
_set_den = ExtReal.den.__set__

ZERO = ExtReal(0)
ONE = ExtReal(1)
INF = ExtReal(1, 0)
