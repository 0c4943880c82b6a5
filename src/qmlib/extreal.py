"""Exact arithmetic on the extended nonnegative rationals [0, inf].

Every distance value in this package is an :class:`ExtReal`: a nonnegative
rational kept in lowest terms, or the absorbing top element ``inf``.  The
conventions that matter downstream are fixed here once:

* addition absorbs infinity,
* truncated subtraction ``(a - b)+`` treats ``inf - inf = 0`` and
  ``finite - inf = 0``,
* scaling by infinity sends 0 to 0 and everything else to ``inf``.

All operations are exact; floats never appear.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def check_ascii_numeral(text: str) -> str:
    """Return ``text`` if it is ASCII with no ``_``, else raise ``ValueError``.

    ``int()`` and ``Fraction()`` alone would read ``"1_0"`` as 10 and an
    Arabic-Indic three as 3: numeric text is never silently reinterpreted.
    """
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"{text!r}: numbers take ASCII digits only, without '_'")
    return text


class ExtReal:
    """A nonnegative rational or infinity.

    Finite values store a reduced ``num/den`` pair with ``den >= 1``;
    infinity is encoded as ``den == 0``.  Instances are immutable,
    hashable and totally ordered, with infinity as the maximum.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            object.__setattr__(self, "num", 1)
            object.__setattr__(self, "den", 0)
            return
        if den < 0:
            num, den = -num, -den
        if num < 0:
            raise ValueError(f"negative value {num}/{den} is not a distance")
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

    def __reduce__(self):
        return (ExtReal, (self.num, self.den))

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ExtReal":
        return cls(f.numerator, f.denominator)

    @classmethod
    def parse(cls, text: str) -> "ExtReal":
        """Parse the textual encoding: ``"p/q"``, an integer, or ``"inf"``.

        A zero denominator raises ``SpaceError``; malformed or negative
        text raises ``ValueError``.
        """
        t = text.strip()
        if t in ("inf", "Inf", "INF", "oo"):
            return INF
        check_ascii_numeral(t)
        if "/" in t:
            p, q = t.split("/", 1)
            num, den = int(p), int(q)
            if den == 0:
                # ExtReal(num, 0) is the internal infinity; text must say "inf"
                from .space import SpaceError
                raise SpaceError(f"zero denominator in {text!r}")
            return cls(num, den)
        return cls(int(t))

    @property
    def is_inf(self) -> bool:
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.den == 0:
            raise ValueError("infinity has no Fraction form")
        return Fraction(self.num, self.den)

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if self.den == 0 or other.den == 0:
            return INF
        return ExtReal(self.num * other.den + other.num * self.den,
                       self.den * other.den)

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

    def __lt__(self, other: "ExtReal") -> bool:
        if self.den == 0:
            return False
        if other.den == 0:
            return True
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "ExtReal") -> bool:
        return self == other or self < other

    def __gt__(self, other: "ExtReal") -> bool:
        return other < self

    def __ge__(self, other: "ExtReal") -> bool:
        return other <= self

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


ZERO = ExtReal(0)
ONE = ExtReal(1)
INF = ExtReal(1, 0)


def ext(num: int, den: int = 1) -> ExtReal:
    """Shorthand constructor used all over the tests and fixtures."""
    return ExtReal(num, den)


def add(a: ExtReal, b: ExtReal) -> ExtReal:
    return a + b


def tsub(a: ExtReal, b: ExtReal) -> ExtReal:
    return a.tsub(b)


def scale_inf(r: ExtReal) -> ExtReal:
    return r.scale_inf()


def ext_min(values, default: ExtReal = INF) -> ExtReal:
    """Minimum with ``inf`` as the empty infimum."""
    best = default
    for v in values:
        if v < best:
            best = v
    return best


def ext_max(values, default: ExtReal = ZERO) -> ExtReal:
    """Maximum with ``0`` as the empty supremum."""
    best = default
    for v in values:
        if best < v:
            best = v
    return best
