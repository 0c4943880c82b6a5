"""Derived step functions on [0, inf] measuring ball boundability.

For each radius r the four functions ask how well balls of radius r can be
bounded from below (d_up) or above (d_low, d_F, d_Phi) by nearby points.
On a finite space each is piecewise constant between consecutive distinct
matrix values, so it is computed exactly as a :class:`StepFn`.

Pieces follow the right-closed convention: the stored value holds on
(prev_cut, cut], with an explicit value at 0 (empty ball) and the last cut
at infinity.  This matches closed-threshold semantics of sup over
{x : g(x) <= r}.
"""

from __future__ import annotations

from collections import namedtuple

from .extreal import INF, ZERO, ExtReal
from .space import FiniteSpace


class StepFn(namedtuple("StepFn", "at_zero cuts values")):
    """Piecewise constant nondecreasing-or-not function on [0, inf].

    ``cuts`` ascend and end at inf; ``values[i]`` holds on
    (cuts[i-1], cuts[i]].
    """

    __slots__ = ()

    def __new__(cls, at_zero, cuts, values):
        if len(cuts) != len(values) or not cuts:
            raise ValueError("cuts and values must align and be nonempty")
        if cuts[-1] != INF:
            raise ValueError("last cut must be inf")
        if any(not (cuts[i] < cuts[i + 1]) for i in range(len(cuts) - 1)):
            raise ValueError("cuts must be strictly ascending")
        return tuple.__new__(cls, (at_zero, cuts, values))

    def __call__(self, r: ExtReal) -> ExtReal:
        if r.is_zero():
            return self.at_zero
        for cut, val in zip(self.cuts, self.values):
            if r <= cut:
                return val
        return self.values[-1]

    @property
    def first_positive_value(self) -> ExtReal:
        """The constant value on the interval just above 0."""
        return self.values[0]

    def to_dict(self) -> dict:
        return {"at_zero": str(self.at_zero),
                "cuts": [str(c) for c in self.cuts],
                "values": [str(v) for v in self.values]}


class DerivedFunctions(namedtuple("DerivedFunctions", "d_up d_low")):
    """The four ball-bound functions.

    On a finite carrier d_F and d_Phi coincide with d_low (see
    :func:`derived_functions`), so they are read-only aliases of it.
    """

    __slots__ = ()

    @property
    def d_F(self) -> StepFn:
        return self.d_low

    @property
    def d_Phi(self) -> StepFn:
        return self.d_low

    def to_dict(self) -> dict:
        low = self.d_low.to_dict()
        return {"d_up": self.d_up.to_dict(), "d_low": low, "d_F": low, "d_Phi": low}


def derived_functions(space: FiniteSpace) -> DerivedFunctions:
    """Compute d_up and d_low exactly; d_F and d_Phi equal d_low.

    d_up(r):  worst over x of how far x is from a lower bound of its upper
              ball of radius r.
    d_low(r): worst over x of how far above x an upper bound of its lower
              ball must sit.
    d_F(r):   like d_low but through finite subsets of the ball; on a
              finite carrier the sup over subsets is attained at the whole
              ball (adding points only shrinks the bound candidates), so
              d_F = d_low.
    d_Phi(r): like d_F with bounds taken through every generator of the
              relation filter.  The generators are nested and the smallest
              one is the specialization order {d = 0}, so the sup over them
              is attained there and d_Phi = d_F = d_low.

    Empty candidate sets contribute inf.  The definitional forms of d_F
    and d_Phi are kept as test oracles.

    Both functions run as one ascending sweep over the rank table of the
    matrix (``FiniteSpace.scaled``): a ball only grows with the radius, so
    each entry joins its row's ball at one cut, and each point's bound
    only grows.  The cuts are the ranks 1 to ``sentinel``: every distinct
    positive finite entry, then inf.
    """
    rows, back, sentinel = space.scaled
    columns = tuple(zip(*rows))
    return DerivedFunctions(_ball_bound_fn(rows, space.zero_down, sentinel, back),
                            _ball_bound_fn(columns, space.zero_up, sentinel, back))


def _ball_bound_fn(rows, held, sentinel, back) -> StepFn:
    """Worst over x of the least ``rows[x][y]`` over the admissible y, the
    y whose cover holds the ball {z : rows[x][z] < r}, at radius 0 and at
    each cut r of rank 1 to ``sentinel`` (the last is inf, and ``sentinel``
    is also the empty infimum).

    ``held[z]`` is the mask of the y whose cover holds z, so the
    admissible y of a ball are the meet of ``held`` over its members.
    With rows = d and held = zero_down (the cover is zero_up) this is
    d_up; with rows = the transpose of d and held = zero_up (the cover is
    zero_down) it is d_low.

    Each entry (x, z) of rank v below the sentinel is an event at the
    cut of rank v + 1, where z joins x's ball, so it goes into bucket
    ``events[v]``.  It narrows ``ok[x]``, and x's bound is the entry of
    the first y of its ascending row still in ``ok[x]``; that pointer
    only moves forward, so the sweep costs O(n^2) after the row sorts.
    Bounds only grow, so the worst one is a running max.
    """
    n = len(rows)
    events = [[] for _ in range(sentinel)]
    for x, row in enumerate(rows):
        for z, v in enumerate(row):
            if v < sentinel:
                events[v].append((x, z))
    orders = [sorted(range(n), key=row.__getitem__) for row in rows]
    ok = [(1 << n) - 1] * n
    first = [0] * n       # position in orders[x] of x's first admissible y
    worst = at_zero = max((min(row) for row in rows), default=0)   # empty balls
    values = []
    for bucket in events:
        for x, z in bucket:
            mask = ok[x] = ok[x] & held[z]
            order, k = orders[x], first[x]
            if k < n and not mask >> order[k] & 1:
                k += 1
                while k < n and not mask >> order[k] & 1:
                    k += 1
                first[x] = k
                bound = rows[x][order[k]] if k < n else sentinel
                if bound > worst:
                    worst = bound
        values.append(worst)
    return StepFn(back[at_zero], back[1:], tuple(back[v] for v in values))


def sub_identity(f: StepFn) -> bool:
    """f is uniformly below the identity: lim_{r->0+} sup_{[0,r]} f = 0."""
    return f.at_zero.is_zero() and f.first_positive_value.is_zero()


def leq_identity(f: StepFn) -> bool:
    """f(r) <= r for every r in [0, inf]."""
    if not f.at_zero.is_zero():
        return False
    prev = ZERO
    for cut, val in zip(f.cuts, f.values):
        # the piece (prev, cut] must sit below every r it contains
        if not val <= prev:
            return False
        prev = cut
    return True


def dist_subequiv(f_space: FiniteSpace, g_space: FiniteSpace) -> bool:
    """Uniform subequivalence of two distances on the same points.

    f below g means sup{f(x,y) : g(x,y) <= r} -> 0, which on finite data is
    exactly: g(x,y) = 0 forces f(x,y) = 0, i.e. each ``zero_up`` mask of g
    lies inside that of f.
    """
    return all(g & ~f == 0 for f, g in zip(f_space.zero_up, g_space.zero_up))
