"""Eventually periodic sequences and their exact tail analysis.

An :class:`EpSeq` is a sequence of points given by a finite preperiod and a
repeating cycle.  Every limit inferior/superior over the tail is then a
finite min/max over cycle positions, which makes the three net classes and
all convergence predicates decidable with no tolerance.
"""

from __future__ import annotations

from collections import namedtuple

from .extreal import ExtReal
from .space import FiniteSpace, PreconditionError, SpaceError


# Largest specialization class whose zero cliques are listed; a larger
# one raises PreconditionError (exit 3) before any listing.  A class of k
# points has 2^k - 1 cliques: an all-zero 20-point file took 0.2 s and
# 63 MB peak RSS (2-vCPU VM, Python 3.11), and each further point doubles
# both.
MAX_CLASS_SIZE = 20


def _primitive_cycle(cycle: tuple) -> tuple:
    """Shortest word whose repetition gives the cycle."""
    n = len(cycle)
    for p in range(1, n + 1):
        if n % p == 0 and cycle == cycle[:p] * (n // p):
            return cycle[:p]
    return cycle


class EpSeq(namedtuple("EpSeq", "pre cycle")):
    """Canonical eventually periodic sequence of point indices.

    Canonical form: the cycle is not a proper power, and the preperiod has
    no trailing element that could be absorbed by rotating the cycle.
    Construct through :func:`epseq` to get canonicalization.
    """

    __slots__ = ()

    def __new__(cls, pre, cycle):
        if not cycle:
            raise SpaceError("cycle must be nonempty")
        return tuple.__new__(cls, (pre, cycle))

    def term(self, k: int) -> int:
        if k < len(self.pre):
            return self.pre[k]
        return self.cycle[(k - len(self.pre)) % len(self.cycle)]


def epseq(pre, cycle) -> EpSeq:
    pre = tuple(pre)
    cycle = _primitive_cycle(tuple(cycle))
    if not cycle:
        raise SpaceError("cycle must be nonempty")
    while pre and pre[-1] == cycle[-1]:
        pre = pre[:-1]
        cycle = cycle[-1:] + cycle[:-1]
    return EpSeq(pre, cycle)


def epseq_from_labels(space: FiniteSpace, pre, cycle) -> EpSeq:
    return epseq([space.index(x) for x in pre], [space.index(x) for x in cycle])


def seq_from_dict(space: FiniteSpace, data: dict) -> EpSeq:
    """Parse the sequence literal {"pre": [...], "cycle": [...]}: an object
    whose ``cycle`` and optional ``pre`` are lists of point labels.  Any
    other shape raises ``SpaceError``."""
    if not isinstance(data, dict) or "cycle" not in data:
        raise SpaceError("sequence literal needs a 'cycle' list")
    parts = data.get("pre", []), data["cycle"]
    if not all(isinstance(p, list) and all(isinstance(x, str) for x in p) for p in parts):
        raise SpaceError("'pre' and 'cycle' must be lists of point labels")
    return epseq_from_labels(space, *parts)


class NetClasses(namedtuple("NetClasses", "reflexive pre_cauchy cauchy")):
    __slots__ = ()


def check_ids(space: FiniteSpace, seq: EpSeq) -> None:
    """All sequence ids must name points of the ambient space."""
    for i in seq.pre + seq.cycle:
        if not 0 <= i < space.n:
            raise SpaceError(f"point id {i} outside the space")


def classify(space: FiniteSpace, seq: EpSeq) -> NetClasses:
    """The three net classes, decided on the cycle.

    reflexive: from every cycle position some later position is arbitrarily
    close, i.e. min over the cycle of d(c_i, .) is 0 for each i.
    pre_cauchy: all later positions get close, i.e. the max is 0.
    cauchy: d vanishes on the whole cycle square.  On eventually periodic
    data pre_cauchy and cauchy coincide; both are kept for the record.

    Entries are nonnegative, so a min over the cycle is 0 iff ``zero_up[i]``
    meets the cycle's mask, and a max is 0 iff that mask lies inside
    ``zero_up[i]``; neither test needs the triangle law.
    """
    check_ids(space, seq)
    up0 = space.zero_up
    cycle = 0
    for i in seq.cycle:
        cycle |= 1 << i
    reflexive = all(up0[i] & cycle for i in seq.cycle)
    cauchy = all(cycle & ~up0[i] == 0 for i in seq.cycle)
    return NetClasses(reflexive, cauchy, cauchy)


def submasks(mask: int):
    """Every nonempty submask of ``mask``, in increasing order."""
    sub = mask & -mask
    while sub:
        yield sub
        sub = (sub - mask) & mask


def subset_lists(points):
    """Every nonempty subset of ``points`` (increasing indices) as an
    increasing list, in the order ``submasks`` visits their masks.

    Each subset is its predecessor, the subset without its top point
    (which that order always visits first), extended by the top point.
    Only the subsets of all but the last point can be predecessors, so at
    most 2^(k-1) lists are held for k points.  A yielded list may be one
    of those held, so callers must not change it.
    """
    kept = [[]]
    for p in points[:-1]:
        for i in range(len(kept)):
            ys = kept[i] + [p]
            kept.append(ys)
            yield ys
    for p in points[-1:]:   # no subset with the last point is a predecessor
        for ys in kept:
            yield ys + [p]


def zero_cliques(space: FiniteSpace):
    """All nonempty subsets on which d vanishes, as sorted bitmasks: the
    nonempty submasks of ``FiniteSpace.zero_classes``, which raises
    ``PreconditionError`` on a space whose classes do not partition.  A
    class above ``MAX_CLASS_SIZE`` points raises it too.
    """
    classes = space.zero_classes
    largest = max((cls.bit_count() for cls in classes), default=0)
    if largest > MAX_CLASS_SIZE:
        raise PreconditionError(
            f"a specialization class of {largest} points exceeds the ceiling "
            f"{MAX_CLASS_SIZE} for listing its zero cliques")
    return sorted(sub for cls in classes for sub in submasks(cls))


def cauchy_subsequence(space: FiniteSpace, seq: EpSeq) -> EpSeq:
    """A Cauchy subsequence of a pre-Cauchy sequence.

    On eventually periodic input pre-Cauchy already implies Cauchy, so the
    sequence itself is returned.  (Family sequences have their own
    extraction; see :mod:`qmlib.family`.)
    """
    cls = classify(space, seq)
    if not cls.pre_cauchy:
        raise PreconditionError("sequence is not pre-Cauchy")
    return seq


def net_distance(space: FiniteSpace, s: EpSeq, t: EpSeq) -> ExtReal:
    """Distance between sequences: limsup over s of liminf over t of d.

    Exact on cycles: the inner liminf is a min over t's cycle, the outer
    limsup a max over s's cycle of those minima.
    """
    check_ids(space, s)
    check_ids(space, t)
    return max(min(space.d(i, j) for j in t.cycle) for i in s.cycle)


class SeqLimits(namedtuple("SeqLimits", "forward backward")):
    """Limits of d(x_k, y) and d(y, x_k); None when the tail oscillates."""

    __slots__ = ()


def seq_limits_against(space: FiniteSpace, seq: EpSeq, y: int) -> SeqLimits:
    """The forward and backward distance limits of the sequence against y.

    For a pre-Cauchy sequence over a valid distance both limits exist (the
    cycle values are forced equal by the triangle law); otherwise a
    non-constant cycle reads as "does not converge" (None).
    """
    fwd_vals = {space.d(i, y) for i in seq.cycle}
    bwd_vals = {space.d(y, i) for i in seq.cycle}
    fwd = next(iter(fwd_vals)) if len(fwd_vals) == 1 else None
    bwd = next(iter(bwd_vals)) if len(bwd_vals) == 1 else None
    return SeqLimits(fwd, bwd)
