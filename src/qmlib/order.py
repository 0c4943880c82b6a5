"""Suprema in the metric and order senses, directedness, and their links.

A d-supremum of Y is a point x with sup_y d(y, z) = d(x, z) for every z
and d(y, x) = 0 for every y in Y: it must reproduce the metric data of Y,
not just bound it.  Order suprema only use the specialization order, so
the two notions can disagree; the halfopen gallery fixture realizes the
gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .extreal import ext_max, ext_min
from .nets import MAX_DIRECTED_CLASSES, EpSeq, PreconditionError, classify, submasks
from .space import FiniteSpace, representatives
from .topology import convergence


@dataclass(frozen=True)
class SupremumResult:
    d_sups: frozenset
    leq_sups: frozenset
    # Partition of leq_sups under mutual specialization (x <= y <= x): at
    # most one class, since two least upper bounds lie below each other.
    classes: tuple

    def to_dict(self) -> dict:
        return {"d_sups": sorted(self.d_sups),
                "leq_sups": sorted(self.leq_sups),
                "classes": [sorted(c) for c in self.classes]}


def suprema(space: FiniteSpace, Y) -> SupremumResult:
    """d-suprema and order suprema of a nonempty point set (indices).

    Read off the zero masks and the integer rows of the space: x bounds Y
    when Y lies inside ``zero_down[x]``, and is a d-supremum when, in
    addition, its row equals the column-wise max of the rows of Y.
    """
    pts = sorted(set(Y))
    if not pts:
        raise PreconditionError("Y must be nonempty")
    up0 = space.zero_up
    down0 = space.zero_down
    ymask = _mask(pts)
    upper = [x for x in range(space.n) if down0[x] & ymask == ymask]
    umask = _mask(upper)
    leq_sups = [x for x in upper if up0[x] & umask == umask]
    rows = space.scaled[0]
    profile = _sup_profile(rows, pts)
    d_sups = [x for x in upper if list(rows[x]) == profile]
    leq_labels = frozenset(space.labels[i] for i in leq_sups)
    return SupremumResult(frozenset(space.labels[i] for i in d_sups), leq_labels,
                          (leq_labels,) if leq_sups else ())


def _mask(pts) -> int:
    """Bitmask of a list of distinct point indices."""
    return sum(1 << p for p in pts)


def is_directed(space: FiniteSpace, Y) -> bool:
    """Directedness of a nonempty set, in the metric and the order sense.

    The metric sense quantifies over pairs only; by the triangle law that
    already covers all finite subsets (the exhaustive version is the test
    oracle).  On a finite carrier the pairwise infimum is attained, so the
    metric sense reduces to the same common-upper-bound-in-Y test as the
    order sense; the two notions only diverge on infinite carriers.
    """
    pts = sorted(set(Y))
    if not pts:
        raise PreconditionError("Y must be nonempty")
    up0 = space.zero_up
    ymask = _mask(pts)
    return all(up0[a] & up0[b] & ymask
               for a, b in itertools.combinations_with_replacement(pts, 2))


@dataclass(frozen=True)
class EdCompletenessReport:
    complete: bool
    failing_Y: tuple | None = None
    subsets_checked: int = 0

    def to_dict(self) -> dict:
        return {"complete": self.complete,
                "failing_Y": list(self.failing_Y) if self.failing_Y else None,
                "subsets_checked": self.subsets_checked}


def check_ed_complete(space_e: FiniteSpace, space_d: FiniteSpace) -> EdCompletenessReport:
    """Every e-directed subset has a d-supremum.

    Both verdicts read a point only through its class under the two
    distances together (``space_e.class_masks[i] & space_d.class_masks[i]``):
    by the triangle law its members share their e- and d-profiles, so e-
    directedness and the d-suprema of Y depend only on which classes Y
    meets.  The search therefore runs over the nonempty subsets of the
    class representatives, and a failing Y is such a subset; more than
    ``nets.MAX_DIRECTED_CLASSES`` classes raise ``PreconditionError``
    before that walk.  Both arguments must satisfy the triangle law.
    """
    if space_e.labels != space_d.labels:
        raise PreconditionError("the two distances must share a point set")
    if not (space_e.validation.is_distance and space_d.validation.is_distance):
        raise PreconditionError("directed completeness requires two validated distances")
    reps = representatives(a & b for a, b in zip(space_e.class_masks, space_d.class_masks))
    k = reps.bit_count()
    if k > MAX_DIRECTED_CLASSES:
        raise PreconditionError(f"{k} classes exceed the ceiling "
                                f"{MAX_DIRECTED_CLASSES} for walking the directed subsets")
    n = space_d.n
    checked = 0
    for mask in submasks(reps):
        pts = [i for i in range(n) if mask >> i & 1]
        if not is_directed(space_e, pts):
            continue
        checked += 1
        if not _has_d_sup(space_d, pts):
            return EdCompletenessReport(False, tuple(space_d.labels[i] for i in pts), checked)
    return EdCompletenessReport(True, None, checked)


def _has_d_sup(space: FiniteSpace, pts) -> bool:
    """Existence-only d-supremum test (matches suprema().d_sups != empty)."""
    down0 = space.zero_down
    ymask = _mask(pts)
    rows = space.scaled[0]
    profile = _sup_profile(rows, pts)
    return any(list(rows[x]) == profile
               for x in range(space.n) if down0[x] & ymask == ymask)


def _sup_profile(rows, pts) -> list:
    """Row of sup over y in pts of d(y, z), on the integer form of d."""
    return list(map(max, zip(*[rows[y] for y in pts])))


@dataclass(frozen=True)
class DirectedSequenceReport:
    """Exact audit of the three supremum/limit biconditionals for a set Y
    below an enumerating sequence, plus the tail-order equivalence for
    directed Y under a pre-Cauchy sequence."""

    Y_leq_seq: bool
    seq_in_Y: bool
    biconditional_violations: tuple
    tail_order_equiv: bool | None

    @property
    def ok(self) -> bool:
        return not self.biconditional_violations and self.tail_order_equiv is not False


def link_directed_sequence(space: FiniteSpace, Y, seq: EpSeq) -> DirectedSequenceReport:
    """Check the supremum/limit correspondences for Y and a sequence.

    When Y sits below the sequence and the sequence stays inside Y, every
    point x must satisfy exactly:

    * lower-hole limit  iff Y <= x,
    * upper-hole limit  iff forward data of x is dominated by Y's,
    * double-hole limit iff x is a d-supremum of Y.

    Independently, for metric-sense directed Y and pre-Cauchy sequences,
    Y <= seq iff the backward limits of the sequence are below inf over Y.
    """
    pts = sorted(set(Y))
    if not pts:
        raise PreconditionError("Y must be nonempty")
    n = space.n
    y_leq_seq = all(space.d(y, c).is_zero() for y in pts for c in seq.cycle)
    terms = set(seq.pre) | set(seq.cycle)
    seq_in_Y = terms <= set(pts)
    violations = []
    if y_leq_seq and seq_in_Y:
        sup_result = suprema(space, pts)
        for x in range(n):
            rep = convergence(space, seq, x)
            lbl = space.labels[x]
            lhs5 = rep.lower_hole
            rhs5 = all(space.leq(y, x) for y in pts)
            if lhs5 != rhs5:
                violations.append((lbl, "lower_hole_vs_upper_bound"))
            lhs6 = rep.upper_hole
            rhs6 = all(space.d(x, z) <= ext_max(space.d(y, z) for y in pts)
                       for z in range(n))
            if lhs6 != rhs6:
                violations.append((lbl, "upper_hole_vs_forward_domination"))
            lhs7 = rep.double_hole
            rhs7 = lbl in sup_result.d_sups
            if lhs7 != rhs7:
                violations.append((lbl, "double_hole_vs_d_sup"))
    tail_equiv = None
    if is_directed(space, pts) and classify(space, seq).pre_cauchy:
        lhs = y_leq_seq
        rhs = all(
            # backward limit of the sequence at z, constant on a Cauchy cycle
            space.d(z, seq.cycle[0]) <= ext_min(space.d(z, y) for y in pts)
            for z in range(n))
        tail_equiv = lhs == rhs
    return DirectedSequenceReport(y_leq_seq, seq_in_Y, tuple(violations), tail_equiv)
