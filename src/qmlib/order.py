"""Suprema in the metric and order senses, directedness, and their links.

A d-supremum of Y is a point x with sup_y d(y, z) = d(x, z) for every z
and d(y, x) = 0 for every y in Y: it must reproduce the metric data of Y,
not just bound it.  Order suprema only use the specialization order, so
the two notions can disagree; the halfopen gallery fixture realizes the
gap.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .extreal import ext_max, ext_min
from .nets import EpSeq, classify, subset_lists
from .space import FiniteSpace, PreconditionError
from .topology import convergence

# Largest number k of specialization classes whose 2^k - 1 unions
# ``check_ed_complete`` walks; more raise
# PreconditionError (exit 3) before the walk.  On the k-point chain
# (d(i, j) = 0 if i <= j else 1) `qml audit` took 0.64 s at k = 16, 1.3 s
# at 17 and 2.5 s at 18, with the ceiling raised for the last two
# (separate processes, medians of 5, 2-vCPU VM, Python 3.11).
MAX_DIRECTED_CLASSES = 16


class SupremumResult(namedtuple("SupremumResult", "d_sups leq_sups classes")):
    # classes: the partition of leq_sups under mutual specialization
    # (x <= y <= x), at most one class, since two least upper bounds lie
    # below each other.
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"d_sups": sorted(self.d_sups),
                "leq_sups": sorted(self.leq_sups),
                "classes": [sorted(c) for c in self.classes]}


def suprema(space: FiniteSpace, Y) -> SupremumResult:
    """d-suprema and order suprema of a nonempty point set (indices).

    Read off the zero masks of the space: x bounds Y when Y lies inside
    ``zero_down[x]``.  The d-suprema are ``d_sup_mask``'s.
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
    d_sups = d_sup_mask(space, pts)
    leq_labels = frozenset(space.labels[i] for i in leq_sups)
    return SupremumResult(frozenset(space.labels[x] for x in upper if d_sups >> x & 1),
                          leq_labels, (leq_labels,) if leq_sups else ())


def d_sup_mask(space: FiniteSpace, pts) -> int:
    """Mask of the d-suprema of a nonempty point set (indices): the upper
    bounds of ``pts`` (a point of every ``zero_up`` of them) whose rank row
    is the column-wise max of the points' rows, read in one
    ``points_by_row`` lookup.

    This is the one d-supremum test: ``suprema`` reads its d-suprema here
    and ``check_ed_complete`` asks it for a nonzero mask.
    """
    up0 = space.zero_up
    upper = -1
    for y in pts:
        upper &= up0[y]
    return space.points_by_row.get(_sup_profile(space.scaled[0], pts), 0) & upper


def sups_signature(space: FiniteSpace) -> tuple:
    """``(order, sups)``: the specialization order as the ``zero_up``
    masks, and the d-suprema of every singleton and then every pair of
    points, one mask each.  The sweep groups spaces by the first and
    compares the second.

    ``d_sup_mask``'s rule, unrolled: each singleton and pair costs one
    ``points_by_row`` lookup and one mask test, with no ``suprema`` call.
    """
    rows = space.scaled[0]
    up0 = space.zero_up
    by_row = space.points_by_row
    sups = [by_row[row] & up0[y] for y, row in enumerate(rows)]
    for a, b in combinations(range(space.n), 2):
        top = tuple(map(max, rows[a], rows[b]))
        sups.append(by_row.get(top, 0) & up0[a] & up0[b])
    return up0, tuple(sups)


def _mask(pts) -> int:
    """Bitmask of a list of distinct point indices."""
    return sum(1 << p for p in pts)


def is_directed(space: FiniteSpace, Y) -> bool:
    """Directedness of a nonempty set, in the metric and the order sense.

    Y is directed iff it has a top member: some y in Y with d(f, y) = 0
    for every f in Y, i.e. ``Y & AND over f in Y of zero_up[f]`` is
    nonzero.  The AND only shrinks as Y is read, so the answer is False as
    soon as it is empty.  The metric sense asks, for every finite F inside
    Y, for a y in Y with max over F of d(f, y) = 0 (the test oracle); F = Y
    is the strongest case, so the two agree on every matrix, with or
    without the triangle law.  On a finite carrier the order sense asks
    the same.
    """
    up0 = space.zero_up
    ymask = 0
    common = -1
    for y in Y:
        ymask |= 1 << y
        common &= up0[y]
        if not common:
            return False
    if not ymask:
        raise PreconditionError("Y must be nonempty")
    return common & ymask != 0


class EdCompletenessReport(namedtuple("EdCompletenessReport",
                                      "complete failing_Y subsets_checked",
                                      defaults=(None, 0))):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"complete": self.complete,
                "failing_Y": list(self.failing_Y) if self.failing_Y else None,
                "subsets_checked": self.subsets_checked}


def check_ed_complete(space: FiniteSpace) -> EdCompletenessReport:
    """Every directed subset has a d-supremum.

    Both verdicts read a point only through its specialization class
    (``space.class_masks``): by the triangle law its members share their
    rows and columns, so directedness and the d-suprema of Y depend only
    on which classes Y meets.  The walk therefore runs over the nonempty
    submasks of ``space.representatives``, in increasing order, and a
    failing Y is such a subset; more than ``MAX_DIRECTED_CLASSES``
    classes raise ``PreconditionError`` before it starts.  ``subset_lists``
    builds each Y as its predecessor's points (Y without its top
    representative, walked earlier) plus that representative, and
    ``is_directed`` asks every Y for a top member, stopping once the AND
    of its ``zero_up`` masks is empty.  A directed Y is counted in
    ``subsets_checked`` and needs a d-supremum (``d_sup_mask``).  The
    space must satisfy the triangle law.  Directedness under a second
    distance e is a test oracle.
    """
    if not space.validation.is_distance:
        raise PreconditionError("directed completeness requires a validated distance")
    reps = space.representatives
    k = reps.bit_count()
    if k > MAX_DIRECTED_CLASSES:
        raise PreconditionError(f"{k} classes exceed the ceiling "
                                f"{MAX_DIRECTED_CLASSES} for walking the directed subsets")
    checked = 0
    for pts in subset_lists([i for i in range(space.n) if reps >> i & 1]):
        if not is_directed(space, pts):
            continue
        checked += 1
        if not d_sup_mask(space, pts):
            return EdCompletenessReport(False, tuple(space.labels[i] for i in pts), checked)
    return EdCompletenessReport(True, None, checked)


def _sup_profile(rows, pts) -> tuple:
    """Row of sup over y in pts of d(y, z), on the integer form of d."""
    return tuple(map(max, zip(*[rows[y] for y in pts])))


class DirectedSequenceReport(namedtuple("DirectedSequenceReport",
                                        "Y_leq_seq seq_in_Y biconditional_violations "
                                        "tail_order_equiv")):
    """Exact audit of the three supremum/limit biconditionals for a set Y
    below an enumerating sequence, plus the tail-order equivalence (None
    when not applicable) for directed Y under a pre-Cauchy sequence."""

    __slots__ = ()

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
