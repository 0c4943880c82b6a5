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

from .nets import EpSeq, check_ids, classify
from .space import FiniteSpace, PreconditionError
from .topology import convergence

# Largest number k of specialization classes whose up to 2^k - 1 unions
# ``check_ed_complete`` walks; more raise
# PreconditionError (exit 3) before the walk.  On the k-point chain
# (d(i, j) = 0 if i <= j else 1), where no union is skipped, `qml audit`
# took 0.21 s and 22 MB peak RSS at k = 16, 0.32 s at 17 and 0.57 s and
# 43 MB at 18, with the ceiling raised for the last two (separate
# processes, medians of 5, 2-vCPU VM, Python 3.11).
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
    """d-suprema and order suprema of a nonempty point set (indices): the
    d-suprema are ``d_sup_mask``'s, the order suprema the upper bounds
    whose ``zero_up`` mask holds every upper bound."""
    pts = sorted(set(Y))
    up0 = space.zero_up
    upper = _upper_bounds(up0, pts)
    d_sups = d_sup_mask(space, pts)
    labels = space.labels
    leq_labels = frozenset(labels[x] for x in range(space.n)
                           if upper >> x & 1 and up0[x] & upper == upper)
    return SupremumResult(frozenset(labels[x] for x in range(space.n) if d_sups >> x & 1),
                          leq_labels, (leq_labels,) if leq_labels else ())


def _upper_bounds(up0, pts) -> int:
    """Mask of the upper bounds of a nonempty point set, the AND of its
    ``zero_up`` masks; only ``is_directed`` (which stops early),
    ``sups_signature`` (unrolled) and ``check_ed_complete``'s walk (one AND
    per subset, on its predecessor's) AND them themselves."""
    upper = -1
    for y in pts:
        upper &= up0[y]
    if upper < 0:
        raise PreconditionError("Y must be nonempty")
    return upper


def d_sup_mask(space: FiniteSpace, pts) -> int:
    """Mask of the d-suprema of a nonempty point set (indices): the upper
    bounds of ``pts`` whose rank row is the column-wise max of the points'
    rows, read in one ``points_by_row`` lookup.

    This is the one d-supremum test: ``suprema`` and
    ``link_directed_sequence`` read their d-suprema here, and
    ``check_ed_complete``'s walk, which carries each subset's upper bounds
    and column-wise max, applies the same rule, ``_d_sups``, to them.
    """
    upper = _upper_bounds(space.zero_up, pts)
    return _d_sups(space, _sup_profile(space.scaled[0], pts), upper)


def _d_sups(space: FiniteSpace, profile: tuple, upper: int) -> int:
    """The d-supremum rule: the points of ``upper`` (a set's upper bounds)
    whose rank row is ``profile`` (the column-wise max of its rows)."""
    return space.points_by_row.get(profile, 0) & upper


def sups_signature(space: FiniteSpace) -> tuple:
    """``(order, sups)``: the specialization order as the ``zero_up``
    masks, and the d-suprema of every singleton and then every pair of
    points, one mask each.  The sweep groups spaces by the first and
    compares the second.

    ``d_sup_mask``'s rule, unrolled: each singleton and pair costs one
    ``points_by_row`` lookup and one mask test, with no ``suprema`` call.
    A ``d_sup_mask`` call per singleton and pair cost the ``sweep_n6``
    benchmark about 6% of its throughput (1896 to 1778 items/s, slower in
    6 of 6 paired runs; 2-vCPU VM, Python 3.11).
    """
    rows = space.scaled[0]
    up0 = space.zero_up
    by_row = space.points_by_row
    sups = [by_row[row] & up0[y] for y, row in enumerate(rows)]
    for a, b in combinations(range(space.n), 2):
        top = tuple(map(max, rows[a], rows[b]))
        sups.append(by_row.get(top, 0) & up0[a] & up0[b])
    return up0, tuple(sups)


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
    on which classes Y meets.  The walk (``_walk_directed``) therefore
    runs over the nonempty subsets of the class representatives, and a
    failing Y is such a subset; more than ``MAX_DIRECTED_CLASSES``
    classes raise ``PreconditionError`` before it starts.  The space must
    satisfy the triangle law.  Directedness under a second distance e is
    a test oracle.
    """
    if not space.validation.is_distance:
        raise PreconditionError("directed completeness requires a validated distance")
    reps = space.representatives
    k = reps.bit_count()
    if k > MAX_DIRECTED_CLASSES:
        raise PreconditionError(f"{k} classes exceed the ceiling "
                                f"{MAX_DIRECTED_CLASSES} for walking the directed subsets")
    return _walk_directed(space, [i for i in range(space.n) if reps >> i & 1])


def _walk_directed(space: FiniteSpace, points: list) -> EdCompletenessReport:
    """Ask every directed subset of ``points`` (increasing indices) for a
    d-supremum, in increasing mask order (``nets.submasks``).

    Each subset Y is its predecessor, Y without its top point p (which
    that order visits first), plus p.  The walk carries each kept
    predecessor's points, upper bounds (the AND of its ``zero_up`` masks)
    and sup profile (the column-wise max of its rank rows), so Y's are
    one AND with ``zero_up[p]`` and one max with ``rows[p]``.  Where p
    bounds the predecessor, the triangle law puts ``rows[p]`` above every
    member's row, and the max is ``rows[p]`` itself, shared, not built.

    A Y without upper bounds has no top member, and no subset containing
    it has one, so Y is skipped and its extensions are never formed.  No
    skipped subset is directed, so ``subsets_checked`` and the first
    failing Y are those of the full walk.  Every other Y asks
    ``is_directed``; a directed one is counted and needs a nonzero
    ``_d_sups``.  The subsets with the last point extend nothing, so at
    most 2^(k-1) predecessors are kept for k points.
    """
    up0 = space.zero_up
    rows = space.scaled[0]
    checked = 0
    kept = [((), -1, None)]     # the empty set: every point bounds it
    for p in points:
        up_p, row_p = up0[p], rows[p]
        extend = p != points[-1]
        for i in range(len(kept)):
            ys, bounds, profile = kept[i]
            upper = bounds & up_p
            if not upper:
                continue
            ys += (p,)
            profile = row_p if bounds >> p & 1 else tuple(map(max, profile, row_p))
            if is_directed(space, ys):
                checked += 1
                if not _d_sups(space, profile, upper):
                    return EdCompletenessReport(False, tuple(space.labels[y] for y in ys),
                                                checked)
            if extend:
                kept.append((ys, upper, profile))
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
    The order side reads the upper bounds, ``d_sup_mask`` and the rank
    rows, so each biconditional checks them against ``convergence``.
    """
    check_ids(space, seq)
    pts = sorted(set(Y))
    upper = _upper_bounds(space.zero_up, pts)
    rows = space.scaled[0]
    y_leq_seq = all(upper >> c & 1 for c in seq.cycle)
    seq_in_Y = set(seq.pre) | set(seq.cycle) <= set(pts)
    violations = []
    if y_leq_seq and seq_in_Y:
        profile = _sup_profile(rows, pts)
        d_sups = d_sup_mask(space, pts)
        for x in range(space.n):
            rep = convergence(space, seq, x)
            lbl = space.labels[x]
            if rep.lower_hole != bool(upper >> x & 1):
                violations.append((lbl, "lower_hole_vs_upper_bound"))
            if rep.upper_hole != all(a <= b for a, b in zip(rows[x], profile)):
                violations.append((lbl, "upper_hole_vs_forward_domination"))
            if rep.double_hole != bool(d_sups >> x & 1):
                violations.append((lbl, "double_hole_vs_d_sup"))
    tail_equiv = None
    if is_directed(space, pts) and classify(space, seq).pre_cauchy:
        c0 = seq.cycle[0]   # d(z, c0) is the backward limit at z on a Cauchy cycle
        tail_equiv = y_leq_seq == all(row[c0] <= min(row[y] for y in pts) for row in rows)
    return DirectedSequenceReport(y_leq_seq, seq_in_Y, tuple(violations), tail_equiv)
