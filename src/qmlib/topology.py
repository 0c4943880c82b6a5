"""Ball/hole convergence predicates, limit sets, and completeness.

Convergence of an eventually periodic sequence in each of the five
topologies reduces to comparing a cycle min/max against every center, so
every flag is decided exactly and every false flag carries a witnessing
center.

Completeness ("every Cauchy sequence has a double-hole limit") reads off
zero cliques: the tail of a Cauchy sequence in a finite space is exactly a
set on which d vanishes, i.e. a nonempty subset of one specialization
class, and its double-hole limits depend on that class alone.  Every
clique member is its own double-hole limit, so every finite space is
complete; only family spaces need a search.
"""

from __future__ import annotations

from collections import namedtuple

from .extreal import ext_max, ext_min
from .family import family_is_complete, family_subnet_equiv
from .nets import EpSeq, cauchy_subsequence, check_ids, classify, zero_cliques
from .space import FiniteSpace, PreconditionError

TOPOLOGIES = ("upper_ball", "lower_ball", "upper_hole", "lower_hole",
              "double_hole", "d_limit")


class ConvergenceReport(namedtuple("ConvergenceReport", ("point",) + TOPOLOGIES
                                   + ("witnesses",))):
    """Per-topology convergence flags of a sequence toward a point.

    Each false flag records a witness ``(center_label, lhs, rhs)`` in
    ``witnesses``, keyed by topology, showing the violated inequality.
    """

    __slots__ = ()

    def flag(self, topology: str) -> bool:
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}")
        return getattr(self, topology)

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "flags": {t: self.flag(t) for t in TOPOLOGIES},
            "witnesses": {k: [w[0], str(w[1]), str(w[2])]
                          for k, w in sorted(self.witnesses.items())},
        }


def convergence(space: FiniteSpace, seq: EpSeq, x: int) -> ConvergenceReport:
    """Decide all convergence flags of ``seq`` toward point ``x``.

    upper_ball:  every center c has limsup d(c, x_k) <= d(c, x)
    lower_ball:  every center c has limsup d(x_k, c) <= d(x, c)
    upper_hole:  every center c has liminf d(x_k, c) >= d(x, c)
    lower_hole:  every center c has liminf d(c, x_k) >= d(c, x)
    double_hole: both hole flags
    d_limit:     d(x, y) equals limsup d(x_k, y) for every y
    """
    check_ids(space, seq)
    cyc = seq.cycle
    witnesses = {}
    ub = lb = uh = lh = dl = True
    for c in range(space.n):
        lbl = space.labels[c]
        sup_from_c = ext_max(space.d(c, j) for j in cyc)
        sup_to_c = ext_max(space.d(j, c) for j in cyc)
        inf_from_c = ext_min(space.d(c, j) for j in cyc)
        inf_to_c = ext_min(space.d(j, c) for j in cyc)
        if ub and not (sup_from_c <= space.d(c, x)):
            ub = False
            witnesses["upper_ball"] = (lbl, sup_from_c, space.d(c, x))
        if lb and not (sup_to_c <= space.d(x, c)):
            lb = False
            witnesses["lower_ball"] = (lbl, sup_to_c, space.d(x, c))
        if uh and not (inf_to_c >= space.d(x, c)):
            uh = False
            witnesses["upper_hole"] = (lbl, inf_to_c, space.d(x, c))
        if lh and not (inf_from_c >= space.d(c, x)):
            lh = False
            witnesses["lower_hole"] = (lbl, inf_from_c, space.d(c, x))
        if dl and sup_to_c != space.d(x, c):
            dl = False
            witnesses["d_limit"] = (lbl, sup_to_c, space.d(x, c))
    dh = uh and lh
    if not dh and "double_hole" not in witnesses:
        witnesses["double_hole"] = witnesses.get("upper_hole") or witnesses["lower_hole"]
    return ConvergenceReport(space.labels[x], ub, lb, uh, lh, dh, dl, witnesses)


def limit_set(space: FiniteSpace, seq: EpSeq, topology: str = "double_hole") -> frozenset:
    """All points the sequence converges to in the selected topology."""
    return frozenset(space.labels[x] for x in range(space.n)
                     if convergence(space, seq, x).flag(topology))


class HoleCharacterizationReport(namedtuple("HoleCharacterizationReport",
                                            "checked_points violations",
                                            defaults=((),))):
    """Exact check of the two hole-limit characterizations of a reflexive
    sequence: lower-hole convergence to x iff d(x_k, x) -> 0, and
    double-hole convergence iff upper-hole + lower-ball convergence to a
    point below itself.  Violations signal an implementation bug."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def check_hole_characterizations(space: FiniteSpace, seq: EpSeq) -> HoleCharacterizationReport:
    cls = classify(space, seq)
    if not cls.reflexive:
        raise PreconditionError("sequence is not reflexive")
    violations = []
    for x in range(space.n):
        rep = convergence(space, seq, x)
        forward_to_zero = all(space.d(i, x).is_zero() for i in seq.cycle)
        if rep.lower_hole != forward_to_zero:
            violations.append((space.labels[x], "lower_hole_vs_forward_limit"))
        rhs = rep.upper_hole and rep.lower_ball and space.d(x, x).is_zero()
        if rep.double_hole != rhs:
            violations.append((space.labels[x], "double_hole_vs_ball_and_order"))
    return HoleCharacterizationReport(space.n, tuple(violations))


class CompletenessReport(namedtuple("CompletenessReport",
                                    "complete witness cliques_checked",
                                    defaults=(None, 0))):
    # witness: a Cauchy cycle (as a label tuple) with empty double-hole
    # limit set
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"complete": self.complete,
                "witness": list(self.witness) if self.witness else None,
                "cliques_checked": self.cliques_checked}


def is_complete(space) -> CompletenessReport:
    """Decide completeness by the zero-clique criterion.

    A finite space is complete by identity: a member c0 of a zero clique
    satisfies d(c0, z) <= d(c0, z) and d(z, c0) <= d(z, c0) for every z,
    so it is a double-hole limit of every sequence with that tail.  The
    report still counts the cliques, the sum over specialization classes
    C of 2^|C| - 1, listed class by class by ``zero_cliques``; the
    per-clique search is a test oracle.  Family spaces route to their
    certified analyzer, which never claims completeness and reports
    per-candidate witnesses.
    """
    if not isinstance(space, FiniteSpace):
        return family_is_complete(space)
    return CompletenessReport(True, None, len(zero_cliques(space)))


def pre_cauchy_subnet_equiv(space, seq) -> bool:
    """Single-topology convergence agrees between a pre-Cauchy sequence and
    its extracted Cauchy subsequence.

    For eventually periodic input the extraction checks that the sequence
    is pre-Cauchy and returns the sequence itself, so every flag agrees by
    identity (the flag-by-flag comparison is the test oracle).  Family
    sequences route to their certified analyzer.
    """
    if not isinstance(seq, EpSeq):
        return bool(family_subnet_equiv(seq).value)
    cauchy_subsequence(space, seq)
    return True
