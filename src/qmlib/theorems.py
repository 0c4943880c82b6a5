"""Audit harness: each completeness statement runs as an exact
hypothesis-check followed by an exact conclusion-check on an instance.

``STATEMENT_TABLE`` is the one place where a statement's decision lives:
one row per statement, a ``(hypotheses, decision)`` pair.  ``audit``
builds the hypotheses, and calls the decision only when all of them hold.
A statement's entry is *vacuous* when some hypothesis fails; a non-vacuous
entry with an unverified conclusion is a released-bug signal and is
surfaced loudly by the CLI exit code.  Conclusions quantifying over all
Cauchy sequences are decided by quantifying over zero cliques, which are
exactly the possible tails.  By the triangle law a zero clique is a
nonempty subset of one specialization class and every verdict reads it
only through that class, so the audit runs once per class.

Seven conclusions are fixed by a finite-carrier identity and share the
decision ``_by_identity``, with no search:

* ball_functions_coincide: d_F and d_Phi are both d_low on a finite
  carrier.
* symmetric_companion: the least member c0 of each class of zero
  self-distance is the companion.  d(c0, c0) = 0, c0 carries the class's
  forward profile, and d(c, c0) = 0 for every c in the class.
* two_distance_transfer: a tail class is itself directed, and by the
  triangle law it reproduces both limit profiles of the sequence.
* completeness_criterion_1..4: every finite space is complete, the
  symmetric join and any second distance included.

Only sup_upgrade, complete_implies_directed_complete and
cauchy_to_directed search.

sup_upgrade walks no subsets.  For Y below x the triangle law gives
max_y d(y, z) <= d(x, z), so x is no d-supremum of Y iff Y lies inside
some B(x, z) = {y below x : d(y, z) < d(x, z)}; upper bounds shrink as Y
grows, so an order supremum of a nonempty Y inside B is one of B.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import zip_longest

from .derived import (DerivedFunctions, derived_functions, dist_subequiv,
                      leq_identity, sub_identity)
from .extreal import ONE, ExtReal, _shown
from .nets import EpSeq, classify, epseq
from .order import _sup_profile, check_ed_complete, is_directed, suprema
from .space import FiniteSpace, PreconditionError, derive, threshold_grid
from .topology import is_complete

class AuditEntry(namedtuple("AuditEntry", "statement hypotheses hypotheses_met "
                            "conclusion_verified witness")):
    # conclusion_verified is None when the entry is vacuous
    __slots__ = ()

    @property
    def vacuous(self) -> bool:
        return not self.hypotheses_met

    @property
    def failed(self) -> bool:
        return self.hypotheses_met and self.conclusion_verified is False

    def to_dict(self) -> dict:
        return {"statement": self.statement,
                "hypotheses": dict(sorted(self.hypotheses.items())),
                "hypotheses_met": self.hypotheses_met,
                "vacuous": self.vacuous,
                "conclusion_verified": self.conclusion_verified,
                "witness": self.witness}


class AuditReport(namedtuple("AuditReport", "entries")):
    __slots__ = ()

    @property
    def failures(self) -> tuple:
        return tuple(e for e in self.entries if e.failed)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_dict() for e in self.entries]}


def compose_with_filter(e_space: FiniteSpace, d_space: FiniteSpace) -> FiniteSpace:
    """e composed through d's relation filter:
    (x, y) -> sup over radii eps of min over {z : d(z,y) < eps} of e(x, z).

    The generators are nested, so the sup is attained at the smallest one,
    {d = 0}: this is e composed with the specialization order of d.  The
    minima run on e's rank rows (``FiniteSpace.scaled``, an empty
    relation giving the sentinel, inf's rank).  The definitional form over
    the whole threshold grid is a test oracle.
    """
    n = d_space.n
    eps = threshold_grid(d_space)[0]
    # the relation {z : d(z, y) < eps} once per y: n^2 compares, not n^3
    below = [[z for z in range(n) if d_space.d(z, y) < eps] for y in range(n)]
    e_rows, back, sentinel = e_space.scaled
    rows = tuple(
        tuple(back[min((row[z] for z in zs), default=sentinel)] for zs in below)
        for row in e_rows)
    return FiniteSpace(d_space.labels, rows)


class AuditContext:
    """Shared exact subresults for one audited instance."""

    def __init__(self, space: FiniteSpace, e_space: FiniteSpace):
        self.space = space
        self.e_space = e_space

    @cached_property
    def dfs(self) -> DerivedFunctions:
        return derived_functions(self.space)

    @cached_property
    def cliques(self) -> list:
        """One member list per specialization class of zero self-distance:
        the possible Cauchy tails up to the choice of a nonempty subset."""
        n = self.space.n
        return [[j for j in range(n) if cls >> j & 1] for cls in self.space.zero_classes]

    @cached_property
    def complete(self) -> bool:
        """Completeness of d, and by the same identity of every validated
        finite distance on its points: the symmetric join and e included."""
        return bool(is_complete(self.space).complete)

    @cached_property
    def directed_complete_report(self):
        """Every directed subset has a d-supremum.

        One report serves both senses: the order-as-distance of d has the
        same zero pattern as d, and directedness only reads that pattern.
        """
        return check_ed_complete(self.space)

    @cached_property
    def e_separable(self) -> bool:
        """Every point is at e-distance 0 from some point (entries are
        nonnegative, so a row's min is 0 iff its zero mask is nonempty)."""
        return all(self.e_space.zero_up)

    @cached_property
    def filter_composition(self) -> FiniteSpace:
        return compose_with_filter(self.e_space, self.space)

    @cached_property
    def filter_chain(self) -> bool:
        return (dist_subequiv(self.filter_composition, self.space)
                and dist_subequiv(self.space, self.e_space)
                and self.e_space.validation.is_symmetric)


# ---------------------------------------------------------------------------
# Statement table: each decision returns (conclusion, witness).
# ---------------------------------------------------------------------------

def sup_upgrade_counterexample(ctx: AuditContext) -> list | None:
    """A nonempty Y with an order supremum that is not a d-supremum, or None.

    By the (x, z) reduction of the module docstring, a counterexample
    exists iff some x is an order supremum of a nonempty
    B(x, z) = {y : d(y, x) = 0 and d(y, z) < d(x, z)}, and that B is
    returned.  B and d(x, z) read x and z only through their classes, so
    both range over the representatives: one ``suprema`` call per
    distinct B, at most k^2 for k classes.
    """
    space = ctx.space
    n = space.n
    rows = space.scaled[0]
    reps = [i for i in range(n) if space.representatives >> i & 1]
    order_sups = {}
    for x in reps:
        below = [y for y in range(n) if space.zero_down[x] >> y & 1]
        for z in reps:
            dxz = rows[x][z]
            ball = tuple(y for y in below if rows[y][z] < dxz)
            if not ball:
                continue
            if ball not in order_sups:
                order_sups[ball] = suprema(space, ball).leq_sups
            if space.labels[x] in order_sups[ball]:
                return list(ball)
    return None


def _by_identity(ctx: AuditContext):
    """A conclusion a finite-carrier identity fixes (module docstring)."""
    return True, {}


def _sup_upgrade(ctx: AuditContext):
    pts = sup_upgrade_counterexample(ctx)
    if pts is None:
        return True, {}
    return False, {"Y": sorted(ctx.space.labels[i] for i in pts)}


def _complete_implies_dd(ctx: AuditContext):
    rep = ctx.directed_complete_report
    return rep.complete, {} if rep.complete else {"Y": list(rep.failing_Y)}


def _cauchy_to_directed(ctx: AuditContext):
    space = ctx.space
    for clique in ctx.cliques:
        res = construct_directed_from_cauchy(space, epseq([], sorted(clique)), ctx.dfs)
        if not res.ok:
            return False, {"cycle": sorted(space.labels[i] for i in clique),
                           "construction": res.to_dict()}
    return True, {}


# statement -> (hypotheses, decision); audit() runs the rows in this order
STATEMENT_TABLE = {
    "sup_upgrade": (lambda c: {
        "d_low_leq_identity": leq_identity(c.dfs.d_low)}, _sup_upgrade),
    "complete_implies_directed_complete": (lambda c: {
        "complete": c.complete}, _complete_implies_dd),
    "ball_functions_coincide": (lambda c: {
        "hemimetric": c.space.validation.is_hemimetric,
        "join_complete": c.complete,
        "d_phi_sub_identity": sub_identity(c.dfs.d_Phi)}, _by_identity),
    "symmetric_companion": (lambda c: {
        "order_directed_complete": c.directed_complete_report.complete,
        "d_F_leq_identity": leq_identity(c.dfs.d_F)}, _by_identity),
    "two_distance_transfer": (lambda c: {
        "e_complete": c.complete,
        "e_symmetric": c.e_space.validation.is_symmetric,
        "compose_filter_below_d": dist_subequiv(c.filter_composition, c.space),
        "d_below_e": dist_subequiv(c.space, c.e_space)}, _by_identity),
    "completeness_criterion_1": (lambda c: {
        "order_directed_complete": c.directed_complete_report.complete,
        "d_up_sub_identity": sub_identity(c.dfs.d_up)}, _by_identity),
    "completeness_criterion_2": (lambda c: {
        "order_directed_complete": c.directed_complete_report.complete,
        "join_complete": c.complete,
        "d_F_leq_identity": leq_identity(c.dfs.d_F)}, _by_identity),
    "completeness_criterion_3": (lambda c: {
        "metric_directed_complete": c.directed_complete_report.complete,
        "e_complete": c.complete,
        "filter_chain": c.filter_chain}, _by_identity),
    "completeness_criterion_4": (lambda c: {
        "order_directed_complete": c.directed_complete_report.complete,
        "e_complete": c.complete,
        "e_separable": c.e_separable,
        "filter_chain": c.filter_chain}, _by_identity),
    "cauchy_to_directed": (lambda c: {
        "d_up_sub_identity": sub_identity(c.dfs.d_up)}, _cauchy_to_directed),
}

STATEMENTS = tuple(STATEMENT_TABLE)


def audit(space: FiniteSpace, statements=STATEMENTS,
          second: FiniteSpace | None = None) -> AuditReport:
    """Run the selected statement audits on one instance, in table order.

    ``second`` supplies the distance e for the two-distance statements;
    when absent, the symmetric join of d stands in (the canonical
    symmetric companion).  Vacuous entries are kept.  A bare string or an
    unknown name in ``statements`` raises ``ValueError``.
    """
    if isinstance(statements, str):
        raise ValueError("statements must be a sequence of names, not one string")
    wanted = set(statements)
    unknown = sorted(wanted - set(STATEMENT_TABLE))
    if unknown:
        raise ValueError(f"unknown statements: {', '.join(unknown)}")
    if not space.validation.is_distance:
        raise PreconditionError("audit requires a validated distance")
    e_space = second if second is not None else derive(space, "join")
    if e_space.labels != space.labels:
        # the first position where the label lists differ; None past an end
        at, x, y = next((i, x, y) for i, (x, y)
                        in enumerate(zip_longest(space.labels, e_space.labels)) if x != y)
        x, y = ("no point" if v is None else _shown(v) for v in (x, y))
        raise PreconditionError(f"second distance must list the same points in the same order; "
                                f"at position {at} the first has {x} and the second has {y}")
    if not e_space.validation.is_distance:
        raise PreconditionError("second distance fails the triangle law")
    ctx = AuditContext(space, e_space)
    entries = []
    for stmt, (hypotheses, decide) in STATEMENT_TABLE.items():
        if stmt not in wanted:
            continue
        hyp = hypotheses(ctx)
        met = all(hyp.values())
        concl, witness = decide(ctx) if met else (None, {})
        entries.append(AuditEntry(stmt, hyp, met, concl, witness))
    return AuditReport(tuple(entries))


# ---------------------------------------------------------------------------
# Constructive replay: directed set from a Cauchy sequence.
# ---------------------------------------------------------------------------

class DirectedConstruction(namedtuple("DirectedConstruction",
                                      "Y directed forward_match backward_match radii")):
    # Y: labels, in construction order; radii: the shrinking radius
    # schedule used
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.directed and self.forward_match and self.backward_match

    def to_dict(self) -> dict:
        return {"Y": list(self.Y), "directed": self.directed,
                "forward_match": self.forward_match,
                "backward_match": self.backward_match,
                "radii": [str(r) for r in self.radii]}


def construct_directed_from_cauchy(space: FiniteSpace, seq: EpSeq,
                                   dfs: DerivedFunctions | None = None) -> DirectedConstruction:
    """Replay the recursion that turns a Cauchy sequence into an
    order-directed set with the same forward and backward limit data.

    Radii halve from just below the smallest positive matrix value, so all
    radius constraints collapse to exact zero-distance constraints: the
    ball of radius 2r around the current tail term is its ``zero_up`` mask,
    and each step takes the least point of that mask whose own mask holds
    the whole ball (a lower bound of the ball at distance zero from the
    term).  Search exhaustion would contradict the ball bound hypothesis
    and raises.  The limit data are compared on the integer rows.
    """
    cls = classify(space, seq)
    if not cls.cauchy:
        raise PreconditionError("sequence is not Cauchy")
    if dfs is None:
        dfs = derived_functions(space)
    if not sub_identity(dfs.d_up):
        raise PreconditionError("upper-ball bound function is not uniformly below identity")
    n = space.n
    up0 = space.zero_up
    rows = space.scaled[0]
    least = dfs.d_up.cuts[0]      # the least positive entry, or inf when there is none
    v_min = ONE if least.is_inf else least
    cyc = seq.cycle
    p = len(cyc)
    ys = []
    radii = []
    r = ExtReal(v_min.num, 2 * v_min.den)       # r_1 = v_min / 2
    for step in range(p + 2):
        r = ExtReal(r.num, 2 * r.den)           # halving schedule
        radii.append(r)
        ball = up0[cyc[step % p]]
        found = next((y for y in range(n) if ball >> y & 1 and ball & ~up0[y] == 0), None)
        if found is None:
            raise PreconditionError(
                f"ball bound hypothesis violated: no witness at step {step} (bug signal)")
        if found not in ys:
            ys.append(found)
    directed = is_directed(space, ys)
    c0 = cyc[0]
    forward_match = _sup_profile(rows, ys) == rows[c0]
    backward_match = all(min(row[y] for y in ys) == row[c0] for row in rows)
    return DirectedConstruction(tuple(space.labels[i] for i in ys),
                                directed, forward_match, backward_match,
                                tuple(radii))
