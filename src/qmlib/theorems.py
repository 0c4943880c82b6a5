"""Audit harness: each completeness statement runs as an exact
hypothesis-check followed by an exact conclusion-check on an instance.

A statement's entry is *vacuous* when some hypothesis fails; a non-vacuous
entry with an unverified conclusion is a released-bug signal and is
surfaced loudly by the CLI exit code.  Conclusions quantifying over all
Cauchy sequences are decided by quantifying over zero cliques, which are
exactly the possible tails.  By the triangle law a zero clique is a
nonempty subset of one specialization class and every verdict reads it
only through that class, so the audit runs once per class.

Conclusions that a finite-carrier identity fixes are decided by it, not
searched: ball_functions_coincide (d_F = d_Phi = d_low),
symmetric_companion and two_distance_transfer (each class of zero
self-distance is its own witness) and the four completeness criteria
(every finite space is complete).  Only sup_upgrade,
complete_implies_directed_complete and cauchy_to_directed search.

sup_upgrade walks no subsets.  For Y below x the triangle law gives
max_y d(y, z) <= d(x, z), so x is no d-supremum of Y iff Y lies inside
some B(x, z) = {y below x : d(y, z) < d(x, z)}; upper bounds shrink as Y
grows, so an order supremum of a nonempty Y inside B is one of B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .derived import (DerivedFunctions, derived_functions, dist_subequiv,
                      leq_identity, sub_identity)
from .extreal import INF, ExtReal, ext_min
from .nets import EpSeq, PreconditionError, classify, epseq
from .order import check_ed_complete, is_directed, suprema
from .space import FiniteSpace, derive, representatives, threshold_grid
from .topology import is_complete

STATEMENTS = (
    "sup_upgrade",
    "complete_implies_directed_complete",
    "ball_functions_coincide",
    "symmetric_companion",
    "two_distance_transfer",
    "completeness_criterion_1",
    "completeness_criterion_2",
    "completeness_criterion_3",
    "completeness_criterion_4",
    "cauchy_to_directed",
)


@dataclass(frozen=True)
class AuditEntry:
    statement: str
    hypotheses: dict
    hypotheses_met: bool
    conclusion_verified: bool | None   # None when vacuous
    witness: dict = field(default_factory=dict)

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


@dataclass(frozen=True)
class AuditReport:
    entries: tuple

    @property
    def failures(self) -> tuple:
        return tuple(e for e in self.entries if e.failed)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_dict() for e in self.entries]}


@dataclass(frozen=True)
class AuditOptions:
    statements: tuple = STATEMENTS
    second: FiniteSpace | None = None    # the distance e for two-distance audits
    include_vacuous: bool = True


def compose_with_filter(e_space: FiniteSpace, d_space: FiniteSpace) -> FiniteSpace:
    """e composed through d's relation filter:
    (x, y) -> sup over radii eps of min over {z : d(z,y) < eps} of e(x, z).

    The generators are nested, so the sup is attained at the smallest one,
    {d = 0}: this is e composed with the specialization order of d.  The
    definitional form over the whole threshold grid is a test oracle.
    """
    n = d_space.n
    eps = threshold_grid(d_space)[0]
    rows = tuple(
        tuple(ext_min((e_space.d(x, z) for z in range(n) if d_space.d(z, y) < eps), INF)
              for y in range(n))
        for x in range(n))
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
    def representatives(self) -> int:
        """Mask of the least member of each specialization class of d."""
        return representatives(self.space.class_masks)

    @cached_property
    def cliques(self) -> list:
        """One member list per specialization class of zero self-distance:
        the possible Cauchy tails up to the choice of a nonempty subset."""
        n = self.space.n
        return [[j for j in range(n) if cls >> j & 1]
                for i, cls in enumerate(self.space.class_masks)
                if self.representatives >> i & 1 and self.space.leq(i, i)]

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
        return check_ed_complete(self.space, self.space, cap=self.space.n)

    @cached_property
    def e_separable(self) -> bool:
        n = self.space.n
        return all(ext_min(self.e_space.d(x, y) for y in range(n)).is_zero()
                   for x in range(n))

    @cached_property
    def filter_composition(self) -> FiniteSpace:
        return compose_with_filter(self.e_space, self.space)

    @cached_property
    def filter_chain(self) -> bool:
        return (dist_subequiv(self.filter_composition, self.space)
                and dist_subequiv(self.space, self.e_space)
                and self.e_space.validation.is_symmetric)


# ---------------------------------------------------------------------------
# Statement implementations: each returns (hypotheses, conclusion, witness).
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
    reps = [i for i in range(n) if ctx.representatives >> i & 1]
    order_sups = {}
    for x in reps:
        below = [y for y in range(n) if space.zero_down[x] >> y & 1]
        for z in reps:
            dxz = space.d(x, z)
            ball = tuple(y for y in below if space.d(y, z) < dxz)
            if not ball:
                continue
            if ball not in order_sups:
                order_sups[ball] = suprema(space, ball).leq_sups
            if space.labels[x] in order_sups[ball]:
                return list(ball)
    return None


def _stmt_sup_upgrade(ctx: AuditContext):
    hyp = {"d_low_leq_identity": leq_identity(ctx.dfs.d_low)}
    if not all(hyp.values()):
        return hyp, None, {}
    pts = sup_upgrade_counterexample(ctx)
    if pts is not None:
        return hyp, False, {"Y": sorted(ctx.space.labels[i] for i in pts)}
    return hyp, True, {}


def _stmt_complete_implies_dd(ctx: AuditContext):
    hyp = {"complete": ctx.complete}
    if not ctx.complete:
        return hyp, None, {}
    rep = ctx.directed_complete_report
    if rep.complete:
        return hyp, True, {}
    return hyp, False, {"Y": list(rep.failing_Y)}


def _stmt_ball_functions_coincide(ctx: AuditContext):
    hyp = {
        "hemimetric": ctx.space.validation.is_hemimetric,
        "join_complete": ctx.complete,
        "d_phi_sub_identity": sub_identity(ctx.dfs.d_Phi),
    }
    if not all(hyp.values()):
        return hyp, None, {}
    # d_F and d_Phi are both d_low on a finite carrier
    return hyp, True, {}


def _stmt_symmetric_companion(ctx: AuditContext):
    """Decided by identity: the least member c0 of each class of zero
    self-distance is the companion.  d(c0, c0) = 0, c0 carries the class's
    forward profile, and d(c, c0) = 0 for every c in the class."""
    hyp = {
        "order_directed_complete": ctx.directed_complete_report.complete,
        "d_F_leq_identity": leq_identity(ctx.dfs.d_F),
    }
    if not all(hyp.values()):
        return hyp, None, {}
    return hyp, True, {}


def _stmt_two_distance_transfer(ctx: AuditContext):
    """Decided by identity: a tail class is itself directed, and by the
    triangle law it reproduces both limit profiles of the sequence."""
    space = ctx.space
    hyp = {
        "e_complete": ctx.complete,
        "e_symmetric": ctx.e_space.validation.is_symmetric,
        "compose_filter_below_d": dist_subequiv(ctx.filter_composition, space),
        "d_below_e": dist_subequiv(space, ctx.e_space),
    }
    if not all(hyp.values()):
        return hyp, None, {}
    return hyp, True, {}


def _stmt_completeness_criteria(ctx: AuditContext):
    """The four sufficient-condition audits, sharing subresults."""
    hyps = {
        "completeness_criterion_1": {
            "order_directed_complete": ctx.directed_complete_report.complete,
            "d_up_sub_identity": sub_identity(ctx.dfs.d_up)},
        "completeness_criterion_2": {
            "order_directed_complete": ctx.directed_complete_report.complete,
            "join_complete": ctx.complete,
            "d_F_leq_identity": leq_identity(ctx.dfs.d_F)},
        "completeness_criterion_3": {
            "metric_directed_complete": ctx.directed_complete_report.complete,
            "e_complete": ctx.complete,
            "filter_chain": ctx.filter_chain},
        "completeness_criterion_4": {
            "order_directed_complete": ctx.directed_complete_report.complete,
            "e_complete": ctx.complete,
            "e_separable": ctx.e_separable,
            "filter_chain": ctx.filter_chain},
    }
    out = {}
    for stmt, hyp in hyps.items():
        if all(hyp.values()):
            out[stmt] = (hyp, ctx.complete, {} if ctx.complete else {"reason": "incomplete"})
        else:
            out[stmt] = (hyp, None, {})
    return out


def _stmt_cauchy_to_directed(ctx: AuditContext):
    space = ctx.space
    hyp = {"d_up_sub_identity": sub_identity(ctx.dfs.d_up)}
    if not all(hyp.values()):
        return hyp, None, {}
    for clique in ctx.cliques:
        seq = epseq([], sorted(clique))
        res = construct_directed_from_cauchy(space, seq, ctx.dfs)
        if not res.ok:
            return hyp, False, {"cycle": sorted(space.labels[i] for i in clique),
                                "construction": res.to_dict()}
    return hyp, True, {}


def audit(space: FiniteSpace, options: AuditOptions = AuditOptions(),
          ctx: AuditContext | None = None) -> AuditReport:
    """Run the selected statement audits on one instance.

    ``options.second`` supplies the distance e for the two-distance
    statements; when absent, the symmetric join of d stands in (the
    canonical symmetric companion).  A prebuilt context may be passed to
    share subresults with the caller.
    """
    if not space.validation.is_distance:
        raise PreconditionError("audit requires a validated distance")
    e_space = options.second if options.second is not None else derive(space, "join")
    if e_space.labels != space.labels:
        raise PreconditionError("second distance must share the point set")
    if not e_space.validation.is_distance:
        raise PreconditionError("second distance fails the triangle law")
    if ctx is None:
        ctx = AuditContext(space, e_space)
    entries = []

    def add(stmt, result):
        hyp, concl, witness = result
        entries.append(AuditEntry(stmt, hyp, all(hyp.values()), concl, witness))

    wanted = set(options.statements)
    if "sup_upgrade" in wanted:
        add("sup_upgrade", _stmt_sup_upgrade(ctx))
    if "complete_implies_directed_complete" in wanted:
        add("complete_implies_directed_complete", _stmt_complete_implies_dd(ctx))
    if "ball_functions_coincide" in wanted:
        add("ball_functions_coincide", _stmt_ball_functions_coincide(ctx))
    if "symmetric_companion" in wanted:
        add("symmetric_companion", _stmt_symmetric_companion(ctx))
    if "two_distance_transfer" in wanted:
        add("two_distance_transfer", _stmt_two_distance_transfer(ctx))
    crit = {s for s in wanted if s.startswith("completeness_criterion_")}
    if crit:
        results = _stmt_completeness_criteria(ctx)
        for stmt in sorted(crit):
            add(stmt, results[stmt])
    if "cauchy_to_directed" in wanted:
        add("cauchy_to_directed", _stmt_cauchy_to_directed(ctx))
    if not options.include_vacuous:
        entries = [e for e in entries if not e.vacuous]
    return AuditReport(tuple(entries))


# ---------------------------------------------------------------------------
# Constructive replay: directed set from a Cauchy sequence.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectedConstruction:
    Y: tuple                      # labels, in construction order
    directed: bool
    forward_match: bool
    backward_match: bool
    radii: tuple                  # the shrinking radius schedule used

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
    radius constraints collapse to exact zero-distance constraints after
    the first step; each step exhaustively searches for a point bounding
    the ball around the current tail term from below while staying at
    distance zero from it.  Search exhaustion would contradict the ball
    bound hypothesis and raises.
    """
    cls = classify(space, seq)
    if not cls.cauchy:
        raise PreconditionError("sequence is not Cauchy")
    if dfs is None:
        dfs = derived_functions(space)
    if not sub_identity(dfs.d_up):
        raise PreconditionError("upper-ball bound function is not uniformly below identity")
    n = space.n
    positive = [v for v in space.distinct_values if not v.is_zero() and not v.is_inf]
    v_min = positive[0] if positive else ExtReal(1)
    cyc = seq.cycle
    p = len(cyc)
    ys = []
    radii = []
    r_prev = ExtReal(v_min.num, 2 * v_min.den)       # r_1 = v_min / 2
    for step in range(p + 2):
        r_cur = ExtReal(r_prev.num, 2 * r_prev.den)  # halving schedule
        radii.append(r_cur)
        x_f = cyc[step % p]
        two_r = r_cur + r_cur
        ball = [z for z in range(n) if space.d(x_f, z) < two_r]
        found = None
        for y in range(n):
            if space.d(x_f, y) < r_prev and all(space.leq(y, z) for z in ball):
                found = y
                break
        if found is None:
            raise PreconditionError(
                f"ball bound hypothesis violated: no witness at step {step} (bug signal)")
        if found not in ys:
            ys.append(found)
        r_prev = r_cur
    directed = is_directed(space, ys, "leq")
    c0 = cyc[0]
    forward_match = all(
        max(space.d(y, z) for y in ys) == space.d(c0, z) for z in range(n))
    backward_match = all(
        min(space.d(z, y) for y in ys) == space.d(z, c0) for z in range(n))
    return DirectedConstruction(tuple(space.labels[i] for i in ys),
                                directed, forward_match, backward_match,
                                tuple(radii))
