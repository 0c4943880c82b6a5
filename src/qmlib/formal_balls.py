"""Formal balls: the extension of a space by nonpositive radii.

A formal ball is a pair (point, radius <= 0) with distance
(d(x, y) + r - s)+.  The extension is never materialized: everything goes
through the distance formula and radius grids.

``kw_audit`` decides the paper's generalization of the Kostanek-Waszkiewicz
theorem (the base is complete iff every Cauchy formal-ball sequence has a
limit iff every directed set of formal balls has a supremum) exactly, by
three identities on a finite base:

* Cauchy limits, per class.  The tail of a Cauchy formal-ball sequence is
  a zero clique of the base with a convergent radius sequence.  Members
  of one specialization class share their rows and columns (triangle
  law), so every clique inside a class gives the same checks, and
  ``kw_limit`` is run once per class of zero self-distance and grid
  radius.  Its limit point x* is a class member, so both liminf
  comparisons hold with equality for every grid and every radius limit.
* Directed suprema.  A finite directed set of formal balls has a member
  above all members (the order is transitive), and every upper bound
  dominates that member, so it is the supremum.
* Ball identities, by radius shift.  For t >= 0,
  (a + r - s)+ <= t iff (a + (r - t) - s)+ = 0, with inf absorbing.  On
  a hemimetric the shifted balls sit at distance exactly t from their
  cones' tips, so the lower-ball bound of the extension is below the
  identity.

The sampled forms of all three sides are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .extreal import INF, ZERO, ExtReal, parse_rational
from .nets import EpSeq, PreconditionError, classify, epseq, zero_classes
from .space import FiniteSpace, SpaceError
from .topology import is_complete

DEFAULT_RADIUS_GRID = (Fraction(0), Fraction(-1, 2), Fraction(-1))


def _exact(value, what: str) -> Fraction:
    """An int or Fraction as a Fraction; a float, a bool or anything else
    raises ``SpaceError`` (no binary float enters the extension)."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise SpaceError(f"{what} {value!r} is not an exact rational")
    return Fraction(value)


@dataclass(frozen=True)
class FormalBall:
    point: int
    radius: Fraction

    def __post_init__(self):
        if _exact(self.radius, "formal-ball radius") > 0:
            raise SpaceError("formal-ball radii are nonpositive")

    def label(self, space: FiniteSpace) -> dict:
        return {"point": space.labels[self.point], "radius": str(self.radius)}


def formal_ball(space: FiniteSpace, point: str, radius) -> FormalBall:
    """The ball at ``point``; a text radius is nonpositive ``parse_rational``
    text such as ``"-1/3"``."""
    if isinstance(radius, str):
        try:
            radius = parse_rational(radius, nonpositive=True)
        except ValueError as e:
            raise SpaceError(f"bad formal-ball radius: {e}") from None
    return FormalBall(space.index(point), _exact(radius, "formal-ball radius"))


def formal_ball_from_dict(space: FiniteSpace, data: dict) -> FormalBall:
    """Parse the literal {"point": "a", "radius": "-1/3"}."""
    try:
        return formal_ball(space, data["point"], data["radius"])
    except (KeyError, TypeError):
        raise SpaceError("formal ball literal needs 'point' and 'radius'") from None


def fb_distance_raw(space: FiniteSpace, x: int, r: Fraction,
                    y: int, s: Fraction) -> ExtReal:
    """(d(x,y) + r - s)+ for arbitrary rational radii."""
    base = space.d(x, y)
    if base.is_inf:
        return INF
    total = base.as_fraction() + r - s
    return ExtReal.from_fraction(total) if total > 0 else ZERO


def fb_distance(space: FiniteSpace, a: FormalBall, b: FormalBall) -> ExtReal:
    return fb_distance_raw(space, a.point, a.radius, b.point, b.radius)


def fb_leq(space: FiniteSpace, a: FormalBall, b: FormalBall) -> bool:
    return fb_distance(space, a, b).is_zero()


@dataclass(frozen=True)
class RadiusSeq:
    """Radius sequences from a closed catalog with exact limits.

    ``constant``: r_k = value.  ``harmonic``: r_k = value - scale/k, which
    converges to ``value`` from below.  ``periodic``: cycles through the
    given rationals; convergent only when the cycle is constant.
    """

    kind: str
    value: Fraction = Fraction(0)
    scale: Fraction = Fraction(1)
    cycle: tuple = ()

    def __post_init__(self):
        for v in (self.value, self.scale, *self.cycle):
            _exact(v, f"{self.kind} radius field")
        if self.kind not in ("constant", "harmonic", "periodic"):
            raise SpaceError(f"unknown radius kind {self.kind!r}")
        if self.kind == "periodic" and not self.cycle:
            raise SpaceError("periodic radii need a cycle")
        if self.kind == "harmonic" and self.scale <= 0:
            raise SpaceError("harmonic radii need a positive scale")

    def term(self, k: int) -> Fraction:
        if self.kind == "constant":
            return self.value
        if self.kind == "harmonic":
            return self.value - self.scale / k
        return self.cycle[(k - 1) % len(self.cycle)]

    def limit(self) -> Fraction | None:
        if self.kind == "constant":
            return self.value
        if self.kind == "harmonic":
            return self.value
        distinct = set(self.cycle)
        return next(iter(distinct)) if len(distinct) == 1 else None


@dataclass(frozen=True)
class KwLimitResult:
    limit: dict | None      # {"point": label, "radius": str}
    verified: bool
    undecidable: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {"limit": self.limit, "verified": self.verified,
                "undecidable": self.undecidable, "note": self.note}


def kw_limit(space: FiniteSpace, points: EpSeq, radii: RadiusSeq,
             grid=DEFAULT_RADIUS_GRID) -> KwLimitResult:
    """Limit of a Cauchy formal-ball sequence: radius limit paired with a
    double-hole limit of the point part.

    The base must be a validated distance: then the tail of a Cauchy point
    part lies in one specialization class of zero self-distance, its
    double-hole limits are exactly that class (triangle law), and x* is
    the class's least member.  Verification checks the two double-hole
    liminf inequalities exactly against every center in X x grid, using
    the cycle structure of the point part and the certified radius limit.
    """
    if not space.validation.is_distance:
        raise PreconditionError("formal-ball limits require a validated distance")
    r_star = radii.limit()
    if r_star is None:
        return KwLimitResult(None, False, undecidable=True,
                             note="radii not convergent at cutoff")
    if r_star > 0:
        raise SpaceError("radius limit must stay nonpositive")
    if not classify(space, points).cauchy:
        raise PreconditionError("point part is not Cauchy in the extension")
    tail_class = space.class_masks[min(points.cycle)]
    x_star = (tail_class & -tail_class).bit_length() - 1
    verified = True
    cyc = sorted(set(points.cycle))
    for c in range(space.n):
        for u in grid:
            lim_toward = min(fb_distance_raw(space, c, u, i, r_star) for i in cyc)
            need_toward = fb_distance_raw(space, c, u, x_star, r_star)
            lim_away = min(fb_distance_raw(space, i, r_star, c, u) for i in cyc)
            need_away = fb_distance_raw(space, x_star, r_star, c, u)
            if lim_toward < need_toward or lim_away < need_away:
                verified = False
    ball = FormalBall(x_star, r_star)
    return KwLimitResult(ball.label(space), verified)


@dataclass(frozen=True)
class KwAuditReport:
    base_complete: bool
    classes: int
    classes_verified: int
    chain_d_low_leq_identity: bool | None
    equivalence_confirmed: bool

    def to_dict(self) -> dict:
        return {"base_complete": self.base_complete,
                "cauchy_limits": {"method": "exhaustive",
                                  "enumerated": self.classes, "of": self.classes,
                                  "verified": self.classes_verified},
                "directed_sups": {"method": "identity",
                                  "identity": "finite directed set has a top member"},
                "ball_identities": {"method": "identity", "identity": "radius shift"},
                "chain_d_low_leq_identity": self.chain_d_low_leq_identity,
                "equivalence_confirmed": self.equivalence_confirmed}


def kw_audit(space: FiniteSpace, grid=DEFAULT_RADIUS_GRID) -> KwAuditReport:
    """Three-way completeness equivalence, decided exactly.

    (1) The base is complete (``is_complete``).
    (2) Every Cauchy formal-ball sequence has a verified limit.  Its tail
        lies in one specialization class of zero self-distance, whose
        members share rows and columns, so ``kw_limit`` runs once per class
        and constant grid radius, checked against all of X x grid.  The
        limit point is a class member, so both liminf comparisons hold
        with equality; the report counts the classes.
    (3) Every directed subset of X x grid has a supremum: being finite, it
        has a top member, and every upper bound dominates it.
    The ball identities hold by radius shift: for t >= 0,
    (a + r - s)+ <= t iff (a + (r - t) - s)+ = 0, with inf absorbing.  On
    a hemimetric the lower-ball bound of the extension is below the
    identity, so ``chain_d_low_leq_identity`` is True there and None on
    any other base.
    """
    base = bool(is_complete(space).complete)
    classes = [[j for j in range(space.n) if cls >> j & 1] for cls in zero_classes(space)]
    verified = sum(
        all(kw_limit(space, epseq([], members), RadiusSeq("constant", u), grid).verified
            for u in grid)
        for members in classes)
    chain = True if space.validation.is_hemimetric else None
    return KwAuditReport(base, len(classes), verified, chain,
                         base and verified == len(classes))
