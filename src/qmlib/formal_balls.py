"""Formal balls: the extension of a space by nonnegative radii.

A formal ball is a pair (point, radius >= 0) with distance
(d(x, y) - r + s)+, the Edalat-Heckmann formal-ball model.  Radii are
finite ``ExtReal`` values.  The extension is never materialized:
everything goes through the distance formula and radius grids.

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
  (a - r + s)+ <= t iff (a - (r + t) + s)+ = 0, with inf absorbing.  On
  a hemimetric the shifted balls sit at distance exactly t from their
  cones' tips, so the lower-ball bound of the extension is below the
  identity.

The sampled forms of all three sides are test oracles.
"""

from __future__ import annotations

from collections import namedtuple

from .extreal import ONE, ZERO, ExtReal
from .nets import EpSeq, classify, epseq
from .space import FiniteSpace, PreconditionError, SpaceError
from .topology import is_complete

DEFAULT_RADIUS_GRID = (ZERO, ExtReal(1, 2), ONE)


def _finite(value, what: str) -> None:
    """Refuse anything but a finite ``ExtReal`` (infinity, a float, a bool
    or another number type) with ``SpaceError``."""
    if not isinstance(value, ExtReal) or value.is_inf:
        raise SpaceError(f"{what} {value!r} is not a finite ExtReal")


class FormalBall(namedtuple("FormalBall", "point radius")):
    __slots__ = ()

    def __new__(cls, point, radius):
        _finite(radius, "formal-ball radius")
        return tuple.__new__(cls, (point, radius))

    def label(self, space: FiniteSpace) -> dict:
        return {"point": space.labels[self.point], "radius": str(self.radius)}


def formal_ball(space: FiniteSpace, point: str, radius) -> FormalBall:
    """The ball at ``point``.  A radius is an ``ExtReal`` or rational text
    such as ``"1/3"``, and an int is read as its decimal text, as matrix
    entries are; signed text such as ``"-1/3"`` is refused."""
    if isinstance(radius, str) or type(radius) is int:
        try:
            radius = ExtReal.parse(str(radius))
        except ValueError as e:
            raise SpaceError(f"bad formal-ball radius: {e}") from None
    return FormalBall(space.index(point), radius)


def formal_ball_from_dict(space: FiniteSpace, data: dict) -> FormalBall:
    """Parse the literal {"point": "a", "radius": "1/3"}."""
    try:
        return formal_ball(space, data["point"], data["radius"])
    except (KeyError, TypeError):
        raise SpaceError("formal ball literal needs 'point' and 'radius'") from None


def fb_distance_raw(space: FiniteSpace, x: int, r: ExtReal,
                    y: int, s: ExtReal) -> ExtReal:
    """(d(x,y) - r + s)+ for finite radii r and s, as (d(x,y) + s) - r."""
    return (space.d(x, y) + s).tsub(r)


def fb_distance(space: FiniteSpace, a: FormalBall, b: FormalBall) -> ExtReal:
    return fb_distance_raw(space, a.point, a.radius, b.point, b.radius)


class RadiusSeq(namedtuple("RadiusSeq", "kind value scale cycle")):
    """Radius sequences from a closed catalog with exact limits.

    ``constant``: r_k = value.  ``harmonic``: r_k = value + scale/k, which
    converges to ``value`` from above.  ``periodic``: cycles through the
    given radii; convergent only when the cycle is constant.  Every field
    is a finite ``ExtReal``.
    """

    __slots__ = ()

    def __new__(cls, kind, value=ZERO, scale=ONE, cycle=()):
        for v in (value, scale, *cycle):
            _finite(v, f"{kind} radius field")
        if kind not in ("constant", "harmonic", "periodic"):
            raise SpaceError(f"unknown radius kind {kind!r}")
        if kind == "periodic" and not cycle:
            raise SpaceError("periodic radii need a cycle")
        if kind == "harmonic" and scale.is_zero():
            raise SpaceError("harmonic radii need a positive scale")
        return tuple.__new__(cls, (kind, value, scale, cycle))

    def term(self, k: int) -> ExtReal:
        if self.kind == "constant":
            return self.value
        if self.kind == "harmonic":
            return self.value + ExtReal(self.scale.num, self.scale.den * k)
        return self.cycle[(k - 1) % len(self.cycle)]

    def limit(self) -> ExtReal | None:
        if self.kind == "constant":
            return self.value
        if self.kind == "harmonic":
            return self.value
        distinct = set(self.cycle)
        return next(iter(distinct)) if len(distinct) == 1 else None


class KwLimitResult(namedtuple("KwLimitResult", "limit verified undecidable note",
                               defaults=(False, ""))):
    # limit: {"point": label, "radius": str}, or None
    __slots__ = ()

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


class KwAuditReport(namedtuple("KwAuditReport", "base_complete classes classes_verified "
                               "chain_d_low_leq_identity equivalence_confirmed")):
    __slots__ = ()

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
    (a - r + s)+ <= t iff (a - (r + t) + s)+ = 0, with inf absorbing.  On
    a hemimetric the lower-ball bound of the extension is below the
    identity, so ``chain_d_low_leq_identity`` is True there and None on
    any other base.
    """
    base = bool(is_complete(space).complete)
    classes = [[j for j in range(space.n) if cls >> j & 1] for cls in space.zero_classes]
    verified = sum(
        all(kw_limit(space, epseq([], members), RadiusSeq("constant", u), grid).verified
            for u in grid)
        for members in classes)
    chain = True if space.validation.is_hemimetric else None
    return KwAuditReport(base, len(classes), verified, chain,
                         base and verified == len(classes))
