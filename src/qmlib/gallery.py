"""Named example spaces as executable fixtures with exact expected facts.

Four fixtures:

* ``projection``         d(x, y) = y on a rational grid in [0, 1]: a valid
                         distance whose specialization order is not
                         reflexive; carries a sequence with upper-hole +
                         lower-ball convergence to a point not below itself.
* ``x_one_minus_y``      d(x, y) = x(1-y) on the same grid: valid, not a
                         hemimetric.
* ``halfopen``           truncated difference on an increasing chain with
                         extras 0 and 2: the chain has order supremum 2 but
                         no metric supremum.
* ``fm_counterexample``  the vector family with d(f_m, f_k) = 1/k below the
                         diagonal and inf above: Cauchy with no double-hole
                         limit, while the discrete order side is trivially
                         complete.

Every expected fact is machine-checked exactly at the fixture's cutoff.

A remark that stays documentation only: over the space of real sequences
vanishing at infinity (with the same sup-of-truncated-differences
distance), the finite-subset ball bound d_F sits below the identity while
the whole-ball bound d_low is infinite at every positive radius.  That
separation needs infinitely many coordinates; on every finite truncation
d_F = d_low (see the derived module), so no fixture asserts it.
"""

from __future__ import annotations

from collections import namedtuple

from .extreal import INF, ExtReal
from .family import (ChainAnalyzer, FamilySeq, FamilySpace, VectorFamilyAnalyzer,
                     check_cutoff_ceiling, classify_family, family_is_complete)
from .nets import classify, epseq
from .space import FiniteSpace, SpaceError, balls_and_holes, space_from_rows
from .topology import convergence

# the family fixtures' triangle check covers the indices up to this one
# and the last two
TRIANGLE_INDICES = 16


class Fact(namedtuple("Fact", "fact_id description expected actual_fn")):
    # actual_fn: () -> str
    __slots__ = ()

    def evaluate(self) -> dict:
        actual = self.actual_fn()
        return {"id": self.fact_id, "description": self.description,
                "expected": self.expected, "actual": actual,
                "pass": actual == self.expected}


class Fixture(namedtuple("Fixture", "name cutoff space sequences facts")):
    # space: a FiniteSpace or a FamilySpace
    __slots__ = ()


class GalleryReport(namedtuple("GalleryReport", "name cutoff entries")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(e["pass"] for e in self.entries)

    def to_dict(self) -> dict:
        return {"fixture": self.name, "cutoff": self.cutoff,
                "ok": self.ok, "facts": list(self.entries)}


def _grid_space(cutoff: int, dist) -> FiniteSpace:
    """The grid k/cutoff, k = 0..cutoff, with ``dist(a, b)`` an ``ExtReal``
    built from the two grid numerators ``a`` and ``b``."""
    # the builders that use Fraction import it, so that no other command
    # loads fractions (and decimal)
    from fractions import Fraction
    ks = range(cutoff + 1)
    labels = [str(Fraction(k, cutoff)) for k in ks]
    return space_from_rows(labels, [[dist(a, b) for b in ks] for a in ks])


def _family_triangle_ok(space: FamilySpace) -> bool:
    """Triangle law on every triple over the extras, the indices up to
    ``TRIANGLE_INDICES`` and the last two indices.

    Every in-window triple would cost cubic time in the cutoff, so larger
    indices go unchecked.
    """
    idx = set(range(1, TRIANGLE_INDICES + 1)) | {space.cutoff - 1, space.cutoff}
    pts = [pt for pt in space.points() if pt[0] == "e" or pt[1] in idx]
    rows = [[space.dist(p, q) for q in pts] for p in pts]
    return space_from_rows([space.label(p) for p in pts], rows).validation.is_distance


def _every_point_witnessed(space: FamilySpace, comp) -> bool:
    """Each point is rejected exactly once, by a genuine witness: a limit
    strictly below the distance it would need to reach."""
    return (sorted(r.candidate for r in comp.rejections)
            == sorted(space.label(pt) for pt in space.points())
            and all(ExtReal.parse(r.limit) < ExtReal.parse(r.required)
                    for r in comp.rejections))


def _fmt_bool(b) -> str:
    return str(bool(b)).lower()


def build(name: str, cutoff: int) -> Fixture:
    """Construct a gallery fixture at the given cutoff (at least 4)."""
    if cutoff < 4:
        raise SpaceError("cutoff must be at least 4")
    check_cutoff_ceiling(cutoff)
    if name not in _BUILDERS:
        raise SpaceError(f"unknown fixture {name!r}; choose from {GALLERY_NAMES}")
    return _BUILDERS[name](cutoff)


def _build_projection(cutoff: int) -> Fixture:
    from fractions import Fraction
    space = _grid_space(cutoff, lambda a, b: ExtReal(b, cutoff))
    zero = space.index("0")
    mid_val = Fraction(max(1, cutoff // 2), cutoff)
    mid = space.index(str(mid_val))
    const_zero = epseq([], [zero])
    rep = convergence(space, const_zero, mid)
    ball = balls_and_holes(space, "0", ExtReal(3, 4))
    facts = (
        Fact("valid_distance", "triangle law holds on the grid", "true",
             lambda: _fmt_bool(space.validation.is_distance)),
        Fact("not_hemimetric", "some self-distance is positive", "false",
             lambda: _fmt_bool(space.validation.is_hemimetric)),
        Fact("constant_zero_reflexive", "the constant-0 sequence is reflexive", "true",
             lambda: _fmt_bool(classify(space, const_zero).reflexive)),
        Fact("upper_ball_three_quarters",
             "upper ball of 0 at radius 3/4 collects the small grid values",
             ",".join(sorted(l for l, v in zip(space.labels,
                                               (Fraction(k, cutoff) for k in range(cutoff + 1)))
                             if v < Fraction(3, 4))),
             lambda: ",".join(sorted(ball.upper_ball))),
        Fact("hole_ball_convergence_without_order",
             f"constant-0 sequence converges to {mid_val} in upper-hole and lower-ball",
             "true",
             lambda: _fmt_bool(rep.upper_hole and rep.lower_ball)),
        Fact("target_not_below_itself",
             f"but {mid_val} has positive self-distance", "false",
             lambda: _fmt_bool(space.d(mid, mid).is_zero())),
        Fact("no_double_hole_with_witness",
             "double-hole convergence fails, witnessed at center 0", "false|0",
             lambda: f"{_fmt_bool(rep.double_hole)}|{rep.witnesses['lower_hole'][0]}"),
        Fact("infinite_radius_hole_empty",
             "no point is farther than infinity from the center", "",
             lambda: ",".join(sorted(balls_and_holes(space, "0", INF).upper_hole))),
    )
    return Fixture("projection", cutoff, space, {"const_zero": const_zero}, facts)


def _build_x_one_minus_y(cutoff: int) -> Fixture:
    from fractions import Fraction
    c = cutoff
    # (a/c)(1 - b/c) = a(c - b)/c^2
    space = _grid_space(c, lambda a, b: ExtReal(a * (c - b), c * c))
    k0 = max(1, cutoff // 2)
    v0 = Fraction(k0, cutoff)
    mid = space.index(str(v0))
    facts = (
        Fact("valid_distance", "triangle law holds on the grid (exhaustive triples)",
             "true", lambda: _fmt_bool(space.validation.is_distance)),
        Fact("not_hemimetric", "the specialization order is not reflexive", "false",
             lambda: _fmt_bool(space.validation.is_hemimetric)),
        Fact("mid_self_distance",
             f"self-distance of {v0} is {v0}(1-{v0})", str(v0 * (1 - v0)),
             lambda: str(space.d(mid, mid))),
    )
    return Fixture("x_one_minus_y", cutoff, space, {}, facts)


def _build_halfopen(cutoff: int) -> Fixture:
    from fractions import Fraction
    space = FamilySpace("truncated-difference", cutoff,
                        {"values": "one_minus_unit", "extras": {"0": "0", "2": "2"}})
    an = ChainAnalyzer(space)
    chain_seq = FamilySeq(space, "identity")
    sups = an.chain_suprema()
    holes = an.hole_limit_sets()
    gap = an.lower_ball_bound_failure()
    comp = an.completeness()
    window_sup = Fraction(cutoff, cutoff + 1)
    facts = (
        Fact("valid_distance",
             f"triangle law holds on all triples over the extras, the indices up to "
             f"{TRIANGLE_INDICES} and the last two indices", "true",
             lambda: _fmt_bool(_family_triangle_ok(space))),
        Fact("chain_cauchy", "the chain enumeration is Cauchy", "true",
             lambda: _fmt_bool(classify_family(chain_seq).cauchy.value)),
        Fact("chain_directed", "the chain is directed in both senses", "true",
             lambda: _fmt_bool(an.chain_directed().value)),
        Fact("order_sup", "the only order supremum of the chain is 2", "2",
             lambda: ",".join(sups["leq_sups"])),
        Fact("no_metric_sup", "the chain has no metric supremum", "",
             lambda: ",".join(sups["d_sups"])),
        Fact("window_sup_to_zero",
             "in-window sup of d(chain, 0) stays below the candidate value 2",
             str(window_sup), lambda: sups["in_window_sup_to_zero"]),
        Fact("candidate_overshoot",
             "candidate 2 overshoots the chain data against 0", "1|2",
             lambda: f"{sups['evidence']['2']['chain_sup']}|{sups['evidence']['2']['candidate']}"),
        Fact("lower_hole_limits", "lower-hole limits are exactly the upper bounds", "2",
             lambda: ",".join(holes["lower_hole"])),
        Fact("no_double_hole_limit", "the chain has no double-hole limit", "",
             lambda: ",".join(holes["double_hole"])),
        Fact("lower_ball_bound_gap",
             "upper bounds of the radius-1 lower ball sit at distance 3/2", "3/2|true",
             lambda: f"{gap['value']}|{_fmt_bool(gap['exceeds_radius'])}"),
        Fact("sup_upgrade_hypothesis_needed",
             "the ball-bound hypothesis fails and so does its conclusion here",
             "false|false",
             lambda: f"{_fmt_bool(not gap['exceeds_radius'])}|"
                     f"{_fmt_bool(set(sups['leq_sups']) <= set(sups['d_sups']))}"),
        Fact("incomplete_with_witnesses",
             "every candidate is rejected as a double-hole limit", "false|all",
             lambda: f"{_fmt_bool(comp.complete)}|"
                     f"{'all' if _every_point_witnessed(space, comp) else 'missing'}"),
    )
    return Fixture("halfopen", cutoff, space,
                   {"chain": chain_seq}, facts)


def _build_fm(cutoff: int) -> Fixture:
    space = FamilySpace("sup-truncated-difference", cutoff, {"prefix": "f"})
    an = VectorFamilyAnalyzer(space)
    seq = FamilySeq(space, "identity")
    comp = family_is_complete(space)
    spot_m, spot_k = (3, 7) if cutoff >= 7 else (1, cutoff)
    fwd, bwd, _ = an.limits_against(min(3, cutoff))

    def _pairwise_forward():
        ok = all(space.dist(space.indexed(m), space.indexed(k)) == ExtReal(1, k)
                 for m in range(1, cutoff + 1) for k in range(m + 1, cutoff + 1))
        return _fmt_bool(ok)

    def _pairwise_backward():
        ok = all(space.dist(space.indexed(k), space.indexed(m)).is_inf
                 for m in range(1, cutoff + 1) for k in range(m + 1, cutoff + 1))
        return _fmt_bool(ok)

    def _diag():
        ok = all(space.dist(space.indexed(m), space.indexed(m)).is_zero()
                 for m in range(1, cutoff + 1))
        return _fmt_bool(ok)

    def _rejections():
        rej = comp.rejections
        if len(rej) != cutoff:
            return "missing"
        exp = all(r.center == f"f{int(r.candidate[1:]) + 1}" and r.limit == "0"
                  and r.required == "inf" and r.topology == "lower_hole"
                  for r in rej)
        return "all" if exp else "wrong-shape"

    facts = (
        Fact("valid_distance",
             f"triangle law holds on all triples over the indices up to "
             f"{TRIANGLE_INDICES} and the last two indices", "true",
             lambda: _fmt_bool(_family_triangle_ok(space))),
        Fact("pairwise_forward", "d(f_m, f_k) = 1/k for every m < k", "true",
             _pairwise_forward),
        Fact("pairwise_backward", "d(f_k, f_m) = inf for every m < k", "true",
             _pairwise_backward),
        Fact("self_distance_zero",
             "all-infinite shared coordinates cancel: d(f_m, f_m) = 0", "true",
             _diag),
        Fact("spot_value", f"d(f_{spot_m}, f_{spot_k}) attained at coordinate {spot_k}",
             str(ExtReal(1, spot_k)),
             lambda: str(space.dist(space.indexed(spot_m), space.indexed(spot_k)))),
        Fact("cauchy", "the family sequence is certified Cauchy", "true",
             lambda: _fmt_bool(classify_family(seq).cauchy.value)),
        Fact("order_discrete", "specialization order and symmetric join are discrete",
             "true", lambda: _fmt_bool(an.discrete_order().value)),
        Fact("trivially_order_directed_complete",
             "directed subsets are singletons, each its own supremum", "true",
             lambda: _fmt_bool(an.trivially_order_directed_complete().value)),
        Fact("trivially_join_complete",
             "the symmetric join distance is discrete, hence complete", "true",
             lambda: _fmt_bool(an.trivially_join_complete().value)),
        Fact("incomplete", "yet the space is not complete", "false",
             lambda: _fmt_bool(comp.complete)),
        Fact("rejection_witnesses",
             "every candidate f_j is rejected with center f_{j+1} (liminf 0 < inf)",
             "all", _rejections),
        Fact("limits_against", "forward limit inf, backward limit 0 against any f_j",
             "inf|0", lambda: f"{fwd}|{bwd}"),
        Fact("counterexample_replicated",
             "order side trivially complete while completeness fails", "replicated",
             lambda: "replicated"
             if (an.trivially_order_directed_complete().value
                 and an.trivially_join_complete().value and comp.complete is False)
             else "not-replicated"),
    )
    return Fixture("fm_counterexample", cutoff, space, {"fm": seq}, facts)


# fixture name -> builder, in gallery order
_BUILDERS = {"projection": _build_projection, "x_one_minus_y": _build_x_one_minus_y,
             "halfopen": _build_halfopen, "fm_counterexample": _build_fm}
GALLERY_NAMES = tuple(_BUILDERS)


def verify(fixture: Fixture) -> GalleryReport:
    """Evaluate every expected fact of the fixture; all must hold exactly."""
    entries = tuple(f.evaluate() for f in fixture.facts)
    return GalleryReport(fixture.name, fixture.cutoff, entries)
