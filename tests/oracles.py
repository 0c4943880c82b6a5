"""Definitional forms of the quantities the library computes in collapsed form.

On a finite carrier several quantifications collapse: the relation filter
bottoms out at the specialization order {d = 0}, so d_Phi = d_F = d_low and
composing through the filter equals composing with the order; order- and
metric-directed subsets coincide; every zero-clique member is its own
double-hole limit; and zero cliques, directedness and suprema read a point
only through its specialization class, so subset enumerations run over
the T0 quotient.  Each class of zero self-distance is its own symmetric
companion and its own directed set with the tail's limit profiles, and a
finite directed set's top member is its d-supremum.  Two vectors of the
vector family differ only on the coordinates between their indices, so
their sup distance needs no others; ``fm_dist_oracle`` sums every
coordinate up to one past the larger index, where production computes a
whole column of distances by one prefix/suffix-max sweep.  On the
truncated-difference chain, the upper-hole test of a candidate against
every point reduces to one test against the least-valued point, and the
successor x_n of a value v < 1 has the closed form n = floor(1/(1 - v)):
the ``chain_*`` oracles keep the per-point loops and search the chain
values for the successor.  The functions here evaluate the
uncollapsed definitions, point by point, so the differential tests can pin
each production form to them.  ``derived_functions_oracle`` and
``suprema_oracle`` keep the cut-by-cut and point-by-point ``ExtReal``
loops that the integer form of the matrix replaced, and
``link_directed_sequence_oracle`` and ``hole_characterizations_oracle``
read the order side of the two limit audits the same way; ``leq`` is the
specialization order d(i, j) = 0 that they read entry by entry.  Entries are
nonnegative, so a sum cannot fall below either of its legs:
``validate_oracle`` and ``minplus_closure_oracle`` keep the triple loops
that add over every k, where production adds only over the k whose two
legs both lie strictly below the entry under test.  The symmetric join of
a validated distance takes its validation from the distance's own;
``join_validation_oracle`` validates the join from scratch.
``FiniteSpace.scaled`` ranks the distinct entries keyed on their
``(num, den)`` pairs; ``scaled_oracle`` ranks them through a dict of
``ExtReal``s, and the oracles read the distinct values off the matrix
themselves.  Value pairs are read from a table of quarter steps;
``random_value_pair_oracle`` builds every entry through ``Fraction``
arithmetic.  The sweep's
per-instance checks read the zero masks and the integer rows:
``sups_signature_oracle``, ``net_classes_oracle``,
``dist_subequiv_oracle``, ``separable_oracle``,
``sup_upgrade_counterexample_oracle`` and
``construct_directed_from_cauchy_oracle`` keep the ``suprema`` loop and
the ExtReal scans they replaced.  The Cauchy tails are the classes of
zero self-distance: ``zero_class_members_oracle`` lists them per class
representative, ``double_hole_limits_oracle`` scans every point for the
double-hole limits of a tail where ``kw_limit`` takes the tail's class,
and ``pre_cauchy_subnet_equiv_oracle`` compares a pre-Cauchy sequence
with its extracted subsequence flag by flag.  The formal-ball
samplers draw Cauchy sequences, directed subsets of X x grid and
ball-identity tuples at random, where ``kw_audit`` decides each side per
class or by identity; ``fb_leq`` is the order of formal balls they read,
and ``signed_fb_distance_oracle`` keeps the nonpositive-radius formula
(d(x, y) + r - s)+ on signed ``Fraction`` radii, which
``fb_distance_raw`` equals at the radii (-r, -s).
``ThresholdRel`` is one generator {d < eps} of the relation filter, and
``subequiv`` compares two step functions through their sublevel sets,
where production compares two distances on their zero masks
(``dist_subequiv``).  ``directed_subsets_count`` and
``zero_cliques_count`` give the counts of the two exponential walks,
``check_ed_complete`` and ``is_complete``, in closed form, read off the
classes point by point.  ``instance_stream`` is a sweep's instances in
index order, each built from its seed as whichever process runs it does.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from qmlib.derived import DerivedFunctions, StepFn, sub_identity
from qmlib.extreal import INF, ONE, ZERO, ExtReal
from qmlib.family import CandidateRejection, FamilyCompleteness, FamilySpace
from qmlib.formal_balls import (DEFAULT_RADIUS_GRID, FormalBall, RadiusSeq,
                                fb_distance, fb_distance_raw)
from qmlib.generate import instance, instance_seeds
from qmlib.nets import (NetClasses, PreconditionError, cauchy_subsequence, check_ids,
                        epseq, zero_cliques)
from qmlib.order import (DirectedSequenceReport, EdCompletenessReport, SupremumResult,
                         is_directed, suprema)
from qmlib.space import (FiniteSpace, SpaceError, Validation, _validate, derive,
                         space_from_rows, threshold_grid)
from qmlib.theorems import DirectedConstruction
from qmlib.topology import CompletenessReport, HoleCharacterizationReport, convergence


def instance_stream(seed: int, n: int, count: int):
    """(index, kind, space, second-or-None) of each instance of a sweep."""
    for i, inst_seed in enumerate(instance_seeds(seed, count)):
        yield (i, *instance(i, inst_seed, n))


def leq(space: FiniteSpace, i: int, j: int) -> bool:
    """The specialization order, the oracles' definitional one: d(i, j) = 0."""
    return space.d(i, j).is_zero()


def _step_over_cuts(space: FiniteSpace, piece) -> StepFn:
    """StepFn on the cuts derived_functions uses, valued by ``piece(r)``
    (r=None for radius 0, where every ball is empty)."""
    cuts = _cuts(space)
    return StepFn(piece(None), cuts, tuple(piece(r) for r in cuts))


def _positive_values(space: FiniteSpace) -> list:
    """The distinct positive finite matrix values, ascending."""
    return sorted({v for row in space.matrix for v in row if not v.is_inf and not v.is_zero()})


def _cuts(space: FiniteSpace) -> tuple:
    """The distinct positive finite matrix values, ascending, then inf."""
    return (*_positive_values(space), INF)


def derived_functions_oracle(space: FiniteSpace) -> DerivedFunctions:
    """d_up and d_low cut by cut on ExtReal entries: at every radius each
    ball is rebuilt from scratch, its bound candidates listed and the
    worst bound taken over the points."""
    n = space.n
    up0 = space.zero_up
    down0 = space.zero_down

    def piece_values(r):
        up_worst = ZERO
        low_worst = ZERO
        for x in range(n):
            ball_up = 0
            ball_low = 0
            if r is not None:
                for z in range(n):
                    if space.d(x, z) < r:
                        ball_up |= 1 << z
                    if space.d(z, x) < r:
                        ball_low |= 1 << z
            lb = [y for y in range(n) if up0[y] & ball_up == ball_up]
            up_here = min((space.d(x, y) for y in lb), default=INF)
            ub = [y for y in range(n) if down0[y] & ball_low == ball_low]
            low_here = min((space.d(y, x) for y in ub), default=INF)
            up_worst = max(up_worst, up_here)
            low_worst = max(low_worst, low_here)
        return up_worst, low_worst

    cuts = _cuts(space)
    at_zero = piece_values(None)
    at_cuts = [piece_values(r) for r in cuts]
    return DerivedFunctions(*(StepFn(at_zero[k], cuts, tuple(v[k] for v in at_cuts))
                              for k in (0, 1)))


def suprema_oracle(space: FiniteSpace, Y) -> SupremumResult:
    """d-suprema, order suprema and their classes point by point on
    ExtReal entries: the order upper bounds x of Y, those below every
    upper bound, and those with d(x, z) = max over y in Y of d(y, z) for
    every z."""
    pts = sorted(set(Y))
    n = space.n
    upper = [x for x in range(n) if all(leq(space, y, x) for y in pts)]
    leq_sups = [x for x in upper if all(leq(space, x, z) for z in upper)]
    d_sups = [x for x in upper
              if all(space.d(x, z) == max((space.d(y, z) for y in pts), default=ZERO)
                     for z in range(n))]
    classes = []
    seen = set()
    for x in leq_sups:
        if x in seen:
            continue
        cls = {z for z in leq_sups if leq(space, x, z) and leq(space, z, x)}
        seen |= cls
        classes.append(frozenset(space.labels[i] for i in cls))
    return SupremumResult(frozenset(space.labels[i] for i in d_sups),
                          frozenset(space.labels[i] for i in leq_sups), tuple(classes))


def link_directed_sequence_oracle(space: FiniteSpace, Y, seq) -> DirectedSequenceReport:
    """``order.link_directed_sequence`` with its order side read point by
    point on ExtReal entries: Y <= x by ``leq``, the forward domination
    against the max over Y, the d-suprema by ``suprema_oracle`` and the
    backward limits against the min over Y."""
    pts = sorted(set(Y))
    n = space.n
    y_leq_seq = all(leq(space, y, c) for y in pts for c in seq.cycle)
    seq_in_Y = set(seq.pre) | set(seq.cycle) <= set(pts)
    violations = []
    if y_leq_seq and seq_in_Y:
        d_sups = suprema_oracle(space, pts).d_sups
        for x in range(n):
            rep = convergence(space, seq, x)
            lbl = space.labels[x]
            if rep.lower_hole != all(leq(space, y, x) for y in pts):
                violations.append((lbl, "lower_hole_vs_upper_bound"))
            if rep.upper_hole != all(space.d(x, z) <= max(space.d(y, z) for y in pts)
                                     for z in range(n)):
                violations.append((lbl, "upper_hole_vs_forward_domination"))
            if rep.double_hole != (lbl in d_sups):
                violations.append((lbl, "double_hole_vs_d_sup"))
    tail_equiv = None
    if directed_oracle(space, pts) and net_classes_oracle(space, seq).pre_cauchy:
        tail_equiv = y_leq_seq == all(
            space.d(z, seq.cycle[0]) <= min(space.d(z, y) for y in pts) for z in range(n))
    return DirectedSequenceReport(y_leq_seq, seq_in_Y, tuple(violations), tail_equiv)


def hole_characterizations_oracle(space: FiniteSpace, seq) -> HoleCharacterizationReport:
    """``topology.check_hole_characterizations`` with its order side read
    on ExtReal entries: d(x_k, x) = 0 along the cycle, and d(x, x) = 0."""
    if not net_classes_oracle(space, seq).reflexive:
        raise PreconditionError("sequence is not reflexive")
    violations = []
    for x in range(space.n):
        rep = convergence(space, seq, x)
        if rep.lower_hole != all(leq(space, i, x) for i in seq.cycle):
            violations.append((space.labels[x], "lower_hole_vs_forward_limit"))
        if rep.double_hole != (rep.upper_hole and rep.lower_ball and leq(space, x, x)):
            violations.append((space.labels[x], "double_hole_vs_ball_and_order"))
    return HoleCharacterizationReport(space.n, tuple(violations))


def _lower_ball(space: FiniteSpace, x: int, r) -> list:
    if r is None:
        return []
    return [z for z in range(space.n) if space.d(z, x) < r]


def d_F_oracle(space: FiniteSpace) -> StepFn:
    """d_F by its definition: the sup over every finite subset F of the
    lower ball of the best upper bound of F, worst over x."""
    n = space.n

    def piece(r):
        worst = ZERO
        for x in range(n):
            ball = _lower_ball(space, x, r)
            for k in range(len(ball) + 1):
                for F in itertools.combinations(ball, k):
                    cand = [y for y in range(n) if all(space.d(z, y).is_zero() for z in F)]
                    val = min((space.d(y, x) for y in cand), default=INF)
                    if worst < val:
                        worst = val
        return worst

    return _step_over_cuts(space, piece)


def d_Phi_oracle(space: FiniteSpace) -> StepFn:
    """d_Phi by its definition: bounds for the lower ball taken through
    every generator {d < eps} of the relation filter, sup over the whole
    threshold grid, worst over x."""
    n = space.n
    grid = threshold_grid(space)

    def piece(r):
        worst = ZERO
        for x in range(n):
            ball = _lower_ball(space, x, r)
            for eps in grid:
                cand = [y for y in range(n) if all(space.d(z, y) < eps for z in ball)]
                val = min((space.d(y, x) for y in cand), default=INF)
                if worst < val:
                    worst = val
        return worst

    return _step_over_cuts(space, piece)


@dataclass(frozen=True)
class ThresholdRel:
    """The relation x < y at scale epsilon: d(x,y) < epsilon.

    These relations generate the whole filter of uniform relations of the
    space: every member of the filter contains one of them, so monotone
    quantifications over the filter reduce to ``threshold_grid``.
    """

    space: FiniteSpace
    epsilon: ExtReal

    def __post_init__(self):
        if not ZERO < self.epsilon:
            raise SpaceError("threshold radii are positive")

    def holds(self, i: int, j: int) -> bool:
        return self.space.d(i, j) < self.epsilon

    @property
    def masks(self) -> tuple:
        n = self.space.n
        return tuple(sum(1 << j for j in range(n) if self.holds(i, j)) for i in range(n))


def compose_with_filter_oracle(e_space: FiniteSpace, d_space: FiniteSpace) -> FiniteSpace:
    """e composed through every generator of d's relation filter:
    (x, y) -> sup over the threshold grid of min over {z : d(z,y) < eps}
    of e(x, z).  Each relation {z : d(z,y) < eps} is built once per
    (eps, y) and read by every row x."""
    n = d_space.n
    below = [[[z for z in range(n) if d_space.d(z, y) < eps] for eps in threshold_grid(d_space)]
             for y in range(n)]
    rows = []
    for x in range(n):
        row = []
        for zss in below:
            best = ZERO
            for zs in zss:
                val = min((e_space.d(x, z) for z in zs), default=INF)
                if best < val:
                    best = val
            row.append(best)
        rows.append(tuple(row))
    return FiniteSpace(d_space.labels, tuple(rows))


def compose_with_order(e_space: FiniteSpace, d_space: FiniteSpace) -> FiniteSpace:
    """e composed with the specialization order of d:
    (x, y) -> min over z below y of e(x, z)."""
    return derive(e_space, "compose", derive(d_space, "leq_order"))


def directed_oracle(space: FiniteSpace, Y) -> bool:
    """Metric directedness over every finite subset F of Y: some y in Y
    has max over F of d(f, y) equal to 0."""
    pts = sorted(set(Y))
    for size in range(1, len(pts) + 1):
        for F in itertools.combinations(pts, size):
            best = min(max(space.d(f, y) for f in F) for y in pts)
            if not best.is_zero():
                return False
    return True


def _point_subsets(n: int):
    for bits in range(1, 1 << n):
        yield [i for i in range(n) if bits >> i & 1]


def zero_cliques_oracle(space: FiniteSpace) -> list:
    """Every nonempty subset of the zero-self-distance points on which d
    vanishes, as bitmasks in increasing order."""
    n = space.n
    core = [i for i in range(n) if space.d(i, i).is_zero()]
    up = space.zero_up
    down = space.zero_down
    out = []
    m = len(core)
    for bits in range(1, 1 << m):
        members = [core[t] for t in range(m) if bits >> t & 1]
        mask = 0
        for i in members:
            mask |= 1 << i
        if all((up[i] & mask) == mask and (down[i] & mask) == mask for i in members):
            out.append(mask)
    return out


def representatives(class_masks) -> int:
    """Mask of the least member of each class, given per point the mask of
    its class: ``FiniteSpace.representatives`` for any such list, so that
    tests can combine the class masks of two spaces."""
    return sum(1 << i for i, cls in enumerate(class_masks) if cls & -cls == 1 << i)


def zero_class_members_oracle(space: FiniteSpace) -> list:
    """One member list per specialization class whose representative (least
    member) has zero self-distance, read per representative."""
    n = space.n
    reps = representatives(space.class_masks)
    return [[j for j in range(n) if cls >> j & 1]
            for i, cls in enumerate(space.class_masks)
            if reps >> i & 1 and leq(space, i, i)]


def double_hole_limits_oracle(space: FiniteSpace, clique) -> list:
    """Double-hole limit points of any Cauchy sequence with the given tail.

    All tail members are mutually at distance 0, so by the triangle law
    d(c, z) agrees across members and the liminf tests collapse to one
    member c0; every point is scanned against it on ExtReal entries.
    """
    c0 = list(clique)[0]
    n = space.n
    return [x for x in range(n)
            if all(space.d(x, z) <= space.d(c0, z) and space.d(z, x) <= space.d(z, c0)
                   for z in range(n))]


def pre_cauchy_subnet_equiv_oracle(space: FiniteSpace, seq) -> bool:
    """The four ball and hole flags of a pre-Cauchy sequence and of its
    extracted Cauchy subsequence agree at every point."""
    sub = cauchy_subsequence(space, seq)
    return all(convergence(space, seq, x).flag(t) == convergence(space, sub, x).flag(t)
               for x in range(space.n)
               for t in ("upper_ball", "lower_ball", "upper_hole", "lower_hole"))


def check_ed_complete_oracle(space_e: FiniteSpace, space_d: FiniteSpace) -> EdCompletenessReport:
    """Every e-directed subset has a d-supremum, tried on every nonempty
    subset of the points."""
    checked = 0
    for pts in _point_subsets(space_d.n):
        if not is_directed(space_e, pts):
            continue
        checked += 1
        if not suprema_oracle(space_d, pts).d_sups:
            return EdCompletenessReport(False, tuple(space_d.labels[i] for i in pts), checked)
    return EdCompletenessReport(True, None, checked)


def order_directed_complete_oracle(space: FiniteSpace) -> EdCompletenessReport:
    """Every order-directed subset has a d-supremum, with directedness
    read from the order-as-distance of d."""
    return check_ed_complete_oracle(derive(space, "leq_order"), space)


def sup_upgrade_oracle(space: FiniteSpace) -> bool:
    """Every order supremum of every nonempty subset is a d-supremum."""
    for pts in _point_subsets(space.n):
        res = suprema(space, pts)
        if not res.leq_sups <= res.d_sups:
            return False
    return True


def sup_upgrade_counterexample_oracle(space: FiniteSpace, representatives: int):
    """``theorems.sup_upgrade_counterexample`` with each ball
    B(x, z) = {y below x : d(y, z) < d(x, z)} built on ExtReal entries."""
    n = space.n
    reps = [i for i in range(n) if representatives >> i & 1]
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


def sups_signature_oracle(space: FiniteSpace) -> tuple:
    """``order.sups_signature``: per point i the mask of the j with
    d(i, j) = 0, then the d-suprema masks of every singleton and then
    every pair of points, by one ``suprema_oracle`` call each."""
    n = space.n
    order = tuple(sum(1 << j for j in range(n) if space.d(i, j).is_zero()) for i in range(n))
    return order, tuple(sum(1 << space.index(x) for x in suprema_oracle(space, list(pts)).d_sups)
                        for size in (1, 2) for pts in itertools.combinations(range(n), size))


def net_classes_oracle(space: FiniteSpace, seq) -> NetClasses:
    """The three net classes by the min and max of each cycle row of d,
    on ExtReal entries."""
    check_ids(space, seq)
    reflexive = cauchy = True
    for i in seq.cycle:
        if not min(space.d(i, j) for j in seq.cycle).is_zero():
            reflexive = False
        if not max(space.d(i, j) for j in seq.cycle).is_zero():
            cauchy = False
    return NetClasses(reflexive, cauchy, cauchy)


def dist_subequiv_oracle(f_space: FiniteSpace, g_space: FiniteSpace) -> bool:
    """g(x, y) = 0 forces f(x, y) = 0, entry by entry."""
    n = f_space.n
    return all(f_space.d(i, j).is_zero()
               for i in range(n) for j in range(n) if g_space.d(i, j).is_zero())


def separable_oracle(space: FiniteSpace) -> bool:
    """Every row of d has minimum 0, on ExtReal entries."""
    n = space.n
    return all(min(space.d(x, y) for y in range(n)).is_zero() for x in range(n))


def construct_directed_from_cauchy_oracle(space: FiniteSpace, seq, dfs) -> DirectedConstruction:
    """``theorems.construct_directed_from_cauchy`` with every radius
    constraint tested on ExtReal entries: the ball {z : d(x_f, z) < 2r}
    and the witness d(x_f, y) < r_prev with y below the whole ball."""
    if not net_classes_oracle(space, seq).cauchy:
        raise PreconditionError("sequence is not Cauchy")
    if not sub_identity(dfs.d_up):
        raise PreconditionError("upper-ball bound function is not uniformly below identity")
    n = space.n
    positive = _positive_values(space)
    v_min = positive[0] if positive else ExtReal(1)
    cyc = seq.cycle
    p = len(cyc)
    ys = []
    radii = []
    r_prev = ExtReal(v_min.num, 2 * v_min.den)
    for step in range(p + 2):
        r_cur = ExtReal(r_prev.num, 2 * r_prev.den)
        radii.append(r_cur)
        x_f = cyc[step % p]
        two_r = r_cur + r_cur
        ball = [z for z in range(n) if space.d(x_f, z) < two_r]
        found = None
        for y in range(n):
            if space.d(x_f, y) < r_prev and all(leq(space, y, z) for z in ball):
                found = y
                break
        if found is None:
            raise PreconditionError(
                f"ball bound hypothesis violated: no witness at step {step} (bug signal)")
        if found not in ys:
            ys.append(found)
        r_prev = r_cur
    directed = is_directed(space, ys)
    c0 = cyc[0]
    forward_match = all(
        max(space.d(y, z) for y in ys) == space.d(c0, z) for z in range(n))
    backward_match = all(
        min(space.d(z, y) for y in ys) == space.d(z, c0) for z in range(n))
    return DirectedConstruction(tuple(space.labels[i] for i in ys),
                                directed, forward_match, backward_match, tuple(radii))


def is_complete_oracle(space: FiniteSpace) -> CompletenessReport:
    """Completeness by searching every zero clique for a double-hole limit."""
    n = space.n
    checked = 0
    for mask in zero_cliques_oracle(space):
        checked += 1
        members = [i for i in range(n) if mask >> i & 1]
        if not double_hole_limits_oracle(space, members):
            return CompletenessReport(False, tuple(space.labels[i] for i in members),
                                      checked)
    return CompletenessReport(True, None, checked)


def companion_oracle(space: FiniteSpace, clique) -> bool:
    """Search every point for a symmetric companion of a tail clique: a
    point w with d(w, w) = 0, the clique's forward profile, and d(c, w) = 0
    for every c in the clique.  The tail can be thinned to one element, so
    a singleton search is complete."""
    n = space.n
    c0 = clique[0]
    return any(
        space.d(w, w).is_zero()
        and all(space.d(w, z) == space.d(c0, z) for z in range(n))
        and all(space.d(c, w).is_zero() for c in clique)
        for w in range(n))


def directed_set_with_profiles_oracle(space: FiniteSpace, clique) -> bool:
    """Bounded search for a directed Y reproducing a tail clique's forward
    and backward limit profiles: the clique itself, then every singleton
    and every pair of points."""
    n = space.n
    c0 = clique[0]
    candidates = [list(clique)]
    for size in (1, 2):
        candidates.extend(list(c) for c in itertools.combinations(range(n), size))
    for Y in candidates:
        if not is_directed(space, Y):
            continue
        if all(max(space.d(y, z) for y in Y) == space.d(c0, z) for z in range(n)) and \
                all(min(space.d(z, y) for y in Y) == space.d(z, c0) for z in range(n)):
            return True
    return False


def fm_dist_oracle(m: int, k: int) -> ExtReal:
    """d(x_m, x_k) of the vector family x_n = (inf, ..., inf, 0, 1/(n+1),
    1/(n+2), ...): the sup of the truncated coordinate differences over
    coordinates 1..max(m, k) + 1, past which the two vectors agree."""
    def coord(n, j):
        return INF if j < n else ZERO if j == n else ExtReal(1, j)
    return max(coord(m, j).tsub(coord(k, j)) for j in range(1, max(m, k) + 2))


CHAIN_CERT = "chain.increasing_below_one"


def chain_hole_limit_sets_oracle(space: FamilySpace) -> dict:
    """``ChainAnalyzer.hole_limit_sets`` with the upper-hole inequality
    (1 - w)+ >= (v - w)+ tried against the value w of every point."""
    lower, upper, double = [], [], []
    for pt in space.points():
        v = space.value(pt)
        lbl = space.label(pt)
        lh = v >= ONE
        uh = all(ONE.tsub(space.value(z)) >= v.tsub(space.value(z))
                 for z in space.points())
        if lh:
            lower.append(lbl)
        if uh:
            upper.append(lbl)
        if lh and uh:
            double.append(lbl)
    return {"lower_hole": sorted(lower), "upper_hole": sorted(upper),
            "double_hole": sorted(double), "certificates": [CHAIN_CERT]}


def chain_completeness_oracle(space: FamilySpace) -> FamilyCompleteness:
    """``ChainAnalyzer.completeness`` with each candidate's successor found
    by searching the chain values from its first point, past the window
    where needed, where production reads it off the closed form.  The
    chain rises to 1, so it passes a value below 1; a value within 1/N of
    1 is passed only near x_N, so the search doubles its step and then
    halves it, comparing values only.  A point of value exactly 1 is the
    chain's double-hole limit, so the verdict is then undecided."""
    def strictly_above(v):
        def above(n):
            return space.value(space.indexed(n)) > v
        lo, hi = 0, 1       # invariant: x_lo <= v (or lo == 0) and x_hi > v
        while not above(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return space.indexed(hi)

    if any(space.value(pt) == ONE for pt in space.points()):
        return FamilyCompleteness(None)
    rejections = []
    for pt in space.points():
        v = space.value(pt)
        lbl = space.label(pt)
        if v > ONE:
            z = min(space.points(), key=lambda p: space.value(p))
            rejections.append(CandidateRejection(
                lbl, space.label(z), "upper_hole",
                str(ONE.tsub(space.value(z))), str(v.tsub(space.value(z)))))
        else:
            nxt = strictly_above(v)
            rejections.append(CandidateRejection(
                lbl, space.label(nxt), "lower_hole", "0", str(space.value(nxt).tsub(v))))
    return FamilyCompleteness(False, "identity", tuple(rejections), (CHAIN_CERT,))


def validate_oracle(space: FiniteSpace) -> Validation:
    """The structural checks with the triangle law tried on every triple."""
    n = space.n
    m = space.matrix
    violations = []
    is_distance = True
    for i in range(n):
        for j in range(n):
            dij = m[i][j]
            for k in range(n):
                if dij > m[i][k] + m[k][j]:
                    is_distance = False
                    violations.append(
                        ("triangle", space.labels[i], space.labels[k], space.labels[j]))
    is_hemimetric = is_distance
    for i in range(n):
        if not m[i][i].is_zero():
            is_hemimetric = False
            if is_distance:
                violations.append(("self_distance", space.labels[i]))
    is_symmetric = all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))
    # A metric additionally separates points: mutual distance 0 forces equality.
    separated = all(not (m[i][j].is_zero() and m[j][i].is_zero())
                    for i in range(n) for j in range(n) if i != j)
    is_metric = is_hemimetric and is_symmetric and separated
    return Validation(is_distance, is_hemimetric, is_symmetric, is_metric,
                      tuple(violations))


def zero_masks_oracle(space: FiniteSpace) -> tuple:
    """``(zero_up, zero_down, class_masks)`` from ``ExtReal.is_zero`` on
    every entry, without the rank table."""
    n = space.n
    m = space.matrix
    up = tuple(sum(1 << j for j in range(n) if m[i][j].is_zero()) for i in range(n))
    down = tuple(sum(1 << i for i in range(n) if m[i][j].is_zero()) for j in range(n))
    classes = tuple(sum(1 << j for j in range(n)
                        if j == i or (m[i][j].is_zero() and m[j][i].is_zero()))
                    for i in range(n))
    return up, down, classes


def join_validation_oracle(space: FiniteSpace) -> Validation:
    """``_validate`` run on the symmetric join of ``space``, rebuilt as a
    plain space that carries no precomputed validation."""
    return _validate(FiniteSpace(space.labels, derive(space, "join").matrix))


def scaled_oracle(space: FiniteSpace) -> tuple:
    """``FiniteSpace.scaled`` through a dict from each distinct ``ExtReal``
    to its rank: 0 first, inf last, the other entries ascending between."""
    back = (ZERO, *_positive_values(space), INF)
    rank = {v: i for i, v in enumerate(back)}
    rows = tuple(tuple(rank[v] for v in row) for row in space.matrix)
    return rows, back, len(back) - 1


RATIONAL_GRID = tuple(Fraction(k, 4) for k in range(0, 13))


def _ext(value: Fraction) -> ExtReal:
    """A nonnegative ``Fraction`` as an ``ExtReal``."""
    return ExtReal(value.numerator, value.denominator)


def random_value_pair_oracle(rng, n: int):
    """The value pair built entry by entry from ``Fraction`` point values:
    d(x,y) = (v_x - v_y)+ and e(x,y) = s|v_x - v_y|, each entry converted
    to an ``ExtReal``."""
    vals = [rng.choice(RATIONAL_GRID) for _ in range(n)]
    scale = rng.choice((1, 1, 2))
    labels = [f"p{i}" for i in range(n)]
    d_rows = [[_ext(max(a - b, Fraction(0))) for b in vals] for a in vals]
    e_rows = [[_ext(scale * abs(a - b)) for b in vals] for a in vals]
    return space_from_rows(labels, d_rows), space_from_rows(labels, e_rows)


def minplus_closure_oracle(rows, labels=None) -> FiniteSpace:
    """One in-place Floyd-Warshall pass that forms every sum d[i][k] + d[k][j]."""
    work = [list(r) for r in rows]
    n = len(work)
    if any(len(r) != n for r in work):
        raise SpaceError("matrix is not square")
    for k in range(n):
        col_k = [work[i][k] for i in range(n)]
        row_k = work[k]
        for i in range(n):
            dik = col_k[i]
            if dik.is_inf:
                continue
            wi = work[i]
            for j in range(n):
                cand = dik + row_k[j]
                if cand < wi[j]:
                    wi[j] = cand
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    return FiniteSpace(tuple(labels), tuple(tuple(r) for r in work))


def step_is_monotone(f: StepFn) -> bool:
    """The step function never decreases: at zero, then piece by piece."""
    prev = f.at_zero
    for v in f.values:
        if v < prev:
            return False
        prev = v
    return True


def subequiv(f: StepFn, g: StepFn) -> bool:
    """f is uniformly below g: sup{f(x) : g(x) <= r} -> 0 as r -> 0+.

    Step data makes the limit exact: below the smallest positive value of
    g the sublevel set is frozen at {g = 0}, so the limit is the sup of f
    there.  Zero and the right endpoint of each merged piece of f and g
    cover every constancy piece.
    """
    points = [ZERO] + sorted(set(f.cuts) | set(g.cuts))
    return all(f(x).is_zero() for x in points if g(x).is_zero())


def fb_leq(space: FiniteSpace, a: FormalBall, b: FormalBall) -> bool:
    """The order of formal balls: distance 0 from a to b."""
    return fb_distance(space, a, b).is_zero()


def signed_fb_distance_oracle(space: FiniteSpace, x: int, r: Fraction,
                              y: int, s: Fraction) -> ExtReal:
    """(d(x,y) + r - s)+ on signed ``Fraction`` radii: the nonpositive-radius
    form of the formal-ball distance, which ``fb_distance_raw`` computes at
    the radii (-r, -s)."""
    base = space.d(x, y)
    if base.is_inf:
        return INF
    total = Fraction(base.num, base.den) + r - s
    return _ext(total) if total > 0 else ZERO


@dataclass(frozen=True)
class BallIdentityReport:
    tuples_checked: int
    identity_violations: int
    # sampled "closed balls have extremal bounds at distance exactly t";
    # None when the base is not a hemimetric (the witnesses then sit at
    # distance d(x,x) + t instead).
    d_up_leq_identity: bool | None
    d_low_leq_identity: bool | None

    @property
    def ok(self) -> bool:
        return self.identity_violations == 0


def _random_radius(rng) -> ExtReal:
    return ExtReal(rng.randrange(0, 9), rng.choice((1, 2, 3, 4)))


def ball_identities(space: FiniteSpace, rng, count: int = 200) -> BallIdentityReport:
    """Verify, on sampled tuples, the three equivalent readings of
    d((x,r),(y,s)) <= t: shifting the left radius up by t, or the right
    radius down by t where t <= s, lands exactly on the order cone.

    When the base is a hemimetric the sampled witnesses also pin the ball
    bound functions of the extension below the identity: the shifted balls
    sit at distance exactly t from their cones' tips.
    """
    violations = 0
    hemimetric = space.validation.is_hemimetric
    up_ok = True if hemimetric else None
    low_ok = True if hemimetric else None
    for _ in range(count):
        x = rng.randrange(space.n)
        y = rng.randrange(space.n)
        r = _random_radius(rng)
        s = _random_radius(rng)
        t = ExtReal(rng.randrange(0, 9), rng.choice((1, 2, 4)))
        lhs = fb_distance_raw(space, x, r, y, s) <= t
        mid = fb_distance_raw(space, x, r + t, y, s).is_zero()
        # a radius is nonnegative, so the right shift needs t <= s
        shifted = t <= s
        rhs = fb_distance_raw(space, x, r, y, s.tsub(t)).is_zero() if shifted else mid
        if not (lhs == mid == rhs):
            violations += 1
        if hemimetric:
            if fb_distance_raw(space, x, r, x, r + t) != t:
                up_ok = False
            if shifted and fb_distance_raw(space, y, s.tsub(t), y, s) != t:
                low_ok = False
    return BallIdentityReport(count, violations, up_ok, low_ok)


def _sample_cauchy_fb_sequences(space: FiniteSpace, rng, count: int):
    """Random Cauchy formal-ball sequences: a shuffled zero clique as the
    point cycle, an optional one-point preperiod, and constant or
    harmonic radii."""
    cliques = zero_cliques(space)
    if not cliques:
        return
    for _ in range(count):
        mask = cliques[rng.randrange(len(cliques))]
        members = [i for i in range(space.n) if mask >> i & 1]
        rng.shuffle(members)
        pre = [rng.randrange(space.n)] if rng.random() < 0.5 else []
        pts = epseq(pre, members)
        kind = rng.choice(("constant", "harmonic"))
        if kind == "constant":
            radii = RadiusSeq("constant", ExtReal(rng.randrange(0, 4), 3))
        else:
            radii = RadiusSeq("harmonic", ZERO, ExtReal(1, rng.choice((1, 2))))
        yield pts, radii


def directed_fb_subsets_have_sups(space: FiniteSpace, rng, grid=DEFAULT_RADIUS_GRID,
                                  samples: int = 200, max_size: int = 4):
    """Sample order-directed subsets of X x grid and find their suprema
    (a member above all members).  Returns (checked, with_sup)."""
    carrier = [FormalBall(i, u) for i in range(space.n) for u in grid]
    checked = 0
    with_sup = 0
    for _ in range(samples):
        size = rng.randrange(1, max_size + 1)
        subset = [carrier[rng.randrange(len(carrier))] for _ in range(size)]
        subset = list({(b.point, b.radius): b for b in subset}.values())
        directed = all(
            any(fb_leq(space, a, c) and fb_leq(space, b, c) for c in subset)
            for a, b in itertools.combinations_with_replacement(subset, 2))
        if not directed:
            continue
        checked += 1
        tops = [m for m in subset if all(fb_leq(space, e, m) for e in subset)]
        if tops:
            with_sup += 1
    return checked, with_sup


GRID_DISTANCES = {
    "projection": lambda a, b: b,
    "x_one_minus_y": lambda a, b: a * (1 - b),
}


def grid_space_oracle(name: str, cutoff: int) -> FiniteSpace:
    """A grid fixture's space on the values k/cutoff, each entry computed
    as a ``Fraction`` and each label the value's text."""
    dist = GRID_DISTANCES[name]
    vals = [Fraction(k, cutoff) for k in range(cutoff + 1)]
    rows = [[_ext(dist(a, b)) for b in vals] for a in vals]
    return space_from_rows([str(v) for v in vals], rows)


def directed_subsets_count(space: FiniteSpace) -> int:
    """``check_ed_complete(space).subsets_checked`` in closed form.

    A directed union of classes has exactly one representative as its top
    member, so it is a representative y with d(y, y) = 0 together with any
    set of the other representatives f with d(f, y) = 0.
    """
    reps = representatives(space.class_masks)
    pts = [i for i in range(space.n) if reps >> i & 1]
    return sum(2 ** sum(1 for f in pts if f != y and leq(space, f, y))
               for y in pts if leq(space, y, y))


def zero_cliques_count(space: FiniteSpace) -> int:
    """``is_complete(space).cliques_checked`` in closed form: a class C
    of zero self-distance has 2^|C| - 1 nonempty subsets."""
    return sum(2 ** len(members) - 1 for members in zero_class_members_oracle(space))
