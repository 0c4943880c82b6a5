"""Definitional forms of the quantities the library computes in collapsed form.

On a finite carrier several quantifications collapse: the relation filter
bottoms out at the specialization order {d = 0}, so d_Phi = d_F = d_low and
composing through the filter equals composing with the order; order- and
metric-directed subsets coincide; and every zero-clique member is its own
double-hole limit.  The functions here evaluate the uncollapsed
definitions so the differential tests can pin each production form to
them.
"""

import itertools

from qmlib.derived import StepFn
from qmlib.extreal import INF, ZERO, ext_min
from qmlib.nets import zero_cliques
from qmlib.order import check_ed_complete
from qmlib.space import FiniteSpace, derive, threshold_grid
from qmlib.topology import CompletenessReport


def _step_over_cuts(space: FiniteSpace, piece) -> StepFn:
    """StepFn on the cuts derived_functions uses, valued by ``piece(r)``
    (r=None for radius 0, where every ball is empty)."""
    finite_vals = [v for v in space.distinct_values if not v.is_inf and not v.is_zero()]
    cuts = tuple(finite_vals) + (INF,)
    return StepFn(piece(None), cuts, tuple(piece(r) for r in cuts))


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
                    val = ext_min((space.d(y, x) for y in cand), INF)
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
                val = ext_min((space.d(y, x) for y in cand), INF)
                if worst < val:
                    worst = val
        return worst

    return _step_over_cuts(space, piece)


def compose_with_filter_oracle(e_space: FiniteSpace, d_space: FiniteSpace) -> FiniteSpace:
    """e composed through every generator of d's relation filter:
    (x, y) -> sup over the threshold grid of min over {z : d(z,y) < eps}
    of e(x, z)."""
    n = d_space.n
    grid = threshold_grid(d_space)
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            best = ZERO
            for eps in grid:
                val = ext_min((e_space.d(x, z) for z in range(n)
                               if d_space.d(z, y) < eps), INF)
                if best < val:
                    best = val
            row.append(best)
        rows.append(tuple(row))
    return FiniteSpace(d_space.labels, tuple(rows))


def compose_with_order(e_space: FiniteSpace, d_space: FiniteSpace) -> FiniteSpace:
    """e composed with the specialization order of d:
    (x, y) -> min over z below y of e(x, z)."""
    return derive(e_space, "compose", derive(d_space, "leq_order"))


def order_directed_complete_oracle(space: FiniteSpace, cap: int):
    """Every order-directed subset has a d-supremum, with directedness
    read from the order-as-distance of d."""
    return check_ed_complete(derive(space, "leq_order"), space, cap=cap)


def is_complete_oracle(space: FiniteSpace) -> CompletenessReport:
    """Completeness by searching every zero clique for a double-hole limit."""
    n = space.n
    checked = 0
    for mask in zero_cliques(space):
        checked += 1
        members = [i for i in range(n) if mask >> i & 1]
        c0 = members[0]
        found = any(
            all(space.d(x, z) <= space.d(c0, z) and space.d(z, x) <= space.d(z, c0)
                for z in range(n))
            for x in range(n))
        if not found:
            return CompletenessReport(False, tuple(space.labels[i] for i in members),
                                      checked)
    return CompletenessReport(True, None, checked)
