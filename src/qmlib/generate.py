"""Seeded random instance generation for audits and fuzzing.

Matrix entries come from a small value grid rich in collisions (zero
cliques and thick order structure are what exercise the completeness
logic), then a min-plus closure enforces the triangle law.  Value-based
pairs realize the composition of a metric with an order: the truncated
difference of point values together with their absolute difference.
Point values are quarter steps, so both distances of a pair are read from
one table of quarters and no value is built per instance.

Every space generated here is a ``space.ProvenDistance``, validated
without the cubic triangle walk when first read: a min-plus closure
satisfies the triangle law (``minplus_closure``), and so does each
distance of a pair, since (a - c)+ <= (a - b)+ + (b - c)+ and
|a - c| <= |a - b| + |b - c|.  The diagonal, symmetry and separation
checks still run, and nothing is validated or cached at generation.

A sweep draws the seeds in index order (``instance_seeds``), and whichever
process runs instance i builds it from its seed alone (``instance``).
"""

from __future__ import annotations

from random import Random

from .extreal import INF, ZERO, ExtReal
from .space import FiniteSpace, ProvenDistance, minplus_closure

VALUE_GRID = (ZERO, ExtReal(1, 4), ExtReal(1, 2), ExtReal(1), ExtReal(2), INF)
POSITIVE_GRID = (ExtReal(1, 4), ExtReal(1, 2), ExtReal(1), ExtReal(2))
# a point value k/4 is drawn as its step k; QUARTERS[k] = k/4 covers every
# entry of a pair, up to e's 2 * 12 quarters
VALUE_STEPS = tuple(range(13))
QUARTERS = tuple(ExtReal(k, 4) for k in range(25))


def random_space(rng: Random, n: int, hemimetric: bool = False) -> FiniteSpace:
    """Random validated distance: grid entries, min-plus closed.

    Hemimetric mode zeroes the diagonal before the closure (the closure
    keeps it zero).
    """
    rows = [[rng.choice(VALUE_GRID) for _ in range(n)] for _ in range(n)]
    if hemimetric:
        for i in range(n):
            rows[i][i] = ZERO
    return minplus_closure(rows)


def random_metric(rng: Random, n: int) -> FiniteSpace:
    """Random metric: symmetric positive off-diagonal entries, closed."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(POSITIVE_GRID)
            rows[i][j] = v
            rows[j][i] = v
    return minplus_closure(rows)


def random_value_pair(rng: Random, n: int):
    """A two-distance instance (d, e) of composed order-metric shape.

    Points carry values v = k/4 with k in 0..12; d(x,y) = (v_x - v_y)+ and
    e(x,y) = s|v_x - v_y| for a scale s in {1, 2}.  Then e is a symmetric
    hemimetric, d arises from e composed with the value order, and the
    filter chain hypotheses hold non-vacuously; s = 2 separates e from the
    symmetric join of d.
    """
    steps = [rng.choice(VALUE_STEPS) for _ in range(n)]
    scale = rng.choice((1, 1, 2))
    labels = tuple(f"p{i}" for i in range(n))
    d_rows = tuple(tuple(QUARTERS[a - b if a > b else 0] for b in steps) for a in steps)
    e_rows = tuple(tuple(QUARTERS[scale * abs(a - b)] for b in steps) for a in steps)
    return ProvenDistance(labels, d_rows), ProvenDistance(labels, e_rows)


def instance_seeds(seed: int, count: int) -> list:
    """Each instance's seed, in index order, from one ``Random(seed)``."""
    master = Random(seed)
    return [master.getrandbits(63) for _ in range(count)]


def instance(i: int, inst_seed: int, n: int) -> tuple:
    """Instance ``i`` as (kind, space, second-or-None), built from its seed.

    Kinds rotate through plain distances, hemimetrics, metrics, and
    value-based two-distance pairs so every audited statement gets
    non-vacuous instances.
    """
    inst_rng = Random(inst_seed)
    kind = ("plain", "hemimetric", "metric", "value_pair")[i % 4]
    if kind in ("plain", "hemimetric"):
        return kind, random_space(inst_rng, n, hemimetric=kind == "hemimetric"), None
    if kind == "metric":
        return kind, random_metric(inst_rng, n), None
    return (kind, *random_value_pair(inst_rng, n))
