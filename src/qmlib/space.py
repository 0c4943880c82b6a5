"""Finite distance spaces and their derived constructions.

A :class:`FiniteSpace` is a labelled square matrix of exact distances.
Nothing here assumes symmetry or zero self-distance; the triangle law is
the only structural property.  It is checked by walking the triples,
except on a :class:`ProvenDistance`, whose construction proves it; it is
never presumed of a given matrix.

The walk sums d(i,k) + d(k,j) only for the k that can fail it.  Entries
are nonnegative, so a + b < c = d(i,j), with a = d(i,k) and b = d(k,j),
needs a < c and b < c.  It also puts k on a staircase: for s the least of
1 .. m with m * a < s * c, either s = 1 or a >= (s - 1) * c / m, so
m * b < (m + 1 - s) * c.  Hence k lies in the union over s of
{m * d(i,k) < s * c} and {m * d(k,j) < (m + 1 - s) * c}; for c = inf
that is "both legs finite", and m = 1 is the first test alone.  Both
tests read the ranks of ``scaled`` and integer cut positions, never an
``ExtReal`` sum, and every k they keep is summed exactly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property

from .extreal import INF, ZERO, ExtReal, _shown


# Most violations a validation keeps: the first ones in (i, j, k) order.
# The triangle walk of a non-distance stops at this one; a distance is
# walked in full.
MAX_VIOLATIONS = 20

# The m of the staircase (module docstring).  A pair is refined only when
# more than STEPS k pass the first test: refining costs about 2 * STEPS
# bisections, more than a few sums.  The triangle walk of x_one_minus_y at
# cutoff 100 / 200 (min of 7 / 3 walks, 2-vCPU VM, Python 3.11) took
# 63 / 488 ms at STEPS = 4, 58 / 350 at 6, 56 / 353 at 8, 70 / 484 at 12
# and 84 / 556 at 16, against about 330 / 2300 ms with no staircase.
STEPS = 8


class SpaceError(ValueError):
    """Malformed space data (ragged matrix, unknown label, mismatched sets)."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class Validation(namedtuple("Validation", "is_distance is_hemimetric is_symmetric "
                            "is_metric violations", defaults=((),))):
    """Outcome of the structural checks on a space.

    ``violations`` holds label tuples: ``("triangle", i, k, j)`` for a
    failing triple, ``("self_distance", i)`` for a nonzero diagonal entry;
    at most ``MAX_VIOLATIONS`` of them, the first in walk order.
    """

    __slots__ = ()


class FiniteSpace(namedtuple("FiniteSpace", "labels matrix")):
    """A labelled square matrix of ``ExtReal`` distances (tuples of rows).

    Instances keep a ``__dict__`` (no ``__slots__``): each cached
    property below stores its value there when first read.  A
    :class:`ProvenDistance` validates without the triangle walk.  The
    d-supremum rule that reads ``points_by_row`` is ``order._d_sups``.
    """

    def __new__(cls, labels, matrix):
        n = len(labels)
        if len(set(labels)) != n:
            raise SpaceError("duplicate point labels")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise SpaceError("matrix shape does not match label count")
        return tuple.__new__(cls, (labels, matrix))

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so its checks run; namedtuple's
        ``_replace`` builds through here too."""
        return cls(*iterable)

    def __reduce__(self):
        # rebuilds through the constructor with the caches as state, and
        # writes nothing on the class (copyreg's default caches
        # ``__slotnames__`` there)
        return (type(self), tuple(self), self.__dict__ or None)

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> ExtReal:
        return self.matrix[i][j]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SpaceError(f"unknown point {_shown(label)}") from None

    @cached_property
    def validation(self) -> Validation:
        return _validate(self)

    @cached_property
    def zero_up(self) -> tuple:
        """Bitmask per point i of all j with d(i,j) = 0 (the up-set of i),
        read off the entries: a zero test compares no two of them."""
        return tuple(_zero_mask(row) for row in self.matrix)

    @cached_property
    def zero_down(self) -> tuple:
        """Bitmask per point j of all i with d(i,j) = 0, read off the
        columns of the entries."""
        return tuple(_zero_mask(col) for col in zip(*self.matrix))

    @cached_property
    def class_masks(self) -> tuple:
        """Bitmask per point i of its specialization class: i together with
        every j at mutual distance 0 from it (d(i,j) = d(j,i) = 0).

        Under the triangle law these classes partition the points (the T0
        quotient), and members of one class share their forward and
        backward distance profiles.  This is the one place that builds the
        quotient; callers relying on the partition must check the triangle
        law first.
        """
        return tuple((u & w) | 1 << i
                     for i, (u, w) in enumerate(zip(self.zero_up, self.zero_down)))

    @cached_property
    def representatives(self) -> int:
        """Mask of the least member of each specialization class."""
        return sum(1 << i for i, cls in enumerate(self.class_masks) if cls & -cls == 1 << i)

    @cached_property
    def zero_classes(self) -> tuple:
        """The specialization classes of the points of zero self-distance,
        one bitmask each, ordered by least member.

        These are the Cauchy tails: by the triangle law a nonempty set on
        which d vanishes is a subset of one of them, and its double-hole
        limits are that class.  The classes are first confirmed to
        partition those points; where they do not (the triangle law
        fails), every read raises ``PreconditionError``.
        """
        n = self.n
        classes = self.class_masks
        core = sum(1 << i for i in range(n) if self.zero_up[i] >> i & 1)
        for i in range(n):
            cls = classes[i]
            if core >> i & 1 and (cls & ~core or any(
                    classes[j] != cls for j in range(n) if cls >> j & 1)):
                raise PreconditionError(
                    "specialization classes do not partition the zero-self-distance "
                    "points (the triangle law fails)")
        reps = self.representatives & core
        return tuple(classes[i] for i in range(n) if reps >> i & 1)

    @cached_property
    def scaled(self) -> tuple:
        """The matrix as a rank table: ``(rows, back, sentinel)``.

        ``back`` is the ascending tuple of the distinct entries, with
        ``ZERO`` always at rank 0 and ``INF`` always last, and ``rows``
        holds each entry's index in it, so the ranks order and compare
        exactly as the entries do.  ``sentinel`` is the last rank,
        infinity's.  Every comparison of entries runs on this form: the
        validation's masks, diagonal, symmetry and separation, the join
        and the inner loops of ``order`` and ``derived``; values leave it
        through ``back``.  The ranks are keyed on ``(num, den)`` pairs, so
        no ``ExtReal`` is hashed.
        """
        matrix = self.matrix
        values = {(v.num, v.den): v for row in matrix for v in row}
        values[0, 1] = ZERO     # rank 0, even where no entry is 0
        values[1, 0] = INF      # the last rank, even where no entry is inf
        back = tuple(sorted(values.values()))
        rank = {(v.num, v.den): i for i, v in enumerate(back)}
        rows = tuple(tuple(rank[v.num, v.den] for v in row) for row in matrix)
        return rows, back, len(back) - 1

    @cached_property
    def points_by_row(self) -> dict:
        """Mask of the points per distinct rank row of ``scaled``.

        ``order._d_sups`` is the d-supremum rule that reads it: one
        lookup of the column-wise max of Y's rows gives every candidate at
        once.
        """
        by_row: dict = {}
        for x, row in enumerate(self.scaled[0]):
            by_row[row] = by_row.get(row, 0) | 1 << x
        return by_row

    def __repr__(self):
        return f"{type(self).__name__}({len(self.labels)} points)"


class ProvenDistance(FiniteSpace):
    """A space whose construction proves the triangle law.

    ``minplus_closure``, ``generate.random_value_pair`` and the join of a
    distance in ``derive`` build one; every other space, a loaded file's
    included, is a plain ``FiniteSpace`` and is walked in full.  Its
    ``validation`` is computed when first read, like every cache of a
    space, by the diagonal, symmetry and separation checks of
    ``_validate`` without the triangle walk.  ``_make`` and ``_replace``
    give a plain ``FiniteSpace``: the proof was for this matrix, not for
    the one put in its place.
    """

    @classmethod
    def _make(cls, iterable):
        return FiniteSpace(*iterable)

    @cached_property
    def validation(self) -> Validation:
        return _finish_validation(self, [])


def _entry(v) -> ExtReal:
    """One matrix entry as an ``ExtReal``, or ``ValueError``."""
    if isinstance(v, ExtReal):
        return v
    if isinstance(v, (bool, float)):
        raise ValueError(f"{type(v).__name__} entries are not distances; "
                         "write an integer or p/q text")
    return ExtReal.parse(str(v))


def space_from_rows(labels, rows) -> FiniteSpace:
    """Build a space from label list and rows of ExtReal/str/int entries.

    An int is read as its decimal text, so it meets the digit cap of
    ``ExtReal.parse`` as the same digits in a string do.  Any
    other entry (a bool, a float, negative or non-numeric text, a zero
    denominator) raises ``SpaceError`` naming its row and column instead
    of being reinterpreted; the message shows at most the start of the
    entry.  Each distinct text is parsed once per call.  Only exact
    ``str`` entries share a parse: ``True`` and ``1.0`` hash equal to
    ``1``, so any other entry goes through ``_entry`` every time.
    """
    parsed = {}   # entry text -> its ExtReal, for this call only
    matrix = []
    for i, row in enumerate(rows):
        try:
            out = []
            for v in row:
                if type(v) is not str:
                    x = _entry(v)
                else:
                    x = parsed.get(v)
                    if x is None:
                        x = parsed[v] = _entry(v)
                out.append(x)
            matrix.append(tuple(out))
        except ValueError:
            for j, v in enumerate(row):   # the first bad entry names the error
                try:
                    _entry(v)
                except ValueError as e:
                    raise SpaceError(f"bad matrix entry at row {i}, column {j}: {e}") from None
    return FiniteSpace(tuple(labels), tuple(matrix))


def _zero_mask(values) -> int:
    """Bitmask of the positions of the zero entries (infinity is 1/0)."""
    mask = 0
    for j, v in enumerate(values):
        if not v.num:
            mask |= 1 << j
    return mask


def _prefix_table(ranks) -> tuple:
    """The sorted-prefix masks of one rank row or column: ``(ascending,
    masks, below)``.

    ``ascending`` holds the ranks in ascending order and ``masks[t]`` the
    positions of the first t of them, so the positions whose rank lies
    below q are ``masks[bisect_left(ascending, q)]``; ``below[j]`` is that
    mask at q = ``ranks[j]`` (equal ranks share it)."""
    order = sorted(range(len(ranks)), key=ranks.__getitem__)
    ascending = [ranks[k] for k in order]
    masks = [0]
    below = [0] * len(ranks)
    start = 0   # where the run of ranks equal to ascending[t] starts
    for t, k in enumerate(order):
        if ascending[t] != ascending[start]:
            start = t
        below[k] = masks[start]
        masks.append(masks[-1] | 1 << k)
    return ascending, masks, below


def _cuts(nums, dens, r) -> list:
    """The cut positions of rank r of ``scaled``: entry s, for s = 0 ..
    ``STEPS``, is the number of ranks q with STEPS * back[q] < s * back[r],
    so those q are the ranks below it.

    ``nums`` and ``dens`` hold the numerator and denominator of each value
    of ``back``, infinity being 1/0, so the search compares by
    cross-multiplying and builds no ``ExtReal``.  The entries grow with s
    and none passes r: entry ``STEPS`` is r itself."""
    num = nums[r]
    den = dens[r]
    cuts = [0]
    lo = 0
    for s in range(1, STEPS):
        bound = s * num
        hi = r
        while lo < hi:
            mid = (lo + hi) // 2
            if STEPS * nums[mid] * den < bound * dens[mid]:
                lo = mid + 1
            else:
                hi = mid
        cuts.append(lo)
    cuts.append(r)
    return cuts


def _triangle_violations(space: FiniteSpace) -> list:
    """The failing triples as ``("triangle", i, k, j)`` label tuples, in
    (i, j, k) order; the walk stops at the ``MAX_VIOLATIONS``-th.

    Entries are nonnegative, so d(i,k) + d(k,j) < c = d(i,j) needs both
    legs strictly below c; every other k satisfies the triangle law as
    is.  A pair with more than ``STEPS`` such k keeps only those on the
    staircase: if a + b < c with a < c, and s is the least of 1 ..
    STEPS with STEPS * a < s * c, then b < c - (s - 1) * c / STEPS, so
    k lies in the union over s of {STEPS * d(i,k) < s * c} and
    {STEPS * d(k,j) < (STEPS + 1 - s) * c}.  For c = inf that is "both
    legs finite".  Only ranks of ``scaled`` and the cut positions of
    ``_cuts`` pick the candidates; only their sums d(i,k) + d(k,j) are
    ``ExtReal`` arithmetic, formed low k to high, so violations keep
    their (i, j, k) order."""
    n = space.n
    m = space.matrix
    ranks, back, _ = space.scaled
    labels = space.labels
    violations = []
    cols = tuple(zip(*m))
    col_tables = [_prefix_table(col) for col in zip(*ranks)]
    col_below = [below for _, _, below in col_tables]
    nums = [v.num for v in back]
    dens = [v.den for v in back]
    cuts = {}   # rank -> its _cuts, for this walk
    for i in range(n):
        row = m[i]
        rank_row = ranks[i]
        row_ascending, row_masks, row_below = _prefix_table(rank_row)
        for j in range(n):
            cand = row_below[j] & col_below[j][i]
            if cand.bit_count() > STEPS:
                r = rank_row[j]
                cut = cuts.get(r)
                if cut is None:
                    cut = cuts[r] = _cuts(nums, dens, r)
                col_ascending, col_masks, _ = col_tables[j]
                # inside cand: every cut[s] is at most cut[STEPS] = r
                cand = 0
                for s in range(1, STEPS + 1):
                    cand |= (row_masks[bisect_left(row_ascending, cut[s])]
                             & col_masks[bisect_left(col_ascending, cut[STEPS + 1 - s])])
            dij = row[j]
            col = cols[j]
            while cand:
                low = cand & -cand
                cand ^= low
                k = low.bit_length() - 1
                if row[k] + col[k] < dij:
                    violations.append(("triangle", labels[i], labels[k], labels[j]))
                    if len(violations) == MAX_VIOLATIONS:
                        return violations
    return violations


def _validate(space: FiniteSpace) -> Validation:
    return _finish_validation(space, _triangle_violations(space))


def _finish_validation(space: FiniteSpace, violations: list) -> Validation:
    """The validation of a space whose triangle walk found ``violations``:
    the diagonal, symmetry and separation checks, added to that list."""
    n = space.n
    m = space.scaled[0]   # ranks: 0 is zero, and equal ranks are equal entries
    is_distance = not violations
    is_hemimetric = is_distance
    for i in range(n):
        if m[i][i]:
            is_hemimetric = False
            if is_distance and len(violations) < MAX_VIOLATIONS:
                violations.append(("self_distance", space.labels[i]))
    is_symmetric = all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))
    # A metric additionally separates points: mutual distance 0 forces
    # equality.  Under symmetry that is no zero off the diagonal, so it is
    # read only once the space is known symmetric.
    is_metric = is_hemimetric and is_symmetric and all(
        m[i][j] for i in range(n) for j in range(i))
    return Validation(is_distance, is_hemimetric, is_symmetric, is_metric,
                      tuple(violations))


def derive(space: FiniteSpace, which: str, other: FiniteSpace | None = None) -> FiniteSpace:
    """Derived space: ``opposite``, ``join``, ``leq_order`` or ``compose``.

    ``compose`` is the min-plus composition with ``other`` over the shared
    point set; its result need not satisfy the triangle law, so callers
    should consult ``validation`` on the result.  The join takes each
    entry max(d(x,y), d(y,x)) as the larger of two ranks of ``scaled``,
    read back through its values.  The join of a distance is a
    ``ProvenDistance``, validated without the triangle walk when first
    read: max(d(x,y), d(y,x)) satisfies the triangle law whenever d does.
    """
    n = space.n
    m = space.matrix
    if which == "opposite":
        rows = tuple(tuple(m[j][i] for j in range(n)) for i in range(n))
    elif which == "join":
        ranks, back, _ = space.scaled
        rows = tuple(tuple(back[max(a, b)] for a, b in zip(row, col))
                     for row, col in zip(ranks, zip(*ranks)))
        if space.validation.is_distance:
            return ProvenDistance(space.labels, rows)
    elif which == "leq_order":
        rows = tuple(tuple(m[i][j].scale_inf() for j in range(n)) for i in range(n))
    elif which == "compose":
        if other is None:
            raise SpaceError("compose requires a second space")
        if other.labels != space.labels:
            raise SpaceError("compose requires matching point sets")
        o = other.matrix
        rows = tuple(
            tuple(min(m[i][k] + o[k][j] for k in range(n)) for j in range(n))
            for i in range(n))
    else:
        raise SpaceError(f"unknown derivation {which!r}")
    return FiniteSpace(space.labels, rows)


class BallsAndHoles(namedtuple("BallsAndHoles",
                               "upper_ball lower_ball upper_hole lower_hole")):
    __slots__ = ()


def balls_and_holes(space: FiniteSpace, center: str, epsilon: ExtReal) -> BallsAndHoles:
    """The four open sets with the given center and radius, as label sets."""
    if not (ZERO < epsilon):
        raise SpaceError("radius must be positive")
    c = space.index(center)
    up_b, low_b, up_h, low_h = [], [], [], []
    for j, lbl in enumerate(space.labels):
        if space.d(c, j) < epsilon:
            up_b.append(lbl)
        if space.d(j, c) < epsilon:
            low_b.append(lbl)
        if space.d(j, c) > epsilon:
            up_h.append(lbl)
        if space.d(c, j) > epsilon:
            low_h.append(lbl)
    return BallsAndHoles(frozenset(up_b), frozenset(low_b),
                         frozenset(up_h), frozenset(low_h))


def minplus_closure(rows, labels=None) -> FiniteSpace:
    """Largest triangle-law matrix below the input, by min-plus relaxation.

    One in-place Floyd-Warshall pass, k outermost:
    d[i][j] <- min(d[i][j], d[i][k] + d[k][j]), exact for nonnegative entries.
    The sum is formed only when both legs lie below d[i][j]; otherwise it
    is at least d[i][j] and cannot lower it.

    The result is a ``ProvenDistance``, validated without the triangle
    walk when first read: with nonnegative entries the pass leaves in
    d[i][j] the least length of a walk of one or more steps from i to j,
    and two walks i -> k and k -> j join into one from i to j, so
    d(i,j) <= d(i,k) + d(k,j) holds by construction.
    """
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
                wij = wi[j]
                dkj = row_k[j]
                if dkj < wij and dik < wij:
                    cand = dik + dkj
                    if cand < wij:
                        wi[j] = cand
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    return ProvenDistance(tuple(labels), tuple(tuple(r) for r in work))


def threshold_grid(space: FiniteSpace) -> tuple:
    """Radii generating every distinct threshold relation of the space.

    Distinct positive finite matrix values, midpoints between consecutive
    ones, one value above the largest finite entry, and infinity.  The
    smallest grid entry generates the minimal relation {d = 0}.
    """
    finite = space.scaled[1][1:-1]
    grid = []
    prev = ZERO
    for v in finite:
        mid_num = v.num * prev.den + prev.num * v.den
        mid_den = 2 * v.den * prev.den
        grid.append(ExtReal(mid_num, mid_den))
        grid.append(v)
        prev = v
    if finite:
        top = finite[-1]
        grid.append(ExtReal(top.num + top.den, top.den))
    else:
        grid.append(ExtReal(1))
    grid.append(INF)
    return tuple(dict.fromkeys(grid))


def space_to_dict(space: FiniteSpace) -> dict:
    return {
        "points": list(space.labels),
        "matrix": [[str(v) for v in row] for row in space.matrix],
    }


def refuse_unknown_keys(data: dict, known: tuple, kind: str) -> None:
    """Raise SpaceError naming the first key of ``data`` that a ``kind``
    file does not read, rather than ignore it."""
    for key in data:
        if key not in known:
            raise SpaceError(f"unknown key {_shown(key)} in a {kind} file "
                             f"(it reads {', '.join(known)})")


def space_from_dict(data: dict) -> FiniteSpace:
    try:
        labels = data["points"]
        rows = data["matrix"]
    except (KeyError, TypeError):
        raise SpaceError("space file needs 'points' and 'matrix'") from None
    refuse_unknown_keys(data, ("points", "matrix"), "space")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SpaceError("'points' must be a list of strings")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SpaceError("'matrix' must be a list of rows")
    return space_from_rows(labels, rows)


def read_json_object(path: str) -> dict:
    """The JSON object stored in a file, or a SpaceError naming the file
    when its bytes are not UTF-8, not JSON (an integer Python cannot read
    and nesting past the recursion limit included), or not a JSON
    object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as e:
        raise SpaceError(f"{path} is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SpaceError(f"invalid JSON in {path}: {e}") from None
    except ValueError as e:   # an integer past Python's int-to-str digit limit
        raise SpaceError(f"unreadable number in {path}: {str(e).partition(';')[0]}") from None
    except RecursionError:
        raise SpaceError(f"{path} nests JSON arrays or objects too deeply") from None
    if not isinstance(data, dict):
        raise SpaceError(f"{path} does not hold a JSON object")
    return data


def load_space(path: str) -> FiniteSpace:
    return space_from_dict(read_json_object(path))
