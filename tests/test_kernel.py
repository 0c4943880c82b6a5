"""The fast inner loops of a space, each pinned to its oracle.

``FiniteSpace.scaled`` holds the matrix as a rank table: each entry's
index in the ascending tuple of the distinct entries, 0 first and inf
last, so a rank never grows with the digits of an entry.
``derived_functions`` sweeps it once in ascending order, one event per
entry at the cut where the entry joins its row's ball (each event
narrows that row's admissible bounds by one mask AND, and a
forward-only pointer into the sorted row reads the bound), and
``order._d_sups``, the one d-supremum rule, looks the column-wise max
of a set's rows up among them, inside the set's upper bounds (the AND of
its ``zero_up`` masks, ``order._upper_bounds``); ``suprema`` applies it
and reads its order suprema off the same upper bounds.  The zero masks
are the entries of rank 0, and the symmetric join takes the larger of
two ranks.  The triangle check of ``validation`` picks its candidates
by comparing ranks, and it and the relaxation of ``minplus_closure`` add
``ExtReal`` entries only where both legs lie below the entry they test;
the check also drops the candidates off the staircase of ``STEPS`` cut
positions where a pair has more than ``STEPS`` of them, and its sums
are counted against ``walk_sums``, the rule in its definitional form.
Each is pinned here to an oracle, on arbitrary square matrices
(non-distances, ties, infinities and nonzero diagonals included) and on
min-plus-closed spaces whose values have pairwise-coprime prime
denominators.
"""

import functools
import json
import math
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from qmlib.cli import EXIT_FAILURE, main
from qmlib.derived import derived_functions
from qmlib.extreal import INF, ZERO, ExtReal
from qmlib.gallery import build
from qmlib.order import suprema
from qmlib.space import (MAX_VIOLATIONS, STEPS, _validate, derive, load_space, minplus_closure,
                         space_from_rows)

from tests.oracles import (derived_functions_oracle, minplus_closure_oracle,
                           suprema_oracle, validate_oracle, zero_masks_oracle)

VALUES = tuple(ExtReal.parse(t) for t in ("0", "1/2", "3/7", "5/11", "1", "2", "inf"))
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
EXAMPLES = settings(max_examples=150, deadline=None)
DATA = Path(__file__).resolve().parent / "data"
# every tests/data file that holds a matrix; a family rule holds none
MATRIX_FILES = sorted(p for p in DATA.glob("*.json")
                      if "matrix" in json.loads(p.read_text(encoding="utf-8")))


def _labels(n: int) -> list:
    return [f"p{i}" for i in range(n)]


@st.composite
def matrices(draw, max_n=7):
    """Any square matrix over VALUES: the triangle law need not hold."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    row = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
    return space_from_rows(_labels(n), draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def coprime_closed(draw, max_n=7):
    """The min-plus closure of a matrix of values k/p with p prime, plus
    some zeros and infinities."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(
        st.just(ZERO), st.just(INF),
        st.builds(lambda p, k: ExtReal(k, p), st.sampled_from(PRIMES),
                  st.integers(min_value=1, max_value=300)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return minplus_closure(rows)


spaces = st.one_of(matrices(), coprime_closed())


@st.composite
def spaces_with_subsets(draw):
    space = draw(spaces)
    pts = draw(st.sets(st.integers(min_value=0, max_value=space.n - 1), min_size=1))
    return space, sorted(pts)


@EXAMPLES
@given(matrices())
def test_derived_functions_match_the_oracle_on_any_matrix(space):
    assert derived_functions(space).to_dict() == derived_functions_oracle(space).to_dict()


@EXAMPLES
@given(coprime_closed())
def test_derived_functions_match_the_oracle_on_coprime_distances(space):
    assert space.validation.is_distance
    assert derived_functions(space).to_dict() == derived_functions_oracle(space).to_dict()


@EXAMPLES
@given(spaces_with_subsets())
def test_suprema_match_the_oracle(case):
    space, pts = case
    want = suprema_oracle(space, pts)
    assert suprema(space, pts) == want


@EXAMPLES
@given(spaces)
def test_scaled_preserves_order_and_inverts_exactly(space):
    rows, back, sentinel = space.scaled
    n = space.n
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in cells:
        assert back[rows[i][j]] == space.d(i, j)
        assert (rows[i][j] == sentinel) == space.d(i, j).is_inf
    for a in cells:
        for b in cells:
            da, db = space.d(*a), space.d(*b)
            ra, rb = rows[a[0]][a[1]], rows[b[0]][b[1]]
            assert (ra < rb) == (da < db)
            assert (ra == rb) == (da == db)
    assert back[0] == ZERO and back[sentinel] == INF and sentinel == len(back) - 1
    assert all(back[v] < back[v + 1] for v in range(sentinel))


def _assert_zero_masks_and_join(space):
    up, down, classes = zero_masks_oracle(space)
    assert space.zero_up == up
    assert space.zero_down == down
    assert space.class_masks == classes
    m = space.matrix
    n = space.n
    assert derive(space, "join").matrix == tuple(
        tuple(max(m[i][j], m[j][i]) for j in range(n)) for i in range(n))


@EXAMPLES
@given(matrices())
@example(space_from_rows(_labels(2), [["1", "inf"], ["1/2", "2"]]))   # no zero entry
def test_zero_masks_and_join_match_the_oracle(space):
    _assert_zero_masks_and_join(space)


@pytest.mark.parametrize("path", MATRIX_FILES, ids=lambda p: p.name)
def test_zero_masks_and_join_match_the_oracle_on_the_data_files(path):
    _assert_zero_masks_and_join(load_space(str(path)))


def test_ranks_do_not_grow_with_the_digits_of_the_entries():
    # entries 1 + p/q with q a random 400-digit integer: a common
    # denominator of these would run to thousands of digits
    rng = Random(7)

    def entry():
        q = rng.randrange(10 ** 399, 10 ** 400)
        return f"{q + rng.randrange(q)}/{q}"

    n = 8
    text = [["0" if i == j else entry() for j in range(n)] for i in range(n)]
    space = space_from_rows(_labels(n), text)
    assert space.validation.is_distance
    rows, back, sentinel = space.scaled
    distinct = len({v for row in space.matrix for v in row})
    assert max(v for row in rows for v in row) <= sentinel <= distinct + 1
    assert derived_functions(space).to_dict() == derived_functions_oracle(space).to_dict()


def test_empty_and_constant_spaces():
    for rows in ([], [["inf"]], [["0", "0"], ["0", "0"]]):
        space = space_from_rows(_labels(len(rows)), rows)
        assert derived_functions(space).to_dict() == derived_functions_oracle(space).to_dict()


# eight failing triples, with d(0,0), d(0,1) and d(1,0) each failing
# through both k = 2 and k = 3, among tied entries in rows and columns
TIED_FAILURES = space_from_rows(_labels(4), [["1", "2", "0", "1/2"],
                                             ["inf", "0", "0", "1"],
                                             ["1/2", "1/2", "0", "1"],
                                             ["0", "1", "inf", "0"]])


@EXAMPLES
@given(spaces)
@example(TIED_FAILURES)
@example(space_from_rows(_labels(25), [["1"] * 25] * 25))   # 25 self_distance entries
def test_validation_matches_the_oracle(space):
    # every flag and the first MAX_VIOLATIONS violations, in (i, j, k) order
    want = validate_oracle(space)
    assert _validate(space) == want._replace(violations=want.violations[:MAX_VIOLATIONS])


@EXAMPLES
@given(matrices())
def test_minplus_closure_matches_the_oracle(space):
    closed = minplus_closure(space.matrix)
    assert closed == minplus_closure_oracle(space.matrix)
    assert _validate(closed) == validate_oracle(closed)


def walk_sums(d):
    """Every triple (i, j, k) the triangle walk sums, in (i, j, k) order,
    on a square list of exact entries (``math.inf`` for inf).

    The definitional form: the k with both legs below c = d[i][j]; where
    a pair has more than ``STEPS`` of them, only those with
    STEPS * d[i][k] < s * c and STEPS * d[k][j] < (STEPS + 1 - s) * c for
    some s in 1 .. STEPS."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            c = d[i][j]
            ks = [k for k in range(n) if d[i][k] < c and d[k][j] < c]
            if len(ks) > STEPS:
                ks = [k for k in ks if any(
                    STEPS * d[i][k] < s * c and STEPS * d[k][j] < (STEPS + 1 - s) * c
                    for s in range(1, STEPS + 1))]
            for k in ks:
                yield i, j, k


def _scaled_integers(space) -> list:
    """The entries times the lcm of their denominators, so integers, and
    inf as ``math.inf``: every comparison of the walk's rule is
    homogeneous, so the scaling changes no count, and ``walk_sums`` runs
    on exact integers instead of ``Fraction``s (3.6 s against 0.12 s at
    cutoff 64)."""
    scale = math.lcm(*(v.den for row in space.matrix for v in row if not v.is_inf))
    return [[math.inf if v.is_inf else v.num * (scale // v.den) for v in row]
            for row in space.matrix]


@functools.lru_cache(maxsize=None)
def grid_sums(name: str, cutoff: int) -> int:
    return sum(1 for _ in walk_sums(_scaled_integers(build(name, cutoff).space)))


@pytest.mark.parametrize("cutoff", [16, 64])
def test_triangle_check_adds_only_where_both_legs_are_shorter(monkeypatch, cutoff):
    # projection: d(x, y) = y, so d(k, j) < d(i, j) never holds and no sum
    # is formed; x_one_minus_y: d(x, y) = x(1 - y), so both legs are
    # shorter exactly when j < k < i, and the staircase keeps some of
    # those C(c + 1, 3) triples.  The full triple loop adds (c + 1)^3.
    calls = [0]
    add = ExtReal.__add__

    def counting(a, b):
        calls[0] += 1
        return add(a, b)

    assert grid_sums("projection", cutoff) == 0
    assert 0 < grid_sums("x_one_minus_y", cutoff) < comb(cutoff + 1, 3)
    for name in ("projection", "x_one_minus_y"):
        space = build(name, cutoff).space
        calls[0] = 0
        monkeypatch.setattr(ExtReal, "__add__", counting)
        result = _validate(space)
        monkeypatch.setattr(ExtReal, "__add__", add)
        assert result.is_distance
        assert calls[0] == grid_sums(name, cutoff), name


def _planted_grid(rng, cutoff):
    """The x_one_minus_y grid with one to three entries lowered to k/8 of
    their value (k in 0 .. 7): a lowered leg makes the triples through
    it fail, among many distinct values."""
    space = build("x_one_minus_y", cutoff).space
    rows = [list(row) for row in space.matrix]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(space.n), rng.randrange(space.n)
        rows[i][j] = ExtReal(rows[i][j].num * rng.randrange(8), rows[i][j].den * 8)
    return space_from_rows(space.labels, rows)


def _random_rationals(rng, n):
    """A random n-point matrix of values p/q and some infinities."""
    def entry():
        return INF if rng.random() < 0.1 else ExtReal(rng.randint(0, 60), rng.randint(1, 9))
    return space_from_rows(_labels(n), [[entry() for _ in range(n)] for _ in range(n)])


def _refines(space) -> bool:
    """Whether some pair has more than STEPS k with both legs below it."""
    d = space.matrix
    n = space.n
    return any(sum(d[i][k] < d[i][j] and d[k][j] < d[i][j] for k in range(n)) > STEPS
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("seed", range(4))
def test_the_staircase_walk_matches_the_oracle(seed):
    # n >= 12 and many distinct values, so pairs with more than STEPS
    # candidates are refined; every violation, its order and the
    # MAX_VIOLATIONS cut as the oracle's
    rng = Random(seed)
    cases = [_planted_grid(rng, cutoff) for cutoff in range(11, 19)]
    cases += [_random_rationals(rng, n) for n in range(12, 17)]
    for space in cases:
        assert _refines(space)
        want = validate_oracle(space)
        assert _validate(space) == want._replace(violations=want.violations[:MAX_VIOLATIONS])


def test_a_non_distance_stops_at_its_last_shown_violation(monkeypatch, capsys, tmp_path):
    # a random 150-point matrix over a few integers fails the triangle law
    # about 750 000 times; check reports the first MAX_VIOLATIONS, and the
    # walk forms no sum after the last of them
    rng = Random(150)
    n = 150
    rows = [[rng.choice((0, 1, 2, 3, 5, 8, 13)) for _ in range(n)] for _ in range(n)]
    path = tmp_path / "wild.json"
    path.write_text(json.dumps({"points": _labels(n), "matrix": rows}))

    want_sums = found = 0
    for i, j, k in walk_sums(rows):
        want_sums += 1
        found += rows[i][k] + rows[k][j] < rows[i][j]
        if found == MAX_VIOLATIONS:
            break
    assert found == MAX_VIOLATIONS

    calls = [0]
    add = ExtReal.__add__

    def counting(a, b):
        calls[0] += 1
        return add(a, b)

    space = load_space(str(path))
    monkeypatch.setattr(ExtReal, "__add__", counting)
    result = _validate(space)
    monkeypatch.setattr(ExtReal, "__add__", add)
    assert not result.is_distance and len(result.violations) == MAX_VIOLATIONS
    assert calls[0] == want_sums

    assert main(["check", str(path)]) == EXIT_FAILURE
    shown = json.loads(capsys.readouterr().out)["validation"]["violations"]
    assert shown == [list(v) for v in result.violations]


@pytest.mark.parametrize("cutoff", [16, 64])
def test_every_value_is_built_through_init(monkeypatch, cutoff):
    # x_one_minus_y builds one value per grid entry, and its triangle check
    # one per sum, the cut positions none; a value made around
    # ExtReal.__init__ would go missing from this count
    calls = [0]
    init = ExtReal.__init__

    def counting(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(ExtReal, "__init__", counting)
    result = _validate(build("x_one_minus_y", cutoff).space)
    monkeypatch.setattr(ExtReal, "__init__", init)
    assert result.is_distance
    assert calls[0] == (cutoff + 1) ** 2 + grid_sums("x_one_minus_y", cutoff)
