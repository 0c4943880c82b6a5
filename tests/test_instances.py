"""The sweep's per-instance shortcuts, each pinned to its oracle.

``random_value_pair`` reads both distances of a pair from a table of
quarter steps; ``random_value_pair_oracle`` builds every entry through
``Fraction`` arithmetic from the same draws.  Generated spaces and
min-plus closures are ``ProvenDistance``s, validated without the
triangle walk when first read; the validation must equal ``_validate``
run on the same matrix as a plain space, and the oracle's full walk.
``FiniteSpace.scaled`` is pinned to ``scaled_oracle``, which ranks the
entries through a dict of ``ExtReal``s.  The symmetric join of a
validated distance is a ``ProvenDistance`` too, and the join of a
non-distance a plain space; ``join_validation_oracle`` runs
``_validate`` on the join rebuilt as a plain space.
``FiniteSpace.zero_classes`` lists the classes once per space and still
refuses a space whose classes do not partition on every read.
"""

import pickle
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmlib import space as space_module
from qmlib.extreal import INF, ZERO, ExtReal
from qmlib.generate import random_metric, random_space, random_value_pair
from qmlib.space import MAX_VIOLATIONS, FiniteSpace, PreconditionError, ProvenDistance
from qmlib.space import _validate, derive, load_space, minplus_closure, space_from_rows

from tests.oracles import (instance_stream, join_validation_oracle, random_value_pair_oracle,
                           scaled_oracle, validate_oracle)

DATA = Path(__file__).resolve().parent / "data"
# every matrix file; fm_c256.json is a family rule, which has no join
MATRIX_FILES = sorted(p for p in DATA.glob("*.json") if p.name != "fm_c256.json")
VALUES = (ZERO, ExtReal(1, 4), ExtReal(1, 2), ExtReal(1), ExtReal(2), INF)
EXAMPLES = settings(max_examples=150, deadline=None)
sizes = st.integers(min_value=1, max_value=8)


def _exact(space) -> tuple:
    return tuple(tuple((v.num, v.den) for v in row) for row in space.matrix)


def _labels(n: int) -> list:
    return [f"p{i}" for i in range(n)]


@st.composite
def any_matrix(draw):
    """Any square matrix over VALUES: the triangle law need not hold."""
    n = draw(sizes)
    row = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
    return space_from_rows(_labels(n), draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def distances(draw):
    """The sweep's generated distances, a value pair's d and e, and the
    min-plus closure of any matrix (nonzero diagonals included)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(sizes)
    kind = draw(st.sampled_from(("plain", "hemimetric", "metric", "pair_d", "pair_e",
                                 "closure")))
    if kind == "metric":
        return random_metric(rng, n)
    if kind in ("pair_d", "pair_e"):
        return random_value_pair(rng, n)[kind == "pair_e"]
    if kind == "closure":
        return minplus_closure(draw(any_matrix()).matrix)
    return random_space(rng, n, hemimetric=kind == "hemimetric")


@EXAMPLES
@given(st.integers(min_value=0, max_value=2 ** 63 - 1), sizes)
def test_value_pair_matches_the_fraction_oracle(seed, n):
    fast_rng, slow_rng = Random(seed), Random(seed)
    fast = random_value_pair(fast_rng, n)
    slow = random_value_pair_oracle(slow_rng, n)
    for got, want in zip(fast, slow):
        assert got.labels == want.labels
        assert _exact(got) == _exact(want)
    assert fast_rng.getstate() == slow_rng.getstate()


@EXAMPLES
@given(distances())
# all ones: the closure keeps the diagonal at 1, so 25 self_distance entries
# reach the MAX_VIOLATIONS cap
@example(minplus_closure(space_from_rows(_labels(25), [["1"] * 25] * 25).matrix))
def test_generated_distances_carry_their_validation(space):
    assert type(space) is ProvenDistance
    plain = FiniteSpace(space.labels, space.matrix)
    want = validate_oracle(plain)
    assert space.validation == _validate(plain)
    assert space.validation == want._replace(violations=want.violations[:MAX_VIOLATIONS])


@EXAMPLES
@given(any_matrix())
@example(space_from_rows(_labels(1), [["inf"]]))
@example(space_from_rows(_labels(1), [["1/2"]]))
@example(space_from_rows(_labels(3), [["inf"] * 3] * 3))
def test_scaled_matches_the_oracle(space):
    assert space.scaled == scaled_oracle(space)


@EXAMPLES
@given(distances())
def test_join_validation_matches_validate(space):
    assert space.validation.is_distance
    joined = derive(space, "join")
    assert type(joined) is ProvenDistance
    assert joined.validation == join_validation_oracle(space)


@pytest.mark.parametrize("path", MATRIX_FILES, ids=lambda p: p.name)
def test_join_validation_matches_validate_on_every_data_file(path):
    space = load_space(str(path))
    assert space.validation.is_distance
    assert derive(space, "join").validation == join_validation_oracle(space)


def test_join_validation_covers_each_flag():
    """Distances whose joins fail hemimetricity, separation, or neither."""
    cases = {
        "not hemimetric": [["1", "1"], ["1", "1"]],
        "not separated": [["0", "0"], ["0", "0"]],
        "metric": [["0", "1/2"], ["0", "0"]],
    }
    seen = set()
    for rows in cases.values():
        space = space_from_rows(_labels(2), rows)
        joined = derive(space, "join")
        assert type(joined) is ProvenDistance
        got = joined.validation
        assert got == join_validation_oracle(space)
        seen.add((got.is_hemimetric, got.is_metric, bool(got.violations)))
    assert seen == {(False, False, True), (True, False, False), (True, True, False)}


@EXAMPLES
@given(any_matrix())
def test_join_of_a_non_distance_is_validated_in_full(space):
    assume(not space.validation.is_distance)
    joined = derive(space, "join")
    assert type(joined) is FiniteSpace
    assert joined.validation == join_validation_oracle(space)


def test_constructed_spaces_validate_without_the_triangle_walk(monkeypatch):
    # a fresh generated space carries no cache: nothing was validated or
    # ranked before it is read
    stream = list(instance_stream(7, 5, 8))
    spaces = [sp for _, _, d, e in stream for sp in (d, e) if sp is not None]
    assert all(vars(pickle.loads(pickle.dumps(sp))) == {} for sp in spaces)

    def walk(space):
        raise AssertionError("the triangle walk ran on a proven distance")

    monkeypatch.setattr(space_module, "_triangle_violations", walk)
    # all ones: the closure keeps the nonzero diagonal
    spaces.append(minplus_closure(space_from_rows(_labels(4), [["1"] * 4] * 4).matrix))
    for sp in spaces:
        assert sp.validation.is_distance
        assert derive(sp, "join").validation.is_distance


@EXAMPLES
@given(distances())
def test_zero_classes_are_listed_once_per_space(space):
    first = space.zero_classes
    assert "zero_classes" in space.__dict__
    assert space.zero_classes is first


def test_a_non_partition_raises_on_every_call():
    # 0 is at mutual distance 0 from 1 and from 2, but d(1,2) = 1
    space = space_from_rows(_labels(3), [["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    for _ in range(2):
        with pytest.raises(PreconditionError):
            space.zero_classes
