"""Finite space validation, derivations, balls, and min-plus closure."""

import itertools
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from qmlib.extreal import INF, ZERO, ExtReal
from qmlib.generate import VALUE_GRID, random_space
from qmlib.space import (SpaceError, balls_and_holes, derive, load_space,
                         minplus_closure, space_from_dict, space_from_rows,
                         space_to_dict, threshold_grid)

from tests.oracles import ThresholdRel


def projection_space(vals=(Fraction(0), Fraction(1, 2), Fraction(1))):
    rows = [[str(b) for b in vals] for _ in vals]
    return space_from_rows([str(v) for v in vals], rows)


def grid_x_one_minus_y(vals=(Fraction(0), Fraction(1, 2), Fraction(1))):
    rows = [[str(a * (1 - b)) for b in vals] for a in vals]
    return space_from_rows([str(v) for v in vals], rows)


class TestValidate:
    def test_discrete_metric(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        v = sp.validation
        assert v.is_distance and v.is_hemimetric and v.is_symmetric and v.is_metric

    def test_projection_distance_not_hemimetric(self):
        v = projection_space().validation
        assert v.is_distance
        assert not v.is_hemimetric
        assert ("self_distance", "1/2") in v.violations

    def test_x_one_minus_y_exhaustive_triples(self):
        sp = grid_x_one_minus_y()
        # independent oracle: check every triple directly
        ok = all(sp.d(i, j) <= sp.d(i, k) + sp.d(k, j)
                 for i in range(3) for j in range(3) for k in range(3))
        assert ok
        v = sp.validation
        assert v.is_distance and not v.is_hemimetric
        assert sp.d(1, 1) == ExtReal(1, 4)

    def test_triangle_violation_reported(self):
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "5", "1"], ["1", "0", "inf"], ["inf", "1", "0"]])
        v = sp.validation
        assert not v.is_distance
        assert ("triangle", "a", "c", "b") in v.violations

    def test_shape_errors(self):
        with pytest.raises(SpaceError):
            space_from_rows(["a", "b"], [["0", "1"]])
        with pytest.raises(SpaceError):
            space_from_rows(["a", "a"], [["0", "1"], ["1", "0"]])


class TestEntries:
    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        texts = []
        parse = ExtReal.parse

        def counted(text):
            texts.append(text)
            return parse(text)
        monkeypatch.setattr(ExtReal, "parse", counted)
        sp = space_from_rows(["a", "b", "c"], [["0", "1/2", "inf"], ["1/2", "0", "1/2"],
                                               ["inf", "1/2", "0"]])
        assert sorted(texts) == ["0", "1/2", "inf"]
        assert sp.d(1, 2) == ExtReal(1, 2) and sp.d(2, 0) == INF

    def test_a_repeated_bad_text_is_reported_at_its_first_position(self):
        with pytest.raises(SpaceError, match=r"^bad matrix entry at row 0, column 2: 'x'"):
            space_from_rows(["a", "b", "c"], [["0", "1", "x"], ["x", "0", "x"],
                                               ["1", "x", "0"]])


class TestDerive:
    def test_opposite_example(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["inf", "0"]])
        op = derive(sp, "opposite")
        assert op.matrix == space_from_rows(["a", "b"], [["0", "inf"], ["1", "0"]]).matrix

    def test_join_example(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["inf", "0"]])
        jn = derive(sp, "join")
        assert jn.matrix == space_from_rows(["a", "b"], [["0", "inf"], ["inf", "0"]]).matrix

    def test_opposite_involution_and_join_symmetric(self):
        rng = Random(1)
        for _ in range(20):
            sp = random_space(rng, 5)
            assert derive(derive(sp, "opposite"), "opposite").matrix == sp.matrix
            jn = derive(sp, "join")
            assert derive(jn, "opposite").matrix == jn.matrix

    def test_leq_order_characteristic_and_transitive(self):
        rng = Random(2)
        for _ in range(20):
            sp = random_space(rng, 5)
            lo = derive(sp, "leq_order")
            for i in range(5):
                for j in range(5):
                    assert lo.d(i, j) in (ZERO, INF)
                    assert lo.d(i, j).is_zero() == sp.d(i, j).is_zero()
            # transitivity of the zero relation follows from the triangle law
            for i, j, k in itertools.product(range(5), repeat=3):
                if sp.d(i, j).is_zero() and sp.d(j, k).is_zero():
                    assert sp.d(i, k).is_zero()

    def test_compose_projection_idempotent(self):
        sp = projection_space()
        comp = derive(sp, "compose", sp)
        # min over z of (z + y) is attained at z = 0, giving back y
        assert comp.matrix == sp.matrix
        assert comp.validation.is_distance

    def test_compose_requires_same_points(self):
        sp = projection_space()
        other = space_from_rows(["a", "b", "c"], [["0"] * 3] * 3)
        with pytest.raises(SpaceError):
            derive(sp, "compose", other)

    def test_compose_may_fail_triangle(self):
        # composition results carry validity flags instead of being rejected
        e = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        p = space_from_rows(["a", "b"], [["0", "inf"], ["0", "0"]])
        comp = derive(e, "compose", p)
        assert isinstance(comp.validation.is_distance, bool)


class TestBallsAndHoles:
    def test_discrete_isolated(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        b = balls_and_holes(sp, "a", ExtReal(1, 2))
        assert b.upper_ball == {"a"}

    def test_projection_upper_ball(self):
        sp = projection_space()
        b = balls_and_holes(sp, "0", ExtReal(3, 4))
        assert b.upper_ball == {"0", "1/2"}

    def test_infinite_radius_hole_empty(self):
        sp = projection_space()
        b = balls_and_holes(sp, "0", INF)
        assert b.upper_hole == frozenset()
        assert b.lower_hole == frozenset()

    def test_unknown_center(self):
        sp = projection_space()
        with pytest.raises(SpaceError):
            balls_and_holes(sp, "nope", ExtReal(1))

    def test_a_long_unknown_label_is_cut(self):
        with pytest.raises(SpaceError, match="^unknown point 'xxx") as err:
            projection_space().index("x" * 5000)
        assert len(str(err.value)) < 100

    def test_zero_radius_rejected(self):
        sp = projection_space()
        with pytest.raises(SpaceError):
            balls_and_holes(sp, "0", ZERO)


def shortest_walk_oracle(rows):
    """Min over nonempty walks of total weight, by edge-count DP."""
    n = len(rows)
    best = [row[:] for row in rows]
    cur = [row[:] for row in rows]
    for _ in range(n):
        nxt = [[INF] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if cur[i][k].is_inf:
                    continue
                for j in range(n):
                    cand = cur[i][k] + rows[k][j]
                    if cand < nxt[i][j]:
                        nxt[i][j] = cand
        for i in range(n):
            for j in range(n):
                if nxt[i][j] < best[i][j]:
                    best[i][j] = nxt[i][j]
        cur = nxt
    return best


class TestMinplusClosure:
    def test_triangular_fixpoint(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        cl = minplus_closure(sp.matrix, sp.labels)
        assert cl.matrix == sp.matrix

    def test_third_point_shortcut(self):
        rows = [[ExtReal(0), ExtReal(5), ExtReal(1)],
                [ExtReal(1), ExtReal(0), INF],
                [INF, ExtReal(1), ExtReal(0)]]
        cl = minplus_closure(rows)
        assert cl.d(0, 1) == ExtReal(2)

    def test_all_inf_off_diagonal(self):
        rows = [[ZERO, INF], [INF, ZERO]]
        cl = minplus_closure(rows)
        assert cl.matrix == (tuple(rows[0]), tuple(rows[1]))

    def test_matches_shortest_walk_oracle(self):
        rng = Random(3)
        from qmlib.generate import VALUE_GRID
        for _ in range(25):
            n = rng.randrange(2, 6)
            rows = [[rng.choice(VALUE_GRID) for _ in range(n)] for _ in range(n)]
            cl = minplus_closure(rows)
            oracle = shortest_walk_oracle(rows)
            assert [list(r) for r in cl.matrix] == oracle

    def test_closure_properties(self):
        rng = Random(4)
        from qmlib.generate import VALUE_GRID
        for _ in range(25):
            n = rng.randrange(2, 7)
            rows = [[rng.choice(VALUE_GRID) for _ in range(n)] for _ in range(n)]
            cl = minplus_closure(rows)
            assert cl.validation.is_distance
            # pointwise below the input and idempotent
            assert all(cl.d(i, j) <= rows[i][j] for i in range(n) for j in range(n))
            again = minplus_closure(cl.matrix, cl.labels)
            assert again.matrix == cl.matrix

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(VALUE_GRID + (ExtReal(3, 7), ExtReal(5, 11))),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_one_pass_reaches_the_fixpoint(self, rows):
        cl = minplus_closure(rows).matrix
        n = len(rows)
        # entrywise below the input, and one more relaxation changes nothing
        assert all(cl[i][j] <= rows[i][j] for i in range(n) for j in range(n))
        assert all(cl[i][j] <= cl[i][k] + cl[k][j]
                   for i in range(n) for j in range(n) for k in range(n))


class TestThresholds:
    def test_monotone_in_epsilon(self):
        rng = Random(5)
        for _ in range(10):
            sp = random_space(rng, 5)
            rels = [ThresholdRel(sp, eps) for eps in threshold_grid(sp)]
            for a, b in zip(rels, rels[1:]):
                assert a.epsilon < b.epsilon
                for i in range(5):
                    assert a.masks[i] & b.masks[i] == a.masks[i]

    def test_smallest_generator_is_zero_relation(self):
        rng = Random(6)
        for _ in range(10):
            sp = random_space(rng, 5)
            eps = threshold_grid(sp)[0]
            rel = ThresholdRel(sp, eps)
            for i in range(5):
                for j in range(5):
                    assert rel.holds(i, j) == sp.d(i, j).is_zero()


class TestSpaceFiles:
    def test_roundtrip(self, tmp_path):
        sp = space_from_rows(["a", "b"], [["0", "1/2"], ["inf", "0"]])
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space_to_dict(sp)))
        back = load_space(str(path))
        assert back.labels == sp.labels and back.matrix == sp.matrix

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpaceError):
            load_space(str(path))

    def test_missing_keys(self):
        with pytest.raises(SpaceError):
            space_from_dict({"points": ["a"]})
