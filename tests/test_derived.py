"""Step functions and the four ball-bound derived functions."""

from random import Random

import pytest

from qmlib.derived import (StepFn, derived_functions, dist_subequiv,
                           leq_identity, sub_identity)
from qmlib.extreal import INF, ZERO, ExtReal
from qmlib.generate import random_space, random_value_pair
from qmlib.space import space_from_rows

from tests.oracles import d_F_oracle, d_Phi_oracle, step_is_monotone, subequiv


def step(at_zero, pairs):
    cuts, vals = zip(*pairs)
    return StepFn(at_zero, tuple(cuts), tuple(vals))


IDENTITY_LIKE = step(ZERO, [(ExtReal(1, 2), ZERO), (ExtReal(1), ExtReal(1, 2)),
                            (ExtReal(2), ExtReal(1)), (INF, ExtReal(2))])


class TestStepFn:
    def test_evaluation_right_closed(self):
        f = step(ZERO, [(ExtReal(1), ExtReal(1, 4)), (INF, ExtReal(3))])
        assert f(ZERO) == ZERO
        assert f(ExtReal(1, 2)) == ExtReal(1, 4)
        assert f(ExtReal(1)) == ExtReal(1, 4)
        assert f(ExtReal(3, 2)) == ExtReal(3)
        assert f(INF) == ExtReal(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFn(ZERO, (ExtReal(1),), (ZERO,))  # last cut must be inf
        with pytest.raises(ValueError):
            StepFn(ZERO, (ExtReal(1), ExtReal(1), INF), (ZERO, ZERO, ZERO))

    def test_leq_identity_semantics(self):
        assert leq_identity(step(ZERO, [(ExtReal(1), ZERO), (INF, ExtReal(1))]))
        # value on (0, 1] must be 0 to sit below every r in the piece
        assert not leq_identity(step(ZERO, [(ExtReal(1), ExtReal(1, 2)), (INF, ExtReal(1))]))
        assert not leq_identity(step(ExtReal(1, 8), [(INF, ZERO)]))

    def test_sub_identity_vs_weak_condition(self):
        # the weak condition: the first positive piece carries the value 0
        f = step(ExtReal(1, 8), [(ExtReal(1), ZERO), (INF, ExtReal(5))])
        assert f.first_positive_value == ZERO
        assert not sub_identity(f)          # nonzero value at radius 0
        g = step(ZERO, [(ExtReal(1), ZERO), (INF, ExtReal(5))])
        assert sub_identity(g) and g.first_positive_value == ZERO


class TestSubequiv:
    def test_reflexive(self):
        assert subequiv(IDENTITY_LIKE, IDENTITY_LIKE)

    def test_infinite_function_not_below_identity_like(self):
        top = step(INF, [(INF, INF)])
        assert not subequiv(top, IDENTITY_LIKE)

    def test_derived_function_vs_identity_like(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        dfs = derived_functions(sp)
        assert subequiv(dfs.d_up, IDENTITY_LIKE)


class TestDerivedFunctions:
    def test_discrete_two_point_metric(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        dfs = derived_functions(sp)
        # below radius 1 the order cone under a ball is the point itself;
        # beyond radius 1 the whole space has no common lower bound
        assert dfs.d_up.cuts == (ExtReal(1), INF)
        assert dfs.d_up.values == (ZERO, INF)
        assert sub_identity(dfs.d_up)
        assert not leq_identity(dfs.d_up)

    def test_hemimetric_small_radius_zero(self):
        rng = Random(61)
        for _ in range(20):
            sp = random_space(rng, 5, hemimetric=True)
            dfs = derived_functions(sp)
            assert dfs.d_up.first_positive_value == ZERO
            assert dfs.d_low.first_positive_value == ZERO

    def test_monotone(self):
        rng = Random(62)
        for _ in range(25):
            sp = random_space(rng, 5)
            dfs = derived_functions(sp)
            for f in (dfs.d_up, dfs.d_low, dfs.d_F, dfs.d_Phi):
                assert step_is_monotone(f)

    def test_chain_and_finite_degeneracy(self):
        # d_F and d_Phi are aliases of d_low; their definitional forms
        # must satisfy the chain and collapse onto d_low
        rng = Random(63)
        for _ in range(30):
            sp = random_space(rng, 5)
            dfs = derived_functions(sp)
            d_F, d_Phi = d_F_oracle(sp), d_Phi_oracle(sp)
            samples = (ZERO,) + dfs.d_low.cuts
            for r in samples:
                assert d_Phi(r) <= d_F(r) <= dfs.d_low(r)
            assert dfs.d_F == d_F == dfs.d_low
            assert dfs.d_Phi == d_Phi == dfs.d_low

    def test_d_F_matches_subset_oracle(self):
        # exhaustive sup over finite subsets of the ball (the definition)
        # agrees with the whole-ball computation
        rng = Random(64)
        for _ in range(10):
            sp = random_space(rng, 4)
            assert derived_functions(sp).d_F == d_F_oracle(sp)


class TestDistSubequiv:
    def test_value_pair_chain(self):
        rng = Random(65)
        for _ in range(10):
            d_space, e_space = random_value_pair(rng, 5)
            assert dist_subequiv(d_space, e_space)

    def test_direction_matters(self):
        d_space = space_from_rows(["a", "b"], [["0", "0"], ["1", "0"]])
        e_space = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        assert dist_subequiv(d_space, e_space)
        assert not dist_subequiv(e_space, d_space)
