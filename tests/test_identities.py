"""Each collapsed finite-carrier form equals its definitional oracle.

Spaces come from the random sweep's own generators driven by a
hypothesis-controlled ``Random``: min-plus-closed plain distances,
hemimetrics and metrics, and value-based two-distance pairs.
"""

from hypothesis import given, settings, strategies as st

from qmlib.derived import derived_functions
from qmlib.generate import random_metric, random_space, random_value_pair
from qmlib.space import derive
from qmlib.theorems import AuditContext, compose_with_filter
from qmlib.topology import is_complete

from tests.oracles import (compose_with_filter_oracle, compose_with_order,
                           d_F_oracle, d_Phi_oracle, is_complete_oracle,
                           order_directed_complete_oracle)


@st.composite
def space_pairs(draw):
    """A distance d with a second distance e on the same points: the
    symmetric join of d (the audit default), an independent draw, or the
    e of a value pair."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(("plain", "hemimetric", "metric", "value_pair")))
    if kind == "value_pair":
        return random_value_pair(rng, n)
    if kind == "metric":
        d_space = random_metric(rng, n)
    else:
        d_space = random_space(rng, n, hemimetric=kind == "hemimetric")
    if draw(st.booleans()):
        return d_space, derive(d_space, "join")
    return d_space, random_space(rng, n)


spaces = space_pairs().map(lambda pair: pair[0])
EXAMPLES = settings(max_examples=80, deadline=None)


@EXAMPLES
@given(spaces)
def test_d_F_and_d_Phi_equal_their_definitions(space):
    dfs = derived_functions(space)
    assert dfs.d_F == d_F_oracle(space)
    assert dfs.d_Phi == d_Phi_oracle(space)


@EXAMPLES
@given(space_pairs())
def test_filter_composition_equals_grid_and_order_forms(pair):
    d_space, e_space = pair
    fast = compose_with_filter(e_space, d_space)
    assert fast.matrix == compose_with_filter_oracle(e_space, d_space).matrix
    assert fast.matrix == compose_with_order(e_space, d_space).matrix


@EXAMPLES
@given(space_pairs())
def test_one_directed_completeness_report_serves_both_senses(pair):
    d_space, e_space = pair
    ctx = AuditContext(d_space, e_space, 12)
    assert ctx.directed_complete_report == order_directed_complete_oracle(d_space, ctx.cap)


@EXAMPLES
@given(spaces)
def test_is_complete_equals_clique_search(space):
    assert is_complete(space) == is_complete_oracle(space)
    join = derive(space, "join")
    assert is_complete(join) == is_complete_oracle(join)
