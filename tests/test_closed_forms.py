"""The counts of the two exponential walks, pinned to their closed forms.

``check_ed_complete`` walks every union of specialization classes and
counts the directed ones; ``is_complete`` lists every zero clique.  On a
distance both counts are sums over the classes (``tests/oracles.py``):
``directed_subsets_count`` and ``zero_cliques_count``.  Neither count may
depend on how the points are labelled or ordered, so both are also
pinned under a relabelling of the points.
"""

from hypothesis import given, settings, strategies as st

from qmlib.order import check_ed_complete
from qmlib.space import space_from_rows
from qmlib.topology import is_complete

from tests.oracles import directed_subsets_count, zero_cliques_count
from tests.test_instances import distances

EXAMPLES = settings(max_examples=150, deadline=None)


@st.composite
def relabelled(draw):
    """A distance and a copy of it with its points permuted and renamed."""
    space = draw(distances())
    order = draw(st.permutations(range(space.n)))
    rows = [[space.d(i, j) for j in order] for i in order]
    return space, space_from_rows([f"q{k}" for k in range(space.n)], rows)


@EXAMPLES
@given(distances())
def test_directed_subsets_checked_is_the_closed_form(space):
    assert check_ed_complete(space).subsets_checked == directed_subsets_count(space)


@EXAMPLES
@given(distances())
def test_cliques_checked_is_the_closed_form(space):
    assert is_complete(space).cliques_checked == zero_cliques_count(space)


@EXAMPLES
@given(relabelled())
def test_both_counts_are_invariant_under_relabelling(case):
    space, copy = case
    assert (check_ed_complete(copy).subsets_checked
            == check_ed_complete(space).subsets_checked)
    assert is_complete(copy).cliques_checked == is_complete(space).cliques_checked
