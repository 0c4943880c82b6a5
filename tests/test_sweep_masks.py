"""The sweep's per-instance checks on zero masks and integer rows, each
pinned to the ExtReal scan it replaced.

``order.sups_signature``, ``nets.classify``, ``derived.dist_subequiv``,
``AuditContext.e_separable``, ``theorems.sup_upgrade_counterexample``,
``theorems.compose_with_filter`` and ``theorems.construct_directed_from_cauchy``
read the specialization order off ``zero_up``/``zero_down`` and compare
entries on ``FiniteSpace.scaled``.  Each is compared with its oracle on
random 1-7 point matrices: arbitrary ones, where the triangle law may
fail, and min-plus-closed ones, which are distances.
``order.sups_signature`` unrolls ``order.d_sup_mask``'s rule over the
singletons and pairs (a call per singleton and pair cost ``sweep_n6``
about 6% of its throughput), and its oracle runs ``suprema_oracle`` on each.
Two cost tests check that the ports call neither ``suprema`` nor
``d_sup_mask`` and leave the ExtReal comparisons behind.
"""

import pytest
from hypothesis import given, settings, strategies as st

import qmlib.order as order
from qmlib.derived import derived_functions, dist_subequiv, sub_identity
from qmlib.extreal import ExtReal
from qmlib.nets import PreconditionError, classify, epseq
from qmlib.space import minplus_closure, space_from_rows
from qmlib.theorems import (AuditContext, compose_with_filter,
                            construct_directed_from_cauchy, sup_upgrade_counterexample)

from tests.oracles import (compose_with_filter_oracle, construct_directed_from_cauchy_oracle,
                           dist_subequiv_oracle, instance_stream, net_classes_oracle,
                           separable_oracle, sup_upgrade_counterexample_oracle,
                           sups_signature_oracle)

# zero-heavy, so specialization classes, upper bounds and Cauchy cycles occur
VALUES = ("0", "0", "0", "1/3", "1/2", "1", "2", "inf")
EXAMPLES = settings(max_examples=150, deadline=None)


def _rows(draw, n):
    row = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def matrices(draw, n=None):
    """Any square matrix: the triangle law need not hold."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=7))
    return space_from_rows([f"p{i}" for i in range(n)], _rows(draw, n))


@st.composite
def distances(draw):
    """The min-plus closure of a matrix, which satisfies the triangle law."""
    return minplus_closure(draw(matrices()).matrix)


spaces = st.one_of(matrices(), distances())


@st.composite
def spaces_with_seqs(draw):
    space = draw(spaces)
    ids = st.integers(min_value=0, max_value=space.n - 1)
    pre = draw(st.lists(ids, max_size=3))
    cycle = draw(st.lists(ids, min_size=1, max_size=5))
    return space, epseq(pre, cycle)


@st.composite
def space_pairs(draw):
    f = draw(spaces)
    return f, draw(matrices(f.n))


@EXAMPLES
@given(spaces)
def test_sups_signature_matches_the_suprema_loop(space):
    assert order.sups_signature(space) == sups_signature_oracle(space)


@EXAMPLES
@given(spaces_with_seqs())
def test_classify_matches_the_oracle(case):
    space, seq = case
    assert classify(space, seq) == net_classes_oracle(space, seq)


@EXAMPLES
@given(space_pairs())
def test_dist_subequiv_matches_the_oracle(pair):
    f, g = pair
    assert dist_subequiv(f, g) == dist_subequiv_oracle(f, g)
    assert dist_subequiv(g, f) == dist_subequiv_oracle(g, f)


@EXAMPLES
@given(space_pairs())
def test_e_separable_matches_the_oracle(pair):
    d, e = pair
    assert AuditContext(d, e).e_separable == separable_oracle(e)


@EXAMPLES
@given(space_pairs())
def test_compose_with_filter_matches_the_oracle(pair):
    d, e = pair
    assert compose_with_filter(e, d).matrix == compose_with_filter_oracle(e, d).matrix


@EXAMPLES
@given(spaces)
def test_sup_upgrade_counterexample_matches_the_oracle(space):
    want = sup_upgrade_counterexample_oracle(space, space.representatives)
    assert sup_upgrade_counterexample(AuditContext(space, space)) == want


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as e:
        return ("raised", str(e))


@EXAMPLES
@given(spaces_with_seqs())
def test_directed_construction_matches_the_oracle(case):
    space, seq = case
    dfs = derived_functions(space)
    assert (_outcome(construct_directed_from_cauchy, space, seq, dfs)
            == _outcome(construct_directed_from_cauchy_oracle, space, seq, dfs))


def test_directed_construction_replays_every_sweep_class():
    # the classes the audit replays on the sweep: same result as the oracle
    replays = 0
    for _, _, space, _ in instance_stream(3, 6, 64):
        dfs = derived_functions(space)
        if not space.validation.is_distance or not sub_identity(dfs.d_up):
            continue
        for clique in AuditContext(space, space).cliques:
            seq = epseq([], clique)
            assert (construct_directed_from_cauchy(space, seq, dfs)
                    == construct_directed_from_cauchy_oracle(space, seq, dfs))
            replays += 1
    assert replays >= 50


def test_sups_signature_calls_no_suprema(monkeypatch):
    calls = [0]
    real = order.suprema

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(order, "suprema", counting)
    monkeypatch.setattr(order, "d_sup_mask", counting)
    for _, _, space, _ in instance_stream(0, 6, 16):
        order.sups_signature(space)
    assert calls[0] == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_directed_construction_compares_no_extreals(monkeypatch, seed):
    calls = [0]
    real = ExtReal.__lt__

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    cases = []
    for _, _, space, _ in instance_stream(seed, 6, 32):
        dfs = derived_functions(space)
        if space.validation.is_distance and sub_identity(dfs.d_up):
            cases.extend((space, epseq([], c), dfs)
                         for c in AuditContext(space, space).cliques)
    assert cases
    monkeypatch.setattr(ExtReal, "__lt__", counting)
    for space, seq, dfs in cases:
        assert construct_directed_from_cauchy(space, seq, dfs).ok
    assert calls[0] == 0
