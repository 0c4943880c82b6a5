"""Each collapsed finite-carrier form equals its definitional oracle.

Spaces come from the random sweep's own generators driven by a
hypothesis-controlled ``Random``: min-plus-closed plain distances,
hemimetrics and metrics, and value-based two-distance pairs.
"""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmlib.cli import EXIT_PRECONDITION, main
from qmlib.derived import derived_functions, sub_identity
from qmlib.extreal import ZERO, ExtReal
from qmlib.generate import random_metric, random_space, random_value_pair
from qmlib.formal_balls import RadiusSeq, kw_limit
from qmlib.nets import PreconditionError, classify, epseq, submasks, zero_cliques
from qmlib.order import check_ed_complete, suprema
from qmlib.space import derive, space_from_rows
from qmlib.theorems import (AuditContext, audit, compose_with_filter,
                            construct_directed_from_cauchy, sup_upgrade_counterexample)
from qmlib.topology import is_complete, pre_cauchy_subnet_equiv

from tests.oracles import (check_ed_complete_oracle, companion_oracle,
                           compose_with_filter_oracle, compose_with_order, d_F_oracle,
                           d_Phi_oracle, directed_set_with_profiles_oracle,
                           double_hole_limits_oracle, is_complete_oracle,
                           order_directed_complete_oracle, pre_cauchy_subnet_equiv_oracle,
                           representatives, sup_upgrade_oracle,
                           zero_class_members_oracle, zero_cliques_oracle)


@st.composite
def space_pairs(draw, max_n=5):
    """A distance d with a second distance e on the same points: the
    symmetric join of d (the audit default), an independent draw, or the
    e of a value pair."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=1, max_value=max_n))
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
# the point-level oracles below are cheap enough for larger spaces, where
# specialization classes of several points are common
wide_pairs = space_pairs(max_n=7)
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
    ctx = AuditContext(d_space, e_space)
    rep = ctx.directed_complete_report
    assert rep.complete == order_directed_complete_oracle(d_space).complete


@EXAMPLES
@given(spaces)
def test_is_complete_equals_clique_search(space):
    assert is_complete(space) == is_complete_oracle(space)
    join = derive(space, "join")
    assert is_complete(join) == is_complete_oracle(join)


@EXAMPLES
@given(wide_pairs)
def test_zero_cliques_are_the_submasks_of_the_classes(pair):
    for space in pair:
        assert zero_cliques(space) == zero_cliques_oracle(space)


@EXAMPLES
@given(wide_pairs)
def test_the_zero_classes_are_the_cauchy_tails(pair):
    for space in pair:
        classes = space.zero_classes
        assert list(classes) == sorted(classes, key=lambda cls: cls & -cls)
        assert sorted(sub for cls in classes for sub in submasks(cls)) \
            == zero_cliques_oracle(space)
        assert AuditContext(space, space).cliques == zero_class_members_oracle(space)


@EXAMPLES
@given(wide_pairs)
def test_kw_limit_takes_the_least_double_hole_limit_of_the_tail(pair):
    for space in pair:
        for mask in zero_cliques(space):
            members = [i for i in range(space.n) if mask >> i & 1]
            res = kw_limit(space, epseq([], members[::-1]),
                           RadiusSeq("constant", ExtReal(1, 2)))
            limits = double_hole_limits_oracle(space, members)
            x_star = space.index(res.limit["point"])
            assert x_star == limits[0]
            assert space.class_masks[x_star] == sum(1 << x for x in limits)
            assert res.verified


@st.composite
def non_distances(draw, max_n=4):
    """A 2-4 point matrix over {0, 1, 2, inf} that fails the triangle law,
    with a point of zero self-distance for a one-point Cauchy tail."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rows = [[draw(st.sampled_from(("0", "1", "2", "inf"))) for _ in range(n)]
            for _ in range(n)]
    rows[0][0] = "0"
    space = space_from_rows([f"p{i}" for i in range(n)], rows)
    assume(not space.validation.is_distance)
    return space


@EXAMPLES
@given(non_distances())
def test_kw_limit_refuses_a_non_distance(space):
    with pytest.raises(PreconditionError):
        kw_limit(space, epseq([], [0]), RadiusSeq("constant", ZERO))


@EXAMPLES
@given(spaces, st.data())
def test_subnet_equivalence_by_identity(space, data):
    ids = st.integers(min_value=0, max_value=space.n - 1)
    seq = epseq(data.draw(st.lists(ids, max_size=2)),
                data.draw(st.lists(ids, min_size=1, max_size=3)))
    if classify(space, seq).pre_cauchy:
        assert pre_cauchy_subnet_equiv(space, seq) == pre_cauchy_subnet_equiv_oracle(space, seq)
    else:
        for decide in (pre_cauchy_subnet_equiv, pre_cauchy_subnet_equiv_oracle):
            with pytest.raises(PreconditionError):
                decide(space, seq)


def _restricted(space, pts):
    """The subspace on the points ``pts``."""
    return space_from_rows([space.labels[i] for i in pts],
                           [[space.d(i, j) for j in pts] for i in pts])


@EXAMPLES
@given(wide_pairs)
def test_ed_completeness_over_class_representatives(pair):
    d_space, e_space = pair
    # the order-as-distance of d has the zero pattern of d
    assert (check_ed_complete(d_space).complete
            == order_directed_complete_oracle(d_space).complete)
    # under two distances a point is read through its class under both, so
    # the point walk gives the same verdict on the joint representatives
    for first, second in ((e_space, d_space), (d_space, e_space)):
        joint = representatives(a & b for a, b in zip(first.class_masks, second.class_masks))
        reps = [i for i in range(d_space.n) if joint >> i & 1]
        assert (check_ed_complete_oracle(_restricted(first, reps), _restricted(second, reps))
                .complete == check_ed_complete_oracle(first, second).complete)


@EXAMPLES
@given(wide_pairs)
def test_sup_upgrade_by_the_xz_reduction(pair):
    d_space, e_space = pair
    # the search itself, also where the statement's hypothesis fails
    ctx = AuditContext(d_space, e_space)
    Y = sup_upgrade_counterexample(ctx)
    assert (Y is None) == sup_upgrade_oracle(d_space)
    if Y is not None:
        res = suprema(d_space, Y)
        assert res.leq_sups - res.d_sups


def test_sup_upgrade_on_a_chain_makes_at_most_k_squared_suprema_calls(monkeypatch):
    # d(i, j) = 0 if i <= j else 1: sixteen one-point classes, and every
    # order supremum (the top of Y) is a d-supremum
    n = 16
    chain = space_from_rows([f"p{i}" for i in range(n)],
                            [["0" if i <= j else "1" for j in range(n)] for i in range(n)])
    calls = []

    def counted(space, Y):
        calls.append(tuple(Y))
        return suprema(space, Y)

    monkeypatch.setattr("qmlib.theorems.suprema", counted)
    ctx = AuditContext(chain, derive(chain, "join"))
    assert sup_upgrade_counterexample(ctx) is None
    assert 0 < len(calls) <= n * n


@EXAMPLES
@given(wide_pairs)
def test_every_distance_is_directed_complete_in_itself(pair):
    # a finite directed set's top member is its d-supremum
    for space in pair:
        assert check_ed_complete(space).complete
        assert check_ed_complete_oracle(space, space).complete


IDENTITY_STATEMENTS = ("ball_functions_coincide", "symmetric_companion",
                       "two_distance_transfer")


@EXAMPLES
@given(wide_pairs)
def test_per_class_searches_always_succeed(pair):
    d_space, e_space = pair
    ctx = AuditContext(d_space, e_space)
    for clique in ctx.cliques:
        assert companion_oracle(d_space, clique)
        assert directed_set_with_profiles_oracle(d_space, clique)
    # the audit decides these three statements by identity
    report = audit(d_space, IDENTITY_STATEMENTS, e_space)
    assert all(e.conclusion_verified for e in report.entries if not e.vacuous)


@EXAMPLES
@given(wide_pairs)
def test_directed_construction_is_the_least_class_member(pair):
    # Below the smallest positive value each radius step of the construction
    # asks for a y at distance 0 from the tail term x that lies below x's
    # whole up-set: those are exactly x's class, and the search takes its
    # least member.  So cauchy_to_directed holds by identity.
    d_space = pair[0]
    ctx = AuditContext(d_space, pair[1])
    if not sub_identity(ctx.dfs.d_up):
        return
    for clique in ctx.cliques:
        res = construct_directed_from_cauchy(d_space, epseq([], sorted(clique)), ctx.dfs)
        assert res.Y == (d_space.labels[min(clique)],)
        assert res.ok


# d(0,1) = d(1,0) = d(1,2) = d(2,1) = 0 but d(0,2) = 1: the triangle law
# fails, and mutual zero distance is not transitive
NOT_A_DISTANCE = [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]]


def test_quotient_forms_refuse_a_space_without_the_triangle_law():
    sp = space_from_rows(["a", "b", "c"], NOT_A_DISTANCE)
    assert not sp.validation.is_distance
    # the point-level forms give answers the class quotient cannot
    assert zero_cliques_oracle(sp) == [1, 2, 3, 4, 6]
    assert not check_ed_complete_oracle(sp, sp).complete
    with pytest.raises(PreconditionError):
        zero_cliques(sp)
    with pytest.raises(PreconditionError):
        check_ed_complete(sp)
    metric = space_from_rows(["a", "b", "c"], [["0", "1", "1"], ["1", "0", "1"],
                                                ["1", "1", "0"]])
    with pytest.raises(PreconditionError):
        audit(metric, second=sp)


def test_audit_rejects_a_second_file_that_is_not_a_distance(capsys, tmp_path):
    d_file = tmp_path / "d.json"
    e_file = tmp_path / "e.json"
    d_file.write_text(json.dumps({"points": ["a", "b", "c"],
                                  "matrix": [["0", "1", "1"], ["1", "0", "1"],
                                             ["1", "1", "0"]]}))
    e_file.write_text(json.dumps({"points": ["a", "b", "c"], "matrix": NOT_A_DISTANCE}))
    assert main(["audit", str(d_file), "--second-distance", str(e_file)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
