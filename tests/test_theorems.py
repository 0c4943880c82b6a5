"""Audit harness soundness and the constructive directed-set replay."""

import re
from pathlib import Path
from random import Random

import pytest

from qmlib.derived import derived_functions, sub_identity
from qmlib.generate import random_space, random_value_pair
from qmlib.nets import PreconditionError, epseq, zero_cliques
from qmlib.space import space_from_rows
from qmlib.theorems import (STATEMENT_TABLE, STATEMENTS, _by_identity,
                            audit, compose_with_filter, construct_directed_from_cauchy)

from tests.oracles import (compose_with_order, construct_directed_from_cauchy_oracle,
                           instance_stream)



class TestAuditHarness:
    def test_soundness_sweep(self):
        failures = []
        for i, kind, space, second in instance_stream(seed=101, n=5, count=120):
            rep = audit(space, second=second)
            failures.extend(rep.failures)
        assert failures == []

    def test_every_statement_gets_nonvacuous_instances(self):
        met = {s: 0 for s in STATEMENTS}
        for i, kind, space, second in instance_stream(seed=102, n=5, count=80):
            rep = audit(space, second=second)
            for e in rep.entries:
                if e.hypotheses_met:
                    met[e.statement] += 1
        assert all(v > 0 for v in met.values()), met

    def test_statement_selector(self):
        rng = Random(104)
        sp = random_space(rng, 4)
        rep = audit(sp, ("sup_upgrade",))
        assert [e.statement for e in rep.entries] == ["sup_upgrade"]
        # any subset, in any order, gives the full report's entries for it
        # in table order, vacuous ones included
        shuffled = vacuous = 0
        for i, kind, space, second in instance_stream(seed=104, n=5, count=20):
            full = audit(space, second=second).entries
            for _ in range(3):
                chosen = rng.sample(STATEMENTS, rng.randrange(1, len(STATEMENTS) + 1))
                shuffled += chosen != sorted(chosen, key=STATEMENTS.index)
                entries = audit(space, chosen, second).entries
                assert entries == tuple(e for e in full if e.statement in chosen)
                vacuous += sum(e.vacuous for e in entries)
        assert shuffled and vacuous

    @pytest.mark.parametrize("statements", [("sup_upgrad",), ("sup_upgrade", "nope"),
                                            "sup_upgrade"],
                             ids=["misspelt", "one-unknown-of-two", "bare-string"])
    def test_unknown_statement_is_rejected(self, statements):
        sp = random_space(Random(104), 4)
        with pytest.raises(ValueError):
            audit(sp, statements)

    def test_nonvalidated_space_rejected(self):
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "5", "1"], ["1", "0", "inf"], ["inf", "1", "0"]])
        with pytest.raises(PreconditionError):
            audit(sp)

    def test_value_pair_filter_chain_nonvacuous(self):
        rng = Random(105)
        hits = 0
        for _ in range(20):
            d_space, e_space = random_value_pair(rng, 5)
            rep = audit(d_space, second=e_space)
            by_name = {e.statement: e for e in rep.entries}
            entry = by_name["completeness_criterion_3"]
            if entry.hypotheses_met:
                hits += 1
                assert entry.conclusion_verified
        assert hits > 10

    def test_composition_helpers_agree_on_finite_spaces(self):
        rng = Random(106)
        for _ in range(15):
            d_space, e_space = random_value_pair(rng, 5)
            ef = compose_with_filter(e_space, d_space)
            eo = compose_with_order(e_space, d_space)
            assert ef.matrix == eo.matrix

    def test_unscaled_composition_reproduces_d(self):
        # with e the plain value metric, composing e through the value
        # order gives back the truncated difference exactly
        from fractions import Fraction
        from qmlib.space import space_from_rows
        vals = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2)]
        labels = [f"p{i}" for i in range(len(vals))]
        d_space = space_from_rows(
            labels, [[str(max(a - b, Fraction(0))) for b in vals] for a in vals])
        e_space = space_from_rows(
            labels, [[str(abs(a - b)) for b in vals] for a in vals])
        eo = compose_with_order(e_space, d_space)
        assert eo.matrix == d_space.matrix


class TestConstructiveReplay:
    def test_constant_sequence_collapses(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        res = construct_directed_from_cauchy(sp, epseq([], [0]))
        assert res.Y == ("a",)
        assert res.ok

    def test_hemimetric_zero_clique(self):
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "0", "1"], ["0", "0", "1"], ["2", "2", "0"]])
        res = construct_directed_from_cauchy(sp, epseq([], [0, 1]))
        assert res.ok
        assert set(res.Y) <= {"a", "b"}

    def test_radii_shrink(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        res = construct_directed_from_cauchy(sp, epseq([], [0]))
        for a, b in zip(res.radii, res.radii[1:]):
            assert b < a

    def test_exhaustive_on_random_hemimetrics(self):
        rng = Random(107)
        spaces = 0
        replays = 0
        while spaces < 30:
            sp = random_space(rng, 5, hemimetric=True)
            dfs = derived_functions(sp)
            if not sub_identity(dfs.d_up):
                continue
            spaces += 1
            for mask in zero_cliques(sp):
                members = [i for i in range(5) if mask >> i & 1]
                res = construct_directed_from_cauchy(sp, epseq([], members), dfs)
                assert res.directed and res.forward_match and res.backward_match
                replays += 1
        assert replays >= 30

    def test_preconditions(self):
        sp = space_from_rows(["a", "b"], [["0", "1"], ["1", "0"]])
        with pytest.raises(PreconditionError):
            construct_directed_from_cauchy(sp, epseq([], [0, 1]))
        # a point with empty small balls and no nearby lower bound makes the
        # ball-bound function sit at 1 near zero, so the gate must fire
        bad = space_from_rows(["a", "b"], [["0", "1"], ["1", "1"]])
        assert bad.validation.is_distance
        dfs = derived_functions(bad)
        assert not sub_identity(dfs.d_up)
        with pytest.raises(PreconditionError):
            construct_directed_from_cauchy(bad, epseq([], [0]), dfs)

    def test_a_non_distance_is_refused(self):
        # d(a, c) = 1 > d(a, b) + d(b, c) = 0: a and b are mutually at 0
        # but their zero_up masks differ, so a search from a alone finds
        # (a,) where a search per cycle point finds (a, b)
        sp = space_from_rows(["a", "b", "c"],
                             [["0", "0", "1"], ["0", "0", "0"], ["1", "1", "0"]])
        assert not sp.validation.is_distance
        seq = epseq([], [0, 1])
        dfs = derived_functions(sp)
        assert construct_directed_from_cauchy_oracle(sp, seq, dfs).Y == ("a", "b")
        with pytest.raises(PreconditionError, match="requires a validated distance"):
            construct_directed_from_cauchy(sp, seq, dfs)


README = Path(__file__).resolve().parents[1] / "README.md"


class TestStatementTable:
    def test_statements_are_the_table_keys_in_order(self):
        assert STATEMENTS == tuple(STATEMENT_TABLE)

    def test_identity_rows_match_the_readme(self):
        # README "Notes on exactness" names the statements decided by identity
        text = " ".join(README.read_text().split())
        listed = text.split("Decided by identity", 1)[1].split("Decided by search", 1)[0]
        named = {w for w in re.findall(r"`(\w+)`", listed) if w in STATEMENT_TABLE}
        by_identity = {s for s, (_, decide) in STATEMENT_TABLE.items()
                       if decide is _by_identity}
        assert by_identity == named
        assert len(by_identity) == 7
