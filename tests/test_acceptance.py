"""Acceptance suite: one test per criterion, exact checks, pinned budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
[PASS]/[FAIL] line per criterion.  Every expected value is exact; the only
tolerances are wall-clock budgets, pinned here.
"""

import itertools
import json
import time
from random import Random

from qmlib.cli import main as cli_main
from qmlib.derived import derived_functions, sub_identity
from qmlib.extreal import ZERO, ExtReal
from qmlib.family import ChainAnalyzer, FamilySeq, VectorFamilyAnalyzer, classify_family
from qmlib.gallery import build, verify
from qmlib.generate import random_space
from qmlib.nets import EpSeq, classify, epseq, zero_cliques
from qmlib.order import is_directed, link_directed_sequence
from qmlib.theorems import construct_directed_from_cauchy
from qmlib.topology import (check_hole_characterizations, is_complete,
                            limit_set)
from qmlib.formal_balls import kw_audit, kw_limit

from tests.oracles import (_sample_cauchy_fb_sequences, ball_identities, d_Phi_oracle,
                           instance_stream)
from tests.test_nets import classify_oracle


def report(num, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {description} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s"


def test_criterion_1_halfopen_suprema():
    t0 = time.monotonic()
    fixture = build("halfopen", 100)
    rep = verify(fixture)
    an = ChainAnalyzer(fixture.space)
    sups = an.chain_suprema()
    ok = (rep.ok and sups["leq_sups"] == ["2"] and sups["d_sups"] == [])
    report(1, "halfopen chain: order supremum exactly {2}, no metric supremum",
           ok, time.monotonic() - t0, 1.0)


def test_criterion_2_fm_counterexample():
    t0 = time.monotonic()
    fixture = build("fm_counterexample", 50)
    space = fixture.space
    ok = all(
        space.dist(space.indexed(m), space.indexed(k)) == ExtReal(1, k)
        and space.dist(space.indexed(k), space.indexed(m)).is_inf
        for m in range(1, 51) for k in range(m + 1, 51))
    ok = ok and classify_family(FamilySeq(space, "identity")).cauchy.value is True
    comp = is_complete(space)
    ok = ok and comp.complete is False and len(comp.rejections) == 50
    ok = ok and all(
        r.center == f"f{int(r.candidate[1:]) + 1}" and r.limit == "0"
        and r.required == "inf" for r in comp.rejections)
    an = VectorFamilyAnalyzer(space)
    ok = ok and an.discrete_order().value is True
    ok = ok and verify(fixture).ok
    report(2, "vector family: d(f_m,f_k)=1/k below, inf above, Cauchy, "
              "every candidate rejected by its successor, discrete order",
           ok, time.monotonic() - t0, 2.0)


def test_criterion_3_completeness_sweep():
    t0 = time.monotonic()
    rng = Random(33003)
    ok = True
    spaces = []
    for _ in range(1000):
        sp = random_space(rng, rng.randrange(2, 9), hemimetric=bool(rng.getrandbits(1)))
        spaces.append(sp)
        if not is_complete(sp).complete:
            ok = False
            break
    # exhaustive sequence oracle on the first 100: all Cauchy sequences
    # with cycles <= 3 and preperiods <= 2 have a double-hole limit
    definitional_rng = Random(9)
    for sp in spaces[:100]:
        n = sp.n
        cls_cache = {}
        lim_cache = {}
        cycles = [c for k in (1, 2, 3) for c in itertools.product(range(n), repeat=k)]
        for cyc in cycles:
            cls = classify(sp, EpSeq((), cyc))
            cls_cache[cyc] = cls
            if cls.cauchy:
                key = frozenset(cyc)
                if key not in lim_cache:
                    lim_cache[key] = limit_set(sp, EpSeq((), cyc), "double_hole")
                if not lim_cache[key]:
                    ok = False
        prefixes = [p for k in (0, 1, 2) for p in itertools.product(range(n), repeat=k)]
        for pre in prefixes:
            for cyc in cycles:
                cls = cls_cache[cyc]
                if cls.cauchy and not lim_cache[frozenset(cyc)]:
                    ok = False
        # definitional spot-check (limits computed from unrolled indices)
        for _ in range(20):
            pre = tuple(definitional_rng.randrange(n)
                        for _ in range(definitional_rng.randrange(3)))
            cyc = tuple(definitional_rng.randrange(n)
                        for _ in range(definitional_rng.randrange(1, 4)))
            seq = epseq(pre, cyc)
            got = classify(sp, seq)
            if (got.reflexive, got.pre_cauchy, got.cauchy) != classify_oracle(sp, seq):
                ok = False
    report(3, "1000 random spaces (n<=8) all complete; exhaustive sequence "
              "oracle agrees on 100", ok, time.monotonic() - t0, 30.0)


def test_criterion_4_hole_characterizations():
    t0 = time.monotonic()
    rng = Random(44004)
    violations = 0
    for _ in range(200):
        sp = random_space(rng, 6)
        for k in (1, 2, 3):
            for cyc in itertools.product(range(6), repeat=k):
                seq = EpSeq((), cyc)
                if classify(sp, seq).reflexive:
                    violations += len(check_hole_characterizations(sp, seq).violations)
    report(4, "hole-limit characterizations hold for every reflexive "
              "sequence (cycle<=3) over 200 random spaces",
           violations == 0, time.monotonic() - t0, 30.0)


def test_criterion_5_directed_sequence_links():
    t0 = time.monotonic()
    rng = Random(55005)
    bad = 0
    checked = 0
    for _ in range(200):
        sp = random_space(rng, 6)
        for size in (1, 2, 3, 4):
            for pts in itertools.combinations(range(6), size):
                Y = list(pts)
                if not is_directed(sp, Y):
                    continue
                tops = [y for y in Y if all(sp.d(a, y).is_zero() for a in Y)]
                for top in tops:
                    seq = epseq(sorted(Y), [top])
                    rep = link_directed_sequence(sp, Y, seq)
                    checked += 1
                    if not (rep.Y_leq_seq and rep.seq_in_Y):
                        bad += 1
                    bad += len(rep.biconditional_violations)
                    if rep.tail_order_equiv is False:
                        bad += 1
    report(5, f"supremum/limit biconditionals hold for every directed Y "
              f"(|Y|<=4) with enumerating sequences ({checked} checked)",
           bad == 0 and checked > 1000, time.monotonic() - t0, 30.0)


def test_criterion_6_constructive_replay():
    t0 = time.monotonic()
    rng = Random(66006)
    instances = 0
    replays = 0
    ok = True
    while instances < 100:
        sp = random_space(rng, rng.randrange(3, 7), hemimetric=True)
        dfs = derived_functions(sp)
        if not sub_identity(dfs.d_up):
            continue
        instances += 1
        for mask in zero_cliques(sp):
            members = [i for i in range(sp.n) if mask >> i & 1]
            res = construct_directed_from_cauchy(sp, epseq([], members), dfs)
            replays += 1
            if not (res.directed and res.forward_match and res.backward_match):
                ok = False
    report(6, f"directed-set construction from Cauchy sequences reproduces "
              f"both limit profiles exactly ({replays} replays)",
           ok and replays >= 100, time.monotonic() - t0, 30.0)


def test_criterion_7_formal_ball_audit():
    t0 = time.monotonic()
    rng = Random(77007)
    ok = True
    identity_tuples = 0
    kw_checked = 0
    for _ in range(50):
        sp = random_space(rng, 5, hemimetric=True)
        sub = Random(rng.getrandbits(32))
        ids = ball_identities(sp, sub, 20)
        identity_tuples += ids.tuples_checked
        ok = ok and ids.identity_violations == 0
        for pts, radii in _sample_cauchy_fb_sequences(sp, sub, 100):
            res = kw_limit(sp, pts, radii)
            kw_checked += 1
            ok = ok and res.verified
        rep = kw_audit(sp)
        ok = ok and rep.equivalence_confirmed
    ok = ok and identity_tuples == 1000 and kw_checked == 5000
    report(7, "ball identities exact on 1000 tuples; 5000 sampled Cauchy "
              "formal-ball sequences acquire verified limits; three-way "
              "equivalence confirmed", ok, time.monotonic() - t0, 30.0)


SWEEP_ARGS = ["random", "--n", "6", "--count", "1000", "--seed", "424242"]
CRITERION_8_STATEMENTS = (
    "sup_upgrade", "complete_implies_directed_complete",
    "ball_functions_coincide", "symmetric_companion", "two_distance_transfer",
    "completeness_criterion_1", "completeness_criterion_2")


def test_criterion_8_soundness_sweep(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "sweep.json"
    rc = cli_main(SWEEP_ARGS + ["--out", str(out)])
    data = json.loads(out.read_text())
    ok = rc == 0 and data["instances_audited"] == 1000 and data["failures"] == []
    for stmt in CRITERION_8_STATEMENTS:
        s = data["summary"][stmt]
        ok = ok and s["failures"] == 0 and s["hypotheses_met"] > 0
        ok = ok and s["hypotheses_met"] == s["verified"]
    report(8, "1000-instance sweep: no statement with hypotheses met and "
              "conclusion unverified", ok, time.monotonic() - t0, 60.0)


def test_criterion_9_derived_chain():
    t0 = time.monotonic()
    ok = True
    count = 0
    for i, kind, sp, second in instance_stream(seed=99009, n=6, count=300):
        dfs = derived_functions(sp)
        # d_Phi by its definition over the filter generators
        d_Phi = d_Phi_oracle(sp)
        for r in (ZERO,) + dfs.d_F.cuts:
            if not (d_Phi(r) <= dfs.d_F(r) <= dfs.d_low(r)):
                ok = False
        if d_Phi != dfs.d_Phi or dfs.d_F != dfs.d_low:
            ok = False
        count += 1
    report(9, f"derived chain d_Phi <= d_F <= d_low pointwise and the "
              f"finite-carrier degeneracy d_F = d_low on {count} instances",
           ok and count == 300, time.monotonic() - t0, 10.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    rc1 = cli_main(SWEEP_ARGS + ["--out", str(out1)])
    rc2 = cli_main(SWEEP_ARGS + ["--out", str(out2)])
    ok = rc1 == rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    report(10, "repeated sweep runs with one seed are byte-identical",
           ok, time.monotonic() - t0, 130.0)
