"""The five benchmark workloads: seeded call lists, input files, output checks.

Every workload is an endless, deterministic stream of ``Call`` objects
derived from the run seed alone.  Each call carries distinct input (a
fresh sweep seed, a fresh space file, or a fresh fixture cutoff), so a
memo kept across calls cannot fake a gain.  The cost mix is stationary
along the stream: kinds and fixtures rotate with a short period and the
random parts are drawn afresh per call, so a faster program that gets
further into the stream does not meet harder (or easier) inputs.

The audit and check files are generated here with the standard library
only, not with ``qmlib.generate``, so a change to that module cannot change
what is measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

INF = math.inf

# qml random: instances per call.  128 splits into 8 chunks of the CLI's
# chunk size 16, which balances evenly over two pool workers.
SWEEP_COUNT = 128
SWEEP_N = 6

AUDIT_N = 12
# Two cheap kinds to four heavy ones, so the median call lands inside the
# heavy cluster rather than in the gap between the clusters.
AUDIT_KINDS = ("plain", "hemimetric", "value_pair", "metric", "hemimetric", "value_pair")
AUDIT_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), INF)
AUDIT_POSITIVE = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
AUDIT_RATIONALS = tuple(Fraction(k, 4) for k in range(13))
# kind -> (upper_bound_work range, zero-count range, sup_upgrade hypothesis)
# that the file's d must meet (see audit_instance).
AUDIT_STRATA = {
    "plain": ((10_000, 50_000), (70, 100), False),
    "hemimetric": ((60_000, 100_000), (85, 110), True),
    "value_pair": ((45_000, 62_000), (0, AUDIT_N * AUDIT_N), True),
}

# check_coprime: every off-diagonal value lies in (1, 2) with a prime
# denominator, so the values have pairwise-coprime denominators and the
# triangle law holds before any closure (a sum of two entries is >= 2).
# One size: n = 14 and n = 16 files differ 1.6x in cost, which would put
# the median call between size clusters.
CHECK_N = 15
CHECK_DISTINCT = 100
CHECK_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                71, 73, 79, 83, 89, 97)

GALLERY_FIXTURES = ("projection", "x_one_minus_y", "halfopen", "fm_counterexample")
# The two cubic grid fixtures cost about 1 s per call at cutoff 100, the
# family fixtures 0.3 s and 0.8 s.  Taking each grid fixture twice per
# rotation puts the median call inside the grid cluster rather than on
# the edge between clusters.
GALLERY_ROTATION = GALLERY_FIXTURES + ("projection", "x_one_minus_y")
GALLERY_CENTRE = 100

# Workload -> length of its kind or fixture rotation.  A run times a whole
# number of rotations, so the cost mix behind its metrics does not depend
# on where the time budget ran out.
PERIODS = {"sweep_n6": 1, "sweep_pool2": 1, "audit_n12": len(AUDIT_KINDS),
           "check_coprime": 2, "gallery_c100": len(GALLERY_ROTATION)}


@dataclass
class Call:
    """One ``cli.main`` invocation and what its output must satisfy."""

    index: int
    argv: list            # ends with "--out", out
    out: str
    items: int
    expect: dict
    inputs: list = field(default_factory=list)   # input file paths

    def with_out(self, out: str) -> list:
        """The same argv, writing its output to ``out`` instead."""
        return self.argv[:-1] + [out]


# Workload -> environment of its CLI calls.  The two sweeps differ only
# here.  Why each workload was chosen is recorded in BENCHMARK.json and
# README.md.
WORKLOADS = {
    "sweep_n6": {"QML_WORKERS": "1"},
    "sweep_pool2": {"QML_WORKERS": "2"},
    "audit_n12": {"QML_WORKERS": "1"},
    "check_coprime": {"QML_WORKERS": "1"},
    "gallery_c100": {"QML_WORKERS": "1"},
}


# ---------------------------------------------------------------------------
# exact helpers (Fraction entries, math.inf as the absorbing top)
# ---------------------------------------------------------------------------

def minplus_closure(rows):
    """Floyd-Warshall min-plus closure; the result obeys the triangle law."""
    d = [list(r) for r in rows]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                cand = dik + dk[j]
                if cand < di[j]:
                    di[j] = cand
    return d


def triangle_ok(rows) -> bool:
    n = len(rows)
    return all(rows[i][j] <= rows[i][k] + rows[k][j]
               for i in range(n) for j in range(n) for k in range(n))


def encode(value) -> str:
    return "inf" if value == INF else str(value)


def decode(text: str):
    return INF if text == "inf" else Fraction(text)


def space_doc(rows) -> dict:
    n = len(rows)
    return {"points": [f"p{i}" for i in range(n)],
            "matrix": [[encode(v) for v in row] for row in rows]}


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def zero_count(rows) -> int:
    return sum(v == 0 for row in rows for v in row)


def sup_upgrade_hypothesis(rows) -> bool:
    """d_low(r) <= r for every radius r (the sup_upgrade hypothesis).

    d_low(r) is the worst over x of the least d(y, x) over the upper bounds
    y of the lower ball {z : d(z, x) < r}; the empty ball at r = 0 admits
    every y.  The step function changes only at matrix values, so it is
    tested at 0 and at each positive value and infinity, against the
    previous cut.
    """
    n = len(rows)
    down = [sum(1 << i for i in range(n) if rows[i][y] == 0) for y in range(n)]

    def d_low(r):
        worst = Fraction(0)
        for x in range(n):
            ball = 0 if r is None else sum(1 << z for z in range(n) if rows[z][x] < r)
            best = min((rows[y][x] for y in range(n) if down[y] & ball == ball),
                       default=INF)
            worst = max(worst, best)
        return worst

    if d_low(None) != 0:
        return False
    prev = Fraction(0)
    for cut in sorted({v for row in rows for v in row if 0 < v < INF}) + [INF]:
        if d_low(cut) > prev:
            return False
        prev = cut
    return True


def upper_bound_work(rows) -> int:
    """Sum over nonempty point sets Y of |Y| times |common upper bounds of Y|.

    This is the shape of the work the sup_upgrade audit does: one suprema
    call per subset, each scanning the upper bounds against Y.
    """
    n = len(rows)
    up = [sum(1 << x for x in range(n) if rows[y][x] == 0) for y in range(n)]
    bounds = [(1 << n) - 1] * (1 << n)
    total = 0
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        bounds[mask] = bounds[mask & (mask - 1)] & up[low]
        total += bin(bounds[mask]).count("1") * bin(mask).count("1")
    return total


def audit_instance(rng: Random, kind: str):
    """(d rows, e rows or None) for one audit file of the given kind.

    Plain, hemimetric and value-pair draws are repeated until d falls in
    the kind's stratum (AUDIT_STRATA).  A 12-point audit costs anywhere
    from 0.1 s to 5 s depending on d's zero structure and on whether the
    sup_upgrade hypothesis holds, so unstratified draws would let a few
    files decide a run's throughput.
    """
    while True:
        d_rows, e_rows = _draw_audit(rng, kind)
        if kind not in AUDIT_STRATA:
            return d_rows, e_rows
        (w_lo, w_hi), (z_lo, z_hi), hypothesis = AUDIT_STRATA[kind]
        if (z_lo <= zero_count(d_rows) <= z_hi
                and w_lo <= upper_bound_work(d_rows) <= w_hi
                and sup_upgrade_hypothesis(d_rows) is hypothesis):
            return d_rows, e_rows


def _draw_audit(rng: Random, kind: str):
    n = AUDIT_N
    if kind in ("plain", "hemimetric"):
        rows = [[rng.choice(AUDIT_GRID) for _ in range(n)] for _ in range(n)]
        if kind == "hemimetric":
            for i in range(n):
                rows[i][i] = Fraction(0)
        return minplus_closure(rows), None
    if kind == "metric":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(AUDIT_POSITIVE)
        return minplus_closure(rows), None
    vals = [rng.choice(AUDIT_RATIONALS) for _ in range(n)]
    scale = rng.choice((1, 1, 2))
    d_rows = [[max(a - b, Fraction(0)) for b in vals] for a in vals]
    e_rows = [[scale * abs(a - b) for b in vals] for a in vals]
    return d_rows, e_rows


def coprime_instance(rng: Random, hemimetric: bool):
    """Min-plus-closed rows whose values carry many coprime denominators.

    A pool of CHECK_DISTINCT values k/p in (1, 2) with p prime is spread over
    the off-diagonal entries, each pool value at least once.  Hemimetric
    files get a zero diagonal and two mutually-zero pairs (nontrivial zero
    cliques); the others get zeros on half of the diagonal only.
    """
    n = CHECK_N
    pool = set()
    while len(pool) < CHECK_DISTINCT:
        p = rng.choice(CHECK_PRIMES)
        pool.add(Fraction(rng.randrange(p + 1, 2 * p), p))
    pool = sorted(pool)
    slots = n * (n - 1)
    values = pool + [rng.choice(pool) for _ in range(slots - len(pool))]
    rng.shuffle(values)
    it = iter(values)
    rows = [[Fraction(0) if i == j else next(it) for j in range(n)] for i in range(n)]
    if hemimetric:
        a, b, c, d = rng.sample(range(n), 4)
        for x, y in ((a, b), (c, d)):
            rows[x][y] = rows[y][x] = Fraction(0)
    else:
        zero = set(rng.sample(range(n), n // 2))
        for i in range(n):
            if i not in zero:
                rows[i][i] = rng.choice(pool)
    return minplus_closure(rows)


def gallery_cutoffs(rng: Random):
    """Endless distinct cutoffs centred on 100, in balanced +-d pairs.

    Each pair sums to 200, so the mean cutoff of any prefix stays near the
    centre however many calls a run makes.  The offsets grow slowly (1 and
    2 in seeded order, then 3 and 4, ...): the cost is cubic in the cutoff,
    so 100 +- 10 would already differ 1.8x, and a run of four or five calls
    per fixture stays within 100 +- 2.
    """
    yield GALLERY_CENTRE
    lo = 1
    while True:
        offsets = [lo, lo + 1]
        rng.shuffle(offsets)
        for off in offsets:
            pair = [GALLERY_CENTRE - off, GALLERY_CENTRE + off]
            rng.shuffle(pair)
            yield from pair
        lo += 2


# ---------------------------------------------------------------------------
# call streams
# ---------------------------------------------------------------------------

def calls(workload: str, seed: int):
    """Endless deterministic stream of calls for one workload and seed.

    File names are relative to the working directory, so the JSON the CLI
    writes (which echoes input paths) is identical wherever it runs.
    """
    if workload in ("sweep_n6", "sweep_pool2"):
        # Both sweeps share one seed stream: identical call lists.
        return _sweep_calls(Random(f"sweep:{seed}"))
    if workload == "audit_n12":
        return _audit_calls(Random(f"audit:{seed}"))
    if workload == "check_coprime":
        return _check_calls(Random(f"check:{seed}"))
    if workload == "gallery_c100":
        return _gallery_calls(Random(f"gallery:{seed}"))
    raise ValueError(f"unknown workload {workload!r}")


def _out(i: int) -> str:
    return f"out{i}.json"


def _sweep_calls(rng: Random):
    seen = set()
    i = 0
    while True:
        s = rng.getrandbits(31)
        if s in seen:
            continue
        seen.add(s)
        argv = ["random", "--n", str(SWEEP_N), "--count", str(SWEEP_COUNT),
                "--seed", str(s), "--out", _out(i)]
        yield Call(i, argv, _out(i), SWEEP_COUNT, {"count": SWEEP_COUNT})
        i += 1


def _fresh(rng: Random, seen: set, make):
    """Draw from ``make`` until the encoded input is new to this run."""
    while True:
        docs = make(rng)
        key = json.dumps(docs, sort_keys=True)
        if key not in seen:
            seen.add(key)
            return docs


def _audit_calls(rng: Random):
    seen = set()
    i = 0
    while True:
        kind = AUDIT_KINDS[i % len(AUDIT_KINDS)]

        def make(r, kind=kind):
            d_rows, e_rows = audit_instance(Random(r.getrandbits(64)), kind)
            return [space_doc(d_rows)] + ([space_doc(e_rows)] if e_rows else [])

        docs = _fresh(rng, seen, make)
        path = f"a{i}.json"
        write_json(path, docs[0])
        argv = ["audit", path]
        inputs = [path]
        if len(docs) > 1:
            epath = f"a{i}_e.json"
            write_json(epath, docs[1])
            argv += ["--second-distance", epath]
            inputs.append(epath)
        argv += ["--out", _out(i)]
        yield Call(i, argv, _out(i), 1, {"kind": kind}, inputs)
        i += 1


def _check_calls(rng: Random):
    seen = set()
    i = 0
    while True:
        hemimetric = i % 2 == 0

        def make(r, hemimetric=hemimetric):
            return [space_doc(coprime_instance(Random(r.getrandbits(64)), hemimetric))]

        docs = _fresh(rng, seen, make)
        path = f"c{i}.json"
        write_json(path, docs[0])
        argv = ["check", path, "--out", _out(i)]
        yield Call(i, argv, _out(i), 1, {"hemimetric": hemimetric}, [path])
        i += 1


def _gallery_calls(rng: Random):
    streams = {name: gallery_cutoffs(Random(rng.getrandbits(64)))
               for name in GALLERY_FIXTURES}
    i = 0
    while True:
        name = GALLERY_ROTATION[i % len(GALLERY_ROTATION)]
        cutoff = next(streams[name])
        argv = ["gallery", name, "--cutoff", str(cutoff), "--json",
                "--out", _out(i)]
        yield Call(i, argv, _out(i), 1, {"fixture": name, "cutoff": cutoff})
        i += 1


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_output(workload: str, call: Call, rc, data: bytes) -> str | None:
    """None when the call's exit code and JSON output are right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(data)
    except ValueError as e:
        return f"output is not JSON: {e}"
    if workload in ("sweep_n6", "sweep_pool2"):
        if out.get("instances_audited") != call.expect["count"]:
            return "instances_audited differs from --count"
    elif workload == "audit_n12":
        if out["report"]["ok"] is not True:
            return "audit report not ok"
    elif workload == "check_coprime":
        v = out["validation"]
        if v["is_distance"] is not True:
            return "generated space is not a distance"
        if v["is_hemimetric"] is not call.expect["hemimetric"]:
            return "is_hemimetric differs from how the file was generated"
        if out["derived"]["d_F"] != out["derived"]["d_low"]:
            return "derived d_F differs from d_low"
    elif workload == "gallery_c100":
        r = out["report"]
        if r["ok"] is not True or not all(f["pass"] for f in r["facts"]):
            return "a gallery fact failed"
    return None
