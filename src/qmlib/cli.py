"""Command-line entry point: validation, audits, gallery, fuzzing, reports.

JSON is the source of truth; markdown is derived from it.  Identical run
configurations (including the seed) produce byte-identical JSON reports:
no timestamps, sorted keys, deterministic instance streams, and
aggregation in instance order regardless of the worker pool.

Exit codes: 0 success; 1 fact or audit failure; 2 parse/usage error;
3 precondition failure.  The worker pool size comes from QML_WORKERS, an
integer from 1 to ``MAX_WORKERS`` (default 1, serial); the random sweep
starts no more workers than it has chunks of ``POOL_CHUNK`` instances.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .derived import derived_functions
from .family import FamilySpace, family_from_dict
from .gallery import GALLERY_NAMES, build, verify
from .generate import instance_stream
from .nets import PreconditionError
from .space import (FiniteSpace, SpaceError, derive, read_json_object, space_from_dict,
                    space_to_dict, validate)
from .theorems import STATEMENTS, AuditOptions, audit
from .topology import is_complete

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

# QML_WORKERS ceiling; a fork pool launches every worker at its first submit
MAX_WORKERS = 64
# instances per task sent to a pool worker
POOL_CHUNK = 16


@dataclass(frozen=True)
class RunConfig:
    command: str
    inputs: tuple = ()
    seed: int = 0
    count: int = 100
    n: int = 6
    cutoff: int = 50
    fmt: str = "json"
    theorems: tuple = STATEMENTS
    second: str | None = None
    out: str | None = None
    workers: int = 1

    def to_dict(self) -> dict:
        return {"command": self.command, "inputs": list(self.inputs),
                "seed": self.seed, "count": self.count, "n": self.n,
                "cutoff": self.cutoff, "format": self.fmt,
                "theorems": list(self.theorems), "second": self.second}


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(cfg: RunConfig, payload: dict, renderer) -> None:
    if cfg.fmt == "markdown":
        text = renderer(payload)
    else:
        text = canonical_json(payload)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_any_space(path: str):
    data = read_json_object(path)
    if "rule" in data:
        return family_from_dict(data)
    return space_from_dict(data)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def run_check(cfg: RunConfig) -> int:
    space = _load_any_space(cfg.inputs[0])
    if isinstance(space, FamilySpace):
        comp = is_complete(space)
        payload = {
            "command": "check",
            "input": cfg.inputs[0],
            "kind": "family",
            "space": space.to_dict(),
            "completeness": comp.to_dict(),
            "derived": None,
        }
        _emit(cfg, payload, _render_check_md)
        return EXIT_OK
    v = validate(space)
    payload = {
        "command": "check",
        "input": cfg.inputs[0],
        "kind": "finite",
        "space": space_to_dict(space),
        "validation": {
            "is_distance": v.is_distance,
            "is_hemimetric": v.is_hemimetric,
            "is_symmetric": v.is_symmetric,
            "is_metric": v.is_metric,
            "violations": [list(t) for t in v.violations[:20]],
        },
        "derived": derived_functions(space).to_dict() if v.is_distance else None,
        "completeness": is_complete(space).to_dict() if v.is_distance else None,
    }
    _emit(cfg, payload, _render_check_md)
    return EXIT_OK if v.is_distance else EXIT_FAILURE


def _render_check_md(p: dict) -> str:
    lines = [f"# check {p['input']}", ""]
    if p["kind"] == "family":
        lines.append(f"- rule: {p['space']['rule']} (cutoff {p['space']['cutoff']})")
        comp = p["completeness"]
        lines.append(f"- complete: {comp['complete']}")
        lines.append(f"- rejection witnesses: {len(comp['rejections'])}")
    else:
        for k, v in sorted(p["validation"].items()):
            if k != "violations":
                lines.append(f"- {k}: {v}")
        if p["completeness"]:
            lines.append(f"- complete: {p['completeness']['complete']}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def run_audit(cfg: RunConfig) -> int:
    space = _load_any_space(cfg.inputs[0])
    if isinstance(space, FamilySpace):
        raise PreconditionError(
            "audit runs on finite space files; use the gallery command for "
            "finitely presented fixtures")
    second = None
    if cfg.second:
        second = _load_any_space(cfg.second)
        if isinstance(second, FamilySpace):
            raise PreconditionError("the second distance must be a finite space")
    opts = AuditOptions(statements=cfg.theorems, second=second)
    report = audit(space, opts)
    payload = {
        "command": "audit",
        "input": cfg.inputs[0],
        "second": cfg.second,
        "report": report.to_dict(),
    }
    _emit(cfg, payload, _render_audit_md)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _render_audit_md(p: dict) -> str:
    lines = [f"# audit {p['input']}", "",
             "| statement | hypotheses met | conclusion |",
             "|---|---|---|"]
    for e in p["report"]["entries"]:
        concl = ("vacuous" if e["vacuous"]
                 else ("verified" if e["conclusion_verified"] else "FAILED"))
        lines.append(f"| {e['statement']} | {e['hypotheses_met']} | {concl} |")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def run_gallery(cfg: RunConfig) -> int:
    name = cfg.inputs[0]
    fixture = build(name, cfg.cutoff)
    report = verify(fixture)
    payload = {"command": "gallery", "report": report.to_dict()}
    _emit(cfg, payload, _render_gallery_md)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _render_gallery_md(p: dict) -> str:
    r = p["report"]
    lines = [f"# gallery {r['fixture']} (cutoff {r['cutoff']})", "",
             "| fact | expected | actual | pass |", "|---|---|---|---|"]
    for f in r["facts"]:
        lines.append(f"| {f['id']} | {f['expected']} | {f['actual']} | {f['pass']} |")
    lines += ["", f"ok: {r['ok']}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# random sweep
# ---------------------------------------------------------------------------

def _sups_signature(space: FiniteSpace) -> str:
    """Hash of the metric-supremum landscape over small subsets.

    The d-suprema of Y are its upper bounds (the meet of the ``zero_up``
    masks of its members) whose integer row is the column-wise max of the
    rows of Y.  With the points grouped by row, each singleton and pair
    costs one dict lookup and one mask test, with no ``suprema`` call.
    """
    n = space.n
    labels = space.labels
    rows = space.scaled[0]
    up0 = space.zero_up
    by_row: dict = {}
    for x, row in enumerate(rows):
        by_row[row] = by_row.get(row, 0) | 1 << x

    def named(mask: int) -> list:
        return sorted(labels[x] for x in range(n) if mask >> x & 1)

    items = [[[y], named(by_row[rows[y]] & up0[y])] for y in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        top = tuple(map(max, rows[a], rows[b]))
        items.append([[a, b], named(by_row.get(top, 0) & up0[a] & up0[b])])
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def _order_signature(space: FiniteSpace) -> str:
    return hashlib.sha256(json.dumps(
        [space.n, list(space.zero_up)]).encode()).hexdigest()


def _instance_payload(args) -> dict:
    i, kind, space, second, statements = args
    report = audit(space, AuditOptions(statements=statements, second=second))
    # two-distance statements satisfied with e distinct from the join of d
    nonjoin = False
    if second is not None:
        by_name = {e.statement: e for e in report.entries}
        entry = by_name.get("completeness_criterion_3")
        if entry is not None and entry.hypotheses_met:
            nonjoin = second.matrix != derive(space, "join").matrix
    return {
        "index": i,
        "kind": kind,
        "entries": [e.to_dict() for e in report.entries],
        "order_sig": _order_signature(space),
        "sups_sig": _sups_signature(space),
        "nonjoin_two_distance": nonjoin,
    }


def run_random(cfg: RunConfig) -> int:
    # a generator, so the serial path drops each space (and its caches)
    # once its payload is built
    tasks = ((i, kind, space, second, cfg.theorems)
             for i, kind, space, second in instance_stream(cfg.seed, cfg.n, cfg.count))
    workers = min(cfg.workers, -(-cfg.count // POOL_CHUNK))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = list(pool.map(_instance_payload, tasks, chunksize=POOL_CHUNK))
    else:
        payloads = list(map(_instance_payload, tasks))
    payloads.sort(key=lambda p: p["index"])

    summary = {}
    failures = []
    nonjoin_two_distance = 0
    order_groups: dict = {}
    same_order_different_sups = 0
    for p in payloads:
        for e in p["entries"]:
            s = summary.setdefault(e["statement"], {
                "instances": 0, "hypotheses_met": 0, "verified": 0,
                "vacuous": 0, "failures": 0})
            s["instances"] += 1
            if e["vacuous"]:
                s["vacuous"] += 1
            else:
                s["hypotheses_met"] += 1
                if e["conclusion_verified"]:
                    s["verified"] += 1
                else:
                    s["failures"] += 1
                    failures.append({"instance": p["index"], "kind": p["kind"],
                                     "entry": e})
        if p["nonjoin_two_distance"]:
            nonjoin_two_distance += 1
        prev = order_groups.get(p["order_sig"])
        if prev is not None and prev != p["sups_sig"]:
            same_order_different_sups += 1
        order_groups.setdefault(p["order_sig"], p["sups_sig"])

    payload = {
        "command": "random",
        "config": cfg.to_dict(),
        "instances_audited": len(payloads),
        "summary": dict(sorted(summary.items())),
        "failures": failures,
        "searches": {
            "same_order_different_sups": same_order_different_sups,
            "two_distance_met_with_nonjoin_e": nonjoin_two_distance,
        },
    }
    payload["content_hash"] = hashlib.sha256(
        canonical_json(payload).encode()).hexdigest()
    _emit(cfg, payload, _render_random_md)
    return EXIT_FAILURE if failures else EXIT_OK


def _render_random_md(p: dict) -> str:
    lines = [f"# random sweep (n={p['config']['n']}, count={p['config']['count']}, "
             f"seed={p['config']['seed']})", "",
             "| statement | audited | non-vacuous | verified | failures |",
             "|---|---|---|---|---|"]
    for stmt, s in p["summary"].items():
        lines.append(f"| {stmt} | {s['instances']} | {s['hypotheses_met']} | "
                     f"{s['verified']} | {s['failures']} |")
    lines += ["",
              f"- searches: {json.dumps(p['searches'], sort_keys=True)}",
              f"- content hash: {p['content_hash']}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report (merge JSON outputs to markdown)
# ---------------------------------------------------------------------------

_RENDERERS = {"gallery": _render_gallery_md, "audit": _render_audit_md,
              "random": _render_random_md, "check": _render_check_md}


def run_report(cfg: RunConfig) -> int:
    sections = []
    for path in cfg.inputs:
        data = read_json_object(path)
        cmd = data.get("command")
        renderer = _RENDERERS.get(cmd) if isinstance(cmd, str) else None
        if renderer is None:
            sections.append(f"# {path}\n\n```\n{canonical_json(data)}```\n")
            continue
        try:
            sections.append(renderer(data))
        except (KeyError, TypeError, AttributeError) as e:
            raise SpaceError(f"{path} is not a well-formed {cmd} report "
                             f"({type(e).__name__}: {e})") from None
    text = "\n".join(sections)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low`` (else exit 2).

    The text is ASCII digits, ``extreal.parse_rational``'s grammar in
    integer form: a sign, ``_``, ``p/q`` or a non-ASCII digit is refused.
    """
    def parse(text: str) -> int:
        digits = text.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}: ASCII digits only")
        value = int(digits)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line and exits 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qml",
        description="Exact audits of non-symmetric distance spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", default=None, help="write to file instead of stdout")

    p_check = sub.add_parser("check", help="validate a space file and derive its functions")
    p_check.add_argument("space_file")
    common(p_check)

    p_audit = sub.add_parser("audit", help="run theorem audits on a space file")
    p_audit.add_argument("space_file")
    p_audit.add_argument("--theorems", nargs="+", choices=STATEMENTS, default=None)
    p_audit.add_argument("--second-distance", default=None)
    common(p_audit)

    p_gal = sub.add_parser("gallery", help="build and verify a named fixture")
    p_gal.add_argument("name", choices=GALLERY_NAMES)
    p_gal.add_argument("--cutoff", type=_int_at_least(0), default=50)
    p_gal.add_argument("--json", action="store_true", help="force JSON output")
    common(p_gal)

    p_rand = sub.add_parser("random", help="seeded random audit sweep")
    p_rand.add_argument("--n", type=_int_at_least(1), default=6)
    p_rand.add_argument("--count", type=_int_at_least(0), default=1000)
    p_rand.add_argument("--seed", type=_int_at_least(0), default=0)
    p_rand.add_argument("--theorems", nargs="+", choices=STATEMENTS, default=None)
    common(p_rand)

    p_rep = sub.add_parser("report", help="merge prior JSON outputs to markdown")
    p_rep.add_argument("files", nargs="+")
    p_rep.add_argument("--out", default=None)
    return ap


def _config_from_args(args, workers: int) -> RunConfig:
    cmd = args.command
    if cmd == "check":
        return RunConfig("check", (args.space_file,), fmt=args.format,
                         out=args.out, workers=workers)
    if cmd == "audit":
        return RunConfig("audit", (args.space_file,), fmt=args.format,
                         theorems=tuple(args.theorems) if args.theorems else STATEMENTS,
                         second=args.second_distance, out=args.out, workers=workers)
    if cmd == "gallery":
        fmt = "json" if args.json else args.format
        return RunConfig("gallery", (args.name,), cutoff=args.cutoff,
                         fmt=fmt, out=args.out, workers=workers)
    if cmd == "random":
        return RunConfig("random", (), seed=args.seed, count=args.count, n=args.n,
                         fmt=args.format,
                         theorems=tuple(args.theorems) if args.theorems else STATEMENTS,
                         out=args.out, workers=workers)
    return RunConfig("report", tuple(args.files), out=args.out, workers=workers)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        workers = _int_at_least(1)(os.environ.get("QML_WORKERS", "1"))
        if workers > MAX_WORKERS:
            raise argparse.ArgumentTypeError(
                f"{workers} is above the maximum {MAX_WORKERS}")
    except argparse.ArgumentTypeError as e:
        print(f"error: QML_WORKERS: {e}", file=sys.stderr)
        return EXIT_PARSE
    cfg = _config_from_args(args, workers)
    runners = {"check": run_check, "audit": run_audit, "gallery": run_gallery,
               "random": run_random, "report": run_report}
    try:
        return runners[cfg.command](cfg)
    except (SpaceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
