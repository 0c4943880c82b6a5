"""Command-line entry point: validation, audits, gallery, fuzzing, reports.

Each ``run_<command>`` loads its input and decides, returning ``(payload,
ok)`` (``report``: its merged markdown and True).  ``main`` alone emits: it
renders canonical JSON, or ``_RENDERERS[command]`` for ``--format
markdown`` (the table ``report`` uses), writes it and maps ``ok`` to exit
0 or 1.  An input file's top-level key that its format does not read exits 2.

JSON is the source of truth; markdown is derived from it.  Identical run
configurations (including the seed) produce byte-identical JSON reports:
no timestamps, sorted keys, deterministic instance streams, and
aggregation in instance order regardless of the worker pool.

Exit codes: 0 success; 1 fact or audit failure; 2 parse/usage error;
3 precondition failure.  The random sweep is one ``ProcessPoolExecutor.map``
over instance indices and seeds, in chunks of ``POOL_CHUNK``; each process
builds, audits and drops the instances of its own chunks.  QML_WORKERS,
an integer from 1 to ``MAX_WORKERS`` (default 1, serial), bounds the
processes: the pool alone decides how many it forks, no more than it has
chunks and none where ``os.fork`` is missing.  ``pickle`` is imported
when the pool forks, so no other command loads it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .derived import derived_functions
from .extreal import _shown
from .family import FamilySpace, family_from_dict
from .gallery import GALLERY_NAMES, build, verify
from .generate import instance, instance_seeds
from .order import sups_signature
from .space import (FiniteSpace, PreconditionError, SpaceError, derive, read_json_object,
                    space_from_dict, space_to_dict)
from .theorems import STATEMENTS, audit
from .topology import is_complete

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

# QML_WORKERS ceiling: a pooled sweep forks at most this many processes
# less one, since this process runs a share itself
MAX_WORKERS = 64
# instances per chunk; each process of a pooled sweep runs whole chunks
POOL_CHUNK = 16


class ProcessPoolExecutor:
    """A fork pool, and the one place that decides how many processes run.

    ``map`` cuts its tasks into chunks of ``chunksize`` and, with step =
    ``max_workers`` (1 where ``os.fork`` is missing), forks min(step,
    chunks) - 1 children: a pool of one, or a single chunk, runs in this
    process alone.  Child k runs chunks k, k + step, k + 2 step, ...; this
    process runs the share that starts at chunk 0.  A child inherits its chunks through ``fork``,
    so no task is pickled; it sends its results back as one pickled list
    through a pipe and leaves with ``os._exit``.  Each share stops at its
    first failing task, and ``map`` raises the failure of the lowest chunk,
    as a serial ``map`` would.  It returns only once every child is reaped.
    ``timeout`` is accepted for the ``concurrent.futures`` signature and
    not read.  ``fork`` needs a caller without other threads; ``qml``
    starts none.
    """

    def __init__(self, max_workers):
        self._max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tasks = list(zip(*iterables))
        chunks = [tasks[k:k + chunksize] for k in range(0, len(tasks), chunksize)]
        step = self._max_workers if hasattr(os, "fork") else 1
        children = []       # (first chunk, pid, read end of its pipe)
        blobs = []
        try:
            for first in range(1, min(step, len(chunks))):
                import pickle
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # holding no read end, a child whose parent stops
                        # reading fails its write instead of blocking
                        os.close(r)
                        for _, _, earlier in children:
                            os.close(earlier)
                        with open(w, "wb") as out:
                            out.write(pickle.dumps(_run_share(fn, chunks, first, step)))
                        status = 0
                    finally:
                        os._exit(status)
                # closed before the next fork, so that no later child holds
                # this pipe open past this child's exit
                os.close(w)
                children.append((first, pid, r))
            shares = [_run_share(fn, chunks, 0, step)]
            for _, _, r in children:
                with open(r, "rb", closefd=False) as pipe:
                    blobs.append(pipe.read())
        finally:
            for _, _, r in children:
                os.close(r)
            codes = [os.waitpid(pid, 0)[1] for _, pid, _ in children]
        for (first, _, _), code, blob in zip(children, codes, blobs):
            shares.append(_received(blob, os.waitstatus_to_exitcode(code), first))
        failures = [failure for _, failure in shares if failure is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return iter([result for c in range(len(chunks))
                     for result in shares[c % step][0][c // step]])


def _run_share(fn, chunks, first, step) -> tuple:
    """``(results, failure)`` of ``fn`` over chunks ``first``, ``first +
    step``, ...: a list of results per chunk run, and ``(chunk index,
    exception)`` of the first task that raised, or None."""
    results = []
    for c in range(first, len(chunks), step):
        try:
            results.append([fn(*task) for task in chunks[c]])
        except Exception as e:
            return results, (c, e)
    return results, None


def _received(blob: bytes, code: int, first: int) -> tuple:
    """A child's share as read from its pipe; a child that exited without
    a readable one fails at its first chunk."""
    import pickle
    if code == 0:
        try:
            return pickle.loads(blob)
        except Exception:
            pass
    return [], (first, RuntimeError(
        f"a pool worker exited with status {code} and no readable result"))


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte
    for byte.

    CPython's C encoder does not take ``indent``, so plain JSON values
    (exact ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``bool``, ``None``) are emitted by ``_json_text``, which leaves each
    string to the C ``encode_basestring_ascii``.  Anything else (a float, a
    subclass, a non-text key) or nesting too deep for its two frames per
    level falls back to ``json.dumps`` for the whole object.
    """
    try:
        return _json_text(obj, "\n") + "\n"
    except (TypeError, RecursionError):
        pass
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_text(o, nl: str) -> str:
    """``o`` as indented JSON whose lines start with ``nl`` (a newline and
    the current indent); ``TypeError`` on anything but a plain JSON value."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        return ("{" + inner
                + ("," + inner).join([encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                                      for k, v in sorted(o.items())])
                + nl + "}")
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        try:   # a list of strings is one join in C
            body = ("," + inner).join(map(encode_basestring_ascii, o))
        except TypeError:
            body = ("," + inner).join([_json_text(v, inner) for v in o])
        return "[" + inner + body + nl + "]"
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"{t.__name__} is left to json.dumps")


def _write(out: str | None, text: str) -> None:
    """Write to the file ``out``, or to stdout when it is None.

    An empty ``out`` is a path that cannot be opened, not an absent option.
    """
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_any_space(path: str):
    data = read_json_object(path)
    if "rule" in data:
        return family_from_dict(data)
    return space_from_dict(data)


def _load_finite(path: str, refusal: str) -> FiniteSpace:
    """The finite space in ``path``; a family file raises ``refusal``."""
    space = _load_any_space(path)
    if isinstance(space, FamilySpace):
        raise PreconditionError(refusal)
    return space


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def run_check(args) -> tuple:
    space = _load_any_space(args.space_file)
    if isinstance(space, FamilySpace):
        return {
            "command": "check",
            "input": args.space_file,
            "kind": "family",
            "space": space.to_dict(),
            "completeness": is_complete(space).to_dict(),
            "derived": None,
        }, True
    v = space.validation
    return {
        "command": "check",
        "input": args.space_file,
        "kind": "finite",
        "space": space_to_dict(space),
        "validation": {
            "is_distance": v.is_distance,
            "is_hemimetric": v.is_hemimetric,
            "is_symmetric": v.is_symmetric,
            "is_metric": v.is_metric,
            "violations": [list(t) for t in v.violations],
        },
        "derived": derived_functions(space).to_dict() if v.is_distance else None,
        "completeness": is_complete(space).to_dict() if v.is_distance else None,
    }, v.is_distance


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

def run_audit(args) -> tuple:
    space = _load_finite(args.space_file, "audit runs on finite space files; use the "
                                          "gallery command for finitely presented fixtures")
    second = (_load_finite(args.second_distance, "the second distance must be a finite space")
              if args.second_distance is not None else None)
    report = audit(space, args.theorems, second)
    return {
        "command": "audit",
        "input": args.space_file,
        "second": args.second_distance,
        "report": report.to_dict(),
    }, report.ok


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

def run_gallery(args) -> tuple:
    report = verify(build(args.name, args.cutoff))
    return {"command": "gallery", "report": report.to_dict()}, report.ok


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

def _instance_payload(i, inst_seed, n, statements) -> dict:
    kind, space, second = instance(i, inst_seed, n)
    report = audit(space, statements, second)
    # two-distance statements satisfied with e distinct from the join of d
    nonjoin = False
    if second is not None:
        by_name = {e.statement: e for e in report.entries}
        entry = by_name.get("completeness_criterion_3")
        if entry is not None and entry.hypotheses_met:
            nonjoin = second.matrix != derive(space, "join").matrix
    return {
        "kind": kind,
        "entries": report.entries,
        "signature": sups_signature(space),
        "nonjoin_two_distance": nonjoin,
    }


def run_random(args) -> tuple:
    # the statements that run, in table order and once each, so that the
    # order and repeats of --theorems leave the content hash alone
    theorems = tuple(s for s in STATEMENTS if s in args.theorems)
    # a task is an index and a seed: each process builds its own instances
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        payloads = list(pool.map(_instance_payload, range(args.count),
                                 instance_seeds(args.seed, args.count),
                                 itertools.repeat(args.n), itertools.repeat(theorems),
                                 chunksize=POOL_CHUNK))

    summary = {}
    failures = []
    nonjoin_two_distance = 0
    order_groups: dict = {}
    same_order_different_sups = 0
    for i, p in enumerate(payloads):
        for e in p["entries"]:
            s = summary.setdefault(e.statement, {
                "instances": 0, "hypotheses_met": 0, "verified": 0,
                "vacuous": 0, "failures": 0})
            s["instances"] += 1
            if e.vacuous:
                s["vacuous"] += 1
            else:
                s["hypotheses_met"] += 1
                if e.conclusion_verified:
                    s["verified"] += 1
                else:
                    s["failures"] += 1
                    failures.append({"instance": i, "kind": p["kind"],
                                     "entry": e.to_dict()})
        if p["nonjoin_two_distance"]:
            nonjoin_two_distance += 1
        order_sig, sups_sig = p["signature"]
        prev = order_groups.get(order_sig)
        if prev is not None and prev != sups_sig:
            same_order_different_sups += 1
        order_groups.setdefault(order_sig, sups_sig)

    payload = {
        "command": "random",
        # no sweep reads inputs, cutoff or second, and the hashed report is
        # JSON under either --format: they stay constant keys
        "config": {"command": "random", "inputs": [], "seed": args.seed,
                   "count": args.count, "n": args.n, "cutoff": 50,
                   "format": "json", "theorems": theorems,
                   "second": None},
        "instances_audited": len(payloads),
        "summary": dict(sorted(summary.items())),
        "failures": failures,
        "searches": {
            "same_order_different_sups": same_order_different_sups,
            "two_distance_met_with_nonjoin_e": nonjoin_two_distance,
        },
    }
    import hashlib   # here only, so that no other command loads it
    payload["content_hash"] = hashlib.sha256(
        canonical_json(payload).encode()).hexdigest()
    return payload, not failures


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

# command -> its markdown, for --format markdown and for report alike
_RENDERERS = {"gallery": _render_gallery_md, "audit": _render_audit_md,
              "random": _render_random_md, "check": _render_check_md}


def run_report(args) -> tuple:
    sections = []
    for path in args.files:
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
    return "\n".join(sections), True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low`` (else exit 2).

    The text is ASCII digits, ``ExtReal.parse``'s grammar in
    integer form: a sign, ``_``, ``p/q`` or a non-ASCII digit is refused,
    and so is an integer past Python's int-to-str digit limit.  Messages
    show only the start of a long value.
    """
    def parse(text: str) -> int:
        digits = text.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(
                f"invalid integer {_shown(text)}: ASCII digits only")
        try:
            value = int(digits)
        except ValueError:   # more digits than sys.get_int_max_str_digits()
            raise argparse.ArgumentTypeError(
                f"invalid integer {_shown(text)}: too many digits") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line and exits 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of a process, built at the first ``main`` call.

    Each ``parse_args`` returns a fresh namespace; the parser holds only
    the ``run_*`` functions and its type closures, so reusing it changes
    no output.
    """
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
    p_check.set_defaults(run=run_check)

    p_audit = sub.add_parser("audit", help="run theorem audits on a space file")
    p_audit.add_argument("space_file")
    p_audit.add_argument("--theorems", nargs="+", choices=STATEMENTS, default=STATEMENTS)
    p_audit.add_argument("--second-distance", default=None)
    common(p_audit)
    p_audit.set_defaults(run=run_audit)

    p_gal = sub.add_parser("gallery", help="build and verify a named fixture")
    p_gal.add_argument("name", choices=GALLERY_NAMES)
    p_gal.add_argument("--cutoff", type=_int_at_least(0), default=50)
    p_gal.add_argument("--json", action="store_true", help="force JSON output")
    common(p_gal)
    p_gal.set_defaults(run=run_gallery)

    p_rand = sub.add_parser("random", help="seeded random audit sweep")
    p_rand.add_argument("--n", type=_int_at_least(1), default=6)
    p_rand.add_argument("--count", type=_int_at_least(0), default=1000)
    p_rand.add_argument("--seed", type=_int_at_least(0), default=0)
    p_rand.add_argument("--theorems", nargs="+", choices=STATEMENTS, default=STATEMENTS)
    common(p_rand)
    p_rand.set_defaults(run=run_random)

    p_rep = sub.add_parser("report", help="merge prior JSON outputs to markdown")
    p_rep.add_argument("files", nargs="+")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(run=run_report)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        workers = _int_at_least(1)(os.environ.get("QML_WORKERS", "1"))
        if workers > MAX_WORKERS:
            raise argparse.ArgumentTypeError(
                f"{_shown(workers)} is above the maximum {MAX_WORKERS}")
    except argparse.ArgumentTypeError as e:
        print(f"error: QML_WORKERS: {e}", file=sys.stderr)
        return EXIT_PARSE
    args.workers = workers
    try:
        if args.out is not None:
            # an --out that cannot be opened exits 2 before any work, and
            # append mode leaves an existing file's bytes (report may read
            # them) as they are until _write replaces them
            with open(args.out, "a", encoding="utf-8"):
                pass
        payload, ok = args.run(args)
        if isinstance(payload, str):   # report's merged markdown
            text = payload
        elif args.format == "markdown" and not getattr(args, "json", False):
            text = _RENDERERS[payload["command"]](payload)
        else:   # gallery's --json wins over --format, in either order
            text = canonical_json(payload)
        _write(args.out, text)
    except (SpaceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK if ok else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
