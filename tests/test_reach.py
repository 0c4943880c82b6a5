"""Only what is reached stays in the package.

Every top-level function and class in ``qmlib`` is named (as an
``ast.Name`` or an import alias) somewhere in the package outside
``__init__.py``.  The only exceptions are the library entry points in
``LIBRARY_API``, which no command calls but which ``qmlib`` exports.  A
definitional form that nothing reaches belongs in ``tests/oracles.py``,
and a function that only forwards to a method or operator goes.  This
test reads the source, so an uncalled definition fails it when it lands.

Being named is not being run.  ``NEVER_RUN`` is the ledger of the
functions and methods that a fixed command set (``LEDGER_COMMANDS``)
never calls, each with its reason; a trace hook in a fresh interpreter
records what runs, and the ledger must match it exactly.  The same run
records the lines that run, and ``UNRUN_STATEMENTS`` pins, per module,
how many statements outside the ledger's functions none of them reaches,
so a change that adds an unreached branch shows it here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmlib

LIBRARY_API = {
    "cauchy_subsequence_family", "check_hole_characterizations",
    "family_limits_against", "fb_distance", "formal_ball_from_dict", "kw_audit",
    "limit_set", "link_directed_sequence", "load_space", "net_distance",
    "pre_cauchy_subnet_equiv", "seq_from_dict", "seq_limits_against",
}


def _modules():
    for path in sorted(Path(qmlib.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _top_level_definitions() -> dict:
    """Name -> module stem of every top-level function and class."""
    return {node.name: path.stem
            for path, tree in _modules() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _names_used() -> set:
    """Every ``ast.Name`` and imported name outside ``__init__.py``."""
    used = set()
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return used


def test_every_definition_is_reached_or_library_api():
    used = _names_used()
    unreached = sorted(f"{mod}.{name}" for name, mod in _top_level_definitions().items()
                       if name not in used and name not in LIBRARY_API)
    assert unreached == [], f"defined in qmlib but never named there: {unreached}"


def test_library_api_is_exported_and_unreached():
    defined = _top_level_definitions()
    assert LIBRARY_API <= set(defined)
    assert all(hasattr(qmlib, name) for name in LIBRARY_API)
    # a name the package reaches needs no exception
    assert LIBRARY_API.isdisjoint(_names_used())


# ``Fraction`` stays only in the gallery, whose expected values are a
# second arithmetic that the ``ExtReal`` results are checked against.
# Every distance and every formal-ball radius is an ``ExtReal``.
FRACTION_MODULES = {"gallery"}


def test_only_the_edges_import_fractions():
    importers = sorted(
        path.stem for path, tree in _modules()
        if any(isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "fractions"
               for node in ast.walk(tree)))
    assert importers == sorted(FRACTION_MODULES)


ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# (QML_WORKERS, argv): check and audit on every tests/data file, every
# gallery fixture at cutoff 16, one 16-instance serial sweep and one
# 17-instance sweep on two workers (two chunks), all in JSON; "OUT" is the
# output.  The pooled sweep's parent runs the pool and builds and audits
# chunk 0; the forked child's calls, which the hook does not see, repeat the
# serial ones.
LEDGER_COMMANDS = (
    [("1", [cmd, str(path), "--out", "OUT"])
     for path in sorted(DATA.glob("*.json")) for cmd in ("check", "audit")]
    + [("1", ["gallery", name, "--cutoff", "16", "--out", "OUT"])
       for name in qmlib.GALLERY_NAMES]
    + [("1", ["random", "--n", "6", "--count", "16", "--out", "OUT"]),
       ("2", ["random", "--n", "6", "--count", "17", "--out", "OUT"])])

API = "library entry point"
MARKDOWN = "markdown output; the ledger's commands write JSON"

# module.qualname -> why no command of LEDGER_COMMANDS runs it
NEVER_RUN = {
    "cli._Parser.error": "usage-error path",
    "cli._render_audit_md": MARKDOWN,
    "cli._render_check_md": MARKDOWN,
    "cli._render_gallery_md": MARKDOWN,
    "cli._render_random_md": MARKDOWN,
    "cli.run_report": "the report command merges earlier outputs",
    "derived.StepFn.__call__": "library use of a step function; commands read its cuts",
    "extreal.ExtReal.__reduce__": "no command pickles a number: each sweep process builds "
                                  "its own spaces from seeds and sends back audit entries, "
                                  "whose hypotheses are flags and whose witnesses are labels",
    "extreal.ExtReal.__repr__": "debugging aid",
    "extreal.ExtReal.__setattr__": "error path: an ExtReal is immutable",
    "extreal.ExtReal.scale_inf": "reached only through derive(space, 'leq_order')",
    "extreal._shown": "error path: shortens a bad value in a message",
    "family.Analyzer._extract": "reached only through subnet and subsequence analysis",
    "family.Analyzer._pre_cauchy": "reached only through subnet and subsequence analysis",
    "family.Analyzer.cauchy_subsequence": "reached only through cauchy_subsequence_family",
    "family.Analyzer.classify": "reached only through classify_family",
    "family.Analyzer.completeness": "every family file of the set has its own analyzer",
    "family.Analyzer.hole_flags": "reached only through subnet analysis",
    "family.Analyzer.limits": "reached only through family_limits_against",
    "family.Analyzer.subnet_equiv": "reached only through family_subnet_equiv",
    "family.ChainAnalyzer.limits": "reached only through family_limits_against",
    "family.Claim.to_dict": "no command reports a claim",
    "family.FamilySeq.term": "reached only through subsequence extraction",
    "family.FamilySeq.window": "reached only through sequence analysis",
    "family.FamilySpace.point_by_label": "reached only through sequence analysis",
    "family.NaturalOrderAnalyzer.__init__": "no family file of the set has natural values",
    "family.NaturalOrderAnalyzer._extract": "no family file of the set has natural values",
    "family.NaturalOrderAnalyzer.classify": "no family file of the set has natural values",
    "family.NaturalOrderAnalyzer.hole_flags": "no family file of the set has natural values",
    "family._check_natural_values": "no family file of the set has natural values",
    "family.cauchy_subsequence_family": API,
    "family.family_limits_against": API,
    "family.family_subnet_equiv": "reached only through pre_cauchy_subnet_equiv",
    "formal_balls.FormalBall.__new__": "formal balls: no command audits them",
    "formal_balls.FormalBall.label": "formal balls: no command audits them",
    "formal_balls.KwAuditReport.to_dict": "formal balls: no command audits them",
    "formal_balls.KwLimitResult.to_dict": "formal balls: no command audits them",
    "formal_balls.RadiusSeq.__new__": "formal balls: no command audits them",
    "formal_balls.RadiusSeq.limit": "formal balls: no command audits them",
    "formal_balls.RadiusSeq.term": "formal balls: no command audits them",
    "formal_balls._finite": "formal balls: no command audits them",
    "formal_balls.fb_distance": API,
    "formal_balls.fb_distance_raw": "formal balls: no command audits them",
    "formal_balls.formal_ball": "reached only through formal_ball_from_dict",
    "formal_balls.formal_ball_from_dict": API,
    "formal_balls.kw_audit": API,
    "formal_balls.kw_limit": "reached only through kw_audit",
    "nets.EpSeq.term": "reached only through sequence analysis",
    "nets.cauchy_subsequence": "reached only through pre_cauchy_subnet_equiv",
    "nets.epseq_from_labels": "reached only through seq_from_dict",
    "nets.net_distance": API,
    "nets.seq_from_dict": API,
    "nets.seq_limits_against": API,
    "order.DirectedSequenceReport.ok": "reached only through link_directed_sequence",
    "order.EdCompletenessReport.to_dict": "no command reports it; audit reads its fields",
    "order.SupremumResult.to_dict": "no command reports suprema",
    "order.link_directed_sequence": API,
    "space.FiniteSpace.__reduce__": "no command pickles a space: each sweep process builds "
                                    "its own from seeds",
    "space.FiniteSpace.__repr__": "debugging aid",
    "space.FiniteSpace._make": "namedtuple's _make and _replace; no command rebuilds a space",
    "space.ProvenDistance._make": "namedtuple's _make and _replace; no command rebuilds a space",
    "space.load_space": API,
    "theorems.DirectedConstruction.to_dict": "failure path: witness of a failed replay",
    "topology.ConvergenceReport.flag": "reached only through library sequence checks",
    "topology.ConvergenceReport.to_dict": "no command reports a convergence",
    "topology.HoleCharacterizationReport.ok": "reached only through check_hole_characterizations",
    "topology.check_hole_characterizations": API,
    "topology.limit_set": API,
    "topology.pre_cauchy_subnet_equiv": API,
}

# module -> statements that no command of LEDGER_COMMANDS runs, outside
# the NEVER_RUN functions and the docstrings: error paths, markdown-only
# branches and the library-only branches of functions that do run
UNRUN_STATEMENTS = {
    "cli": 31, "derived": 3, "extreal": 13, "family": 35, "gallery": 3, "nets": 7,
    "order": 6, "space": 37, "theorems": 16, "topology": 8,
}

# Runs the commands with a trace hook set before qmlib is imported, and
# prints the qualified names of the qmlib functions that were called and,
# per module, the lines that ran.  A code object stops being traced once
# every one of its lines has run (its first line, the ``def``, raises no
# line event of its own).
LEDGER_PROBE = """
import importlib.util, json, os, sys
from pathlib import Path
package = importlib.util.find_spec("qmlib").submodule_search_locations[0]
left = {}   # each qmlib code object that ran -> its lines that have not run yet

def code_lines(code):
    return {line for _, _, line in code.co_lines()} - {None, code.co_firstlineno}

def line_hook(frame, event, arg):
    if event == "line":
        left[frame.f_code].discard(frame.f_lineno)
    return line_hook

def hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        if code not in left:
            left[code] = code_lines(code)
        if left[code]:
            return line_hook
    return None

sys.settrace(hook)
import qmlib.cli as cli
for workers, argv in json.loads(sys.argv[1]):
    os.environ["QML_WORKERS"] = workers
    cli.main(argv)
sys.settrace(None)
lines = {}
for code, unrun in left.items():
    lines.setdefault(Path(code.co_filename).stem, set()).update(code_lines(code) - unrun)
print(json.dumps({"ran": sorted({f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in left}),
                  "lines": {stem: sorted(ran) for stem, ran in lines.items()}}))
"""


def _function_names(tree, prefix=""):
    """Qualified names of every ``def`` in a module, as ``co_qualname``
    spells them."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
            yield from _function_names(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _function_names(node, f"{prefix}{node.name}.")
        else:
            yield from _function_names(node, prefix)


def _unrun_statements(body, ran_lines, module, prefix=""):
    """Yield each statement of ``body``, nested ones included, whose own
    lines (a compound statement's header, a definition's decorators) have
    none among ``ran_lines``; docstrings and the bodies of the
    ``NEVER_RUN`` functions are left out."""
    for i, node in enumerate(body):
        if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue    # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = getattr(node, "body", None)
        last = max(node.lineno, inner[0].lineno - 1) if inner else node.end_lineno
        if not ran_lines.intersection(range(first, last + 1)):
            yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if f"{module}.{prefix}{node.name}" in NEVER_RUN:
                continue
            nested = f"{prefix}{node.name}.<locals>."
        elif isinstance(node, ast.ClassDef):
            nested = f"{prefix}{node.name}."
        else:
            nested = prefix
        for block in (inner or [], getattr(node, "orelse", []), getattr(node, "finalbody", []),
                      *(h.body for h in getattr(node, "handlers", []))):
            yield from _unrun_statements(block, ran_lines, module, nested)


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """``{"ran": functions, "lines": module -> lines}`` of one run of
    ``LEDGER_COMMANDS`` under ``LEDGER_PROBE``."""
    out = str(tmp_path_factory.mktemp("ledger") / "out.json")
    commands = [(workers, [out if a == "OUT" else a for a in argv])
                for workers, argv in LEDGER_COMMANDS]
    run = subprocess.run(
        [sys.executable, "-c", LEDGER_PROBE, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_the_commands_leave_only_the_ledger_unrun(probe):
    ran = set(probe["ran"])
    defined = {f"{path.stem}.{name}" for path, tree in _modules()
               for name in _function_names(tree)}
    never_run = defined - ran
    assert sorted(never_run - set(NEVER_RUN)) == [], "new functions no command runs"
    assert sorted(set(NEVER_RUN) - never_run) == [], "ledger entries that now run"
    assert all(reason and "\n" not in reason for reason in NEVER_RUN.values())
    assert {key.rpartition(".")[2] for key, reason in NEVER_RUN.items()
            if reason == API} == LIBRARY_API


def test_the_commands_leave_only_the_pinned_statements_unrun(probe):
    unrun = {}
    for path, tree in _modules():
        ran_lines = set(probe["lines"].get(path.stem, ()))
        lines = [node.lineno for node in _unrun_statements(tree.body, ran_lines, path.stem)]
        if lines:
            unrun[path.stem] = lines
    counts = {module: len(lines) for module, lines in unrun.items()}
    changed = {module: unrun.get(module, []) for module in counts.keys() | UNRUN_STATEMENTS.keys()
               if counts.get(module) != UNRUN_STATEMENTS.get(module)}
    assert counts == UNRUN_STATEMENTS, f"the unrun statements' lines now: {changed}"
