"""Sampling stays out of verdict code.

Every verdict in ``qmlib`` is decided exactly, by identity, reduction or
exhaustive search.  The only functions that may take an ``rng`` are the
seeded instance generators in ``generate``.  This test reads the source,
so a new sampler anywhere else fails it before it can reach a report.
"""

import ast
from pathlib import Path

import qmlib

SAMPLING_MODULE = "generate"


def _functions():
    """(module, function name, parameter names) for every function and
    method in the package."""
    for path in sorted(Path(qmlib.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                yield path.stem, node.name, params


def test_only_generators_take_an_rng():
    takers = {(mod, name) for mod, name, params in _functions() if "rng" in params}
    outside = sorted(t for t in takers if t[0] != SAMPLING_MODULE)
    assert outside == [], f"functions outside the sampling scope take an rng: {outside}"
    assert takers, "the generators take an rng"


def test_random_is_imported_only_by_the_generators():
    importers = set()
    for path in sorted(Path(qmlib.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "random" for n in names):
                importers.add(path.stem)
    assert importers <= {SAMPLING_MODULE}
