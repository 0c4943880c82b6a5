"""Only what is reached stays in the package.

Every top-level function and class in ``qmlib`` is named (as an
``ast.Name`` or an import alias) somewhere in the package outside
``__init__.py``.  The only exceptions are the library entry points in
``LIBRARY_API``, which no command calls but which ``qmlib`` exports.  A
definitional form that nothing reaches belongs in ``tests/oracles.py``,
and a function that only forwards to a method or operator goes.  This
test reads the source, so an uncalled definition fails it when it lands.
"""

import ast
from pathlib import Path

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
