"""Every import, module-level constant and function in the package source is used.

An imported name counts as used when the module refers to it, or lists it
in ``__all__``.  An import line marked ``# noqa`` is exempt: it is kept
for callers that look the name up in that module.  An ALL-CAPS constant
counts as used when some module of the package reads it, and a
module-level ``_function`` when some module of the package refers to it
outside the function's own definition.  A module-level public function
or class counts as used when it is in ``amoebas.__all__`` or some module
of the package refers to it outside its own definition.  Every name that
README.md cites in backticks as package code, private (``_staged``) or
dotted into a module (``fiber._staged``), is bound at the top level of
that module, or of some module when it is undotted.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "amoebas"
README = SRC.parent.parent / "README.md"


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .numeric import roots  # noqa: F401\n"
        "from .numeric import UniPoly, _roots_batch\n"
        "__all__ = ['UniPoly']\n"
        "x = math.pi\n"
    )
    assert unused_imports(mod) == [(3, "os"), (5, "_roots_batch")]


def constant_references(paths):
    """Module-level ALL-CAPS constants of paths -> (file, line, count of reads)."""
    defined, reads = {}, Counter()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id.lstrip("_").isupper():
                        defined[t.id] = (path.name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.alias):
                reads[node.name] += 1
    return {name: (*where, reads[name]) for name, where in defined.items()}


def test_every_constant_is_referenced():
    # a threshold that outlived its rule reads as if it still decided something
    found = constant_references(sorted(SRC.glob("*.py")))
    assert "RESIDUAL_REL" in found and "_BATCH" in found
    assert [(name, where) for name, (*where, refs) in sorted(found.items()) if not refs] == []


def test_a_dead_constant_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from math import PI_LIKE\nUSED = 1\nDEAD = 2\n_PRIVATE_DEAD = 3\n"
                   "lower = 4\ndef f():\n    return USED\n")
    found = constant_references([mod])
    assert {name: refs for name, (_, _, refs) in found.items()} == {
        "USED": 1, "DEAD": 0, "_PRIVATE_DEAD": 0}


def function_references(paths, public=False):
    """Module-level _functions of paths -> (file, line, count of references).

    With ``public``, the module-level functions and classes without a
    leading underscore instead.  A reference inside the definition itself
    (recursion) does not count.
    """
    defined, refs = {}, Counter()
    kinds = (ast.FunctionDef, ast.ClassDef) if public else ast.FunctionDef
    for path in paths:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            own = top.name if isinstance(top, kinds) else None
            if own and own.startswith("_") != public and not own.startswith("__"):
                defined[own] = (path.name, top.lineno)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    refs[name] += 1
    return {name: (*where, refs[name]) for name, where in defined.items()}


def test_every_private_function_is_referenced():
    # a helper nothing calls is code that only looks as if it mattered
    found = function_references(sorted(SRC.glob("*.py")))
    assert "_collect" in found and "_row" in found
    assert [(name, where) for name, (*where, refs) in sorted(found.items()) if not refs] == []


def test_every_public_function_and_class_is_exported_or_used():
    # a public name that is neither exported nor called is surface without a caller
    import amoebas

    found = function_references(sorted(SRC.glob("*.py")), public=True)
    assert "classify" in found and "UniPoly" in found and "AmoebaBasis" in found
    assert [(name, where) for name, (*where, refs) in sorted(found.items())
            if not refs and name not in amoebas.__all__] == []


def test_an_orphaned_private_function_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\n"
                   "def _used():\n    return math.pi\n"
                   "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
                   "def _decorator(fn):\n    return fn\n"
                   "@_decorator\ndef public():\n    return _used()\n"
                   "class K:\n    def _method(self):\n        return 1\n")
    found = function_references([mod])
    assert {name: refs for name, (_, _, refs) in found.items()} == {
        "_used": 1, "_recursive": 0, "_decorator": 1}


def test_an_orphaned_public_function_or_class_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _helper():\n    return Used()\n"
                   "class Used:\n    pass\n"
                   "class Orphan:\n    def method(self):\n        return Orphan()\n"
                   "def orphan():\n    return _helper()\n")
    found = function_references([mod], public=True)
    assert {name: refs for name, (_, _, refs) in found.items()} == {
        "Used": 1, "Orphan": 0, "orphan": 0}


def readme_names(readme):
    """The backticked spans of ``readme`` that read as Python names, outside fenced blocks."""
    text = re.sub(r"^```.*?^```", "", readme.read_text(), flags=re.S | re.M)
    spans = {m.group(2) for m in re.finditer(r"(`+)(.+?)\1", text, flags=re.S)}
    return sorted(s for s in spans if re.fullmatch(r"[A-Za-z_][\w.]*", s))


def missing_names(names, paths):
    """The names that cite package code which no module of ``paths`` binds.

    A name cites package code when it is dotted into a module of paths
    (``fiber._staged``) or private and undotted (``_staged``; a dunder
    such as ``__all__`` is Python's).  Definitions, assignments and
    imports at a module's top level bind names.
    """
    bound = {}
    for path in paths:
        names_here = bound.setdefault(path.stem, set())
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names_here.add(node.name)
            elif isinstance(node, ast.Assign):
                names_here |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names_here |= {a.asname or a.name.partition(".")[0] for a in node.names}
    missing = []
    for name in names:
        mod, _, attr = name.rpartition(".")
        if mod in bound:
            if attr not in bound[mod]:
                missing.append(name)
        elif not mod and name.startswith("_") and not name.startswith("__"):
            if not any(name in here for here in bound.values()):
                missing.append(name)
    return missing


def test_every_name_the_readme_cites_exists():
    # a document that names a helper the code lost sends its reader nowhere
    names = readme_names(README)
    assert "fiber._staged" in names and "laurent._collect" in names
    assert missing_names(names, sorted(SRC.glob("*.py"))) == []


def test_a_missing_readme_name_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math as _m\n_LIMIT = 1\n"
                   "def _kept():\n    return _m.pi\n"
                   "class K:\n    def _method(self):\n        return _LIMIT\n")
    readme = tmp_path / "README.md"
    readme.write_text("`_kept`, `mod._LIMIT`, ``mod._m`` and `_gone`; `mod._method`,\n"
                      "`other._x`, `math.fsum`, `__all__`, `plain` and `a b`.\n"
                      "```\n`_in_a_fence`\n```\n")
    names = readme_names(readme)
    assert names == ["__all__", "_gone", "_kept", "math.fsum", "mod._LIMIT", "mod._m",
                     "mod._method", "other._x", "plain"]
    assert missing_names(names, [mod]) == ["_gone", "mod._method"]
