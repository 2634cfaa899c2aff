"""Every name a library module imports is used in that module, every
private module-level function is used by some module, no module holds
an `assert`, solving leaves every module's globals as they were, and no
module holds a context variable."""
import ast
import contextvars
import importlib
import sys
import types
from pathlib import Path

import pytest

import paritykit
from paritykit import fpt

SRC = Path(__file__).resolve().parents[1] / "src" / "paritykit"
# __init__.py imports to re-export; its names are used by importers.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from collections import deque as dq, OrderedDict\n"
        "print(sys.argv, dq)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "OrderedDict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources):
    """(module, name) of each module-level `_private` function that no
    module in `sources` (module name -> source text) refers to; a
    function's references to itself do not count."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((module, own))
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            referenced |= names - {own}
    return sorted((m, name) for m, name in defined if name not in referenced)


def test_private_function_detector_flags_only_unused_helpers():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\ndef __dunder__(): pass\n"
             "def public(): return _used()\n",
        "b": "class K:\n    def _method(self): pass\ndef _used_elsewhere(): pass\n",
        "c": "def _recursive(n): return _recursive(n - 1) if n else 0\n",
        "d": "from . import b\nb._used_elsewhere()\n",
    }
    assert unreferenced_private_functions(sources) == [("a", "_dead"), ("c", "_recursive")]


def test_every_private_function_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


# The formula guards that acceptance criterion 7 reads.
ALLOWED_ASSERTS = {("fpt.py", "_ell_from_k"), ("fpt.py", "_degree_budget")}


def asserts_by_function(source):
    """(top-level function or None, line) of every `assert` in `source`."""
    found = []
    for stmt in ast.parse(source).body:
        name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [(name, n.lineno) for n in ast.walk(stmt) if isinstance(n, ast.Assert)]
    return found


def test_assert_detector_names_the_enclosing_function():
    source = "assert x\ndef f():\n    if y:\n        assert y\nclass C:\n    assert z\n"
    assert asserts_by_function(source) == [(None, 1), ("f", 4), (None, 6)]


def test_no_module_checks_with_assert():
    # `python -O` strips asserts; checks that guard results must raise.
    found = [
        (p.name, name, line)
        for p in sorted(SRC.glob("*.py"))
        for name, line in asserts_by_function(p.read_text(encoding="utf-8"))
        if (p.name, name) not in ALLOWED_ASSERTS
    ]
    assert found == []


def _module_state():
    """Every paritykit module's globals by identity, plus the identities
    held by each module-level container and plain object."""
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "paritykit" and not name.startswith("paritykit."):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            contents = None
            if isinstance(value, dict):
                contents = [(k, id(v)) for k, v in value.items()]
            elif isinstance(value, (list, set, bytearray)):
                contents = [id(v) for v in value]
            elif not isinstance(value, (type, types.ModuleType, types.FunctionType)):
                slots = getattr(type(value), "__slots__", ())
                contents = [(a, id(getattr(value, a, None))) for a in slots]
                contents += [(k, id(v)) for k, v in getattr(value, "__dict__", {}).items()]
            state[name, attr] = (id(value), contents)
    return state


def test_solving_leaves_no_module_level_state():
    assert not hasattr(fpt, "metrics") and not hasattr(fpt, "Metrics")
    games = [
        paritykit.generate("general", 24, 8, 2),
        paritykit.generate("unbalanced", 40, 6, 0, k=3),
    ]
    before = _module_state()
    for g in games:
        paritykit.solve(g, "fpt_k")
        paritykit.solve(g, "fpt_degree")
    assert _module_state() == before


def test_no_module_holds_a_context_variable():
    # Solvers are passed their SolveContext; none is found through a global.
    modules = [paritykit] + [importlib.import_module(f"paritykit.{p.stem}") for p in MODULES]
    held = [
        (mod.__name__, attr)
        for mod in modules
        for attr, value in vars(mod).items()
        if isinstance(value, contextvars.ContextVar)
    ]
    assert held == []
    assert not hasattr(fpt, "solve_context")
