"""Every name a library module imports is used in that module, and every
private module-level function is used by some module."""
import ast
from pathlib import Path

import pytest

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
