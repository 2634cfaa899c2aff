"""Every name a library module imports is used in that module."""
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
