import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "helmray"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    """Names bound by an import statement anywhere in ``tree`` and never read."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_detector():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy as np\n"
                     "import scipy.sparse\nfrom .a import b, c as d\n"
                     "def f():\n    return np.pi + scipy.sparse.eye(1) + d\n")
    assert _unused_imports(tree) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _nested_imports(tree):
    """Line numbers of the import statements below module level in ``tree``."""
    top = {id(node) for node in tree.body}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


def test_nested_import_detector():
    tree = ast.parse("import os\nfrom .a import b\n"
                     "def f():\n    import numpy\n    return numpy\n"
                     "class C:\n    def g(self):\n        from .a import c\n        return c\n")
    assert _nested_imports(tree) == [4, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_at_module_level(path):
    assert _nested_imports(ast.parse(path.read_text())) == []
