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


def _memo_caches(tree):
    """Module-level functions in ``tree`` decorated with ``functools.lru_cache``
    or ``functools.cache``, called or not, imported by name or not."""
    def name(d):
        d = d.func if isinstance(d, ast.Call) else d
        return d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
    return sorted(node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(name(d) in ("lru_cache", "cache") for d in node.decorator_list))


def test_memo_cache_detector():
    tree = ast.parse("import functools\nfrom functools import cache, cached_property, lru_cache\n"
                     "@lru_cache(maxsize=1)\ndef a():\n    pass\n"
                     "@functools.lru_cache\ndef b():\n    pass\n"
                     "@cache\ndef c():\n    pass\n"
                     "@functools.cache\ndef d():\n    pass\n"
                     "@staticmethod\ndef e():\n    pass\n"
                     "class K:\n    @cached_property\n    def f(self):\n        pass\n")
    assert _memo_caches(tree) == ["a", "b", "c", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_memo_cache(path):
    # a module-level memo is state shared by every caller, which tests must
    # clear; a per-instance cached_property is allowed
    assert _memo_caches(ast.parse(path.read_text())) == []


def _private_names(tree):
    """Names bound at module level in ``tree`` that start with one underscore."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def _read_names(trees):
    """Every name the trees load, as a bare name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_private_name_detector():
    tree = ast.parse("_A = 1\n_B, _C = 2, 3\n__D = 4\nE = _A\n"
                     "def _f():\n    return _B\nclass _K:\n    _x = 1\n")
    other = ast.parse("import m\nm._C = m._K\n")
    assert sorted(_private_names(tree) - _read_names([tree, other])) == ["_C", "_f"]


def test_every_private_name_is_read():
    # a private module-level name nothing in src/ or perfbench/ reads is dead
    # code that the tests alone keep compiling
    readers = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    read = _read_names(ast.parse(p.read_text()) for p in readers)
    unread = {p.name: sorted(_private_names(ast.parse(p.read_text())) - read) for p in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def _public_names(tree):
    """Public functions and classes defined at module level in ``tree``, and the
    public methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = set()
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(m.name for m in node.body
                             if isinstance(m, defs[:2]) and not m.name.startswith("_"))
    return names


def test_public_name_detector():
    tree = ast.parse("A = 1\ndef f():\n    return g()\ndef g():\n    pass\ndef _h():\n    pass\n"
                     "class K:\n    x = 1\n    def m(self):\n        pass\n"
                     "    def _p(self):\n        pass\n    def __init__(self):\n        pass\n"
                     "class _Q:\n    def q(self):\n        pass\n")
    other = ast.parse("from mod import K\nK().m\n")
    assert sorted(_public_names(tree) - _read_names([tree, other])) == ["f"]


def test_every_public_name_is_read():
    # a public function, class or method that nothing in src/, perfbench/ or
    # tests/ reads is dead code
    root = SRC.parents[1]
    readers = [p for d in (SRC, root / "perfbench", root / "tests") for p in sorted(d.glob("*.py"))]
    read = _read_names(ast.parse(p.read_text()) for p in readers)
    unread = {p.name: sorted(_public_names(ast.parse(p.read_text())) - read) for p in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


# written whole through dataclasses.asdict, so their fields need no reader
_ASDICT_DATACLASSES = {"ConstantsLedger", "ThresholdReport"}


def _dataclass_fields(tree):
    """``Class.field`` for every annotated field of a ``@dataclass`` class in
    ``tree``, but those of the classes written whole through ``asdict``."""
    def is_dataclass(node):
        for d in node.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
                return True
        return False
    return {f"{node.name}.{item.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and is_dataclass(node)
            and node.name not in _ASDICT_DATACLASSES
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def _attributes_read(trees):
    """Every attribute name the trees load, but on an imported module:
    ``time.time()`` reads no field named ``time``."""
    read = set()
    for tree in trees:
        modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name) and node.value.id in modules))
    return read


def test_dead_field_detector():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                     "@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z = 1\n"
                     "@dataclass(frozen=True)\nclass B:\n    u: float\n    v: float\n"
                     "@dataclasses.dataclass\nclass C:\n    w: int\n"
                     "class D:\n    t: int\n"
                     "@dataclass\nclass ThresholdReport:\n    s: int\n"
                     "def f(a, b):\n    a.y = b.u\n    return A(x=1, y=a.v)\n")
    other = ast.parse("def g(c):\n    return c.w\n")
    fields = _dataclass_fields(tree)
    assert fields == {"A.x", "A.y", "B.u", "B.v", "C.w"}
    read = _attributes_read([tree, other])
    assert sorted(f for f in fields if f.split(".")[1] not in read) == ["A.x", "A.y"]


def test_every_dataclass_field_is_read():
    # a dataclass field that nothing in src/, perfbench/ or tests/ reads as an
    # attribute is computed, stored and kept alive for no reader
    root = SRC.parents[1]
    readers = [p for d in (SRC, root / "perfbench", root / "tests") for p in sorted(d.glob("*.py"))]
    read = _attributes_read(ast.parse(p.read_text()) for p in readers)
    fields = set().union(*(_dataclass_fields(ast.parse(p.read_text())) for p in MODULES))
    assert sorted(f for f in fields if f.split(".")[1] not in read) == []


def test_dead_field_detector_skips_module_attributes():
    tree = ast.parse("import time\nimport numpy as np\nfrom dataclasses import dataclass\n"
                     "@dataclass\nclass E:\n    time: float\n    pi: float\n    point: int\n"
                     "def f(e):\n    return time.time() + np.pi + e.point\n")
    read = _attributes_read([tree])
    assert sorted(f for f in _dataclass_fields(tree) if f.split(".")[1] not in read) == [
        "E.pi", "E.time"]
