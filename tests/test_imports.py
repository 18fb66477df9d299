"""Every name a package module imports is used in that module, listed in
its ``__all__``, or re-exported by an import marked ``# noqa: F401``; and
every module-level private function or class is referenced somewhere in
the package outside its own definition; and every method of a package
class is referenced by name in ``src``, ``tests`` or ``perfbench``
outside its own definition; and NonStabilized is raised only by the one
stabilization loop, ``errors.stabilize``."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cartier_lab"


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            }
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_scanner_finds_an_unused_import():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "loads('1')\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources):
    """(module, name) of each module-level ``_private`` function or class
    in ``sources`` ({module: source text}) that no name or attribute in
    any module refers to, outside the helper's own definition."""
    defined, refs = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and owner.startswith("_") and not owner.startswith("__")):
                defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    refs.add(name)
    return sorted(item for item in defined if item[1] not in refs)


def test_scanner_finds_a_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\n"
             "def _dead():\n    return _dead()\n\n"
             "class _Shared:\n    pass\n",
        "b": "from a import _Shared\n\nx = _used()\n",
    }
    assert dead_helpers(sources) == [("a", "_dead")]


def test_package_has_no_dead_private_helpers():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert dead_helpers(sources) == []


def non_stabilized_calls(sources):
    """(module, line) of each call ``NonStabilized(...)`` in ``sources``
    ({module: source text}) outside the function ``stabilize`` of module
    ``errors``."""
    found = []

    def visit(module, node, allowed):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not allowed:
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "NonStabilized":
                    found.append((module, child.lineno))
            visit(module, child, allowed or (
                module == "errors"
                and isinstance(child, ast.FunctionDef)
                and child.name == "stabilize"
            ))

    for module, source in sources.items():
        visit(module, ast.parse(source), False)
    return sorted(found)


def test_scanner_finds_a_stray_non_stabilized():
    loop = (
        "def stabilize(first, step, what, cap):\n"
        "    raise NonStabilized(what, partial=[first], cap=cap)\n"
    )
    sources = {
        "errors": loop,
        "gamma": loop + "\ndef chain():\n"
                 "    raise errors.NonStabilized('x', [], 1)\n",
    }
    assert non_stabilized_calls(sources) == [("gamma", 2), ("gamma", 5)]


def test_non_stabilized_is_raised_only_by_stabilize():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert non_stabilized_calls(sources) == []


def dead_methods(defining, referencing):
    """(module, class, method) of each method, dunders aside, of a class
    in ``defining`` ({module: source text}) whose name no name, attribute
    or import in ``referencing`` (a list of source texts) mentions outside
    the method's own definition."""
    methods = [
        (module, cls.name, item.name)
        for module, source in defining.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]
    refs = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            name = (getattr(child, "id", None) if isinstance(child, ast.Name)
                    else getattr(child, "attr", None)
                    if isinstance(child, ast.Attribute)
                    else getattr(child, "name", None)
                    if isinstance(child, ast.alias) else None)
            if name is not None and name not in enclosing:
                refs.add(name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, enclosing | {child.name})
            else:
                visit(child, enclosing)

    for source in referencing:
        visit(ast.parse(source), frozenset())
    return sorted(item for item in methods if item[2] not in refs)


def test_scanner_finds_a_dead_method():
    defining = {
        "a": "class A:\n"
             "    def __init__(self):\n        self.used()\n\n"
             "    def used(self):\n        pass\n\n"
             "    def recursive(self):\n        return self.recursive()\n\n"
             "    def elsewhere(self):\n        pass\n",
    }
    referencing = list(defining.values()) + ["A().elsewhere()\n"]
    assert dead_methods(defining, referencing) == [("a", "A", "recursive")]


def test_package_has_no_dead_methods():
    root = PACKAGE.parent.parent
    defining = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    referencing = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    assert dead_methods(defining, referencing) == []
