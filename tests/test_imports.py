"""Every name a package module imports is used in that module, listed in
its ``__all__``, or re-exported by an import marked ``# noqa: F401``; and
every module-level private function or class is referenced somewhere in
the package outside its own definition, and every public one is
re-exported by ``cartier_lab/__init__`` or referenced in ``src`` or
``perfbench`` outside its definition and ``__all__``; and every name a
function stores is loaded somewhere in that function; and every method
of a package class is referenced by name in ``src``, ``tests`` or
``perfbench`` outside its own definition; and NonStabilized is raised
only by the one stabilization loop, ``errors.stabilize``; and only
``fields`` reads the F_p multiplication blocks and twist matrices of F_q,
which the rest reach through ``FrobeniusContext.fp_blocks``; and only
``fields`` and ``cartier`` call ``fp_blocks``: the rest take the F_p
matrices of a finite model from ``FiniteModel.kappa_fp`` and
``FiniteModel.mult_fp``; and outside
``submodules`` no call of ``hnf_extend`` or ``in_span`` takes
``<expr>.relation_hnf()``, or a local name bound to it, as an argument:
the rest build a submodule's span and nonzero rows through
``Presentation.span`` and ``Presentation.nonzero_rows``."""

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


def names_referenced(source):
    """Every name, attribute or imported name in ``source``, outside the
    module-level definition of that same name."""
    refs = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
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
    return refs


def dead_helpers(sources, referencing=()):
    """(module, name) of each module-level function or class in
    ``sources`` ({module: source text}, ``__init__`` among them) that
    nothing refers to outside its own definition: for a ``_private`` one,
    no name, attribute or import in ``sources``; for a public one, none in
    ``sources`` or in ``referencing`` (a list of source texts) either.  So
    a re-export by ``__init__`` counts, and a string in ``__all__`` does
    not."""
    defined = [
        (module, stmt.name)
        for module, source in sources.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("__")
    ]
    private = set().union(*map(names_referenced, sources.values()))
    public = private.union(*map(names_referenced, referencing))
    return sorted(
        (module, name) for module, name in defined
        if name not in (private if name.startswith("_") else public)
    )


def test_scanner_finds_a_dead_helper():
    sources = {
        "a": "__all__ = ['kept', 'dead']\n\n"
             "def _used():\n    pass\n\n"
             "def _dead():\n    return _dead()\n\n"
             "class _Shared:\n    pass\n\n"
             "def kept():\n    pass\n\n"
             "def dead():\n    return dead()\n\n"
             "class Exported:\n    pass\n",
        "b": "from a import _Shared\n\nx = _used()\n",
        "__init__": "from .a import Exported  # noqa: F401\n",
    }
    # outside the package only public names count
    referencing = ["import a\n\na.kept()\n_dead = 1\n"]
    assert dead_helpers(sources, referencing) == [("a", "_dead"), ("a", "dead")]


def package_dead_helpers():
    root = PACKAGE.parent.parent
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    referencing = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    return dead_helpers(sources, referencing)


def test_package_has_no_dead_private_helpers():
    assert [h for h in package_dead_helpers() if h[1].startswith("_")] == []


def test_package_has_no_dead_public_helpers():
    """A public function or class that neither ``cartier_lab/__init__``
    re-exports nor anything in ``src`` or ``perfbench`` uses is a helper
    kept for the tests alone."""
    assert [h for h in package_dead_helpers()
            if not h[1].startswith("_")] == []


def dead_locals(source):
    """(line, name) of each name a function in ``source`` stores and that
    nothing in the function, its nested functions included, loads.  Names
    declared global or nonlocal and the placeholder ``_`` are exempt; a
    nested function's or class's own stores count for that scope."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, scopes) or isinstance(fn, ast.ClassDef):
            continue
        loaded = {
            n.id for n in ast.walk(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        declared, stored = {"_"}, []
        todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.append((node.lineno, node.id))
            if not isinstance(node, scopes):
                todo.extend(ast.iter_child_nodes(node))
        found.update(
            (line, name) for line, name in stored
            if name not in loaded and name not in declared
        )
    return sorted(found)


def test_scanner_finds_a_dead_local():
    source = (
        "def f(v):\n"
        "    a, b = v\n"
        "    _, c = v\n"
        "    total = 0\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = c\n"
        "        unused = 1\n"
        "    for i in v:\n"
        "        g()\n"
        "    return a, total\n"
    )
    assert dead_locals(source) == [(2, "b"), (8, "unused"), (9, "i")]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_module_has_no_dead_locals(path):
    assert dead_locals(path.read_text(encoding="utf-8")) == []


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


BLOCK_FORMAT = frozenset({"_mul_blocks", "_frob_matrix", "_frob_inv_matrix"})


def block_format_readers(sources):
    """(module, line) of each load of an attribute named in BLOCK_FORMAT
    in ``sources`` ({module: source text}) outside the module ``fields``:
    the F_p form of F_q matrices has one builder, ``fp_blocks``."""
    return sorted(
        (module, node.lineno)
        for module, source in sources.items() if module != "fields"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in BLOCK_FORMAT
    )


def test_scanner_finds_a_block_format_reader():
    sources = {
        "fields": "self._mul_blocks = m\nb = self._mul_blocks[1]\n",
        "ie": "ctx._frob_matrix = m\nb = ctx._frob_inv_matrix @ m\n",
        "cartier": "b = ctx.fp_blocks(d)\n\nb = f(ctx._mul_blocks)\n",
    }
    assert block_format_readers(sources) == [("cartier", 3), ("ie", 2)]


def test_only_fields_reads_the_block_format():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert block_format_readers(sources) == []


def fp_blocks_callers(sources):
    """(module, line) of each call of ``<expr>.fp_blocks(...)`` in
    ``sources`` ({module: source text}) outside the modules ``fields`` and
    ``cartier``: every F_p matrix of a finite model is ``kappa_fp()`` or
    ``mult_fp(g)``."""
    return sorted(
        (module, node.lineno)
        for module, source in sources.items()
        if module not in ("fields", "cartier")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fp_blocks"
    )


def test_scanner_finds_an_fp_blocks_caller():
    sources = {
        "fields": "def f(self, d):\n    return self.fp_blocks(d)\n",
        "cartier": "b = ctx.fp_blocks(d, kind)\n",
        "ie": "m = model.mult_fp(t)\nb = g(ctx.fp_blocks)\n"
              "b = ring.ctx.fp_blocks(\n    d)\n",
        "gamma": "def f(ctx, d):\n    return ctx.fp_blocks(d).T\n",
    }
    assert fp_blocks_callers(sources) == [("gamma", 2), ("ie", 3)]


def test_only_fields_and_cartier_call_fp_blocks():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert fp_blocks_callers(sources) == []


SPAN_BUILDERS = frozenset({"hnf_extend", "in_span"})


def _is_relation_hnf(node):
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "relation_hnf"
    )


def _scopes(tree):
    """(name, node) of each module-level function and class method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{item.name}", item
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt


def relation_span_builders(sources):
    """(module, function, line) of each call of a name in SPAN_BUILDERS in
    ``sources`` ({module: source text}) outside the module ``submodules``
    that takes ``<expr>.relation_hnf()`` as an argument, or a name that
    its function, nested functions included, binds to one: a submodule's
    span and nonzero rows have one builder, ``Presentation``."""
    found = []
    for module, source in sources.items():
        if module == "submodules":
            continue
        for name, fn in _scopes(ast.parse(source)):
            bound = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    pairs = []
                    for target in node.targets:
                        if isinstance(target, ast.Tuple) and isinstance(
                            node.value, ast.Tuple
                        ):
                            pairs.extend(zip(target.elts, node.value.elts))
                        else:
                            pairs.append((target, node.value))
                elif isinstance(node, ast.NamedExpr):
                    pairs = [(node.target, node.value)]
                else:
                    continue
                bound.update(
                    target.id for target, value in pairs
                    if isinstance(target, ast.Name) and _is_relation_hnf(value)
                )
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called not in SPAN_BUILDERS:
                    continue
                args = node.args + [kw.value for kw in node.keywords]
                if any(
                    _is_relation_hnf(arg)
                    or (isinstance(arg, ast.Name) and arg.id in bound)
                    for arg in args
                ):
                    found.append((module, name, node.lineno))
    return sorted(found)


def test_scanner_finds_a_relation_span_builder():
    sources = {
        "submodules": "def span(self, rows):\n"
                      "    return hnf_extend(self.relation_hnf(), rows)\n",
        "cartier": "def chain(m, rows):\n"
                   "    ring, rel = m.ring, m.relation_hnf()\n"
                   "    def step(v):\n"
                   "        return in_span(v, rel, ring)\n"
                   "    return submodules.hnf_extend(m.relation_hnf(), rows)\n",
        "ie": "class Lattice:\n"
              "    def rows(self):\n"
              "        other = self.span\n"
              "        in_span(self.v, other, self.ring)\n"
              "        return in_span(self.v, hnf=self.q.relation_hnf())\n",
    }
    assert relation_span_builders(sources) == [
        ("cartier", "chain", 4), ("cartier", "chain", 5),
        ("ie", "Lattice.rows", 5),
    ]


def test_only_presentation_builds_spans_on_the_relations():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert relation_span_builders(sources) == []
