"""Every name a ``relbound`` module imports is used there, and every
private name a module defines is read somewhere in the package.

The checks parse each module with the standard library's ``ast`` and
need no linter. An import meant only to re-export a name says so on its
own line with ``# noqa: F401``, and is kept only for a binding that
``benchmark/spans.py`` wraps by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relbound"
SPANS = ROOT / "benchmark" / "spans.py"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, nor lists in
    ``__all__``, except those on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        name
        for name, lineno in imported.items()
        if name not in used and "# noqa: F401" not in lines[lineno - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom json import dumps  # noqa: F401\n"
    assert unused_imports(source + "print(sep)\n") == ["math", "path"]
    assert unused_imports(source + "__all__ = ['math', 'path', 'sep']\n") == []


def noqa_bindings(module: str, source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for every name ``source`` imports on a line
    marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [
        (module, alias.asname or alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def span_bindings(source: str) -> set[tuple[str, str]]:
    """The ``(module, "name")`` pairs in the ``TARGETS`` dict of a source
    laid out as ``benchmark/spans.py``, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                (pair.elts[0].id, pair.elts[1].value)
                for pair in ast.walk(node.value)
                if isinstance(pair, ast.Tuple)
                and len(pair.elts) == 2
                and isinstance(pair.elts[0], ast.Name)
                and isinstance(pair.elts[1], ast.Constant)
            }
    raise AssertionError("no TARGETS assignment")


def test_every_noqa_binding_is_wrapped_by_spans():
    # a binding kept for the benchmark's spans goes once they stop naming it
    bindings = [pair for path in MODULES for pair in noqa_bindings(path.stem, path.read_text())]
    assert bindings
    assert set(bindings) <= span_bindings(SPANS.read_text())


def test_binding_checkers():
    source = "from .a import f, g  # noqa: F401\nfrom .b import h as k  # noqa: F401\nimport x\n"
    assert noqa_bindings("m", source) == [("m", "f"), ("m", "g"), ("m", "k")]
    spans = "T = {1: [(m, 'f')]}\nTARGETS = {'s': ([(m, 'f'), (n, 'g')], None)}\n"
    assert span_bindings(spans) == {("m", "f"), ("n", "g")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every module-level private name (a ``_x``
    function, class or assignment) in ``sources`` that no source reads:
    as a loaded name, an attribute or a name imported from a module."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_no_orphaned_private_name():
    # reads by the tests do not count: a helper only they call is dead code
    sources = {path.stem: path.read_text() for path in MODULES}
    assert orphaned_private_names(sources) == []


def test_checker_flags_an_orphaned_private_name():
    sources = {
        "a": "_TOL = 1.0\n_x, y = 1, 2\n\ndef _f():\n    pass\n\nclass _C:\n    pass\n",
        "b": "from .a import _f\n\ndef g(m):\n    return _f() or m._C or __name__\n",
    }
    assert orphaned_private_names(sources) == ["a._TOL", "a._x"]
