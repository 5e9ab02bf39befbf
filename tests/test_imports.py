"""Every name a ``relbound`` module imports is used there.

The check parses each module with the standard library's ``ast`` and
needs no linter. An import meant only to re-export a name says so on its
own line with ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relbound"
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
