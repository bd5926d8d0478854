"""A guard that every module under etd and every test module uses each
name it imports."""

import ast
import pathlib

import etd

TESTS = pathlib.Path(__file__).parent
SOURCES = sorted(pathlib.Path(etd.__file__).parent.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(tree):
    """(line, name) of each name imported in ``tree`` and never read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in SOURCES
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_unused_import_guard_sees_every_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b\n"
        "from c import d as e, f\n"
        "def g(x: f):\n"
        "    return a.b\n"
    )
    assert unused_imports(tree) == [(2, "os"), (4, "e")]
