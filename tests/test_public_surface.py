"""A guard on the public surface of etd: every public top-level function
and class, and every public method of a public class, is referenced by
name from another place in etd or from bench/*.py.  A name that only
tests reach is either wired to a verb or deleted.

References are matched by name alone: a read of the name or of an
attribute so named, an imported name, or a string constant equal to it
(``getattr`` in bench/tracing.py).  So a method that shares its name
with a reached one passes unseen, and a definition's references to
itself do not count."""

import ast
import pathlib

import etd

ROOT = pathlib.Path(__file__).parent.parent

# Reached only from tests, kept for the equivariant census of ROADMAP
# item 3, which reports them for every subgroup of Aut.
ALLOWED = {
    "symmetry.singular_locus",  # item 3: cone orders and hyperelliptic involutions
    "symmetry.is_equivalent_action",  # item 3: subgroups up to conjugacy
    "invariants.pu3_parameters",  # item 3: linear actions on CP^2 (with PolyhedralGraphData)
    "invariants.free_action_genus_bound",  # item 3: the genus bound of a free action
}


def definitions(tree):
    """(qualified name, node) of each public top-level function or class
    in ``tree``, and of each public method of a public class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    ("%s.%s" % (node.name, f.name), f)
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not f.name.startswith("_")
                ]
    return out


def references(tree):
    """Each name ``tree`` refers to, once per reference."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
    return out


def unreached(modules):
    """The qualified names, as ``module.name``, that ``modules`` (label
    -> tree; etd modules are the ones defining names) define and refer
    to nowhere outside their own definition."""
    count = {}
    for tree in modules.values():
        for name in references(tree):
            count[name] = count.get(name, 0) + 1
    out = []
    for label, tree in modules.items():
        if not label.startswith("etd."):
            continue
        for qualified, node in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if count.get(name, 0) == references(node).count(name):
                out.append("%s.%s" % (label[len("etd.") :], qualified))
    return out


def sources():
    paths = sorted(pathlib.Path(etd.__file__).parent.glob("*.py"))
    modules = {"etd." + p.stem: ast.parse(p.read_text(), str(p)) for p in paths}
    for p in sorted((ROOT / "bench").glob("*.py")):
        modules["bench/" + p.name] = ast.parse(p.read_text(), str(p))
    return modules


def test_every_public_name_is_reached():
    found = set(unreached(sources()))
    assert sorted(found - ALLOWED) == [], "reached only from tests: reach them or delete them"
    assert sorted(ALLOWED - found) == [], "reached now: take them off ALLOWED"


def test_surface_guard_sees_every_form():
    modules = {
        "etd.a": ast.parse(
            "def used():\n"
            "    pass\n"
            "def tested_only():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def looked_up():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class Shape:\n"
            "    def area(self):\n"
            "        pass\n"
            "    def perimeter(self):\n"
            "        return self.perimeter()\n"
            "    def _helper(self):\n"
            "        pass\n"
            "class Unused:\n"
            "    pass\n"
            "class _Hidden:\n"
            "    def method(self):\n"
            "        pass\n"
        ),
        "etd.b": ast.parse("from .a import used\nUnused = Shape()\nShape().area()\n"),
        "bench/c.py": ast.parse("getattr(a, 'looked_up')()\n"),
    }
    assert unreached(modules) == [
        "a.tested_only", "a.recursive", "a.Shape.perimeter", "a.Unused"
    ]
