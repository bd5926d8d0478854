"""A guard on the public surface of etd: every public top-level function
and class, and every public method of a public class, is referenced by
name from another place in etd or from bench/*.py.  A name that only
tests reach is either wired to a verb or deleted.

References are matched by name alone.  A top-level name is reached by a
read of the name or of an attribute so named, or by an imported name; a
method only by a read of an attribute so named.  A string constant in
bench/*.py counts as an attribute read (``getattr`` in bench/tracing.py);
one inside etd, such as a cache key, does not.  So a method that shares
its name with a reached attribute, such as a field of another class,
passes unseen, and a definition's references to itself do not count."""

import ast
import pathlib

import etd

ROOT = pathlib.Path(__file__).parent.parent

# Reached only from tests, kept for the equivariant census of ROADMAP
# item 7, which reports them for every subgroup of Aut.
ALLOWED = {
    "symmetry.singular_locus",  # cone orders and hyperelliptic involutions
    "symmetry.is_equivalent_action",  # subgroups up to conjugacy
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


def references(tree, strings=False):
    """The names ``tree`` reads as names and the names it reads as
    attributes, once per reference; with ``strings``, each string
    constant counts as an attribute read."""
    names, attributes = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.append(node.value)
    return names, attributes


def unreached(modules):
    """The qualified names, as ``module.name``, that ``modules`` (label
    -> tree; etd modules are the ones defining names, bench/ modules the
    ones whose strings count) define and refer to nowhere outside their
    own definition."""
    names, attributes = {}, {}
    for label, tree in modules.items():
        for count, found in zip((names, attributes), references(tree, label.startswith("bench/"))):
            for name in found:
                count[name] = count.get(name, 0) + 1
    out = []
    for label, tree in modules.items():
        if not label.startswith("etd."):
            continue
        for qualified, node in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            own_names, own_attributes = references(node)
            reached = attributes.get(name, 0) - own_attributes.count(name)
            if "." not in qualified:
                reached += names.get(name, 0) - own_names.count(name)
            if not reached:
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
            "    def scale(self):\n"
            "        pass\n"
            "    def labels(self):\n"
            "        pass\n"
            "    def looked_up_method(self):\n"
            "        pass\n"
            "class Unused:\n"
            "    pass\n"
            "class _Hidden:\n"
            "    def method(self):\n"
            "        pass\n"
        ),
        # a string inside etd (a cache key) does not reach a method
        "etd.b": ast.parse(
            "from .a import used\nUnused = Shape()\nShape().area()\ncache = {'labels': None}\n"
        ),
        # a function named like a method does not reach the method
        "bench/c.py": ast.parse(
            "def scale():\n"
            "    pass\n"
            "scale()\n"
            "getattr(a, 'looked_up')()\n"
            "getattr(a, 'looked_up_method')()\n"
        ),
    }
    assert unreached(modules) == [
        "a.tested_only", "a.recursive", "a.Shape.perimeter", "a.Shape.scale", "a.Shape.labels",
        "a.Unused",
    ]
