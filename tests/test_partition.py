"""The two partition primitives of ``etd.cmap``: ``perm_orbits`` and
``DisjointSets``, checked against networkx, plus a guard that no other
module grows its own union-find or orbit walk."""

import ast
import pathlib
import random

import pytest

import etd
from etd.cmap import DisjointSets, perm_orbits


def _random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def _classes_by_least(parts):
    """The parts as sorted lists, ordered by least element."""
    return sorted(sorted(c) for c in parts)


@pytest.mark.parametrize("seed", range(40))
def test_perm_orbits_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randrange(0, 30)
    perms = [_random_perm(rng, n) for _ in range(rng.randrange(1, 4))]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((x, p[x]) for p in perms for x in range(n))
    orbit_id, orbits = perm_orbits(n, perms)
    assert [sorted(o) for o in orbits] == _classes_by_least(nx.connected_components(g))
    assert [o[0] for o in orbits] == [min(o) for o in orbits]
    assert all(orbit_id[x] == k for k, o in enumerate(orbits) for x in o)


@pytest.mark.parametrize("seed", range(20))
def test_perm_orbits_of_one_permutation_keep_cycle_order(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    p = _random_perm(rng, n)
    _, orbits = perm_orbits(n, (p,))
    for o in orbits:
        assert o[0] == min(o)
        assert [p[x] for x in o] == o[1:] + o[:1]


@pytest.mark.parametrize("seed", range(40))
def test_disjoint_sets_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 2 * n))]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    sets = DisjointSets(n)
    for a, b in pairs:
        assert sets.union(a, b) == (not nx.has_path(g, a, b))
        g.add_edge(a, b)
    # find(x) is the least element of x's class
    roots = sorted({sets.find(x) for x in range(n)})
    assert [[x for x in range(n) if sets.find(x) == r] for r in roots] == _classes_by_least(
        nx.connected_components(g)
    )
    assert all(sets.find(a) == sets.find(b) for a, b in pairs)


def test_empty_partitions():
    assert perm_orbits(0, ()) == ([], [])
    assert perm_orbits(0, ([],)) == ([], [])


def test_one_union_find_and_one_orbit_walk():
    """Connectivity goes through cmap.DisjointSets and cmap.perm_orbits:
    no module under etd defines its own find, union or _orbits."""
    src = pathlib.Path(etd.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "cmap.py":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "DisjointSets":
                    allowed = {id(f) for f in node.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in ("find", "union", "_orbits")
                and id(node) not in allowed
            ):
                found.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert found == []


def _inversions(tree):
    """The assignments in ``tree`` that invert a permutation: ``inv[p[i]] =
    i``, or ``inv[x] = i`` in a loop ``for i, x in enumerate(p)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            target = node.targets[0]
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Subscript)
                and isinstance(target.slice.slice, ast.Name)
                and target.slice.slice.id == node.value.id
            ):
                found.append(node)
        if (
            isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", None) == "enumerate"
            and isinstance(node.target, ast.Tuple)
            and len(node.target.elts) == 2
            and all(isinstance(e, ast.Name) for e in node.target.elts)
        ):
            i, x = (e.id for e in node.target.elts)
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.targets[0], ast.Subscript)
                    and getattr(stmt.targets[0].slice, "id", None) == x
                    and getattr(stmt.value, "id", None) == i
                ):
                    found.append(stmt)
    return found


def test_one_permutation_inverse():
    """Permutations are inverted by cmap.inverse alone: no other code
    under etd fills an inverse array by hand."""
    src = pathlib.Path(etd.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "cmap.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "inverse":
                    allowed = {id(n) for n in ast.walk(node)}
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in _inversions(tree)
            if id(node) not in allowed
        ]
    assert found == []


def test_inversion_guard_sees_both_forms():
    tree = ast.parse(
        "def f(p):\n"
        "    inv = [0] * len(p)\n"
        "    for d in range(len(p)):\n"
        "        inv[p[d]] = d\n"
        "    for i, x in enumerate(p):\n"
        "        inv[x] = i\n"
        "    inv[p[0]] = 1\n"
    )
    assert sorted(node.lineno for node in _inversions(tree)) == [4, 6]
