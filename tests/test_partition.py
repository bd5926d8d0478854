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
    labels = sets.labels()
    expected = _classes_by_least(nx.connected_components(g))
    assert max(labels) + 1 == len(expected)
    assert [[x for x in range(n) if labels[x] == k] for k in range(len(expected))] == expected
    assert all(sets.find(a) == sets.find(b) for a, b in pairs)


def test_empty_partitions():
    assert perm_orbits(0, ()) == ([], [])
    assert perm_orbits(0, ([],)) == ([], [])
    assert DisjointSets(0).labels() == []


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
