"""``cmap.spanning_forest`` (of the graph and of its dual) and its
users, checked against test-only copies of the hand-rolled trees they
replaced: the breadth-first forest of ``H1Frame`` and the union-find
forest of ``diagram._shadow_cycles``.  Then a differential oracle for
branched covers: ``expected_lift_parameters`` against the built cover,
on seeded random gauge transforms of the Q8 voltages and of their images
in small cyclic and dihedral groups, and the cover against the one of
the voltages gauge-fixed on a spanning tree."""

import random
import warnings
from itertools import combinations

import pytest

from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, natural_genus1, q8_reductions
from etd.cmap import DisjointSets, spanning_forest
from etd.cover import (
    VoltageAssignment,
    derived_cover,
    expected_lift_parameters,
    reduce_voltages,
)
from etd.diagram import _curves, _edge_cycle, family_cycles, shadow
from etd.groups import GroupError, cyclic, dihedral, hom_from_generator_images
from etd.invariants import cokernel, h1_frame
from test_cover import component_diagrams

# ---------------------------------------------------------------------------
# the replaced code, kept as reference copies


def old_col_of(m):
    """``H1Frame.col_of`` from its own level-by-level BFS."""
    ep, vertex_of, edge_of = m.edge_pairing, m.vertex_of, m.edge_of
    verts = m.vertices()
    in_tree = [False] * len(m.edges())
    seen = [False] * len(verts)
    for root in range(len(verts)):
        if seen[root]:
            continue
        seen[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for x in m.orbit(verts[u]):
                    w = vertex_of[ep[x]]
                    if not seen[w]:
                        seen[w] = True
                        in_tree[edge_of[x]] = True
                        nxt.append(w)
            frontier = nxt
    col_of, n_cols = [], 0
    for t in in_tree:
        col_of.append(-1 if t else n_cols)
        n_cols += not t
    return col_of


def old_spanning_tree_normalize(d, va):
    """Gauge-fix so that the darts of a breadth-first spanning tree carry
    the identity; meridians are conjugated accordingly."""
    va = va.validated(d)
    g = va.group
    m = d.surface
    pot = {}
    root = m.vertices()[0]
    pot[root] = g.identity
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for x in m.orbit(u):
                wvert = m.cell_of("vertex", m.edge_pairing[x])
                if wvert not in pot:
                    pot[wvert] = g.mul(pot[u], g.inv(va.voltage[x]))
                    nxt.append(wvert)
        frontier = nxt
    new_volt = {}
    for x in range(m.n_darts):
        tail = m.cell_of("vertex", x)
        head = m.cell_of("vertex", m.edge_pairing[x])
        new_volt[x] = g.mul(pot[head], g.mul(va.voltage[x], g.inv(pot[tail])))
    new_mer = {v: g.mul(pot[v], g.mul(w, g.inv(pot[v]))) for v, w in va.meridians.items()}
    return VoltageAssignment(g, new_volt, new_mer).validated(d)


def old_shadow_cycles(d, i):
    m = d.surface
    sub = sorted({m.edges()[m.edge_of[x]] for x in d.darts_of_color(shadow(i))},
                 key=lambda c: c.dart)
    forest = DisjointSets(len(m.vertices()))
    extra = []
    tree_at = {}
    for c in sub:
        tail = m.vertex_of[c.dart]
        head = m.vertex_of[m.edge_pairing[c.dart]]
        if not forest.union(tail, head):
            extra.append((c, tail, head))
        else:
            tree_at.setdefault(tail, []).append((c.dart, head))
            tree_at.setdefault(head, []).append((m.edge_pairing[c.dart], tail))
    out = []
    for c, tail, head in extra:
        prev = {head: None}
        frontier = [head]
        while frontier and tail not in prev:
            nxt = []
            for u in frontier:
                for x, w in tree_at.get(u, ()):
                    if w not in prev:
                        prev[w] = (u, x)
                        nxt.append(w)
            frontier = nxt
        path = [c.dart]
        v = tail
        while prev[v] is not None:
            u, x = prev[v]
            path.append(x)
            v = u
        out.append(_edge_cycle(m, path))
    return out


# ---------------------------------------------------------------------------
# the diagrams


@pytest.fixture(scope="module")
def q8():
    base, reductions = q8_reductions()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lifts = {label: derived_cover(base.diagram, va).diagram for label, va, _ in reductions}
    return base.diagram, reductions, lifts


@pytest.fixture(scope="module")
def diagrams(q8):
    out = {name: entry(name).diagram for name in STANDARD_NAMES + FROZEN_NAMES}
    out.update(("natural_genus1(%d)" % m, natural_genus1(m).diagram) for m in range(2, 6))
    out.update(("lift:" + label, lift) for label, lift in q8[2].items())
    return out


def test_h1_columns_match_the_old_forest(diagrams):
    # the H1 frame's primal forest is the old one; its cotree then takes
    # one old column per face beyond the first of each component, which
    # leaves 2g columns
    for name, d in diagrams.items():
        m = d.surface
        old = old_col_of(m)
        tree = {m.edge_of[x] for x in spanning_forest(m)[0] if x >= 0}
        assert tree == {j for j, c in enumerate(old) if c < 0}, name
        frame = h1_frame(m)
        n_old = sum(c >= 0 for c in old)
        assert frame.rank == n_old - (len(m.faces()) - len(m.components())), name
        assert frame.rank == 2 * m.genus(), name
        assert all(not frame.coords[j] for j in tree), name


def test_shadow_cycles_span_the_old_lattice(diagrams):
    for name, d in diagrams.items():
        frame = h1_frame(d.surface)
        for i in (1, 2, 3):
            new = family_cycles(d, i)
            curves = [_edge_cycle(d.surface, c) for c in _curves(d, i)]
            assert len(new) == len(curves) + len(old_shadow_cycles(d, i)), (name, i)
        for k in (1, 2, 3):
            for fams in combinations((1, 2, 3), k):
                new = [c for i in fams for c in family_cycles(d, i)]
                old = [
                    c
                    for i in fams
                    for c in [_edge_cycle(d.surface, x) for x in _curves(d, i)]
                    + old_shadow_cycles(d, i)
                ]
                assert cokernel(frame.rank, [frame.project(c) for c in new]) == cokernel(
                    frame.rank, [frame.project(c) for c in old]
                ), (name, fams)


def test_lifts_have_shadow_cycles(q8):
    # the full lift merges arcs through its branch points: 24 cycles per family
    lift = q8[2]["q8"]
    assert [len(family_cycles(lift, i)) - len(_curves(lift, i)) for i in (1, 2, 3)] == [24] * 3


# ---------------------------------------------------------------------------
# spanning_forest itself


def _forest_cases(diagrams):
    for name, d in diagrams.items():
        m = d.surface
        for dual in (False, True):
            yield name, m, None, dual
            for c in sorted({c for c in d.dart_colors}, key=str):
                yield "%s/%s" % (name, c), m, d.darts_of_color(c), dual


def test_spanning_forest_is_a_forest(diagrams):
    # of the graph (nodes are vertices) and of the dual graph (faces)
    nx = pytest.importorskip("networkx")
    for name, m, darts, dual in _forest_cases(diagrams):
        ep = m.edge_pairing
        node_of = m.face_of if dual else m.vertex_of
        n_nodes = len(m.faces() if dual else m.vertices())
        parent, order = spanning_forest(m, darts, dual=dual)
        use = range(m.n_darts) if darts is None else darts
        g = nx.MultiGraph()
        g.add_nodes_from(range(n_nodes) if darts is None else {node_of[x] for x in use})
        g.add_edges_from((node_of[x], node_of[ep[x]]) for x in use if x < ep[x])
        assert sorted(order) == sorted(g.nodes), name
        position = {v: k for k, v in enumerate(order)}
        in_darts = set(use)
        tree_edges = 0
        for v in range(n_nodes):
            x = parent[v]
            if x < 0:
                continue
            tree_edges += 1
            assert x in in_darts, name
            assert node_of[ep[x]] == v, name
            assert position[node_of[x]] < position[v], name
        assert tree_edges == g.number_of_nodes() - nx.number_connected_components(g), name
        # roots by ascending vertex index, one per component
        roots = [v for v in order if parent[v] < 0]
        assert roots == sorted(min(c) for c in nx.connected_components(g)), name


def test_spanning_forest_on_no_darts(diagrams):
    m = diagrams["cp2"].surface
    assert spanning_forest(m, []) == ([-1] * len(m.vertices()), [])


# ---------------------------------------------------------------------------
# lift oracle: Riemann-Hurwitz against the built cover


def _gauge(rng, d, va):
    """``va`` transformed by random vertex potentials p: dart x gets
    p(head) v(x) p(tail)^-1, a meridian at v gets p(v) w p(v)^-1."""
    g = va.group
    m = d.surface
    pot = [rng.choice(g.elements) for _ in m.vertices()]
    vo = m.vertex_of
    volt = {
        x: g.mul(pot[vo[m.edge_pairing[x]]], g.mul(w, g.inv(pot[vo[x]])))
        for x, w in va.voltage.items()
    }
    mer = {v: g.mul(pot[vo[v.dart]], g.mul(w, g.inv(pot[vo[v.dart]]))) for v, w in va.meridians.items()}
    return VoltageAssignment(g, volt, mer)


def _oracle_cases():
    base, reductions = q8_reductions()
    rng = random.Random(17)
    d = base.diagram
    q8 = reductions[-1][1]
    cases = [(label, va) for label, va, _ in reductions]
    for target in (cyclic(2), cyclic(4), dihedral(2), dihedral(4)):
        # the first three random pairs of generator images that extend to
        # a homomorphism from Q8
        pairs = [(a, b) for a in target.elements for b in target.elements]
        rng.shuffle(pairs)
        found = 0
        for a, b in pairs:
            images = {"i": a, "j": b}
            try:
                hom = hom_from_generator_images(q8.group, target, images)
            except GroupError:
                continue
            cases.append(("%s: %s" % (target.name, images), reduce_voltages(q8, target, hom)))
            found += 1
            if found == 3:
                break
    return d, [(label, _gauge(rng, d, va)) for label, va in cases]


ORACLE_BASE, ORACLE_CASES = _oracle_cases()


def test_oracle_reaches_every_target():
    names = {label.split(":")[0] for label, _ in ORACLE_CASES}
    assert {cyclic(2).name, cyclic(4).name, dihedral(2).name, dihedral(4).name} <= names
    assert len(ORACLE_CASES) == 5 + 4 * 3


@pytest.mark.parametrize("k", range(len(ORACLE_CASES)))
def test_lift_matches_riemann_hurwitz(k):
    label, va = ORACLE_CASES[k]
    d = ORACLE_BASE
    g = va.group
    genus, counts = expected_lift_parameters(d, va)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = derived_cover(d, va)
        fixed = derived_cover(d, old_spanning_tree_normalize(d, va))
    m = res.diagram.surface
    defect = sum(len(g) - len(g) // g.element_order(w) for w in va.validated(d).meridians.values())
    assert m.euler_characteristic() == len(g) * d.surface.euler_characteristic() - defect, label
    if res.n_components == 1:
        assert m.genus() == genus, label
    assert {b.base_vertex: b.lift_count for b in res.branch_points} == counts, label
    # the gauge-fixed voltages give the same cover, colors and marks included
    codes = [sorted(c.canonical() for c in component_diagrams(r)) for r in (res, fixed)]
    assert codes[0] == codes[1], label
