"""Derived diagrams pull their per-dart colors and marks back along a
dart map.  Each site is compared with a test-only copy of the edge-dict
construction it replaced, which named every edge and vertex of the new
map through ``cell_of``; the two must give the same ``dart_colors`` and
``marked``.  Also: the checks of ``ShadowDiagram.from_darts``, the one
strand walk ``color_components``, and the one angle ordering
``rotation_by_angle``."""

import functools
import math
import warnings

import pytest

from etd.catalog import (
    FROZEN_NAMES,
    STANDARD_NAMES,
    _grid_torus,
    entry,
    mirror,
    natural_genus1,
    q8_reductions,
)
from etd.cmap import CombMap, DisjointSets, subdivide_edges
from etd.cover import derived_cover, reduce_voltages
from etd.diagram import (
    SCAFFOLD,
    DiagramError,
    ShadowDiagram,
    alpha,
    color_components,
    shadow,
)
from etd.groups import cyclic, hom_from_generator_images
from etd.planar import PlanarError, rotation_by_angle
from etd.quotient import _subdivided_diagram, demoted_diagram, folded_curve_edges, quotient
from etd.surgery import tube
from test_cover import component_diagrams

NAMES = STANDARD_NAMES + FROZEN_NAMES


def same(d, ref):
    assert d.surface is ref.surface or (
        d.surface.edge_pairing == ref.surface.edge_pairing
        and d.surface.rotation == ref.surface.rotation
    )
    assert d.dart_colors == ref.dart_colors
    assert d.marked == ref.marked


# ---------------------------------------------------------------------------
# test-only copies of the edge-dict constructions


def dict_subdivided(d, cells):
    m2, origin = subdivide_edges(d.surface, cells)
    color = {}
    for e in m2.edges():
        color[e] = d.dart_colors[d.surface.cell_of("edge", origin[e.dart]).dart]
    marked = {m2.cell_of("vertex", v.dart) for v in d.marked}
    return ShadowDiagram(m2, color, marked)


def dict_quotient(q):
    sub_d, mq = q.source, q.diagram.surface
    m2 = sub_d.surface
    reps = {}
    for x in range(m2.n_darts):
        reps.setdefault(q.projection[x], x)
    color_q = {}
    for e in mq.edges():
        color_q[e] = sub_d.dart_colors[m2.cell_of("edge", reps[e.dart]).dart]
    marked_q = {mq.cell_of("vertex", q.projection[v.dart]) for v in sub_d.marked}
    return ShadowDiagram(mq, color_q, marked_q)


def dict_demoted(q):
    d = q.diagram
    drop = set()
    for i in (1, 2, 3):
        drop |= folded_curve_edges(d, i)
    if not drop:
        return d
    color = {e: (SCAFFOLD if e in drop else d.dart_colors[e.dart]) for e in d.surface.edges()}
    return ShadowDiagram(d.surface, color, set(d.marked))


def dict_cover(base, res):
    m, lifted, proj = base.surface, res.diagram.surface, res.projection
    color = {}
    for e in lifted.edges():
        color[e] = base.dart_colors[m.cell_of("edge", proj[e.dart][0]).dart]
    marked = set()
    marked_base = {v.dart for v in base.marked}
    for v in lifted.vertices():
        if m.cell_of("vertex", proj[v.dart][0]).dart in marked_base:
            marked.add(v)
    lift_counts = [
        len([lv for lv in lifted.vertices() if m.cell_of("vertex", proj[lv.dart][0]) == bp.base_vertex])
        for bp in res.branch_points
    ]
    return ShadowDiagram(lifted, color, marked), lift_counts


def dict_components(res):
    m = res.diagram.surface
    out = []
    for comp in m.components():
        darts = sorted(comp)
        index = {x: i for i, x in enumerate(darts)}
        ep = [index[m.edge_pairing[x]] for x in darts]
        rot = [index[m.rotation[x]] for x in darts]
        sub = CombMap(len(darts), ep, rot)
        color = {}
        for e in sub.edges():
            color[e] = res.diagram.dart_colors[m.cell_of("edge", darts[e.dart]).dart]
        marked = {
            sub.cell_of("vertex", index[v.dart]) for v in res.diagram.marked if v.dart in index
        }
        out.append(ShadowDiagram(sub, color, marked))
    return out


def dict_tube(d1, d2, m):
    m1, m2 = d1.surface, d2.surface
    n1, n2 = m1.n_darts, m2.n_darts
    color = {}
    for e in m.edges():
        x = e.dart
        if x < n1:
            color[e] = d1.dart_colors[m1.cell_of("edge", x).dart]
        elif x < n1 + n2:
            color[e] = d2.dart_colors[m2.cell_of("edge", x - n1).dart]
        else:
            color[e] = SCAFFOLD
    marked = {m.cell_of("vertex", v.dart) for v in d1.marked}
    marked |= {m.cell_of("vertex", v.dart + n1) for v in d2.marked}
    return ShadowDiagram(m, color, marked)


def dict_mirror(d, m2):
    return ShadowDiagram(m2, {e: d.dart_colors[e.dart] for e in d.surface.edges()}, set(d.marked))


# ---------------------------------------------------------------------------
# cases


@functools.lru_cache(maxsize=None)
def q8_covers():
    base_entry, reds = q8_reductions()
    va = base_entry.voltages
    trivial = hom_from_generator_images(va.group, cyclic(2), {"i": 0, "j": 0})
    reds = reds + [("disconnected", reduce_voltages(va, cyclic(2), trivial), None)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return base_entry.diagram, [(label, derived_cover(base_entry.diagram, v)) for label, v, _ in reds]


def quotient_cases():
    for m in (4, 6):
        e = natural_genus1(m)
        tx, ty = (e.action.generators[e.action.names.index(n)] for n in ("tx", "ty"))
        yield "natural_genus1(%d)/<tx,ty>" % m, quotient(e.diagram, e.action, [tx, ty])
    for name in NAMES:
        e = entry(name)
        if e.action is not None:
            yield name, quotient(e.diagram, e.action)


QUOTIENTS = list(quotient_cases())


def theta_sphere():
    m = CombMap(6, [1, 0, 3, 2, 5, 4], [2, 5, 4, 1, 0, 3])
    color = {m.cell_of("edge", x): shadow(x // 2 + 1) for x in (0, 2, 4)}
    return ShadowDiagram(m, color, [m.cell_of("vertex", 0), m.cell_of("vertex", 1)])


# ---------------------------------------------------------------------------
# the comparisons


def test_covers_pull_back_along_the_sheet_map():
    base, covers = q8_covers()
    assert max(res.diagram.surface.n_darts for _, res in covers) == 1712
    for label, res in covers:
        ref, lift_counts = dict_cover(base, res)
        same(res.diagram, ref)
        assert [bp.lift_count for bp in res.branch_points] == lift_counts, label


def test_component_diagrams_pull_back_along_the_inclusions():
    _, covers = q8_covers()
    for label, res in covers:
        comps = component_diagrams(res)
        assert len(comps) == res.n_components
        for d, ref in zip(comps, dict_components(res)):
            same(d, ref)
    assert [res.n_components for label, res in covers if label == "disconnected"] == [2]


@pytest.mark.parametrize("name, q", QUOTIENTS, ids=[n for n, _ in QUOTIENTS])
def test_quotients_pull_back_along_the_orbit_map(name, q):
    same(q.diagram, dict_quotient(q))
    same(demoted_diagram(q), dict_demoted(q))


@pytest.mark.parametrize("name", NAMES + ("natural_genus1(m=3)",))
def test_subdivision_pulls_back_along_the_origin_map(name):
    d = entry(name).diagram
    for cells in (d.surface.edges()[::2], d.surface.edges()[1::3], []):
        got = _subdivided_diagram(d, cells)
        same(got, dict_subdivided(d, cells))


@pytest.mark.parametrize("name", NAMES)
def test_mirror_and_prune_pull_back(name):
    d = entry(name).diagram
    got = mirror(d)
    same(got, dict_mirror(d, got.surface))


def test_tubes_pull_back_along_the_two_inclusions():
    theta = theta_sphere()
    recolored = ShadowDiagram.from_darts(
        theta.surface, [shadow(3)] * 2 + [shadow(1)] * 2 + [SCAFFOLD] * 2, [2]
    )
    pairs = [(theta, theta_sphere()), (theta, recolored), (recolored, theta)]
    torus = natural_genus1(2).diagram
    pairs.append((torus, mirror(torus)))
    for d1, d2 in pairs:
        faces2 = d2.surface.faces()
        for f1 in d1.surface.faces()[:3]:
            L = len(d1.surface.orbit(f1))
            f2 = next(f for f in faces2 if len(d2.surface.orbit(f)) == L)
            got, shift = tube(d1, f1, d2, f2)
            assert shift == d1.surface.n_darts
            same(got, dict_tube(d1, d2, got.surface))


# ---------------------------------------------------------------------------
# from_darts


def test_from_darts_rejects_an_edge_whose_darts_differ():
    m = theta_sphere().surface
    colors = [shadow(1), shadow(1), shadow(2), shadow(3), shadow(3), shadow(3)]
    with pytest.raises(DiagramError, match="dart 2 and its edge partner 3 differ in color"):
        ShadowDiagram.from_darts(m, colors)


def test_from_darts_checks():
    m = theta_sphere().surface
    ok = [shadow(x // 2 + 1) for x in range(6)]
    d = ShadowDiagram.from_darts(m, ok, [0, 1, 4])
    same(d, theta_sphere())
    for bad in ("shadow3", 7, -1, 255, None):
        with pytest.raises(DiagramError, match="Color values"):
            ShadowDiagram.from_darts(m, ok[:4] + [bad] * 2)
    with pytest.raises(DiagramError, match="5 dart colors for 6 darts"):
        ShadowDiagram.from_darts(m, ok[:5])
    for bad in (6, -1, None):
        with pytest.raises(DiagramError, match="marked dart"):
            ShadowDiagram.from_darts(m, ok, [bad])


def test_init_keeps_its_checks():
    m = theta_sphere().surface
    with pytest.raises(DiagramError, match="unknown edge"):
        ShadowDiagram(m, {m.cell_of("vertex", 0): alpha(1)})
    for bad in ("alpha1", 7, -1, 255, None):
        with pytest.raises(DiagramError, match="Color values"):
            ShadowDiagram(m, {m.cell_of("edge", 0): bad})
    with pytest.raises(DiagramError, match="is not a vertex"):
        ShadowDiagram(m, {}, [m.cell_of("edge", 0)])


# ---------------------------------------------------------------------------
# one strand walk


def chained_components(d, c):
    """The strand walk as it was written twice before: darts joined along
    edges and, in order, to the next dart at the same vertex."""
    m = d.surface
    darts = d.darts_of_color(c)
    sets = DisjointSets(m.n_darts)
    at_vertex = {}
    for x in darts:
        sets.union(x, m.edge_pairing[x])
        at_vertex.setdefault(m.vertex_of[x], []).append(x)
    for ds in at_vertex.values():
        for a, b in zip(ds, ds[1:]):
            sets.union(a, b)
    comps = {}
    for x in darts:
        comps.setdefault(sets.find(x), []).append(x)
    odd = {sets.find(ds[0]) for ds in at_vertex.values() if len(ds) % 2}
    folded = {m.cell_of("edge", x) for x in darts if sets.find(x) in odd}
    return list(comps.values()), folded


def test_color_components_match_the_chained_walk():
    diagrams = [entry(n).diagram for n in NAMES] + [q.diagram for _, q in QUOTIENTS]
    diagrams += [res.diagram for _, res in q8_covers()[1]]
    for d in diagrams:
        for i in (1, 2, 3):
            for c in (alpha(i), shadow(i)):
                comps, folded = chained_components(d, c)
                assert color_components(d, c) == comps
                if c == alpha(i):
                    assert folded_curve_edges(d, i) == folded


# ---------------------------------------------------------------------------
# one angle ordering


def atan2_rotation(n, dart_point, dart_dir):
    at_point = {}
    for x in range(n):
        at_point.setdefault(dart_point[x], []).append(x)
    rot = [0] * n
    for ds in at_point.values():
        ds.sort(key=lambda x: math.atan2(dart_dir[x][1], dart_dir[x][0]) % (2 * math.pi))
        for k, x in enumerate(ds):
            rot[x] = ds[(k + 1) % len(ds)]
    return rot


@pytest.mark.parametrize("m", [2, 3, 5])
def test_torus_rotation_is_counterclockwise(m):
    arr, _ = _grid_torus(m, ((1, 0), (0, 1), (1, 1)))
    n = arr.map.n_darts
    assert list(arr.map.rotation) == atan2_rotation(n, arr.dart_point, arr.dart_dir)


def test_rotation_by_angle_rejects_parallel_darts():
    points = {0: (0, 0), 1: (0, 0), 2: (0, 0)}
    with pytest.raises(PlanarError, match="parallel darts"):
        rotation_by_angle(3, points, {0: (1, 0), 1: (2, 0), 2: (0, 1)})
    dirs = {0: (1, 0), 1: (-1, 1), 2: (0, -3)}
    assert rotation_by_angle(3, points, dirs) == [1, 2, 0]
