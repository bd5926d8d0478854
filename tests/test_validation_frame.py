"""Differential checks of the validation path that works on per-dart
arrays and per-map and per-diagram data: the tree-cotree H1 frame behind
``surface_h1_mod`` and every curve quotient, the per-dart cell arrays of
``CombMap``, the face pass of ``CutSurface``, the shadow-arc regions
read off each family's one cut, and the per-diagram curves and cut
verdicts of ``validate_trisection``.  The references below are the plain
per-call versions, each built from the map alone: dense relation
matrices over a spanning tree of their own, cut pieces from a
union-find over faces with their own corner and boundary counts, and
cut pieces from the orbits of the face walk and the uncut pairing over
darts."""

import random

import pytest

import etd.diagram as diagram_mod
import etd.invariants as invariants_mod
from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, natural_genus1, q8_reductions
from etd.cmap import CutSurface, DisjointSets, UnknownCell, perm_orbits
from etd.cover import derived_cover
from etd.diagram import (
    SCAFFOLD,
    MalformedColoring,
    ShadowDiagram,
    _curves,
    _family_cut,
    alpha,
    color_components,
    family_cycles,
    shadow,
    validate_cut_system,
    validate_trisection,
)
from etd.invariants import (
    AbelianGroup,
    InvariantError,
    _invariant_factors_sparse,
    cokernel,
    h1_frame,
    h1_mod_curves,
    invariant_factors,
    surface_h1_mod,
)

CATALOG = STANDARD_NAMES + FROZEN_NAMES
FAMILY_SETS = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]


def _q8_lifts():
    base, reds = q8_reductions()
    return {label: derived_cover(base.diagram, va).diagram for label, va, _ in reds}


_LIFTS = {}


def q8_lift(label):
    if not _LIFTS:
        _LIFTS.update(_q8_lifts())
    return _LIFTS[label]


def _cases():
    cases = [pytest.param(lambda name=name: entry(name).diagram, id=name) for name in CATALOG]
    cases += [
        pytest.param(lambda m=m: natural_genus1(m).diagram, id="natural_genus1_%d" % m)
        for m in (2, 3, 4)
    ]
    cases += [
        pytest.param(lambda label=label: q8_lift(label), id="q8_" + label)
        for label in ("z2_i", "z2_j", "z2_ij", "z2xz2", "q8")
    ]
    return cases


# ---------------------------------------------------------------------------
# references: the per-call versions


def reference_invariant_factors_sparse(relation_rows):
    """Unit-pivot elimination from dense rows, then the dense SNF."""
    rows = {}
    col_rows = {}
    for ri, row in enumerate(relation_rows):
        r = {j: int(v) for j, v in enumerate(row) if v}
        if r:
            rows[ri] = r
            for j in r:
                col_rows.setdefault(j, set()).add(ri)
    n_unit = 0
    while True:
        pivot = None
        for ri, r in rows.items():
            for j, v in r.items():
                if v in (1, -1):
                    pivot = (ri, j, v)
                    break
            if pivot:
                break
        if pivot is None:
            break
        ri, j, v = pivot
        prow = rows.pop(ri)
        for c in prow:
            col_rows[c].discard(ri)
        for oi in list(col_rows.get(j, ())):
            orow = rows[oi]
            k = -orow[j] * v
            for c, pv in prow.items():
                nv = orow.get(c, 0) + k * pv
                if nv:
                    orow[c] = nv
                    col_rows.setdefault(c, set()).add(oi)
                else:
                    orow.pop(c, None)
                    col_rows[c].discard(oi)
            if not orow:
                del rows[oi]
        n_unit += 1
    residue = [1] * n_unit
    if rows:
        live_cols = sorted({c for r in rows.values() for c in r})
        cix = {c: i for i, c in enumerate(live_cols)}
        dense = []
        for r in rows.values():
            row = [0] * len(live_cols)
            for c, v in r.items():
                row[cix[c]] = v
            dense.append(row)
        residue.extend(invariant_factors(dense))
    return residue


def dense(m, cycles):
    """Sparse cycles {edge index: coefficient} as vectors over the edge
    basis, the form the references read."""
    return [[c.get(j, 0) for j in range(len(m.edges()))] for c in cycles]


def reference_relations(m, extra_cycles=None):
    """The dense relation matrix of H1 mod extra cycles over the non-tree
    edges of a fresh spanning tree: one row per face boundary, then one
    per extra cycle.  Returns ``(n_columns, rows)``."""
    edges = m.edges()
    verts = m.vertices()
    faces = m.faces()
    e_index = {c: i for i, c in enumerate(edges)}
    head_tail = [
        (m.cell_of("vertex", c.dart), m.cell_of("vertex", m.edge_pairing[c.dart])) for c in edges
    ]
    in_tree = [False] * len(edges)
    seen = set()
    for root in verts:
        if root in seen:
            continue
        seen.add(root)
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for x in m.orbit(u):
                    c = m.cell_of("edge", x)
                    w = m.cell_of("vertex", m.edge_pairing[x])
                    if w not in seen:
                        seen.add(w)
                        in_tree[e_index[c]] = True
                        nxt.append(w)
            frontier = nxt
    nontree = [j for j in range(len(edges)) if not in_tree[j]]
    rels = []
    for f in faces:
        row = [0] * len(edges)
        for d in m.orbit(f):
            c = m.cell_of("edge", d)
            row[e_index[c]] += 1 if d == c.dart else -1
        rels.append(row)
    for v in extra_cycles or ():
        if len(v) != len(edges):
            raise InvariantError("cycle vector length disagrees with the edge count")
        rels.append(list(v))
    for row in rels:
        bnd = {}
        for j, a in enumerate(row):
            if a:
                tail, head = head_tail[j]
                bnd[head] = bnd.get(head, 0) + a
                bnd[tail] = bnd.get(tail, 0) - a
        if any(bnd.values()):
            raise InvariantError("relation vector is not a cycle")
    return len(nontree), [[row[j] for j in nontree] for row in rels]


def reference_surface_h1_mod(m, extra_cycles=None):
    """H1 mod extra cycles from the dense relation matrix."""
    n_cols, coeffs = reference_relations(m, extra_cycles)
    facs = reference_invariant_factors_sparse(coeffs)
    return n_cols - len(facs), tuple(sorted(f for f in facs if f > 1))


def reference_cut(m, darts):
    """The cut along the edges of ``darts``, from the map alone.

    Pieces: a union-find over faces, joined across every uncut edge,
    numbered by least dart; a dart belongs to the piece of its face.
    Corners: the rotation runs at each vertex from one cut dart up to the
    next, or the whole vertex if it has none; a run lies in the piece of
    the face of its first dart.  Boundary: the cut dart ``d`` is a
    boundary edge from the run it starts to the run holding the dart just
    before ``edge_pairing[d]`` in rotation, and the circles are the
    classes of a union-find over runs along those edges.

    Returns ``(component_of, pieces)``, each piece ``(chi, circles)``
    with each circle the frozenset of its cut darts, circles sorted by
    least dart."""
    n, ep, rot = m.n_darts, m.edge_pairing, m.rotation
    cut = set()
    for d in darts:
        cut.update((d, ep[d]))
    faces = m.faces()
    parent = list(range(len(faces)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for d in range(n):
        if d not in cut:
            a, b = find(m.face_of[d]), find(m.face_of[ep[d]])
            parent[max(a, b)] = min(a, b)
    roots = sorted({find(f) for f in range(len(faces))})
    number = {r: k for k, r in enumerate(roots)}
    component_of = [number[find(m.face_of[d])] for d in range(n)]

    run_of = {}
    runs = []
    for v in m.vertices():
        orbit = m.orbit(v)
        starts = [d for d in orbit if d in cut] or orbit[:1]
        for s0 in starts:
            run = [s0]
            while rot[run[-1]] not in cut and rot[run[-1]] != s0:
                run.append(rot[run[-1]])
            for x in run:
                run_of[x] = len(runs)
            runs.append(run)
    chi = [0] * len(roots)
    for run in runs:
        chi[component_of[run[0]]] += 1
    for d in range(n):
        if d < ep[d] and d not in cut:
            chi[component_of[d]] -= 1
        if d in cut:
            chi[component_of[d]] -= 1  # one boundary edge per side
    for f in faces:
        chi[component_of[f.dart]] += 1

    ring = list(range(len(runs)))

    def find_run(x):
        while ring[x] != x:
            x = ring[x]
        return x

    before = {rot[x]: x for x in range(n)}
    for d in cut:
        a, b = find_run(run_of[d]), find_run(run_of[before[ep[d]]])
        ring[max(a, b)] = min(a, b)
    circles = {}
    for d in cut:
        circles.setdefault(find_run(run_of[d]), set()).add(d)
    pieces = [(c, []) for c in chi]
    for circle in sorted(circles.values(), key=min):
        pieces[component_of[min(circle)]][1].append(frozenset(circle))
    return component_of, pieces


# ---------------------------------------------------------------------------
# H1 frame


@pytest.mark.parametrize("build", _cases())
def test_surface_h1_mod_matches_per_call_reference(build):
    d = build()
    m = d.surface
    assert surface_h1_mod(m) == AbelianGroup(*reference_surface_h1_mod(m))
    for fams in FAMILY_SETS:
        cycles = [c for i in fams for c in family_cycles(d, i)]
        want = reference_surface_h1_mod(m, dense(m, cycles))
        frame = h1_frame(m)
        got = cokernel(frame.rank, [frame.project(c) for c in cycles])
        assert (got.rank, got.torsion) == want, fams
        assert h1_mod_curves(d, fams) == got, fams


def test_surface_h1_mod_rejects_non_cycles_on_every_call():
    d = entry("s2xs2_genus2").diagram
    m = d.surface
    cycle = family_cycles(d, 1)[0]
    broken = dict(cycle)
    del broken[min(broken)]
    for _ in range(2):
        with pytest.raises(InvariantError, match="not a cycle"):
            h1_frame(m).project(broken)
    want = reference_surface_h1_mod(m, dense(m, [cycle]))
    assert cokernel(h1_frame(m).rank, [h1_frame(m).project(cycle)]) == AbelianGroup(*want)


def _face_boundary(m, f):
    """The boundary of face ``f`` as a sparse cycle."""
    out = {}
    for x in m.orbit(f):
        j = m.edge_of[x]
        out[j] = out.get(j, 0) + (1 if x < m.edge_pairing[x] else -1)
    return out


@pytest.mark.parametrize("build", _cases())
def test_h1_frame_has_2g_columns_and_kills_every_face(build):
    m = build().surface
    frame = h1_frame(m)
    assert frame.rank == 2 * m.genus()
    assert surface_h1_mod(m) == AbelianGroup(frame.rank)
    for f in m.faces():
        assert frame.project(_face_boundary(m, f)) == {}
    assert all(c < frame.rank for coords in frame.coords for c in coords)


def _small_relation_matrices():
    out = []
    for name in CATALOG:
        d = entry(name).diagram
        m = d.surface
        if len(m.edges()) - len(m.vertices()) + 1 > 24:
            continue
        for fams in FAMILY_SETS:
            cycles = [c for i in fams for c in family_cycles(d, i)]
            _, rows = reference_relations(m, dense(m, cycles))
            out.append(pytest.param(rows, id="%s-%s" % (name, "".join(map(str, fams)))))
    rng = random.Random(5)
    for k in range(12):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        matrix = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        out.append(pytest.param(matrix, id="random-%d" % k))
    for k in range(6):
        rows, cols = rng.randrange(30, 61), rng.randrange(10, 41)
        matrix = [[rng.choice((-1, 1)) if rng.random() < 0.12 else 0 for _ in range(cols)] for _ in range(rows)]
        out.append(pytest.param(matrix, id="sparse-%d" % k))
    return out


@pytest.mark.parametrize("dense", _small_relation_matrices())
def test_invariant_factors_match_sympy(dense):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    want = [abs(int(f)) for f in sympy_factors(sympy.Matrix(dense), domain=sympy.ZZ) if f]
    assert invariant_factors(dense) == want
    sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
    assert _invariant_factors_sparse(sparse) == want


# ---------------------------------------------------------------------------
# per-dart cell arrays and cuts


@pytest.mark.parametrize("build", _cases())
def test_cell_arrays_match_cell_of(build):
    m = build().surface
    for kind, cells, of in (
        ("vertex", m.vertices(), m.vertex_of),
        ("edge", m.edges(), m.edge_of),
        ("face", m.faces(), m.face_of),
    ):
        assert [c.dart for c in cells] == sorted(c.dart for c in cells)
        assert len(of) == m.n_darts
        for d in range(m.n_darts):
            cell = cells[of[d]]
            assert m.cell_of(kind, d) == cell
            assert cell.kind == kind
            assert d in m.orbit(cell)
            assert cell.dart == min(m.orbit(cell))
    for kind, dart in (("vertex", -1), ("edge", m.n_darts), ("face", "0"), ("corner", 0)):
        with pytest.raises(UnknownCell):
            m.cell_of(kind, dart)


def _cut_sets(d):
    m = d.surface
    sets = []
    for i in (1, 2, 3):
        darts = d.darts_of_color(alpha(i))
        if darts:
            sets.append(darts)
    rng = random.Random(m.n_darts)
    edges = [e.dart for e in m.edges()]
    for k in range(8):
        # half the sets name each edge by its other dart
        picked = rng.sample(edges, rng.randrange(1, len(edges) + 1))
        sets.append([m.edge_pairing[x] for x in picked] if k % 2 else picked)
    # a few edges at a time, which often touch at a vertex without
    # passing through it
    for _ in range(16):
        sets.append(rng.sample(range(m.n_darts), rng.randrange(1, 5)))
    return sets


def dart_orbit_cut(m, darts):
    """The cut along the edges of ``darts`` with its pieces found over
    darts: the orbits of the face walk and of the pairing of the uncut
    darts.  Corners and boundary circles as :class:`CutSurface` counts and
    walks them.  Returns ``(component_of, chis, circles)``."""
    n, ep, fw = m.n_darts, m.edge_pairing, m.face_walk
    cut = bytearray(n)
    for d in darts:
        cut[d] = cut[ep[d]] = 1
    glue = [x if cut[x] else ep[x] for x in range(n)]
    component_of, pieces = perm_orbits(n, (fw, glue))
    chis = [0] * len(pieces)
    cut_vertices = {m.vertex_of[x] for x in range(n) if cut[x]}
    for v, orb in enumerate(m._vertex_orbits):
        if v not in cut_vertices:
            chis[component_of[orb[0]]] += 1
    for x, _ in m._edge_orbits:
        if not cut[x]:
            chis[component_of[x]] -= 1
    for orb in m._face_orbits:
        chis[component_of[orb[0]]] += 1
    circles = [[] for _ in pieces]
    seen = bytearray(n)
    for d in range(n):
        if cut[d] and not seen[d]:
            circle = []
            x = d
            while not seen[x]:
                seen[x] = 1
                circle.append(x)
                x = fw[x]
                while not cut[x]:
                    x = fw[ep[x]]
            circles[component_of[d]].append(circle)
    return component_of, chis, circles


def _check_cut(m, darts):
    cut = CutSurface(m, darts)
    component_of, pieces = reference_cut(m, darts)
    assert cut.component_of == component_of
    # pieces found over faces, as over darts: the same numbers, and the
    # same corners and circles, circle by circle
    assert dart_orbit_cut(m, darts) == (
        component_of,
        [c.chi for c in cut.components],
        [c.boundary_circles for c in cut.components],
    )
    got = [(c.chi, sorted(map(frozenset, c.boundary_circles), key=min)) for c in cut.components]
    assert got == pieces
    for c in cut.components:
        assert c.n_boundary == len(c.boundary_circles)
        assert all(cut.cut[x] for circle in c.boundary_circles for x in circle)
        # every piece is a compact orientable surface: 2 - chi - b = 2 * genus
        defect = 2 - c.chi - c.n_boundary
        assert defect >= 0 and defect % 2 == 0, (c.chi, c.n_boundary)
    assert sorted(x for c in cut.components for circle in c.boundary_circles for x in circle) == [
        x for x in range(m.n_darts) if cut.cut[x]
    ]
    return cut


@pytest.mark.parametrize("build", _cases())
def test_cut_components_match_per_component_reference(build):
    d = build()
    for darts in _cut_sets(d):
        _check_cut(d.surface, darts)


def least_darts(piece):
    """The least dart of each class, from each dart's class number."""
    least = {}
    for x, p in enumerate(piece):
        least.setdefault(p, x)
    return least


def pieces_by_least_dart(m, darts):
    piece = CutSurface(m, darts).component_of
    least = least_darts(piece)
    return [least[p] for p in piece]


@pytest.mark.parametrize("build", _cases())
def test_arc_regions_match_the_cut_along_the_curves(build):
    d = build()
    m = d.surface
    ep = m.edge_pairing
    # merging a cut's pieces across some of its edges undoes cutting them
    sets = _cut_sets(d)
    for darts, more in zip(sets, sets[1:]):
        cut = set(darts) | {ep[x] for x in darts}
        more = [x for x in more if x not in cut]
        piece = CutSurface(m, darts + more).component_of
        merged = DisjointSets(max(piece) + 1)
        for x in more:
            merged.union(piece[x], piece[ep[x]])
        classes = [merged.find(p) for p in piece]
        least = least_darts(classes)
        assert [least[c] for c in classes] == pieces_by_least_dart(m, darts)
    # so each arc component's regions are those of the cut along the
    # curves alone, region for region: a region of the family's cut is
    # named by its least piece, which holds its least dart
    for i in (1, 2, 3):
        curve_darts = [x for curve in _curves(d, i) for x in curve]
        arcs = d.darts_of_color(shadow(i))
        if not arcs:
            continue
        region = pieces_by_least_dart(m, curve_darts)
        want = [{region[y] for y in arc} for arc in color_components(d, shadow(i))]
        least = least_darts(CutSurface(m, curve_darts + arcs).component_of)
        assert [{least[r] for r in regions} for regions in _family_cut(d, i)[1]] == want


@pytest.mark.parametrize(
    "name, darts, want",
    [
        # cut edges that touch at a vertex without passing through it;
        # a cut that paired corners with the far side of each boundary
        # edge gave (-1, 2) and (2, 1) here, genus 1/2 and -1/2 ...
        ("natural_genus1(m=1)", [0, 2, 4, 10], [(0, 2), (1, 1)]),
        # ... and (2, 1) and (-4, 1) here, genus -1/2 and 5/2
        ("s2xs2_genus2", [0, 2, 8, 30], [(-2, 2)]),
    ],
)
def test_cut_where_edges_touch_without_crossing(name, darts, want):
    cut = _check_cut(entry(name).diagram.surface, darts)
    assert [(c.chi, c.n_boundary) for c in cut.components] == want


# ---------------------------------------------------------------------------
# per-diagram data


def _branching_diagram():
    # s2xs2_genus2 with one more alpha1 edge at a vertex that already has
    # two alpha1 darts: the family branches there
    d = entry("s2xs2_genus2").diagram
    m = d.surface
    at = {}
    for x in d.darts_of_color(alpha(1)):
        at.setdefault(m.vertex_of[x], []).append(x)
    v = next(iter(at))
    extra = next(
        x for x in m.orbit(m.vertices()[v]) if d.dart_colors[x] == SCAFFOLD
    )
    colors = list(d.dart_colors)
    colors[extra] = colors[m.edge_pairing[extra]] = alpha(1)
    return ShadowDiagram.from_darts(m, colors, [v.dart for v in d.marked])


def test_branching_family_raises_the_same_error_on_every_call():
    d = _branching_diagram()
    messages = set()
    for _ in range(3):
        with pytest.raises(MalformedColoring) as err:
            validate_cut_system(d, 1)
        messages.add(str(err.value))
        with pytest.raises(MalformedColoring) as err:
            family_cycles(d, 1)
        messages.add(str(err.value))
    assert len(messages) == 1
    assert messages.pop().startswith("alpha1 has 3 darts at vertex")


@pytest.mark.parametrize(
    "build",
    [pytest.param(_branching_diagram, id="branching")]
    + [p for p in _cases() if p.id in ("d6_s4", "q8_link_base", "natural_genus1_3", "q8_z2_ij")],
)
def test_validation_repeats_on_one_diagram(build):
    d = build()
    first = validate_trisection(d)
    second = validate_trisection(d)
    assert first.summary() == second.summary()
    assert first.cut_verdicts == second.cut_verdicts
    assert first.pair_verdicts == second.pair_verdicts
    assert first.summary() == validate_trisection(build()).summary()


def test_validation_does_each_piece_of_work_once(monkeypatch):
    real_pass = diagram_mod._vertex_pass
    passes = []

    def vertex_pass(dd):
        passes.append(dd)
        return real_pass(dd)

    monkeypatch.setattr(diagram_mod, "_vertex_pass", vertex_pass)
    base, reds = q8_reductions()
    passes.clear()
    cover = derived_cover(base.diagram, reds[-1][1])
    d = cover.diagram  # a fresh diagram and map
    assert d.surface.n_darts == 1712
    # derived_cover reads the structural errors of the lift
    assert cover.structural_errors == [] and passes == [d]
    calls = {"CutSurface": 0, "H1Frame": 0, "_family_curves": [], "project": 0}
    real_cut, real_frame, real_curves, real_cokernel = (
        diagram_mod.CutSurface,
        invariants_mod.H1Frame,
        diagram_mod._family_curves,
        invariants_mod.cokernel,
    )
    real_project = real_frame.project
    widths = []

    def cut(*args):
        calls["CutSurface"] += 1
        return real_cut(*args)

    def frame(m):
        calls["H1Frame"] += 1
        return real_frame(m)

    def curves(dd, i):
        calls["_family_curves"].append(i)
        return real_curves(dd, i)

    def project(frame, cycle):
        calls["project"] += 1
        return real_project(frame, cycle)

    def cokernel(n_ambient, rows):
        widths.append(max([n_ambient] + [c + 1 for r in rows for c in r]))
        return real_cokernel(n_ambient, rows)

    monkeypatch.setattr(diagram_mod, "CutSurface", cut)
    monkeypatch.setattr(invariants_mod, "H1Frame", frame)
    monkeypatch.setattr(diagram_mod, "_family_curves", curves)
    monkeypatch.setattr(real_frame, "project", project)
    monkeypatch.setattr(invariants_mod, "cokernel", cokernel)
    report = validate_trisection(d)
    assert (report.genus, report.k) == (17, (5, 5, 5))
    # one cut per family, along its curves and arcs, read by both the cut
    # systems and the shadow arcs; one H1 frame for the surface; one
    # extraction per family; each family's 16 curves and 24 shadow cycles
    # projected once
    assert calls == {"CutSurface": 3, "H1Frame": 1, "_family_curves": [1, 2, 3], "project": 120}
    # the vertex pass of the cover served the validation too
    assert passes == [d]
    # the pair quotients run over the 2g = 34 columns alone: no face row
    # reaches the cokernel
    assert len(widths) == 3 and max(widths) <= 34
