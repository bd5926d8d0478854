import ast
import pathlib
import random
import re
from collections import Counter

import pytest

import etd
from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, mirror, natural_genus1
from etd.cmap import CombMap, CutSurface
from etd.diagram import (
    COLOR_NAMES,
    ArcOutsideComplementaryDisk,
    DiagramError,
    HeegaardVerdict,
    MalformedColoring,
    OddMarkedCount,
    SCAFFOLD,
    ShadowDiagram,
    _crossing_counts,
    _curves,
    _perfect_matching,
    alpha,
    family_cycles,
    parse_color,
    shadow,
    validate_cut_system,
    validate_heegaard_pair,
    validate_shadow,
    validate_trisection,
)
from etd.invariants import h1_mod_curves
from etd.surgery import tube


def edge_cell(m, dart):
    return m.cell_of("edge", dart)


def vertex_cell(m, dart):
    return m.cell_of("vertex", dart)


# ---------------------------------------------------------------------------
# fixtures


def three_line_torus():
    """Torus with geodesics of slopes (1,0), (0,1), (1,1), pairwise
    crossing once.  Edges: {0,1},{2,3} slope (1,0); {4,5},{6,7} slope
    (0,1); {8,9},{10,11} slope (1,1)."""
    ep = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10]
    rot = [4, 11, 8, 7, 3, 10, 9, 0, 1, 5, 6, 2]
    return CombMap(12, ep, rot)


def standard_torus_diagram():
    m = three_line_torus()
    color = {
        edge_cell(m, 0): alpha(1),
        edge_cell(m, 2): alpha(1),
        edge_cell(m, 4): alpha(2),
        edge_cell(m, 6): alpha(2),
        edge_cell(m, 8): alpha(3),
        edge_cell(m, 10): alpha(3),
    }
    return ShadowDiagram(m, color)


def parallel_torus_map():
    """Torus with three disjoint horizontal loops (edges {0,1},{4,5},{8,9})
    threaded on one vertical circle (edges {2,6},{7,10},{11,3})."""
    ep = [1, 0, 6, 11, 5, 4, 2, 10, 9, 8, 7, 3]
    rot = [2, 3, 1, 0, 7, 6, 4, 5, 11, 10, 8, 9]
    return CombMap(12, ep, rot)


def parallel_torus_diagram():
    m = parallel_torus_map()
    color = {
        edge_cell(m, 0): alpha(1),
        edge_cell(m, 4): alpha(2),
        edge_cell(m, 8): alpha(3),
    }
    return ShadowDiagram(m, color)


def lens_torus_diagram():
    """Torus with a (0,1) curve and a (2,1) curve crossing twice; the pair
    presents a lens space with H1 = Z/2."""
    ep = [1, 0, 3, 2, 5, 4, 7, 6]
    rot = [7, 6, 5, 4, 0, 1, 2, 3]
    m = CombMap(8, ep, rot)
    color = {
        edge_cell(m, 0): alpha(1),
        edge_cell(m, 2): alpha(1),
        edge_cell(m, 4): alpha(2),
        edge_cell(m, 6): alpha(2),
    }
    return ShadowDiagram(m, color)


def theta_sphere_diagram():
    """Sphere with two marked vertices joined by one arc of each family:
    the 1-bridge diagram of the unknotted sphere."""
    ep = [1, 0, 3, 2, 5, 4]
    rot = [2, 5, 4, 1, 0, 3]
    m = CombMap(6, ep, rot)
    color = {
        edge_cell(m, 0): shadow(1),
        edge_cell(m, 2): shadow(2),
        edge_cell(m, 4): shadow(3),
    }
    marked = [vertex_cell(m, 0), vertex_cell(m, 1)]
    return ShadowDiagram(m, color, marked)


# ---------------------------------------------------------------------------
# colors


def test_color_roundtrip():
    assert COLOR_NAMES[alpha(2)] == "alpha2"
    assert COLOR_NAMES[shadow(3)] == "shadow3"
    assert COLOR_NAMES[SCAFFOLD] == "scaffold"
    for t in ("alpha1", "shadow2", "scaffold"):
        assert COLOR_NAMES[parse_color(t)] == t
    with pytest.raises(DiagramError):
        parse_color("beta1")
    with pytest.raises(DiagramError):
        alpha(4)


def test_color_names_live_in_diagram():
    """Only etd.diagram knows what the color codes are called: no other
    module under etd spells a color name or a name template (``alpha``,
    ``shadow2``, ``shadow%d``, ``scaffold``) or defines COLOR_NAMES, and
    only the modules that write text (files, error messages) read it."""
    src = pathlib.Path(etd.__file__).parent
    spelled, readers = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "diagram.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"(alpha|shadow)(\d|%d)?|scaffold", node.value):
                    spelled.append("%s:%d %r" % (path.name, node.lineno, node.value))
            if isinstance(node, ast.Name) and node.id == "COLOR_NAMES":
                readers.add(path.name)
                assert isinstance(node.ctx, ast.Load), "%s:%d" % (path.name, node.lineno)
    assert spelled == []
    assert readers == {"diagio.py", "symmetry.py"}


def test_diagram_defaults_and_checks():
    m = three_line_torus()
    d = ShadowDiagram(m)
    assert d.dart_colors == bytes([SCAFFOLD]) * m.n_darts
    with pytest.raises(DiagramError):
        ShadowDiagram(m, {m.cell_of("vertex", 0): alpha(1)})
    with pytest.raises(DiagramError):
        ShadowDiagram(m, marked=[m.cell_of("edge", 0)])


def test_vertex_kinds():
    # the standard torus has unmarked alpha crossings only; the theta
    # sphere's two marked vertices are bridge points, where all three
    # shadow families end
    d = standard_torus_diagram()
    for v in d.surface.vertices():
        assert v not in d.marked
        assert {d.dart_colors[x] for x in d.surface.orbit(v)} <= {alpha(1), alpha(2), alpha(3)}
    t = theta_sphere_diagram()
    assert len(t.marked) == 2
    for v in t.marked:
        assert {t.dart_colors[x] for x in t.surface.orbit(v)} == {shadow(1), shadow(2), shadow(3)}


# ---------------------------------------------------------------------------
# cut systems


def test_standard_torus_cut_systems():
    d = standard_torus_diagram()
    for i in (1, 2, 3):
        v = validate_cut_system(d, i)
        assert v.valid and v.tight
        assert v.n_curves == 1


def test_parallel_torus_cut_systems():
    d = parallel_torus_diagram()
    for i in (1, 2, 3):
        v = validate_cut_system(d, i)
        assert v.valid and v.tight and v.n_curves == 1


def test_redundant_family_valid_but_not_tight():
    m = parallel_torus_map()
    color = {
        edge_cell(m, 0): alpha(1),
        edge_cell(m, 4): alpha(1),
        edge_cell(m, 8): alpha(2),
    }
    d = ShadowDiagram(m, color)
    v = validate_cut_system(d, 1)
    assert v.valid and not v.tight
    assert v.n_curves == 2 and v.n_components == 2
    # empty family on a positive-genus surface is not a cut system
    assert not validate_cut_system(d, 3).valid


def test_branching_family_rejected():
    m = three_line_torus()
    # one (1,0) edge and one (0,1) edge: ends of valence 1
    color = {edge_cell(m, 0): alpha(1), edge_cell(m, 4): alpha(1)}
    d = ShadowDiagram(m, color)
    with pytest.raises(MalformedColoring):
        validate_cut_system(d, 1)


def test_curve_classes_primitive():
    d = standard_torus_diagram()
    for i in (1, 2, 3):
        (cycle,) = family_cycles(d, i)  # one curve, no shadow arcs
        assert sorted(map(abs, cycle.values())) == [1, 1]  # two edges traversed once


# ---------------------------------------------------------------------------
# Heegaard pairs


def test_standard_torus_pairs_verified():
    d = standard_torus_diagram()
    for i, j in ((1, 2), (2, 3), (3, 1)):
        v = validate_heegaard_pair(d, i, j)
        assert v.tier == "Verified"
        assert v.k == 0


def test_parallel_torus_pairs_verified_k1():
    d = parallel_torus_diagram()
    for i, j in ((1, 2), (2, 3), (3, 1)):
        v = validate_heegaard_pair(d, i, j)
        assert v.tier == "Verified"
        assert v.k == 1


def tangent_torus_diagram():
    """A torus with one vertex of valence 6: an alpha1 loop (darts 0 east,
    1 west), a parallel alpha2 loop (2 up-right, 3 up-left) that touches
    it there without crossing, and a scaffold loop (4 up, 5 down)."""
    m = CombMap(6, [1, 0, 3, 2, 5, 4], [2, 5, 4, 1, 3, 0])
    return ShadowDiagram.from_darts(m, [alpha(1)] * 2 + [alpha(2)] * 2 + [SCAFFOLD] * 2)


def test_tangency_is_not_a_crossing():
    d = tangent_torus_diagram()
    assert d.surface.genus() == 1 and len(d.surface.vertices()) == 1
    assert d.well_formed_errors() == []
    # a tangency must not feed a dual-pair destabilization
    assert _crossing_counts(d, 1, 2) == {}
    # the annulus matching verifies the pair instead: pushed off the
    # tangency, the two loops are disjoint and homologous on the torus,
    # so isotopic, and a genus-1 diagram with beta isotopic to alpha is
    # S1 x S2.  The cut along both is a disk (the tangency side) and an
    # annulus bounded by one side of each loop.
    v = validate_heegaard_pair(d, 1, 2)
    assert (v.tier, v.k) == ("Verified", 1)


def test_lens_pair_fails_on_torsion():
    d = lens_torus_diagram()
    v = validate_heegaard_pair(d, 1, 2)
    assert v.tier == "Failed"
    assert "Z/2" in v.reason


def ref_validate_heegaard_pair(d, i, j):
    """The pair check as it was with a tier-2 step budget of 10 000: the
    dual pairs are peeled until a pass peels nothing.  Returns the
    verdict and the step that decided it."""
    budget = 10_000
    if not (validate_cut_system(d, i) and validate_cut_system(d, j)):
        return HeegaardVerdict("Failed", None, "not a cut system"), "tier 1"
    h = h1_mod_curves(d, (i, j))
    if not h.is_free:
        return HeegaardVerdict("Failed", None, "torsion %s in curve quotient" % (h,)), "tier 1"
    k = h.rank
    m = d.surface
    curves_i, curves_j = _curves(d, i), _curves(d, j)
    counts = _crossing_counts(d, i, j)
    active_i = set(range(len(curves_i)))
    active_j = set(range(len(curves_j)))

    def cross_total(side, idx):
        if side == "i":
            return sum(counts.get((idx, b), 0) for b in active_j)
        return sum(counts.get((a, idx), 0) for a in active_i)

    changed = True
    while changed and budget > 0:
        changed = False
        for a in sorted(active_i):
            budget -= 1
            if budget <= 0:
                break
            partners = [b for b in active_j if counts.get((a, b), 0)]
            if len(partners) == 1 and counts.get((a, partners[0]), 0) == 1:
                b = partners[0]
                if cross_total("i", a) == 1 and cross_total("j", b) == 1:
                    active_i.discard(a)
                    active_j.discard(b)
                    changed = True
    if budget <= 0:
        return HeegaardVerdict("HomologyCertified", k, "tier-2 budget exhausted"), "budget"
    if not active_i and not active_j:
        return HeegaardVerdict("Verified", k), "peel"
    inconclusive = HeegaardVerdict("HomologyCertified", k, "tier-2 inconclusive"), "inconclusive"
    for a in active_i:
        if cross_total("i", a):
            return inconclusive
    ai = sorted(active_i)
    aj = sorted(active_j)
    if len(ai) != len(aj):
        return inconclusive
    circle_owner = {}
    for side, active, curves in (("i", ai, curves_i), ("j", aj, curves_j)):
        for a in active:
            for x in curves[a]:
                circle_owner[x] = circle_owner[m.edge_pairing[x]] = (side, a)
    allowed = set()
    for comp in CutSurface(m, circle_owner).components:
        if comp.chi == 0 and comp.n_boundary == 2:
            owners = []
            for circ in comp.boundary_circles:
                who = {circle_owner[x] for x in circ}
                if len(who) == 1:
                    owners.append(who.pop())
            if len(owners) == 2:
                (s1, x1), (s2, x2) = owners
                if s1 == "i" and s2 == "j":
                    allowed.add((ai.index(x1), aj.index(x2)))
                elif s1 == "j" and s2 == "i":
                    allowed.add((ai.index(x2), aj.index(x1)))
    if _perfect_matching(len(ai), allowed) is not None:
        return HeegaardVerdict("Verified", k), "annulus"
    return inconclusive


GENUS1_SLOPES = [
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (1, 0), (1, 0)),
    ((1, 0), (0, 1), (1, 0)),
    ((1, 0), (1, 0), (0, 1)),
    ((0, 1), (1, 0), (1, -1)),
    ((2, 1), (1, 0), (1, 1)),
]


def genus1_pieces():
    """Genus-one tori with one or two curves per family, and their mirrors."""
    pieces = [natural_genus1(m, slopes).diagram for m in (1, 2) for slopes in GENUS1_SLOPES]
    return pieces + [mirror(d) for d in pieces]


def tube_chain(pieces, rng):
    """Two to four random pieces joined in a row by tubes between random
    faces of equal length."""

    def faces(d):
        return [(len(d.surface.orbit(f)), f) for f in d.surface.faces()]

    d = rng.choice(pieces)
    for _ in range(rng.randint(1, 3)):
        ends = faces(d)
        lengths = {n for n, _ in ends}
        nxt = rng.choice([p for p in pieces if any(n in lengths for n, _ in faces(p))])
        n, f2 = rng.choice([(n, f) for n, f in faces(nxt) if n in lengths])
        f1 = rng.choice([f for k, f in ends if k == n])
        d, _ = tube(d, f1, nxt, f2)
    return d


def test_one_pass_peel_matches_the_fix_point_peel():
    """Every pair of every catalog entry, genus-one piece and seeded tube
    chain of pieces gets the verdict the fix-point peel gave, and the
    inputs reach every step that decides a verdict."""
    pieces = genus1_pieces()
    rng = random.Random(31)
    diagrams = [entry(n).diagram for n in STANDARD_NAMES + FROZEN_NAMES] + pieces
    diagrams += [tube_chain(pieces, rng) for _ in range(120)]
    steps = Counter()
    for d in diagrams:
        for i in (1, 2, 3):
            j = i % 3 + 1
            want, step = ref_validate_heegaard_pair(d, i, j)
            got = validate_heegaard_pair(d, i, j)
            assert (got.tier, got.k, got.reason) == (want.tier, want.k, want.reason)
            steps[step] += 1
    assert steps["budget"] == 0
    assert min(steps[s] for s in ("peel", "annulus", "inconclusive")) >= 10, steps


# ---------------------------------------------------------------------------
# shadows


def test_unknotted_sphere_bridge_parameters():
    d = theta_sphere_diagram()
    v = validate_shadow(d)
    assert v.ok
    assert v.b == 1
    assert v.p == (1, 1, 1)
    assert v.chi_surface == 2


def test_odd_marked_count():
    m = three_line_torus()
    d = ShadowDiagram(m, marked=[m.cell_of("vertex", 0)])
    with pytest.raises(OddMarkedCount):
        validate_shadow(d)


def test_two_arcs_in_one_region_rejected():
    # a 4-cycle on the sphere, opposite edges shadow1, all vertices marked
    ep = [1, 0, 3, 2, 5, 4, 7, 6]
    rot = [7, 2, 1, 4, 3, 6, 5, 0]
    m = CombMap(8, ep, rot)
    assert m.genus() == 0
    color = {edge_cell(m, 0): shadow(1), edge_cell(m, 4): shadow(1)}
    marked = [m.cell_of("vertex", d) for d in (0, 1, 4, 5)]
    d = ShadowDiagram(m, color, marked)
    message = "^2 shadow1 components share a complementary region$"
    with pytest.raises(ArcOutsideComplementaryDisk, match=message):
        validate_shadow(d)


def test_arc_through_a_curve_vertex_rejected():
    # s1xs3 with its shadow1 arcs replaced by two scaffold edges at one
    # vertex of an alpha1 curve, on either side of the curve: one arc
    # component in two complementary regions
    d = entry("s1xs3").diagram
    m = d.surface
    colors = [SCAFFOLD if c == shadow(1) else c for c in d.dart_colors]
    assert m.vertex_of[15] == m.vertex_of[16]
    for x in (15, 16):
        assert colors[x] == SCAFFOLD
        colors[x] = colors[m.edge_pairing[x]] = shadow(1)
    d = ShadowDiagram.from_darts(m, colors)
    with pytest.raises(ArcOutsideComplementaryDisk, match="^shadow1 component crosses alpha1$"):
        validate_shadow(d)
    assert "shadow1 component crosses alpha1" in validate_trisection(d).structural_errors


def test_no_shadow_arcs_is_fine():
    d = standard_torus_diagram()
    v = validate_shadow(d)
    assert v.ok and v.b == 0 and v.p == ()


# ---------------------------------------------------------------------------
# well-formedness


def test_non_alternating_crossing_flagged():
    m = three_line_torus()
    # adjacent darts at the (1,0)/(0,1) crossing get the same family
    color = {
        edge_cell(m, 0): alpha(1),
        edge_cell(m, 4): alpha(1),
        edge_cell(m, 2): alpha(2),
        edge_cell(m, 6): alpha(2),
    }
    d = ShadowDiagram(m, color)
    errs = d.well_formed_errors()
    assert any("alternate" in e for e in errs)


def test_well_formed_clean_fixtures():
    assert standard_torus_diagram().well_formed_errors() == []
    assert parallel_torus_diagram().well_formed_errors() == []
    assert theta_sphere_diagram().well_formed_errors() == []


def _V(dart):
    return "CellId(kind='vertex', dart=%d)" % dart


def _torus_colored(colors, marks=()):
    """three_line_torus (vertices 0: [0, 4, 3, 7], 1: [1, 11, 2, 8],
    5: [5, 10, 6, 9]) with the edges of the given darts colored."""
    m = three_line_torus()
    return ShadowDiagram(
        m, {edge_cell(m, x): c for x, c in colors.items()}, [vertex_cell(m, x) for x in marks]
    )


def _tangent_colored(colors):
    return ShadowDiagram.from_darts(tangent_torus_diagram().surface, colors)


# Each case: the diagram, its well_formed_errors() and the structural
# errors of its validation report, exactly and in order.
MALFORMED = {
    "three_single_darts": (
        lambda: _torus_colored({0: alpha(1), 4: alpha(2), 2: alpha(3)}),
        [
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(0),
            "vertex %s carries 1 darts of alpha2 (want 0 or 2)" % _V(0),
            "vertex %s carries 1 darts of alpha3 (want 0 or 2)" % _V(0),
            "more than two curve colors cross at vertex %s" % _V(0),
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(1),
            "vertex %s carries 1 darts of alpha3 (want 0 or 2)" % _V(1),
            "vertex %s carries 1 darts of alpha2 (want 0 or 2)" % _V(5),
        ],
        [],
    ),
    "three_families_at_one_vertex": (
        lambda: _tangent_colored([alpha(1)] * 2 + [alpha(2)] * 2 + [alpha(3)] * 2),
        ["more than two curve colors cross at vertex %s" % _V(0)],
        [],
    ),
    "three_darts": (
        lambda: _torus_colored({0: alpha(1), 4: alpha(1), 2: alpha(1)}),
        [
            "vertex %s carries 3 darts of alpha1 (want 0 or 2)" % _V(0),
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(5),
        ],
        [],
    ),
    "four_darts": (
        lambda: _tangent_colored([alpha(1)] * 4 + [SCAFFOLD] * 2),
        ["vertex %s carries 4 darts of alpha1 (want 0 or 2)" % _V(0)],
        [],
    ),
    "not_alternating": (
        lambda: _torus_colored({0: alpha(1), 4: alpha(1), 2: alpha(2), 6: alpha(2)}),
        [
            "curve colors do not alternate at crossing %s" % _V(0),
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(1),
            "vertex %s carries 1 darts of alpha2 (want 0 or 2)" % _V(1),
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(5),
            "vertex %s carries 1 darts of alpha2 (want 0 or 2)" % _V(5),
        ],
        [],
    ),
    "shadow_ends_inside": (
        lambda: _torus_colored({0: shadow(1), 4: shadow(2)}),
        [
            "shadow families share interior vertex %s" % _V(0),
            "shadow1 ends at unmarked vertex %s" % _V(0),
            "shadow2 ends at unmarked vertex %s" % _V(0),
            "shadow1 ends at unmarked vertex %s" % _V(1),
            "shadow2 ends at unmarked vertex %s" % _V(5),
        ],
        [],
    ),
    "marked_without_ends": (
        lambda: _torus_colored({0: shadow(1), 8: shadow(2)}, (0, 1, 5)),
        [
            "marked vertex %s has no shadow2 end" % _V(0),
            "marked vertex %s has no shadow1 end" % _V(5),
        ],
        ["3 marked vertices"],
    ),
    "mixed": (
        lambda: _torus_colored(
            {0: alpha(1), 4: shadow(1), 2: alpha(2), 8: shadow(3), 10: alpha(1)}, (1, 5)
        ),
        [
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(0),
            "vertex %s carries 1 darts of alpha2 (want 0 or 2)" % _V(0),
            "shadow1 ends at unmarked vertex %s" % _V(0),
            "vertex %s carries 1 darts of alpha2 (want 0 or 2)" % _V(1),
            "vertex %s carries 1 darts of alpha1 (want 0 or 2)" % _V(5),
            "marked vertex %s has no shadow1 end" % _V(1),
        ],
        ["alpha1 has 1 darts at vertex %s" % _V(0)],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_structural_errors_exact(name):
    build, errs, more = MALFORMED[name]
    d = build()
    assert d.well_formed_errors() == errs
    d.well_formed_errors().append("a caller's own entry")
    assert d.well_formed_errors() == errs
    assert validate_trisection(d).structural_errors == errs + more
    assert validate_trisection(d).structural_errors == errs + more


@pytest.mark.parametrize(
    "build, i, text",
    [
        (lambda: _torus_colored({0: alpha(1), 4: alpha(1)}), 1, "alpha1 has 1 darts at vertex %s" % _V(1)),
        (MALFORMED["three_single_darts"][0], 3, "alpha3 has 1 darts at vertex %s" % _V(1)),
        (MALFORMED["three_darts"][0], 1, "alpha1 has 3 darts at vertex %s" % _V(0)),
        (MALFORMED["four_darts"][0], 1, "alpha1 has 4 darts at vertex %s" % _V(0)),
        (MALFORMED["not_alternating"][0], 2, "alpha2 has 1 darts at vertex %s" % _V(1)),
    ],
)
def test_branching_family_message(build, i, text):
    d = build()
    for _ in range(2):
        with pytest.raises(MalformedColoring) as err:
            _curves(d, i)
        assert str(err.value) == text
        assert validate_trisection(d).cut_verdicts[i].reason == text


def test_arc_ends_that_do_not_pair():
    # the theta sphere without its shadow2 arc: at each marked vertex the
    # shadow1 end has no shadow2 end beside it
    t = theta_sphere_diagram()
    d = ShadowDiagram.from_darts(
        t.surface, [shadow(1)] * 2 + [SCAFFOLD] * 2 + [shadow(3)] * 2, [0, 1]
    )
    text = "arc-ends of families 1/2 do not pair at %s" % _V(0)
    with pytest.raises(MalformedColoring) as err:
        validate_shadow(d)
    assert str(err.value) == text
    assert d.well_formed_errors() == []
    assert validate_trisection(d).structural_errors == [text]


# ---------------------------------------------------------------------------
# full report


def test_standard_torus_report():
    r = validate_trisection(standard_torus_diagram())
    assert r.ok
    assert (r.genus, r.k) == (1, (0, 0, 0))
    assert r.chi_x == 3
    assert "(1; 0,0,0)" in r.summary()


def test_parallel_torus_report():
    r = validate_trisection(parallel_torus_diagram())
    assert r.ok
    assert (r.genus, r.k) == (1, (1, 1, 1))
    assert r.chi_x == 0


def test_theta_sphere_report():
    r = validate_trisection(theta_sphere_diagram())
    assert r.ok
    assert r.genus == 0
    assert r.k == (0, 0, 0)
    assert r.chi_x == 2
    assert r.chi_surface == 2
    assert "bridge (1; 1,1,1)" in r.summary()


def test_report_flags_failures():
    r = validate_trisection(lens_torus_diagram())
    assert not r.ok
    assert r.pair_verdicts[1].tier == "Failed"


def test_diagram_isomorphism_respects_colors():
    d1 = standard_torus_diagram()
    d2 = standard_torus_diagram()
    assert d1.dart_labels() is d1.dart_labels()  # built once per diagram
    assert d1.isomorphic_to(d2) is not None
    assert d1.canonical() == d2.canonical()
    # permuting families changes the ordered-color type only if no
    # orientation-preserving symmetry restores it; the slope triple
    # (1,0),(0,1),(1,1) admits the 3-cycle but not a transposition
    m = three_line_torus()
    shifted = {
        edge_cell(m, 0): alpha(2),
        edge_cell(m, 2): alpha(2),
        edge_cell(m, 4): alpha(3),
        edge_cell(m, 6): alpha(3),
        edge_cell(m, 8): alpha(1),
        edge_cell(m, 10): alpha(1),
    }
    assert d1.isomorphic_to(ShadowDiagram(m, shifted)) is not None
    swapped = {
        edge_cell(m, 0): alpha(2),
        edge_cell(m, 2): alpha(2),
        edge_cell(m, 4): alpha(1),
        edge_cell(m, 6): alpha(1),
        edge_cell(m, 8): alpha(3),
        edge_cell(m, 10): alpha(3),
    }
    assert d1.isomorphic_to(ShadowDiagram(m, swapped)) is None
