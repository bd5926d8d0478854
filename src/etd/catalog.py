"""Named example diagrams with their symmetry actions and expected
validation results, used as fixtures and regression surface."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from . import EtdError
from .cmap import CombMap, build_from_faces, inverse
from .diagram import SCAFFOLD, ShadowDiagram, alpha, shadow
from .groups import greedy_generators
from .invariants import AbelianGroup
from .symmetry import DiagramAction, automorphism_group, check_automorphism

# torus, surgery, planar and cover load with the builders that use them,
# so that importing etd does not load them


class CatalogError(EtdError):
    pass


class UnknownName(CatalogError):
    pass


class NonStandardSlopes(CatalogError):
    pass


@dataclass
class ExpectedReport:
    """What validating a catalog entry should report."""

    genus: int
    k: tuple
    b: int = 0
    p: tuple = ()
    h1: Optional[AbelianGroup] = None
    action_order: Optional[int] = None

    @property
    def chi_x(self):
        return 2 + self.genus - sum(self.k)


@dataclass
class CatalogEntry:
    """A named diagram with its action, expected report and note."""

    name: str
    diagram: ShadowDiagram
    action: Optional[DiagramAction]
    expected: ExpectedReport
    note: str = ""
    voltages: object = None  # VoltageAssignment for covering-space entries


def mirror(d: ShadowDiagram) -> ShadowDiagram:
    """The same diagram on the oppositely-oriented surface (inverted
    rotation).  Cell names are unchanged."""
    m = d.surface
    m2 = CombMap(m.n_darts, m.edge_pairing, inverse(m.rotation))
    return ShadowDiagram.from_darts(m2, d.dart_colors, [v.dart for v in d.marked])


# ---------------------------------------------------------------------------
# genus-one tori with their translation/negation symmetries


def _normalize_slope(pq):
    p, q = int(pq[0]), int(pq[1])
    if gcd(p, q) != 1:
        raise NonStandardSlopes("slope (%d, %d) is not primitive" % (p, q))
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def _transversal_slope(pq):
    p, q = pq
    # find (r, s) with p*s - q*r = 1
    for r in range(-max(abs(p), abs(q)) - 1, max(abs(p), abs(q)) + 2):
        for s in range(-max(abs(p), abs(q)) - 1, max(abs(p), abs(q)) + 2):
            if p * s - q * r == 1:
                return _normalize_slope((r, s))
    raise CatalogError("no transversal slope for %r" % (pq,))


def _grid_torus(slopes):
    """The unit grid torus: one line of each slope at offset 1/2 (0 for a
    repeated slope), colored alpha1..3; when all three slopes are
    parallel, lines f at offsets +-f/8 and a scaffold transversal at 1/2.
    Returns (arrangement, diagram)."""
    from .torus import arrangement, line

    slopes = [_normalize_slope(s) for s in slopes]
    for a in range(3):
        for b in range(a + 1, 3):
            det = slopes[a][0] * slopes[b][1] - slopes[b][0] * slopes[a][1]
            if abs(det) > 1:
                raise NonStandardSlopes(
                    "slopes %r and %r cross more than once" % (slopes[a], slopes[b])
                )

    lines = []
    family_of = []
    all_equal = len(set(slopes)) == 1
    for f, pq in enumerate(slopes, start=1):
        if all_equal:
            offs = [Fraction(f, 8), Fraction(-f, 8)]
        elif pq in slopes[: f - 1]:
            offs = [0]
        else:
            offs = [Fraction(1, 2)]
        for c in offs:
            lines.append(line(pq[0], pq[1], c))
            family_of.append(f)
    if all_equal:
        lines.append(line(*_transversal_slope(slopes[0]), Fraction(1, 2)))
        family_of.append(0)

    arr = arrangement(lines)
    color = [SCAFFOLD if f == 0 else alpha(f) for f in family_of]
    return arr, ShadowDiagram.from_darts(arr.map, [color[i] for i in arr.dart_line])


def natural_genus1(m: int, slopes=((1, 0), (0, 1), (1, 1))) -> CatalogEntry:
    """Genus-one diagram on the m x m grid torus carrying the natural
    order-2m^2 translation/negation action; the first two action
    generators span the translation subgroup.

    The grid torus is the Z_m x Z_m cover of the unit torus of
    :func:`_grid_torus` under x -> m x, lifted by
    :func:`etd.torus.grid_cover`: dart x*m^2 + a*m + b is base dart x on
    sheet (a, b), and tx, ty and nu lift u -> u + (1, 0), u + (0, 1) and
    -u."""
    from .torus import grid_cover

    if m < 1:
        raise CatalogError("m must be positive")
    arr, base = _grid_torus(slopes)
    lifted, gens = grid_cover(arr, m)
    action = DiagramAction(gens, ["tx", "ty", "nu"])
    for g, name in zip(gens, action.names):
        check_automorphism(lifted, g, name)
    d = ShadowDiagram.from_darts(lifted, [c for c in base.dart_colors for _ in range(m * m)])

    slopes_n = [_normalize_slope(s) for s in slopes]
    k = tuple(
        1 if slopes_n[i - 1] == slopes_n[i % 3] else 0 for i in (1, 2, 3)
    )
    h1 = AbelianGroup(1) if len(set(slopes_n)) == 1 else (
        AbelianGroup(0) if sum(k) == 0 else None
    )
    expected = ExpectedReport(1, k, h1=h1, action_order=2 * m * m)
    return CatalogEntry(
        "natural_genus1(m=%d)" % m,
        d,
        action,
        expected,
        "grid torus; quotient by the translation subgroup "
        "(generators tx, ty) reproduces the m=1 entry",
    )


# ---------------------------------------------------------------------------
# the named standards


def _theta_sphere() -> ShadowDiagram:
    ep = [1, 0, 3, 2, 5, 4]
    rot = [2, 5, 4, 1, 0, 3]
    m = CombMap(6, ep, rot)
    color = {
        m.cell_of("edge", 0): shadow(1),
        m.cell_of("edge", 2): shadow(2),
        m.cell_of("edge", 4): shadow(3),
    }
    marked = [m.cell_of("vertex", 0), m.cell_of("vertex", 1)]
    return ShadowDiagram(m, color, marked)


def standard(name: str) -> CatalogEntry:
    if name == "s4_genus0":
        d = _theta_sphere()
        return CatalogEntry(
            name,
            d,
            None,
            ExpectedReport(0, (0, 0, 0), b=1, p=(1, 1, 1)),
            "unknotted sphere in the unit bridge position: two bridge "
            "points joined by one arc of each family",
        )
    if name in ("cp2", "cp2bar"):
        entry = natural_genus1(1)
        d = entry.diagram
        action = entry.action
        note = "three slopes through the half-integer offsets"
        if name == "cp2bar":
            d = mirror(d)
            note += "; mirrored by inverting the rotation"
        return CatalogEntry(
            name, d, action, ExpectedReport(1, (0, 0, 0), h1=AbelianGroup(0), action_order=2), note
        )
    if name == "s1xs3":
        entry = natural_genus1(1, ((1, 0), (1, 0), (1, 0)))
        return CatalogEntry(
            name,
            entry.diagram,
            entry.action,
            ExpectedReport(1, (1, 1, 1), h1=AbelianGroup(1), action_order=2),
            "three parallel slope families with a scaffold transversal",
        )
    if name == "s2xs2_genus2":
        return _s2xs2_genus2()
    if name == "s4_suspension_genus2":
        entry = genus2_strongly_minimal("d6_s4")
        entry.name = name
        return entry
    raise UnknownName(name)


def _s2xs2_genus2() -> CatalogEntry:
    """Two mirrored half-offset tori joined by a tube through their
    hexagonal faces; the diagram's color-preserving symmetry group is
    Z2 x Z2 (negation on both factors, and the factor swap)."""
    from .surgery import tube

    arr, d1 = _grid_torus(((1, 0), (0, 1), (1, 1)))
    # the mirror image, with the first two families swapped
    d2 = mirror(ShadowDiagram.from_darts(arr.map, [alpha((2, 1, 3)[i]) for i in arr.dart_line]))
    hexes1 = [f for f in d1.surface.faces() if len(d1.surface.orbit(f)) == 6]
    hexes2 = [f for f in d2.surface.faces() if len(d2.surface.orbit(f)) == 6]
    d, _ = tube(d1, hexes1[0], d2, hexes2[0])
    return CatalogEntry(
        "s2xs2_genus2",
        d,
        _aut_action(d),
        ExpectedReport(2, (0, 0, 0), h1=AbelianGroup(0), action_order=4),
        "tube between the hexagonal faces of a torus diagram and its "
        "mirror; symmetry group Z2 x Z2",
    )


def _aut_action(d: ShadowDiagram) -> DiagramAction:
    """The full color-preserving symmetry group, with a small greedy
    generating set taken over its elements in ascending order: by key,
    the image of dart 0, which fixes an automorphism of the connected
    map.  Only the chosen generators are built as full permutations."""
    aut = automorphism_group(d)
    perm = functools.cache(lambda key: aut.permutation(aut.index(key)))
    keys = greedy_generators(
        sorted(aut.keys), aut.base, lambda g, key: tuple(perm(g)[x] for x in key)
    )
    return DiagramAction([perm(k) for k in keys], ["g%d" % (i + 1) for i in range(len(keys))])


def _theta_surface(n_circles, circle_family, strand_family):
    """Genus-2 boundary of a theta-graph neighborhood: three tubes, each
    carrying ``n_circles`` meridian circles crossed by two longitudinal
    strands, capped by a pair-of-pants at both ends.

    ``circle_family(tube, index)`` and ``strand_family(tube, side)``
    assign colors; the pants arcs continue the right-hand strand of
    their tube of origin."""
    K = n_circles
    L = lambda j, i: "v%d_%dL" % (j, i)
    R = lambda j, i: "v%d_%dR" % (j, i)
    mf = lambda j, i: "mf%d_%d" % (j, i)
    mb = lambda j, i: "mb%d_%d" % (j, i)
    sL = lambda j, i: "sL%d_%d" % (j, i)
    sR = lambda j, i: "sR%d_%d" % (j, i)

    faces = []
    for j in range(3):
        for i in range(K - 1):
            faces.append([(L(j, i), mf(j, i)), (R(j, i), sR(j, i)),
                          (R(j, i + 1), mf(j, i + 1)), (L(j, i + 1), sL(j, i))])
            faces.append([(R(j, i), mb(j, i)), (L(j, i), sL(j, i)),
                          (L(j, i + 1), mb(j, i + 1)), (R(j, i + 1), sR(j, i))])
    faces.append([(R(1, 0), mf(1, 0)), (L(1, 0), "puA"), (R(0, 0), mf(0, 0)),
                  (L(0, 0), "puC"), (R(2, 0), mf(2, 0)), (L(2, 0), "puB")])
    faces.append([(L(0, 0), mb(0, 0)), (R(0, 0), "puA"), (L(1, 0), mb(1, 0)),
                  (R(1, 0), "puB"), (L(2, 0), mb(2, 0)), (R(2, 0), "puC")])
    b = K - 1
    faces.append([(L(0, b), mf(0, b)), (R(0, b), "pvA"), (L(1, b), mf(1, b)),
                  (R(1, b), "pvB"), (L(2, b), mf(2, b)), (R(2, b), "pvC")])
    faces.append([(R(0, b), mb(0, b)), (L(0, b), "pvC"), (R(2, b), mb(2, b)),
                  (L(2, b), "pvB"), (R(1, b), mb(1, b)), (L(1, b), "pvA")])

    m, info = build_from_faces(faces)
    color = {}
    pants_tube = {"A": 0, "B": 1, "C": 2}
    for d, (fi, p, v, k) in enumerate(info):
        e = m.cell_of("edge", d)
        if k.startswith("mf") or k.startswith("mb"):
            j, i = map(int, k[2:].split("_"))
            color[e] = circle_family(j, i)
        elif k.startswith("s"):
            j, i = map(int, k[2:].split("_"))
            color[e] = strand_family(j, k[1])
        else:
            j = pants_tube[k[2]]
            color[e] = strand_family(j, "R")
    return ShadowDiagram(m, color)


def _d4_double() -> CatalogEntry:
    """Z4 branched double-cover construction: a sphere diagram with three
    latitude circles and four branch points, with the branching carried
    by voltages on the two polar meridian edges, lifted to genus 2."""
    from .cover import VoltageAssignment, derived_cover
    from .groups import cyclic

    faces = [
        [("N", "cf0"), ("f1", "yNE"), ("PNE", "yNE"), ("f1", "e1"), ("b1", "cb0")],
        [("N", "cb0"), ("b1", "yNW"), ("PNW", "yNW"), ("b1", "w1"), ("f1", "cf0")],
        [("f1", "cf1"), ("f2", "e2"), ("b2", "cb1"), ("b1", "e1")],
        [("f2", "cf1"), ("f1", "w1"), ("b1", "cb1"), ("b2", "w2")],
        [("f2", "cf2"), ("f3", "e3"), ("b3", "cb2"), ("b2", "e2")],
        [("f3", "cf2"), ("f2", "w2"), ("b2", "cb2"), ("b3", "w3")],
        [("f3", "cf3"), ("S", "cb3"), ("b3", "ySE"), ("PSE", "ySE"), ("b3", "e3")],
        [("S", "cf3"), ("f3", "ySW"), ("PSW", "ySW"), ("f3", "w3"), ("b3", "cb3")],
    ]
    m, info = build_from_faces(faces)
    color = {}
    dart_at = {}
    vertex_of = {}
    for d, (fi, p, v, k) in enumerate(info):
        dart_at[(fi, p)] = d
        vertex_of.setdefault(v, m.cell_of("vertex", d))
        if k[0] in ("e", "w") and len(k) == 2:
            color[m.cell_of("edge", d)] = alpha(int(k[1]))
    marked = {lab: vertex_of[lab] for lab in ("PNE", "PNW", "PSE", "PSW")}
    base = ShadowDiagram(m, color, marked.values())

    g = cyclic(4)
    volt = {x: 0 for x in range(m.n_darts)}
    # polar meridians: the cap faces see the branch points, so their
    # boundary holonomy must match (the face walk crosses cb0 as b1 -> N)
    cb0 = dart_at[(1, 0)]  # N -> b1
    volt[cb0], volt[m.edge_pairing[cb0]] = 3, 1
    cb3 = dart_at[(6, 1)]  # S -> b3
    volt[cb3], volt[m.edge_pairing[cb3]] = 2, 2
    va = VoltageAssignment(
        g, volt,
        {marked["PNE"]: 1, marked["PNW"]: 3, marked["PSE"]: 2, marked["PSW"]: 2},
    )
    res = derived_cover(base, va)
    d = res.diagram
    return CatalogEntry(
        "d4_double",
        d,
        _aut_action(d),
        ExpectedReport(2, (2, 2, 2), h1=AbelianGroup(2), action_order=8),
        "branch points survive as marked vertices on the scaffold "
        "whisker edges",
        va,
    )


def genus2_strongly_minimal(name: str) -> CatalogEntry:
    if name == "d4_double":
        return _d4_double()
    if name == "d6_double":
        fam = {0: 1, 5: 1, 1: 2, 4: 2, 2: 3, 3: 3}
        d = _theta_surface(
            6, lambda j, i: alpha(fam[i]), lambda j, s: SCAFFOLD
        )
        return CatalogEntry(
            name,
            d,
            _aut_action(d),
            ExpectedReport(2, (2, 2, 2), h1=AbelianGroup(2), action_order=12),
            "six meridian circles per tube in nested pairs; the "
            "longitudinal curves are scaffold",
        )
    if name == "d6_s4":
        fam = {0: 1, 3: 1, 1: 3, 2: 3}
        d = _theta_surface(
            4, lambda j, i: alpha(fam[i]), lambda j, s: alpha(2)
        )
        return CatalogEntry(
            name,
            d,
            _aut_action(d),
            ExpectedReport(2, (0, 0, 2), h1=AbelianGroup(0), action_order=12),
            "four meridian circles per tube; the longitudinal curves "
            "form the middle family",
        )
    raise UnknownName(name)


def q8_link_base() -> CatalogEntry:
    """Genus-0 shadow diagram of a two-component unknotted-projective-plane
    link in 4-bridge position, with quaternion voltages branching of order
    4 at all eight bridge points.

    Each component is drawn as a diamond of bridge points: the four sides
    alternate between the first two arc families and the diagonals are the
    third (one drawn inside, one routed around).  Each family carries
    three separating curves -- one per component splitting its two arcs,
    one splitting the components -- so every complementary region holds
    exactly one arc of the family.  The branching data rides on branch
    cuts dropped from the bridge points into the outer region.
    """
    from .cover import VoltageAssignment
    from .groups import quaternion
    from .planar import (
        arc,
        branch_cut_crossings,
        branch_cut_voltages,
        build_planar,
        loop,
    )

    strands = []
    colors = []

    def add(s, col):
        strands.append(s)
        colors.append(col)

    # the drawing scaled by 20, so that every coordinate is an int
    for dx in (0, 200):
        p1, p2, p3, p4 = (dx, 20), (dx + 20, 0), (dx, -20), (dx - 20, 0)
        add(arc([p1, p2]), shadow(1))
        add(arc([p3, p4]), shadow(1))
        add(arc([p2, p3]), shadow(2))
        add(arc([p4, p1]), shadow(2))
        add(arc([p1, p3]), shadow(3))
        add(arc([p2, (dx, -40), p4]), shadow(3))
        add(loop([(dx - 16, 34), (dx + 34, -16), (dx + 34, 34)]), alpha(1))
        add(loop([(dx + 32, 14), (dx - 14, -32), (dx + 32, -32)]), alpha(2))
        add(loop([(dx - 8, 25), (dx + 8, 25), (dx + 8, -22), (dx - 8, -22)]), alpha(3))
    add(arc([(0, 20), (200, 20)]), SCAFFOLD)
    for f, r in ((1, 62), (2, 64), (3, 66)):
        add(loop([(-r, -r), (r, -r), (r, r), (-r, r)]), alpha(f))

    pd = build_planar(strands)
    pts = [(dx + a, b) for dx in (0, 200) for a, b in ((0, 20), (20, 0), (0, -20), (-20, 0))]
    marked = [pd.vertex_at(p) for p in pts]
    d = ShadowDiagram.from_darts(
        pd.map, [colors[i] for i in pd.dart_strand], [v.dart for v in marked]
    )

    g = quaternion()
    cuts = [((x, y), (x + 20, y - 140)) for (x, y) in pts]
    mer = ["i"] * 4 + ["j"] * 4
    volt = branch_cut_voltages(pd, g, mer, branch_cut_crossings(pd, cuts))
    va = VoltageAssignment(g, volt, dict(zip(marked, mer)))
    return CatalogEntry(
        "q8_link_base",
        d,
        None,
        ExpectedReport(0, (0, 0, 0), b=4, p=(2, 2, 2)),
        "meridians i at the first component's bridge points, j at the "
        "second's; see q8_reductions for the covers",
        va,
    )


def q8_reductions():
    """The five quotients of the quaternion voltage structure, as
    (label, voltage assignment, expected lifted report) triples; the deck
    groups are the quotients of Q8 by its normal subgroups."""
    from .cover import reduce_voltages
    from .groups import cyclic, direct_product, hom_from_generator_images

    entry = q8_link_base()
    va = entry.voltages
    g = va.group
    z2 = cyclic(2)
    z2z2 = direct_product(cyclic(2), cyclic(2))
    out = []
    for label, target, images, expect in (
        ("z2_i", z2, {"i": 1, "j": 0}, ExpectedReport(1, (0, 0, 0), h1=AbelianGroup(0))),
        ("z2_j", z2, {"i": 0, "j": 1}, ExpectedReport(1, (0, 0, 0), h1=AbelianGroup(0))),
        ("z2_ij", z2, {"i": 1, "j": 1}, ExpectedReport(3, (1, 1, 1))),
        ("z2xz2", z2z2, {"i": (1, 0), "j": (0, 1)}, ExpectedReport(5, (1, 1, 1))),
        ("q8", g, None, ExpectedReport(17, (5, 5, 5))),
    ):
        if images is None:
            out.append((label, va, expect))
        else:
            hom = hom_from_generator_images(g, target, images)
            out.append((label, reduce_voltages(va, target, hom), expect))
    return entry, out


# ---------------------------------------------------------------------------
# lookup and frozen files


STANDARD_NAMES = (
    "s4_genus0",
    "cp2",
    "cp2bar",
    "s1xs3",
    "s2xs2_genus2",
    "s4_suspension_genus2",
)
FROZEN_NAMES = ("q8_link_base", "d4_double", "d6_double", "d6_s4")


def entry(name: str) -> CatalogEntry:
    """Look up any named diagram across the generator families."""
    if name in ("d4_double", "d6_double", "d6_s4"):
        return genus2_strongly_minimal(name)
    if name == "q8_link_base":
        return q8_link_base()
    if name.startswith("natural_genus1"):
        import re

        from .symmetry import CLOSURE_CAP

        match = re.fullmatch(r"natural_genus1\(m=(0|[1-9][0-9]*)\)", name)
        if not match:
            raise UnknownName(name)
        m = int(match.group(1))
        # the action has order 2m^2, and check_action closes no more than the cap
        if 2 * m * m > CLOSURE_CAP:
            raise CatalogError(
                "m = %d: the order-2m^2 action exceeds %d elements" % (m, CLOSURE_CAP)
            )
        return natural_genus1(m)
    return standard(name)


def entry_file_text(name: str) -> str:
    """The diagram-file serialization of a named entry.

    Covering-space bases carry their voltage block and the expected
    (genus; k) of the full lift; other entries carry their own expected
    validation parameters.  Lifted entries whose voltages describe the
    construction rather than the stored diagram (d4_double) omit the
    block.
    """
    from .diagio import serialize_diagram

    e = entry(name)
    if name == "q8_link_base":
        _, reds = q8_reductions()
        full = reds[-1][2]
        return serialize_diagram(
            e.diagram, voltages=e.voltages, expected=(full.genus, full.k)
        )
    return serialize_diagram(
        e.diagram, expected=(e.expected.genus, e.expected.k), action=e.action
    )
