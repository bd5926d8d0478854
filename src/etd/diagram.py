"""Shadow trisection diagrams and their validation.

A shadow diagram is a closed combinatorial map decorated per dart: each
dart carries a color, both darts of an edge the same one (three curve
families Alpha(1..3), three shadow-arc families Shadow(1..3), and
Scaffold filler), and some darts mark their vertex as a bridge point.
A derived diagram (subdivision, quotient, cover, tube, mirror) pulls
this decoration back along its dart map: each new dart takes the color
and the mark of the dart it comes from.

A color is one integer code: ``alpha(i) = i - 1``, ``SCAFFOLD = 3``,
``shadow(i) = 3 + i``.  The codes sort as the colors' (kind, index)
names did, alpha1 < alpha2 < alpha3 < scaffold < shadow1 < shadow2 <
shadow3: dart labels are built from them, so the order fixes the
canonical form's best start, its ties and the automorphism group.  Only
this module knows the names, ``COLOR_NAMES``, to read and write text.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import EtdError
from .cmap import CellId, CombMap, CutSurface, DisjointSets, canonical_form, is_isomorphic
from .cmap import perm_orbits, spanning_forest
from .invariants import h1_frame, h1_mod_curves


class DiagramError(EtdError):
    pass


class MalformedColoring(DiagramError):
    pass


class OddMarkedCount(DiagramError):
    pass


class ArcOutsideComplementaryDisk(DiagramError):
    pass


# ---------------------------------------------------------------------------
# colors

COLOR_NAMES = ("alpha1", "alpha2", "alpha3", "scaffold", "shadow1", "shadow2", "shadow3")
SCAFFOLD = 3


def alpha(i):
    if i not in (1, 2, 3):
        raise DiagramError("curve/arc families are indexed 1..3")
    return i - 1


def shadow(i):
    return alpha(i) + SCAFFOLD + 1


@functools.cache
def parse_color(text: str) -> int:
    """The color a token names: ``scaffold``, or ``alpha``/``shadow``
    followed by exactly one ASCII digit, which must be 1, 2 or 3.

    Cached: a file names one of seven colors on every ``edge`` line, and
    a bad token raises, so it is never stored."""
    if text in COLOR_NAMES:
        return COLOR_NAMES.index(text)
    if text[:-1] in ("alpha", "shadow") and text[-1] in "0123456789":
        raise DiagramError("curve/arc families are indexed 1..3")
    raise DiagramError("unknown color %r" % (text,))


# ---------------------------------------------------------------------------
# the diagram type


class ShadowDiagram:
    """A closed surface map decorated per dart: one color per dart, both
    darts of an edge sharing it, and marked bridge vertices.

    ``dart_colors`` is a ``bytes`` of color codes, one per dart, in the
    order of the colors' (kind, index) names, which canonical ties rely
    on (see the module docstring); ``marked`` is a frozenset of vertex
    CellIds.  :meth:`from_darts` takes the per-dart codes and marked
    darts, which is how files are read and how derived diagrams
    (subdivisions, quotients, covers, tubes, mirrors) pull their
    decoration back along a dart map.  The constructor takes ``color``
    as a dict from edge CellIds to codes, uncolored edges defaulting to
    scaffold, and marked vertex CellIds.

    Derived data is computed once, on first use, and kept: the vertex
    pass (color rotation, alpha crossings, structural errors), the darts
    of each color, every color's components, the dart labels, and each
    family's curves, what its one cut gives, cut-system verdict, cycles
    and H1 classes.  The surface, colors and marks must not change after
    construction.
    """

    def __init__(self, surface: CombMap, color=None, marked=()):
        edge_cells = set(surface.edges())
        ep = surface.edge_pairing
        dart_colors = [SCAFFOLD] * surface.n_darts
        for cell, c in (color or {}).items():
            if cell not in edge_cells:
                raise DiagramError("color assigned to unknown edge %r" % (cell,))
            dart_colors[cell.dart] = dart_colors[ep[cell.dart]] = c
        marked = list(marked)
        vertex_cells = set(surface.vertices())
        for v in marked:
            if v not in vertex_cells:
                raise DiagramError("marked cell %r is not a vertex" % (v,))
        self._decorate(surface, dart_colors, [v.dart for v in marked])

    @classmethod
    def from_darts(cls, surface: CombMap, dart_colors, marked_darts=()) -> "ShadowDiagram":
        """The diagram on ``surface`` whose dart x has color
        ``dart_colors[x]``; each dart in ``marked_darts`` marks its
        vertex."""
        d = cls.__new__(cls)
        d._decorate(surface, dart_colors, marked_darts)
        return d

    def _decorate(self, surface, dart_colors, marked_darts):
        n = surface.n_darts
        try:
            colors = bytes(iter(dart_colors))  # bytes(k) alone would take an int k as k zeros
        except (TypeError, ValueError):
            raise DiagramError("colors must be Color values") from None
        if len(colors) != n:
            raise DiagramError("%d dart colors for %d darts" % (len(colors), n))
        if max(colors, default=0) >= len(COLOR_NAMES):
            raise DiagramError("colors must be Color values")
        if bytes(map(colors.__getitem__, surface.edge_pairing)) != colors:
            x, y = next((x, y) for x, y in surface._edge_orbits if colors[x] != colors[y])
            raise DiagramError("dart %d and its edge partner %d differ in color" % (x, y))
        marked = set()
        for x in marked_darts:
            if not (isinstance(x, int) and 0 <= x < n):
                raise DiagramError("marked dart %r is not a dart" % (x,))
            marked.add(surface.vertex_of[x])
        self.surface = surface
        self.dart_colors = colors
        self.marked = frozenset(CellId("vertex", surface._vertex_orbits[v][0]) for v in marked)
        self._derived = {}

    # -- helpers ----------------------------------------------------------

    def darts_of_color(self, c: int) -> list:
        """The darts of color ``c``, ascending; callers must not mutate it.
        The first call lists every color's darts, in one pass."""
        return self._once("darts_by_color", self._darts_by_color)[c]

    def _darts_by_color(self) -> list:
        by_color = [[] for _ in COLOR_NAMES]
        for x, c in enumerate(self.dart_colors):
            by_color[c].append(x)
        return by_color

    def _once(self, key, build):
        """``build()``, computed on the first call under ``key`` and kept.

        A DiagramError it raises is kept too, and raised again, as the
        same class with the same message, on every call.
        """
        got = self._derived.get(key)
        if got is None:
            try:
                got = build()
            except DiagramError as err:
                got = err
            self._derived[key] = got
        if isinstance(got, DiagramError):
            raise type(got)(*got.args)
        return got

    def dart_labels(self) -> bytes:
        """Per-dart decorations for canonical forms and isomorphism:
        ``2 * color + 1`` if the dart's vertex is marked, else
        ``2 * color``, which sort as (color kind, color index, marked)
        would.  Built once per diagram."""
        vertex_of = self.surface.vertex_of
        marked = {vertex_of[v.dart] for v in self.marked}
        return self._once(
            "labels",
            lambda: bytes(2 * c + (v in marked) for c, v in zip(self.dart_colors, vertex_of)),
        )

    def genus(self) -> int:
        return self.surface.genus()

    def canonical(self):
        return canonical_form(self.surface, self.dart_labels())

    def isomorphic_to(self, other: "ShadowDiagram"):
        return is_isomorphic(self.surface, other.surface, self.dart_labels(), other.dart_labels())

    def well_formed_errors(self) -> list[str]:
        """The structural errors of the coloring and the marks, as
        :func:`_vertex_pass` lists them; a new list on every call."""
        return list(_vertex_data(self, "errors"))


# ---------------------------------------------------------------------------
# the vertex pass


def _vertex_pass(d: ShadowDiagram) -> dict:
    """Everything ``d`` reads off its vertex rotations, in one walk.

    ``color_rotation[x]`` is the next dart of x's color around x's vertex:
    the rotation each color induces.  ``crossings`` lists the transverse
    alpha crossings as dart pairs (x, y), x of the lower family, where two
    families have two darts each and either pair separates the other (a
    tangency is none).  ``errors`` lists the structural errors vertex by
    vertex, then the missing ends of shadow arcs.

    Short path: an unmarked 4-valent vertex whose colors alternate
    ``a b a b`` (a != b, not both shadow families) has no error; it only
    writes its four color rotation entries, and its crossing when both
    colors are curve families.  Every other vertex, marked ones
    included, takes the general branch."""
    m = d.surface
    rot, code = m.rotation, d.dart_colors
    marked = {m.vertex_of[v.dart] for v in d.marked}
    present = [shadow(i) for i in (1, 2, 3) if d.darts_of_color(shadow(i))]
    color_rotation = list(rot)  # a vertex of one color keeps its rotation
    crossings, errs, missing = [], [], []
    for k, orbit in enumerate(m._vertex_orbits):
        if len(orbit) == 4 and k not in marked:
            x0, x1, x2, x3 = orbit
            a, b = code[x0], code[x1]
            if a != b and code[x2] == a and code[x3] == b and min(a, b) <= SCAFFOLD:
                color_rotation[x0] = x2
                color_rotation[x1] = x3
                color_rotation[x2] = x0
                color_rotation[x3] = x1
                if max(a, b) < SCAFFOLD:
                    crossings.append((x0, x1) if a < b else (x1, x0))
                continue
        v = orbit[0]  # named as a CellId in error messages only
        cs = [code[x] for x in orbit]
        here = dict.fromkeys(cs)  # the colors at v, by first appearance
        if len(here) > 1:
            for x in orbit:
                y = rot[x]
                while code[y] != code[x]:
                    y = rot[y]
                color_rotation[x] = y
        alphas = [c for c in here if c < SCAFFOLD]
        shadows = [c for c in here if c > SCAFFOLD]
        for c in alphas:
            if cs.count(c) != 2:
                errs.append(
                    "vertex %r carries %d darts of %s (want 0 or 2)"
                    % (CellId("vertex", v), cs.count(c), COLOR_NAMES[c])
                )
        if len(alphas) > 2:
            errs.append("more than two curve colors cross at vertex %r" % (CellId("vertex", v),))
        if len(alphas) > 1:
            # the families with two darts here, by code, at their first
            twos = sorted((c, cs.index(c)) for c in alphas if cs.count(c) == 2)
            for (_, p1), (_, q1) in itertools.combinations(twos, 2):
                p2, q2 = cs.index(cs[p1], p1 + 1), cs.index(cs[q1], q1 + 1)
                if (p1 < q1 < p2) != (p1 < q2 < p2):
                    crossings.append((orbit[p1], orbit[q1]))
                elif len(alphas) == 2 and len(orbit) == 4:
                    errs.append(
                        "curve colors do not alternate at crossing %r" % (CellId("vertex", v),)
                    )
        if k in marked:
            missing += [
                "marked vertex %r has no %s end" % (CellId("vertex", v), COLOR_NAMES[c])
                for c in present
                if c not in here
            ]
            continue
        if len(shadows) > 1:
            errs.append("shadow families share interior vertex %r" % (CellId("vertex", v),))
        for c in shadows:
            if cs.count(c) != 2:
                errs.append(
                    "%s ends at unmarked vertex %r" % (COLOR_NAMES[c], CellId("vertex", v))
                )
    return {"color_rotation": color_rotation, "crossings": crossings, "errors": errs + missing}


def _vertex_data(d: ShadowDiagram, key: str):
    """Entry ``key`` of the vertex pass, run once per diagram; do not mutate it."""
    return d._once("vertices", lambda: _vertex_pass(d))[key]


def _color_parts(d: ShadowDiagram):
    """``(index, parts)``, once per diagram: ``parts[c]`` lists the
    components of color c (see :func:`color_components`), ``index[x]``
    the position of x's component in its color's list."""

    def build():
        m = d.surface
        comp_of, comps = perm_orbits(m.n_darts, (m.edge_pairing, _vertex_data(d, "color_rotation")))
        parts, index = [[] for _ in COLOR_NAMES], []
        for comp in comps:
            same = parts[d.dart_colors[comp[0]]]
            index.append(len(same))
            same.append(sorted(comp))
        return [index[k] for k in comp_of], parts

    return d._once("parts", build)


# ---------------------------------------------------------------------------
# curve extraction


def _family_curves(d: ShadowDiagram, i: int):
    """The Alpha(i) curves as lists of darts (one dart per traversed edge,
    in traversal order), each from its least dart, so that curve a holds
    the darts of the family's color component a: the walk crosses each
    dart's edge and turns to the family's other dart there, its color
    rotation.  Raises MalformedColoring on branching, at the vertex of
    the least dart that has not two of the family's darts."""
    m = d.surface
    ep, rot = m.edge_pairing, _vertex_data(d, "color_rotation")
    c = alpha(i)
    for x in d.darts_of_color(c):
        if rot[x] == x or rot[rot[x]] != x:
            v = m.vertex_of[x]
            n = sum(d.dart_colors[y] == c for y in m._vertex_orbits[v])
            raise MalformedColoring(
                "%s has %d darts at vertex %r" % (COLOR_NAMES[c], n, m.vertices()[v])
            )
    curves, seen = [], set()
    for x in d.darts_of_color(c):
        if x not in seen:
            curve = [x]
            while rot[ep[curve[-1]]] != x:
                curve.append(rot[ep[curve[-1]]])
            seen.update(curve + [ep[y] for y in curve])
            curves.append(curve)
    return curves


def _curves(d: ShadowDiagram, i: int):
    """The Alpha(i) curves of ``d``, extracted once per diagram; callers
    must not mutate them.  Raises MalformedColoring on every call if the
    family branches."""
    return d._once(("curves", i), lambda: _family_curves(d, i))


def _edge_cycle(m: CombMap, darts):
    """The cycle traversing each dart once, as {edge index: coefficient};
    an edge is oriented from its least dart."""
    out = {}
    for x in darts:
        j = m.edge_of[x]
        out[j] = out.get(j, 0) + (1 if x < m.edge_pairing[x] else -1)
    return {j: a for j, a in out.items() if a}


def _shadow_cycles(d: ShadowDiagram, i: int):
    """A cycle-space basis of the Shadow(i) subgraph, as sparse cycles
    (see :func:`_edge_cycle`): each edge off the subgraph's spanning
    forest, closed through the forest.  The paths from both ends up to
    the root share their upper part, which cancels in the cycle.

    Bridge disks attach to the handlebody along the family's arcs, so any
    cycle supported on those arcs bounds on the handlebody side and counts
    as a compression alongside the Alpha(i) curves.  Arc systems without
    cycles (every diagram of a trivial tangle downstairs) contribute
    nothing; cycles appear in lifted diagrams where arcs merge through
    bridge points."""
    m = d.surface
    ep, vertex_of, edge_of = m.edge_pairing, m.vertex_of, m.edge_of
    darts = d.darts_of_color(shadow(i))
    parent, order = spanning_forest(m, darts)
    tree = {edge_of[parent[v]] for v in order if parent[v] >= 0}

    def up(v):
        """The parent darts from v up to its root."""
        path = []
        while parent[v] >= 0:
            path.append(parent[v])
            v = vertex_of[parent[v]]
        return path

    return [
        _edge_cycle(m, [x] + [ep[y] for y in up(vertex_of[ep[x]])] + up(vertex_of[x]))
        for x in darts
        if x < ep[x] and edge_of[x] not in tree
    ]


def family_cycles(d: ShadowDiagram, i: int):
    """The cycles that bound on the Alpha(i) handlebody side: one per
    Alpha(i) curve, then the Shadow(i) cycle basis, as sparse cycles (see
    :func:`_edge_cycle`).  Curve orientations are arbitrary; homology
    quotients do not see them.  Computed once per diagram; raises
    MalformedColoring if the family branches."""
    return d._once(
        ("cycles", i),
        lambda: [_edge_cycle(d.surface, c) for c in _curves(d, i)] + _shadow_cycles(d, i),
    )


def family_classes(d: ShadowDiagram, i: int):
    """The H1 classes of :func:`family_cycles`, projected once per
    diagram by :meth:`etd.invariants.H1Frame.project`.  Callers must not
    mutate them: ``cokernel`` consumes its rows, so it gets copies."""
    frame = h1_frame(d.surface)
    return d._once(("classes", i), lambda: [frame.project(c) for c in family_cycles(d, i)])


# ---------------------------------------------------------------------------
# cut systems


@dataclass(frozen=True)
class CutSystemVerdict:
    """Whether one family's curves form a cut system, and why not."""

    valid: bool
    tight: bool
    n_curves: int
    n_components: int
    reason: str = ""

    def __bool__(self):
        return self.valid


def validate_cut_system(d: ShadowDiagram, i: int) -> CutSystemVerdict:
    """Whether the Alpha(i) curves cut the surface into genus-0 pieces.

    The surface is also slit along the Shadow(i) arcs before the genus
    check: the handlebody on the family's side carries bridge disks along
    those arcs, and compressing along a bridge disk is what slitting its
    arc realizes on the surface.  For diagrams without marked points this
    changes nothing.

    The family may be redundant (parallel copies are allowed, as invariant
    systems typically are); it is ``tight`` when it consists of exactly g
    curves, no arcs, and connected complement.  The verdict is computed
    once per diagram.
    """
    return d._once(("cut", i), lambda: _cut_system_verdict(d, i))


def _cut_system_verdict(d: ShadowDiagram, i: int) -> CutSystemVerdict:
    g = d.surface.genus()
    curves = _curves(d, i)  # raises MalformedColoring if branching
    arcs = d.darts_of_color(shadow(i))
    if not curves and not arcs:
        verdict = g == 0
        return CutSystemVerdict(verdict, verdict, 0, 1, "" if verdict else "no curves")
    genera, _ = _family_cut(d, i)
    if any(genera):
        return CutSystemVerdict(
            False, False, len(curves), len(genera), "complement has positive genus"
        )
    tight = not arcs and len(curves) == g and len(genera) == 1
    return CutSystemVerdict(True, tight, len(curves), len(genera))


def _family_cut(d: ShadowDiagram, i: int):
    """What is read off the one cut of family i, along its curves and
    its arcs, as ``(genera, arc_regions)``: the genus of each piece, and
    for each Shadow(i) component (see :func:`color_components`) the set of
    regions of the cut along the curves alone that its darts lie in.

    Those regions are the cut's pieces merged across the Shadow(i)
    edges, one union per arc dart: the pieces of a cut are its faces
    joined across the uncut edges, and the arcs' edges are the ones the
    curves alone leave uncut.  Computed once per diagram; only these
    small results are kept, not the cut.  Raises MalformedColoring if the
    family branches."""

    def build():
        m = d.surface
        ep = m.edge_pairing
        arcs = d.darts_of_color(shadow(i))
        cut = CutSurface(m, [x for curve in _curves(d, i) for x in curve] + arcs)
        piece = cut.component_of
        regions = DisjointSets(cut.n_components)
        for x in arcs:
            regions.union(piece[x], piece[ep[x]])
        find = regions.find
        arc_regions = [{find(piece[y]) for y in arc} for arc in color_components(d, shadow(i))]
        return [c.genus for c in cut.components], arc_regions

    return d._once(("family_cut", i), build)


# ---------------------------------------------------------------------------
# Heegaard pairs


VERIFIED = "Verified"
HOMOLOGY_CERTIFIED = "HomologyCertified"
FAILED = "Failed"


@dataclass
class HeegaardVerdict:
    """The tier reached for one pair of families, with its k."""

    tier: str
    k: Optional[int]
    reason: str = ""

    def at_least_certified(self):
        return self.tier in (VERIFIED, HOMOLOGY_CERTIFIED)


def _crossing_counts(d: ShadowDiagram, i: int, j: int):
    """Transverse crossing counts between the Alpha(i) and the Alpha(j)
    curves, keyed by curve indices (a, b), from the vertex pass; a
    tangency counts zero.  A dart's curve index is the index of its color
    component (see :func:`_family_curves`)."""
    index, colors = _color_parts(d)[0], d.dart_colors
    ci, cj = alpha(i), alpha(j)
    pairs = [(x, y) if colors[x] == ci else (y, x) for x, y in _vertex_data(d, "crossings")]
    return Counter((index[x], index[y]) for x, y in pairs if (colors[x], colors[y]) == (ci, cj))


def _perfect_matching(n_left, n_right, allowed):
    """Simple augmenting-path bipartite matching; returns matching or None."""
    if n_left != n_right:
        return None
    match_r = [-1] * n_right

    def augment(u, seen):
        for v in range(n_right):
            if (u, v) in allowed and v not in seen:
                seen.add(v)
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    for u in range(n_left):
        if not augment(u, set()):
            return None
    return match_r


def validate_heegaard_pair(d: ShadowDiagram, i: int, j: int, tier2_budget: int = 10_000) -> HeegaardVerdict:
    """Certify that the pair (alpha_i, alpha_j) presents #^k(S1 x S2).

    Tier 1 computes k from homology and fails on torsion.  Tier 2 upgrades
    to Verified by destabilizing dual pairs and recognizing parallel
    systems; it is sound but incomplete, and exhaustion is not an error.
    """
    vi = validate_cut_system(d, i)
    vj = validate_cut_system(d, j)
    if not (vi and vj):
        return HeegaardVerdict(FAILED, None, "not a cut system")
    h = h1_mod_curves(d, (i, j))
    if not h.is_free:
        return HeegaardVerdict(FAILED, None, "torsion %s in curve quotient" % (h,))
    k = h.rank

    # ---- tier 2 ---------------------------------------------------------
    m = d.surface
    curves_i, curves_j = _curves(d, i), _curves(d, j)
    counts = _crossing_counts(d, i, j)
    active_i = set(range(len(curves_i)))
    active_j = set(range(len(curves_j)))
    budget = tier2_budget

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
        return HeegaardVerdict(HOMOLOGY_CERTIFIED, k, "tier-2 budget exhausted")

    if not active_i and not active_j:
        return HeegaardVerdict(VERIFIED, k)

    # remaining curves must be crossing-free and matched by annuli
    for a in active_i:
        if cross_total("i", a):
            return HeegaardVerdict(HOMOLOGY_CERTIFIED, k, "tier-2 inconclusive")
    ai = sorted(active_i)
    aj = sorted(active_j)
    if len(ai) != len(aj):
        return HeegaardVerdict(HOMOLOGY_CERTIFIED, k, "tier-2 inconclusive")
    circle_owner = {}
    for side, active, curves in (("i", ai, curves_i), ("j", aj, curves_j)):
        for a in active:
            for x in curves[a]:
                circle_owner[x] = circle_owner[m.edge_pairing[x]] = (side, a)
    cut = CutSurface(m, circle_owner)
    allowed = set()
    for comp in cut.components:
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
    if _perfect_matching(len(ai), len(aj), allowed) is not None:
        return HeegaardVerdict(VERIFIED, k)
    return HeegaardVerdict(HOMOLOGY_CERTIFIED, k, "tier-2 inconclusive")


# ---------------------------------------------------------------------------
# shadow arcs and bridge data


def color_components(d: ShadowDiagram, c: int):
    """Connected components of the union of the edges of color ``c``,
    as ascending dart lists ordered by least dart: darts are joined
    along their edge and at every vertex they share, the orbits of the
    edge pairing and the color rotation.  Computed once per diagram for
    all colors; callers must not mutate them."""
    return _color_parts(d)[1][c]


def _arc_end_pairing(d: ShadowDiagram, v: CellId, i: int, j: int):
    """Pair Shadow(i) with Shadow(j) arc-ends at the marked vertex ``v``
    by rotation adjacency.  Returns list of (dart_i, dart_j) pairs.

    One pass in rotation order from the vertex's first dart, with a
    stack that holds ends of one family: an end of the other family
    pairs with the top, any other end is pushed.  Ends left on the
    stack do not pair."""
    m, colors, ci, cj = d.surface, d.dart_colors, shadow(i), shadow(j)
    stack, pairs = [], []
    for x in m._vertex_orbits[m.vertex_of[v.dart]]:
        c = colors[x]
        if c != ci and c != cj:
            continue
        if stack and colors[stack[-1]] != c:
            top = stack.pop()
            pairs.append((x, top) if c == ci else (top, x))
        else:
            stack.append(x)
    if stack:
        raise MalformedColoring("arc-ends of families %d/%d do not pair at %r" % (i, j, v))
    return pairs


def _count_bridge_loops(d: ShadowDiagram, i: int, j: int) -> int:
    """Components of the closed 1-manifold a_i u a_j (arc families joined
    at bridge points, plus closed components of either family): the
    orbits, on the two families' darts, of the edge pairing and the join
    (the color rotation at an unmarked vertex, the arc-end pairing at a
    marked one), one walk over each orbit's darts.  The walk follows both
    maps from every dart: on a malformed diagram an arc can end or branch
    at an unmarked vertex, where the join is no fixed-point-free
    involution to alternate with the pairing.

    The join is one flat array, a copy of the color rotation with the
    arc-end pairing written over it, so each step of the walk is two
    array reads.  The arc-end pairing is found marked vertex by marked
    vertex, by :func:`_arc_end_pairing`."""
    m = d.surface
    ep = m.edge_pairing
    join = list(_vertex_data(d, "color_rotation"))
    for v in sorted(d.marked):
        for xi, xj in _arc_end_pairing(d, v, i, j):
            join[xi], join[xj] = xj, xi
    seen = bytearray(m.n_darts)
    loops = 0
    for x in d.darts_of_color(shadow(i)) + d.darts_of_color(shadow(j)):
        if seen[x]:
            continue
        loops += 1
        seen[x] = 1
        todo = [x]
        while todo:
            y = todo.pop()
            z = ep[y]
            if not seen[z]:
                seen[z] = 1
                todo.append(z)
            z = join[y]
            if not seen[z]:
                seen[z] = 1
                todo.append(z)
    return loops


@dataclass
class ShadowVerdict:
    """The bridge count b and the loop counts p of the shadow arcs."""

    ok: bool
    b: int
    p: tuple
    reason: str = ""

    def __bool__(self):
        return self.ok

    @property
    def chi_surface(self):
        return sum(self.p) - self.b


def validate_shadow(d: ShadowDiagram) -> ShadowVerdict:
    """Check the per-family complementary-region condition and count the
    bridge parameters (b; p1, p2, p3).

    Each Shadow(i) component must lie in one region of the surface cut
    along the Alpha(i) curves, and no two in the same one.  The regions
    come from the family's one cut along its curves and its arcs, which
    the cut-system verdict reads too (see :func:`_family_cut`)."""
    if len(d.marked) % 2:
        raise OddMarkedCount("%d marked vertices" % len(d.marked))
    if not any(d.darts_of_color(shadow(i)) for i in (1, 2, 3)):
        return ShadowVerdict(True, 0, (), "no shadow arcs")

    for i in (1, 2, 3):
        comps = color_components(d, shadow(i))
        if not comps:
            continue
        if _curves(d, i):
            # locate each arc component in a complementary component
            count = {}
            for regions in _family_cut(d, i)[1]:
                if len(regions) != 1:
                    raise ArcOutsideComplementaryDisk(
                        "shadow%d component crosses alpha%d" % (i, i)
                    )
                (r,) = regions
                count[r] = count.get(r, 0) + 1
            for r, n in count.items():
                if n > 1:
                    raise ArcOutsideComplementaryDisk(
                        "%d shadow%d components share a complementary region" % (n, i)
                    )
        else:
            if len(comps) > 1:
                raise ArcOutsideComplementaryDisk(
                    "%d shadow%d components share a complementary region" % (len(comps), i)
                )

    b = len(d.marked) // 2
    p = tuple(_count_bridge_loops(d, i, i % 3 + 1) for i in (1, 2, 3))
    return ShadowVerdict(True, b, p)


# ---------------------------------------------------------------------------
# the full report


@dataclass
class ValidationReport:
    """Every verdict of one validation, with its genus and Euler characteristics."""

    genus: int
    cut_verdicts: dict  # i -> CutSystemVerdict
    pair_verdicts: dict  # i -> HeegaardVerdict for the pair (i, i+1)
    shadow_verdict: Optional[ShadowVerdict]
    structural_errors: list
    chi_x: Optional[int] = None
    chi_surface: Optional[int] = None

    @property
    def k(self):
        return tuple(self.pair_verdicts[i].k for i in (1, 2, 3))

    @property
    def ok(self):
        return (
            not self.structural_errors
            and all(self.cut_verdicts[i].valid for i in (1, 2, 3))
            and all(self.pair_verdicts[i].at_least_certified() for i in (1, 2, 3))
            and (self.shadow_verdict is None or self.shadow_verdict.ok)
        )

    def summary(self):
        ks = self.k
        ktxt = ",".join("?" if x is None else str(x) for x in ks)
        lines = ["(%d; %s)" % (self.genus, ktxt)]
        if self.chi_x is not None:
            lines.append("chi(X) = %d" % self.chi_x)
        if self.shadow_verdict and self.shadow_verdict.p:
            sv = self.shadow_verdict
            lines.append("bridge (%d; %s)" % (sv.b, ",".join(map(str, sv.p))))
            lines.append("chi(S) = %d" % sv.chi_surface)
        for i in (1, 2, 3):
            lines.append("alpha%d: %s" % (i, "ok" if self.cut_verdicts[i] else "invalid"))
            hv = self.pair_verdicts[i]
            lines.append("pair (%d,%d): %s k=%s" % (i, i % 3 + 1, hv.tier, hv.k))
        if self.structural_errors:
            lines.append("structural errors: " + "; ".join(self.structural_errors))
        return "\n".join(lines)


def validate_trisection(d: ShadowDiagram, tier2_budget: int = 10_000) -> ValidationReport:
    errs = d.well_formed_errors()
    g = d.surface.genus()
    cuts = {}
    pairs = {}
    for i in (1, 2, 3):
        try:
            cuts[i] = validate_cut_system(d, i)
        except MalformedColoring as e:
            cuts[i] = CutSystemVerdict(False, False, 0, 0, str(e))
    for i in (1, 2, 3):
        j = i % 3 + 1
        try:
            pairs[i] = validate_heegaard_pair(d, i, j, tier2_budget=tier2_budget)
        except MalformedColoring as e:
            pairs[i] = HeegaardVerdict(FAILED, None, str(e))
    shadow_v = None
    try:
        shadow_v = validate_shadow(d)
    except DiagramError as e:
        errs.append(str(e))
    chi_x = None
    if all(pairs[i].at_least_certified() for i in (1, 2, 3)):
        chi_x = 2 + g - sum(pairs[i].k for i in (1, 2, 3))
    chi_s = None
    if shadow_v is not None and shadow_v.p:
        chi_s = shadow_v.chi_surface
    return ValidationReport(g, cuts, pairs, shadow_v, errs, chi_x, chi_s)
