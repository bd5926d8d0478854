"""The vertex pass against reference helpers that walk the rotations
themselves.

Each reference below is a self-contained copy of a helper as it was
before the helpers read one per-diagram vertex pass: the structural
errors, curve extraction, crossing counts, color components and bridge
loop count (with the arc-end pairing it calls).  Seeded random
recolorings and re-markings of the frozen data files, the standard
catalog entries and the five Q8 lifts must give the same reports,
errors, components and folded edges under both.  On the same diagrams,
malformed ones included, the bridge loop count's orbit walk must agree
with the union-find count it replaced, and the vertex pass must give
what ``reference_vertex_pass``, the pass without its short path for
plain crossings, gives.  Further variants put each two-color pattern of
a 4-valent vertex at an unmarked and at a marked vertex.
"""

import functools
import inspect
import itertools
import random
import sys

import pytest

import etd.diagram as diagram_mod
import etd.quotient as quotient_mod
from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, q8_reductions
from etd.cmap import CellId, DisjointSets
from etd.cover import derived_cover
from etd.diagio import parse_diagram_file
from etd.diagram import (
    COLOR_NAMES,
    SCAFFOLD,
    MalformedColoring,
    ShadowDiagram,
    alpha,
    shadow,
    validate_trisection,
)
from test_catalog import frozen_text

SIX = [alpha(i) for i in (1, 2, 3)] + [shadow(i) for i in (1, 2, 3)]
PALETTE = SIX + [SCAFFOLD]
PAIRS = ((1, 2), (2, 3), (3, 1))


def kind_index(c):
    """A color code's (kind, index) pair, read off its name alone:
    ``("alpha", 2)``, ``("scaffold", None)``."""
    name = COLOR_NAMES[c]
    return (name, None) if name == "scaffold" else (name[:-1], int(name[-1]))


# ---------------------------------------------------------------------------
# reference helpers


def reference_vertex_pass(d):
    """The vertex pass with every vertex on its general branch."""
    m = d.surface
    rot, code = m.rotation, d.dart_colors
    marked = {m.vertex_of[v.dart] for v in d.marked}
    present = [shadow(i) for i in (1, 2, 3) if d.darts_of_color(shadow(i))]
    color_rotation = list(rot)
    crossings, errs, missing = [], [], []
    for k, orbit in enumerate(m._vertex_orbits):
        v = orbit[0]
        cs = [code[x] for x in orbit]
        here = dict.fromkeys(cs)
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


def reference_well_formed_errors(self):
    errs = []
    m = self.surface
    for v in m.vertices():
        orbit = m.orbit(v)
        alpha_families = {}
        for d in orbit:
            kind, index = kind_index(self.dart_colors[d])
            if kind == "alpha":
                alpha_families.setdefault(index, []).append(d)
        for i, ds in alpha_families.items():
            if len(ds) not in (0, 2):
                errs.append(
                    "vertex %r carries %d darts of alpha%d (want 0 or 2)" % (v, len(ds), i)
                )
        if len(alpha_families) > 2:
            errs.append("more than two curve colors cross at vertex %r" % (v,))
        if len(alpha_families) == 2 and len(orbit) == 4 and all(
            len(ds) == 2 for ds in alpha_families.values()
        ):
            fams = [kind_index(self.dart_colors[d])[1] for d in orbit]
            if any(fams[k] == fams[(k + 1) % 4] for k in range(4)):
                errs.append("curve colors do not alternate at crossing %r" % (v,))
        shadow_families = {}
        for d in orbit:
            kind, index = kind_index(self.dart_colors[d])
            if kind == "shadow":
                shadow_families.setdefault(index, []).append(d)
        if v not in self.marked:
            if len(shadow_families) > 1:
                errs.append("shadow families share interior vertex %r" % (v,))
            for i, ds in shadow_families.items():
                if len(ds) != 2:
                    errs.append("shadow%d ends at unmarked vertex %r" % (i, v))
    present = {i for k, i in map(kind_index, self.dart_colors) if k == "shadow"}
    for v in sorted(self.marked):
        here = {
            i for k, i in (kind_index(self.dart_colors[d]) for d in self.surface.orbit(v))
            if k == "shadow"
        }
        for i in present:
            if i not in here:
                errs.append("marked vertex %r has no shadow%d end" % (v, i))
    return errs


def reference_family_curves(d, i):
    m = d.surface
    darts = d.darts_of_color(alpha(i))
    at_vertex = {}
    for x in darts:
        at_vertex.setdefault(m.vertex_of[x], []).append(x)
    for v, ds in at_vertex.items():
        if len(ds) != 2:
            raise MalformedColoring(
                "alpha%d has %d darts at vertex %r" % (i, len(ds), m.vertices()[v])
            )
    partner = {}
    for ds in at_vertex.values():
        partner[ds[0]] = ds[1]
        partner[ds[1]] = ds[0]
    curves = []
    seen = set()
    for x in darts:
        if x in seen:
            continue
        curve = []
        y = x
        while True:
            curve.append(y)
            seen.add(y)
            seen.add(m.edge_pairing[y])
            y = partner[m.edge_pairing[y]]
            if y == x:
                break
        curves.append(curve)
    return curves


def reference_crossing_counts(d, i, j):
    m = d.surface
    owners = []
    for curves in (diagram_mod._curves(d, i), diagram_mod._curves(d, j)):
        owner = [-1] * m.n_darts
        for a, curve in enumerate(curves):
            for x in curve:
                owner[x] = owner[m.edge_pairing[x]] = a
        owners.append(owner)
    owner_i, owner_j = owners
    counts = {}
    for v in m.vertices():
        orbit = m.orbit(v)
        at_i = [(p, owner_i[x]) for p, x in enumerate(orbit) if owner_i[x] >= 0]
        at_j = [(q, owner_j[x]) for q, x in enumerate(orbit) if owner_j[x] >= 0]
        if at_i and at_j:
            (p1, a), (p2, _) = at_i
            (q1, b), (q2, _) = at_j
            if (p1 < q1 < p2) != (p1 < q2 < p2):
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def reference_color_components(d, c):
    m = d.surface
    darts = d.darts_of_color(c)
    sets = DisjointSets(m.n_darts)
    first_at = {}
    for x in darts:
        sets.union(x, m.edge_pairing[x])
        sets.union(x, first_at.setdefault(m.vertex_of[x], x))
    comps = {}
    for x in darts:
        comps.setdefault(sets.find(x), []).append(x)
    return list(comps.values())


def reference_arc_end_pairing(d, v, i, j):
    seq = []
    for x in d.surface.orbit(v):
        kind, index = kind_index(d.dart_colors[x])
        if kind == "shadow" and index in (i, j):
            seq.append((x, index))
    pairs = []
    while seq:
        n = len(seq)
        hit = None
        for p in range(n):
            (x1, f1), (x2, f2) = seq[p], seq[(p + 1) % n]
            if {f1, f2} == {i, j}:
                hit = p
                break
        if hit is None:
            raise MalformedColoring("arc-ends of families %d/%d do not pair at %r" % (i, j, v))
        (x1, f1), (x2, f2) = seq[hit], seq[(hit + 1) % n]
        pairs.append((x1, x2) if f1 == i else (x2, x1))
        for idx in sorted({hit, (hit + 1) % n}, reverse=True):
            seq.pop(idx)
    return pairs


def reference_count_bridge_loops(d, i, j):
    m = d.surface
    marked = {m.vertex_of[v.dart] for v in d.marked}
    loops = DisjointSets(m.n_darts)
    allx = d.darts_of_color(shadow(i)) + d.darts_of_color(shadow(j))
    for x in allx:
        loops.union(x, m.edge_pairing[x])
    for f in (i, j):
        at_vertex = {}
        for x in d.darts_of_color(shadow(f)):
            v = m.vertex_of[x]
            if v not in marked:
                at_vertex.setdefault(v, []).append(x)
        for ds in at_vertex.values():
            for a, b in zip(ds, ds[1:]):
                loops.union(a, b)
    for v in sorted(d.marked):
        for xi, xj in reference_arc_end_pairing(d, v, i, j):
            loops.union(xi, xj)
    return len({loops.find(x) for x in allx})


def union_find_count_bridge_loops(d, i, j):
    """The bridge loop count by one union-find over all darts per pair,
    reading the vertex pass's color rotation and the reference arc-end
    pairing: the version the orbit walk replaced."""
    m = d.surface
    rot = diagram_mod._vertex_data(d, "color_rotation")
    marked = {m.vertex_of[v.dart] for v in d.marked}
    loops = DisjointSets(m.n_darts)
    allx = d.darts_of_color(shadow(i)) + d.darts_of_color(shadow(j))
    for x in allx:
        loops.union(x, m.edge_pairing[x])
        if m.vertex_of[x] not in marked:
            loops.union(x, rot[x])
    for v in sorted(d.marked):
        for xi, xj in reference_arc_end_pairing(d, v, i, j):
            loops.union(xi, xj)
    return len({loops.find(x) for x in allx})


def _loop_counts(d, count):
    """Each pair's bridge loop count, or the error that stops it."""
    out = []
    for i, j in PAIRS:
        try:
            out.append(count(d, i, j))
        except MalformedColoring as err:
            out.append(str(err))
    return out


def _outputs(d):
    """Everything compared: the report, the structural errors, the six
    colors' components, the folded edges and each pair's crossing counts
    where neither family branches."""
    counts = {}
    for i, j in PAIRS:
        try:
            diagram_mod._curves(d, i), diagram_mod._curves(d, j)
        except MalformedColoring:
            continue
        counts[(i, j)] = diagram_mod._crossing_counts(d, i, j)
    return (
        validate_trisection(d, tier2_budget=200).summary(),
        d.well_formed_errors(),
        [diagram_mod.color_components(d, c) for c in SIX],
        [sorted(quotient_mod.folded_curve_edges(d, i)) for i in (1, 2, 3)],
        counts,
    )


def _reference_outputs(d):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShadowDiagram, "well_formed_errors", reference_well_formed_errors)
        mp.setattr(diagram_mod, "_family_curves", reference_family_curves)
        mp.setattr(diagram_mod, "_crossing_counts", reference_crossing_counts)
        mp.setattr(diagram_mod, "color_components", reference_color_components)
        mp.setattr(quotient_mod, "color_components", reference_color_components)
        mp.setattr(diagram_mod, "_count_bridge_loops", reference_count_bridge_loops)
        return _outputs(d)


# ---------------------------------------------------------------------------
# the differential test


@functools.cache
def _q8_lifts():
    base, reds = q8_reductions()
    return [derived_cover(base.diagram, va).diagram for _, va, _ in reds]


BASES = (
    [("data:" + n, lambda n=n: parse_diagram_file(frozen_text(n + ".diagram")).diagram) for n in FROZEN_NAMES]
    + [("catalog:" + n, lambda n=n: entry(n).diagram) for n in STANDARD_NAMES]
    + [("lift:%d" % k, lambda k=k: _q8_lifts()[k]) for k in range(5)]
)


def _variant(d, rng):
    """``d`` with its families renumbered, a few edges recolored and a
    few vertices marked or unmarked, all at random."""
    m = d.surface
    ep, vertex_of = m.edge_pairing, m.vertex_of
    colors = list(d.dart_colors)
    marks = [v.dart for v in d.marked]
    if rng.random() < 0.5:
        perm = rng.sample((1, 2, 3), 3)
        family = {"alpha": alpha, "shadow": shadow}
        colors = [
            c if i is None else family[kind](perm[i - 1])
            for c, (kind, i) in zip(colors, map(kind_index, colors))
        ]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        x = rng.randrange(m.n_darts)
        colors[x] = colors[ep[x]] = rng.choice(PALETTE)
    for _ in range(rng.choice((0, 0, 1, 2))):
        x = rng.randrange(m.n_darts)
        kept = [y for y in marks if vertex_of[y] != vertex_of[x]]
        marks = kept if len(kept) < len(marks) else marks + [x]
    return colors, marks


# the two colors of a 4-valent vertex, in rotation order from its first
# dart: a b a b (both orders of each pair) and the tangency a a b b
PATTERNS = [
    pattern
    for a, b in (
        (alpha(1), alpha(2)),
        (alpha(1), shadow(2)),
        (alpha(3), SCAFFOLD),
        (SCAFFOLD, shadow(1)),
        (shadow(1), shadow(3)),  # shadow families share the vertex: an error
    )
    for pattern in ((a, b, a, b), (b, a, b, a))
] + [(alpha(1), alpha(1), alpha(2), alpha(2))]


def _pattern_variants(d, rng):
    """``(k, variants)``: ``d`` with each pattern put on the four edges at
    its 4-valent vertex k, which is left unmarked once and marked once,
    as ``(pattern, marked, colors, marks)``; no variants if no 4-valent
    vertex has four distinct edges."""
    m = d.surface
    ep = m.edge_pairing
    at = [
        k for k, orbit in enumerate(m._vertex_orbits)
        if len(orbit) == 4 and len({min(x, ep[x]) for x in orbit}) == 4
    ]
    if not at:
        return None, []
    k = rng.choice(at)
    orbit = m._vertex_orbits[k]
    others = [v.dart for v in d.marked if m.vertex_of[v.dart] != k]
    out = []
    for pattern in PATTERNS:
        colors = list(d.dart_colors)
        for x, c in zip(orbit, pattern):
            colors[x] = colors[ep[x]] = c
        out += [(pattern, False, colors, others), (pattern, True, colors, others + [orbit[0]])]
    return k, out


@pytest.mark.parametrize("name, build", BASES, ids=[n for n, _ in BASES])
def test_vertex_pass_matches_the_reference_helpers(name, build):
    d = build()
    rng = random.Random(name)
    variants = [(list(d.dart_colors), [v.dart for v in d.marked])]
    variants += [_variant(d, rng) for _ in range(20)]
    variants += [(colors, marks) for _, _, colors, marks in _pattern_variants(d, rng)[1]]
    flagged = 0
    for colors, marks in variants:
        new = _outputs(ShadowDiagram.from_darts(d.surface, colors, marks))
        ref = _reference_outputs(ShadowDiagram.from_darts(d.surface, colors, marks))
        assert new == ref, (name, colors, marks)
        dv = ShadowDiagram.from_darts(d.surface, colors, marks)
        assert diagram_mod._vertex_pass(dv) == reference_vertex_pass(dv), (name, colors, marks)
        flagged += bool(new[1])
        # the loop count on every diagram, validate_shadow's checks or not
        dv = ShadowDiagram.from_darts(d.surface, colors, marks)
        assert _loop_counts(dv, diagram_mod._count_bridge_loops) == _loop_counts(
            dv, union_find_count_bridge_loops
        ), (name, colors, marks)
    # the variants reach both clean and malformed diagrams
    assert not _outputs(d)[1] and flagged


def old_arc_end_pairing(d, v, i, j):
    """``diagram._arc_end_pairing`` as it was before its one-pass form:
    it refiltered the end list once per pair found."""
    m, colors, ci = d.surface, d.dart_colors, shadow(i)
    ends = (ci, shadow(j))
    seq = [(x, colors[x]) for x in m._vertex_orbits[m.vertex_of[v.dart]] if colors[x] in ends]
    pairs = []
    while seq:
        n = len(seq)
        hit = next((p for p in range(n) if seq[p][1] != seq[(p + 1) % n][1]), None)
        if hit is None:
            raise MalformedColoring("arc-ends of families %d/%d do not pair at %r" % (i, j, v))
        (x1, f1), (x2, _) = seq[hit], seq[(hit + 1) % n]
        pairs.append((x1, x2) if f1 == ci else (x2, x1))
        seq = [e for p, e in enumerate(seq) if p not in (hit, (hit + 1) % n)]
    return pairs


def _pairings(d, pairing):
    """Each marked vertex's arc-end pairing for each ordered pair of
    shadow families, or the error that stops it."""
    out = []
    for v in sorted(d.marked):
        for i, j in itertools.permutations((1, 2, 3), 2):
            try:
                out.append(pairing(d, v, i, j))
            except MalformedColoring as err:
                out.append(str(err))
    return out


@pytest.mark.parametrize("name, build", BASES, ids=[n for n, _ in BASES])
def test_arc_end_pairing_matches_the_old_one(name, build):
    """The one-pass pairing gives the old pairs and errors, at the marked
    vertices of each base, of random recolorings and re-markings of it,
    and of each two-color pattern put on a marked vertex."""
    d = build()
    rng = random.Random("pairing " + name)
    variants = [(list(d.dart_colors), [v.dart for v in d.marked])]
    variants += [_variant(d, rng) for _ in range(20)]
    variants += [(colors, marks) for _, _, colors, marks in _pattern_variants(d, rng)[1]]
    seen = set()
    for colors, marks in variants:
        dv = ShadowDiagram.from_darts(d.surface, colors, marks)
        new = _pairings(dv, diagram_mod._arc_end_pairing)
        assert new == _pairings(dv, old_arc_end_pairing), (name, colors, marks)
        assert new == _pairings(dv, reference_arc_end_pairing), (name, colors, marks)
        seen.update(type(p) for p in new)
    # both pairs and errors are compared
    assert seen == {list, str} or not d.marked


def _general_branch_vertices(d):
    """The vertex pass on ``d``, and the indices of the vertices that took
    its general branch, read off a line trace of the pass.

    The general branch is found by its ``here = dict.fromkeys(`` line; if
    that line is rewritten the unpacking below fails, not the count.  The
    tracer in place before (coverage's, a debugger's) is put back."""
    code = diagram_mod._vertex_pass.__code__
    lines, first = inspect.getsourcelines(diagram_mod._vertex_pass)
    (general,) = [first + i for i, ln in enumerate(lines) if "here = dict.fromkeys(" in ln]
    seen = []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == general:
            seen.append(frame.f_locals["k"])
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = diagram_mod._vertex_pass(d)
    finally:
        sys.settrace(outer)
    return got, seen


def test_the_line_trace_puts_back_the_tracer_before_it():
    def mine(frame, event, arg):
        return None

    outer = sys.gettrace()
    sys.settrace(mine)
    try:
        _general_branch_vertices(_q8_lifts()[0])
        assert sys.gettrace() is mine
    finally:
        sys.settrace(outer)


def test_each_pattern_takes_its_branch_of_the_vertex_pass():
    # the short path is for an unmarked a b a b vertex, a != b, not both shadows
    d = _q8_lifts()[4]
    k, variants = _pattern_variants(d, random.Random(0))
    assert len(variants) == 2 * len(PATTERNS)
    for pattern, marked, colors, marks in variants:
        dv = ShadowDiagram.from_darts(d.surface, colors, marks)
        got, general = _general_branch_vertices(dv)
        assert got == reference_vertex_pass(dv)
        a, b, *rest = pattern
        plain = rest == [a, b] and a != b and min(a, b) <= SCAFFOLD
        assert (k in general) == (marked or not plain), (pattern, marked)


def test_vertex_pass_takes_its_general_branch_only_off_plain_crossings():
    d = _q8_lifts()[4]
    m = d.surface
    assert (m.n_darts, len(m._vertex_orbits)) == (1712, 392)
    got, general = _general_branch_vertices(d)
    assert got == reference_vertex_pass(d)
    assert len(general) == 16  # of 392 vertices, 376 are plain crossings
