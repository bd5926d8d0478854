"""The vertex pass against reference helpers that walk the rotations
themselves.

Each reference below is a self-contained copy of a helper as it was
before the helpers read one per-diagram vertex pass: the structural
errors, curve extraction, crossing counts, color components and bridge
loop count (with the arc-end pairing it calls).  Seeded random
recolorings and re-markings of the frozen data files, the standard
catalog entries and four Q8 lifts must give the same reports, errors,
components and folded edges under both.  On the same diagrams, malformed
ones included, the bridge loop count's orbit walk must agree with the
union-find count it replaced.
"""

import functools
import random

import pytest

import etd.diagram as diagram_mod
import etd.quotient as quotient_mod
from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, q8_reductions
from etd.cmap import DisjointSets
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
    return [derived_cover(base.diagram, va).diagram for _, va, _ in reds[:4]]


BASES = (
    [("data:" + n, lambda n=n: parse_diagram_file(frozen_text(n + ".diagram")).diagram) for n in FROZEN_NAMES]
    + [("catalog:" + n, lambda n=n: entry(n).diagram) for n in STANDARD_NAMES]
    + [("lift:%d" % k, lambda k=k: _q8_lifts()[k]) for k in range(4)]
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


@pytest.mark.parametrize("name, build", BASES, ids=[n for n, _ in BASES])
def test_vertex_pass_matches_the_reference_helpers(name, build):
    d = build()
    rng = random.Random(name)
    variants = [(list(d.dart_colors), [v.dart for v in d.marked])]
    variants += [_variant(d, rng) for _ in range(20)]
    flagged = 0
    for colors, marks in variants:
        new = _outputs(ShadowDiagram.from_darts(d.surface, colors, marks))
        ref = _reference_outputs(ShadowDiagram.from_darts(d.surface, colors, marks))
        assert new == ref, (name, colors, marks)
        flagged += bool(new[1])
        # the loop count on every diagram, validate_shadow's checks or not
        dv = ShadowDiagram.from_darts(d.surface, colors, marks)
        assert _loop_counts(dv, diagram_mod._count_bridge_loops) == _loop_counts(
            dv, union_find_count_bridge_loops
        ), (name, colors, marks)
    # the variants reach both clean and malformed diagrams
    assert not _outputs(d)[1] and flagged
