"""Triangulated closed 4-manifolds with simplicial symmetry.

A :class:`GTriangulation` is a list of pentachora (5-element vertex
tuples) together with vertex-permutation generators and optional closed
surface subcomplexes.  Facet gluings are implied by vertex sets: every
tetrahedral 4-subset must occur in exactly two pentachora.

From the incidence counts the module computes the parameters of the
induced decomposition of the manifold into three handlebody-neighborhood
sectors: each sector deformation retracts onto a graph, and the genus
and the three k-values are Euler characteristics of those graphs,

    k1 = 1 - (V - 4P),   k2 = 1 - (F - 3T),   k3 = 1 - (E - 25P),
    g  = 1 - (3F - 6T - 25P),

where V, E, F, T, P count simplices by dimension.  ``sigma_oracle``
cross-checks g on a completely different path: it instantiates the
central surface cell by cell (vertical annuli, disks and planar pieces
inside every pentachoron, glued along the shared triangles and
tetrahedra) and reads the genus off the assembled complex.  The cells
of one pentachoron are enumerated once, on the standard pentachoron, as
a template on flat integer ids, which proves once that the piece is
connected and closed away from its shared triangles and tetrahedra; per
triangulation, the closedness and connectivity checks visit only those
shared cells.

Limitations, by design: vertex links are not checked for sphericity
(that would need 3-sphere recognition), so the input is trusted to be a
manifold triangulation; the group action is validated but the parameters
do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, islice

from . import EtdError
from .cmap import DisjointSets, is_permutation
from .diagio import FileFormatError, read_ints


class TriangError(EtdError):
    pass


class OpenFacet(TriangError):
    pass


class NonSimplicialAction(TriangError):
    pass


class SurfaceNotInvariant(TriangError):
    pass


class GenusMismatch(TriangError):
    pass


class NotClosedSurface(TriangError):
    pass


@dataclass
class GTriangulation:
    """A 4-manifold triangulation with a vertex action and marked surfaces.
    It is validated once (:func:`validate_triangulation`): it must not change."""

    n_vertices: int
    pentachora: list  # 5-tuples of vertex indices
    generators: list = field(default_factory=list)  # vertex permutations
    generator_names: list = field(default_factory=list)
    surfaces: list = field(default_factory=list)  # lists of triangles
    _valid = False  # set by validate_triangulation; not a field

    def __post_init__(self):
        self.pentachora = [tuple(p) for p in self.pentachora]
        self.generators = [tuple(g) for g in self.generators]
        if not self.generator_names:
            self.generator_names = ["g%d" % i for i in range(len(self.generators))]
        self.surfaces = [
            [tuple(sorted(tri)) for tri in s] for s in self.surfaces
        ]

    # ---- derived simplex sets (vertex-subset representation) ----

    def tetrahedra(self):
        out = set()
        for p in self.pentachora:
            out.update(combinations(sorted(p), 4))
        return sorted(out)

    def triangles(self):
        out = set()
        for p in self.pentachora:
            out.update(combinations(sorted(p), 3))
        return sorted(out)

    def edges(self):
        out = set()
        for p in self.pentachora:
            out.update(combinations(sorted(p), 2))
        return sorted(out)

    def counts(self):
        """(V, E, F, T, P) simplex counts."""
        return (
            self.n_vertices,
            len(self.edges()),
            len(self.triangles()),
            len(self.tetrahedra()),
            len(self.pentachora),
        )


# ---------------------------------------------------------------------------
# validation


def _facet_multiset(K: GTriangulation):
    count = {}
    for ip, p in enumerate(K.pentachora):
        for t in combinations(sorted(p), 4):
            count.setdefault(t, []).append(ip)
    return count


def validate_triangulation(K: GTriangulation) -> bool:
    """Check the closed-pseudomanifold, connectivity, action and surface
    invariants once per ``K``; raises a :class:`TriangError` subclass on failure."""
    if K._valid:
        return True
    for p in K.pentachora:
        if len(p) != 5 or len(set(p)) != 5:
            raise TriangError("pentachoron %r does not have 5 distinct vertices" % (p,))
        for v in p:
            if not (0 <= v < K.n_vertices):
                raise TriangError("vertex %r out of range" % (v,))

    # every vertex must be used, so the count is bounded by the input
    if K.n_vertices > 5 * len(K.pentachora):
        raise TriangError(
            "%d vertices, but %d pentachora use at most %d"
            % (K.n_vertices, len(K.pentachora), 5 * len(K.pentachora))
        )
    used = {v for p in K.pentachora for v in p}
    if len(used) != K.n_vertices:
        unused = sorted(set(range(K.n_vertices)) - used)
        more = ", ... (%d in all)" % len(unused) if len(unused) > 5 else ""
        raise TriangError("unused vertices: %s%s" % (", ".join(map(str, unused[:5])), more))

    facets = _facet_multiset(K)
    for t, owners in facets.items():
        if len(owners) != 2:
            raise OpenFacet(
                "tetrahedron %r lies in %d pentachora, want 2" % (t, len(owners))
            )

    # connectivity through shared facets
    n = len(K.pentachora)
    if n == 0:
        raise TriangError("no pentachora")
    pieces = DisjointSets(n)
    merges = sum(pieces.union(*owners) for owners in facets.values())
    if merges != n - 1:
        raise TriangError("triangulation is not connected")

    penta_multiset = sorted(tuple(sorted(p)) for p in K.pentachora)
    for g, name in zip(K.generators, K.generator_names):
        if not is_permutation(g, K.n_vertices):
            raise NonSimplicialAction("generator %s is not a vertex permutation" % name)
        image = sorted(tuple(sorted(g[v] for v in p)) for p in K.pentachora)
        if image != penta_multiset:
            raise NonSimplicialAction(
                "generator %s does not permute the pentachora" % name
            )

    triangles = set(K.triangles())
    for si, s in enumerate(K.surfaces):
        if len(set(s)) != len(s):
            raise TriangError("surface %d repeats a triangle" % si)
        tri_set = set(s)
        if not tri_set <= triangles:
            raise TriangError("surface %d uses triangles not in the 2-skeleton" % si)
        edge_count = {}
        for tri in s:
            for e in combinations(tri, 2):
                edge_count[e] = edge_count.get(e, 0) + 1
        for e, c in edge_count.items():
            if c != 2:
                raise NotClosedSurface(
                    "surface %d: edge %r lies in %d triangles, want 2" % (si, e, c)
                )
        for g, name in zip(K.generators, K.generator_names):
            image = {tuple(sorted(g[v] for v in tri)) for tri in s}
            if image != tri_set:
                raise SurfaceNotInvariant(
                    "surface %d is not invariant under generator %s" % (si, name)
                )
    K._valid = True
    return True


# ---------------------------------------------------------------------------
# counting path


@dataclass
class TriParamReport:
    """Trisection parameters read off a triangulation."""

    genus: int
    k: tuple  # (k1, k2, k3)
    chi_simplex: int  # V - E + F - T + P
    bridge: list  # per surface: (b, (p1, p2, p3))
    notes: list

    @property
    def chi_trisection(self):
        return 2 + self.genus - sum(self.k)

    def summary(self):
        lines = [
            "(%d; %d,%d,%d)  chi=%d" % ((self.genus,) + self.k + (self.chi_simplex,))
        ]
        for b, p in self.bridge:
            lines.append("surface (%d; %d,%d,%d)" % ((b,) + p))
        lines.extend(self.notes)
        return "\n".join(lines)


def trisection_parameters(K: GTriangulation) -> TriParamReport:
    """Sector parameters of the triangulation, by incidence counting.

    The three genus formulas below count the same central-surface spine
    through the three sectors; they agree exactly when each tetrahedron
    bounds two pentachora, so a disagreement means broken input.
    """
    validate_triangulation(K)
    V, E, F, T, P = K.counts()
    k1 = 1 - (V - 4 * P)
    k2 = 1 - (F - 3 * T)
    k3 = 1 - (E - 25 * P)
    chi_gammas = (3 * F - 6 * T - 25 * P, 3 * F - 16 * T, 3 * F - 40 * P)
    if len(set(chi_gammas)) != 1:
        raise GenusMismatch(
            "sector spine Euler characteristics disagree: %r" % (chi_gammas,)
        )
    g = 1 - chi_gammas[0]
    chi_simplex = V - E + F - T + P
    if chi_simplex != 2 + g - (k1 + k2 + k3):
        raise TriangError(
            "Euler characteristic mismatch: simplex count %d vs trisection %d"
            " (vertex links are probably not spheres)"
            % (chi_simplex, 2 + g - (k1 + k2 + k3))
        )
    notes = []
    for gen, name in zip(K.generators, K.generator_names):
        fixed = [v for v in range(K.n_vertices) if gen[v] == v]
        if gen != tuple(range(K.n_vertices)) and fixed:
            notes.append(
                "note: generator %s fixes vertices %s; such fixed points land"
                " in the first sector" % (name, fixed)
            )
    bridge = [bridge_parameters(K, s) for s in K.surfaces]
    return TriParamReport(g, (k1, k2, k3), chi_simplex, bridge, notes)


def bridge_parameters(K: GTriangulation, surface) -> tuple:
    """(b, (p1, p2, p3)) for a closed surface subcomplex.

    The three trivial-tangle patch counts are the surface's vertices,
    triangles and edge midpoints; the strand endpoints are the
    vertex-edge flags, two per edge.
    """
    tris = [tuple(sorted(t)) for t in surface]
    known = set(K.triangles())
    verts = set()
    edge_count = {}
    for tri in tris:
        if tri not in known:
            raise TriangError("surface triangle %r is not a face" % (tri,))
        verts.update(tri)
        for e in combinations(tri, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    for e, c in edge_count.items():
        if c != 2:
            raise NotClosedSurface("edge %r lies in %d triangles, want 2" % (e, c))
    vs, es, fs = len(verts), len(edge_count), len(tris)
    if 3 * fs != 2 * es:
        raise NotClosedSurface("flag count 3F=%d != 2E=%d" % (3 * fs, 2 * es))
    b = 2 * es
    p = (vs, fs, es)
    assert sum(p) - b == vs - es + fs
    return b, p


# ---------------------------------------------------------------------------
# independent assembly of the central surface
#
# Inside every pentachoron the surface consists of
#   * vertical annuli over the vertex-edge seam circles (depth 0..1/4),
#   * one disk per vertex-tetrahedron flag at depth 1/4,
#   * vertical annuli over the vertex-triangle seam circles (1/4..3/4),
#   * one planar 3-holed sphere per triangle at depth 3/4, split here
#     into one square per edge and one hexagon per tetrahedron side.
# Cells are keyed by incidence flags (v in e in f in t), so the gluing
# is forced and no coordinates are needed.  Each cell is shared at one
# of three levels:
#   * a vertex q, by every pentachoron around its triangle;
#   * a vertex p or an edge h or s (depth 0), by the two pentachora on
#     its tetrahedron;
#   * any other cell, by no other pentachoron.
# Every pentachoron's piece is the same complex up to relabelling by its
# sorted vertices, so the keyed rules run once, on the standard
# pentachoron (0, 1, 2, 3, 4), and the result is kept as a template on
# flat integer ids.  The assembly gives each cell the id
#     base of its level + index of its unit * cells per unit + local index,
# its unit being its triangle, tetrahedron or pentachoron.  Two facts
# are proved once, on the template: its piece is connected, and every
# pentachoron-level edge borders two of its faces.  So the per-K checks
# visit only the shared units:
#   * closed: the faces of the template slot a tetrahedron fills in each
#     of its pentachora, summed over them, border each of its edges twice
#     (triangles carry no edges);
#   * connected: one union-find over the units, each pentachoron joined
#     to its 10 triangles and 5 tetrahedra, makes one class, since every
#     unit carries vertices and every piece is connected;
#   * and the Euler characteristic is even.
# A failed check names a cell by its flag key.


def _sigma_cells():
    """The cells of the central surface in the standard pentachoron
    (0, 1, 2, 3, 4), by their flag keys, including the shared cells on
    its five boundary tetrahedra.  Pentachoron-level keys omit the
    pentachoron's index."""
    S = tuple(range(5))
    tets = list(combinations(S, 4))
    edges = {}  # edge key -> (vertex key, vertex key)
    faces = []  # (face key, [edge keys])

    def tet_faces_of(t, e):
        """The two triangles of tetrahedron t containing edge e."""
        other = [v for v in t if v not in e]
        return tuple(sorted(e + (other[0],))), tuple(sorted(e + (other[1],)))

    for t in tets:
        for f in combinations(t, 3):
            for e in combinations(f, 2):
                for v in e:
                    edges[("h", v, e, f, t)] = (("q", v, e, f), ("p", v, e, f, t))
        for e in combinations(t, 2):
            f1, f2 = tet_faces_of(t, e)
            for v in e:
                edges[("s", v, e, t)] = (("p", v, e, f1, t), ("p", v, e, f2, t))
                edges[("ss", v, e, t)] = (("c", v, e, f1, t), ("c", v, e, f2, t))

    for f in combinations(S, 3):
        f_tets = [t for t in tets if set(f) <= set(t)]  # always two
        for e in combinations(f, 2):
            for v in e:
                edges[("wAq", v, e, f)] = (("q", v, e, f), ("qq", v, e, f))
                edges[("wCqq", v, e, f)] = (("qq", v, e, f), ("rr", v, e, f))
                for t in f_tets:
                    edges[("wAp", v, e, f, t)] = (("p", v, e, f, t), ("c", v, e, f, t))
                    edges[("hh", v, e, f, t)] = (("qq", v, e, f), ("c", v, e, f, t))
                    edges[("wCc", v, e, f, t)] = (("c", v, e, f, t), ("r", v, e, f, t))
                    edges[("hh3", v, e, f, t)] = (("rr", v, e, f), ("r", v, e, f, t))
        for t in f_tets:
            for e in combinations(f, 2):
                v1, v2 = e
                edges[("m", e, f, t)] = (("r", v1, e, f, t), ("r", v2, e, f, t))
            for v in f:
                e1, e2 = [e for e in combinations(f, 2) if v in e]
                edges[("g", v, f, t)] = (("c", v, e1, f, t), ("c", v, e2, f, t))
                edges[("g3", v, f, t)] = (("r", v, e1, f, t), ("r", v, e2, f, t))

    # 2-cells
    for e in combinations(S, 2):
        e_faces = [f for f in combinations(S, 3) if set(e) <= set(f)]
        e_tets = [t for t in tets if set(e) <= set(t)]
        for v in e:
            for f in e_faces:
                for t in [t for t in tets if set(f) <= set(t)]:
                    boundary = [("h", v, e, f, t), ("wAq", v, e, f)]
                    boundary += [("hh", v, e, f, t), ("wAp", v, e, f, t)]
                    faces.append((("Ah", v, e, f, t), boundary))
            for t in e_tets:
                f1, f2 = tet_faces_of(t, e)
                boundary = [("s", v, e, t), ("wAp", v, e, f1, t)]
                boundary += [("ss", v, e, t), ("wAp", v, e, f2, t)]
                faces.append((("As", v, e, t), boundary))
    for t in tets:
        for v in t:
            boundary = [("ss", v, e, t) for e in combinations(t, 2) if v in e] + [
                ("g", v, f, t) for f in combinations(t, 3) if v in f
            ]
            faces.append((("B", v, t), boundary))
    for f in combinations(S, 3):
        f_tets = [t for t in tets if set(f) <= set(t)]
        for v in f:
            for e in [e for e in combinations(f, 2) if v in e]:
                for t in f_tets:
                    boundary = [("hh", v, e, f, t), ("wCqq", v, e, f)]
                    boundary += [("hh3", v, e, f, t), ("wCc", v, e, f, t)]
                    faces.append((("Chh", v, e, f, t), boundary))
            for t in f_tets:
                e1, e2 = [e for e in combinations(f, 2) if v in e]
                boundary = [("g", v, f, t), ("wCc", v, e1, f, t)]
                boundary += [("g3", v, f, t), ("wCc", v, e2, f, t)]
                faces.append((("Cg", v, f, t), boundary))
        t1, t2 = f_tets
        for e in combinations(f, 2):
            v1, v2 = e
            boundary = [
                ("m", e, f, t1),
                ("hh3", v1, e, f, t1),
                ("hh3", v1, e, f, t2),
                ("m", e, f, t2),
                ("hh3", v2, e, f, t2),
                ("hh3", v2, e, f, t1),
            ]
            faces.append((("dE", e, f), boundary))
        for t in f_tets:
            boundary = [("m", e, f, t) for e in combinations(f, 2)] + [("g3", v, f, t) for v in f]
            faces.append((("dT", f, t), boundary))
    return edges, faces


# Sharing level of a cell by its kind: 0 for a triangle's cells, 1 for a
# tetrahedron's, 2 (every other kind) for a pentachoron's own.  The
# template's 16 units are the standard pentachoron's 10 triangles and 5
# tetrahedra, in ``combinations`` order, and the pentachoron itself.
_LEVEL = {"q": 0, "p": 1, "h": 1, "s": 1}
_UNITS = (tuple(combinations(range(5), 3)), tuple(combinations(range(5), 4)), (tuple(range(5)),))
_UNIT_LEVEL = tuple(level for level, units in enumerate(_UNITS) for _ in units)


def _relabel(key, labels):
    """``key`` with each vertex label x, alone or in a simplex, replaced
    by ``labels[x]``."""
    return (key[0],) + tuple(
        labels[x] if isinstance(x, int) else tuple(labels[y] for y in x) for x in key[1:]
    )


class _Numbering:
    """Flat ids for one kind of cell (vertices or edges).

    A cell's id is its level's base, plus its unit's index within the
    level times ``per_unit[level]``, plus its local index.  The local
    index numbers a unit's cells by their flag keys written in the
    unit's own vertex positions (0..2, 0..3 or 0..4), so every unit of a
    level has the same local numbering.  (A plain class: a dataclass
    would add a millisecond to the import of this module.)
    """

    def __init__(self, keys, per_unit):
        self.keys = keys  # per level: local index -> flag key in vertex positions
        self.per_unit = per_unit  # per level: cells per triangle, tetrahedron, pentachoron

    def bases(self, n_units):
        """Each level's first id, then the total, for ``n_units[level]``
        units per level."""
        base = [0]
        for n, k in zip(self.per_unit, n_units):
            base.append(base[-1] + n * k)
        return base

    def flag_key(self, g, base, owners):
        """The flag key of id ``g``; ``owners[level]`` lists that level's
        simplices by index (sorted pentachora at level 2)."""
        level = max(lv for lv in range(3) if base[lv] <= g)
        unit, local = divmod(g - base[level], self.per_unit[level])
        key = _relabel(self.keys[level][local], owners[level][unit])
        return (key[0], unit) + key[1:] if level == 2 else key


@cache
def _sigma_template():
    """The cells of :func:`_sigma_cells` on flat ids, built on first use:
    the vertex and edge numberings, the face count (all faces are
    pentachoron-level), the use vector of each of the 16 unit slots (how
    many faces border each of the unit's edges, by local index) and the
    number of components of the piece.  It proves, once per process, that
    the piece is connected, that the pentachoron's own slot uses every
    edge twice and that a triangle carries no edges."""
    edges, faces = _sigma_cells()

    def place(key):
        level = _LEVEL.get(key[0], 2)
        if level == 2:
            return level, 0, key
        owner = key[-1]
        pos = {x: i for i, x in enumerate(owner)}
        return level, _UNITS[level].index(owner), _relabel(key, pos)

    def number(keys):
        placed = {key: place(key) for key in keys}
        local = ({}, {}, {})
        for level, _, canon in placed.values():
            local[level].setdefault(canon, len(local[level]))
        numbering = _Numbering(tuple(tuple(d) for d in local), tuple(len(d) for d in local))
        base = numbering.bases([len(units) for units in _UNITS])
        assert base[3] == len(placed), "units of one level differ in their cells"
        ids = {
            key: base[level] + unit * numbering.per_unit[level] + local[level][canon]
            for key, (level, unit, canon) in placed.items()
        }
        return numbering, ids

    vertices, vid = number([x for ends in edges.values() for x in ends])
    edge_numbering, eid = number(edges)
    piece = DisjointSets(len(vid))
    components = len(vid) - sum(piece.union(vid[a], vid[b]) for a, b in edges.values())
    assert not _LEVEL.keys() & {key[0] for key, _ in faces}
    use = [0] * len(eid)
    for _, boundary in faces:
        for e in boundary:
            use[eid[e]] += 1
    ids = iter(use)  # the template's ids run through its units in slot order
    slot_use = tuple(tuple(islice(ids, edge_numbering.per_unit[level])) for level in _UNIT_LEVEL)
    assert components == 1 and set(slot_use[-1]) == {2}, "template piece is open or disconnected"
    assert edge_numbering.per_unit[0] == 0, "a triangle carries edges"
    return vertices, edge_numbering, len(faces), slot_use, components


def _sigma_counts(K: GTriangulation):
    """(V, E, F) of the central surface of ``K``, assembled from the
    template and checked to be closed (every edge borders two faces) and
    connected on the shared units alone, the template proving both inside
    one pentachoron.  ``K`` needs a pentachoron, and 5 distinct vertices
    in each."""
    vertices, edges, faces, slot_use, _ = _sigma_template()
    tris, tets, pentas = {}, {}, []
    units = []  # per pentachoron: the indices of its 10 triangles, and of its 5 tetrahedra
    for penta in K.pentachora:
        S = tuple(sorted(penta))
        units.append(
            (
                [tris.setdefault(f, len(tris)) for f in combinations(S, 3)],
                [tets.setdefault(t, len(tets)) for t in combinations(S, 4)],
            )
        )
        pentas.append(S)
    owners = (list(tris), list(tets), pentas)
    vbase = vertices.bases(map(len, owners))
    ebase = edges.bases(map(len, owners))
    V, E, F = vbase[3], ebase[3], faces * len(pentas)

    # union-find nodes: the triangles, then the tetrahedra, then the pentachora
    pieces = DisjointSets(len(tris) + len(tets) + len(pentas))
    union = pieces.union
    merges = 0
    slots = [[] for _ in tets]  # per tetrahedron: the slot it fills in each owner
    for node, (row3, row4) in enumerate(units, len(tris) + len(tets)):
        for f in row3:
            merges += union(node, f)
        for slot, t in enumerate(row4, 10):
            slots[t].append(slot)
            merges += union(node, len(tris) + t)

    # triangles carry no edges, so only a tetrahedron can be open
    unclosed = {}  # sorted slots -> the local edges whose uses do not sum to 2
    bad = []  # per open tetrahedron, in id order: (the least such edge's id, their number)
    for t, filled in enumerate(slots):
        key = tuple(sorted(filled))
        off = unclosed.get(key)
        if off is None:
            total = map(sum, zip(*(slot_use[s] for s in key)))
            off = unclosed[key] = [x for x, n in enumerate(total) if n != 2]
        if off:
            bad.append((ebase[1] + t * edges.per_unit[1] + off[0], len(off)))
    if bad:
        raise TriangError(
            "central surface is not closed at %d cells, e.g. %r"
            % (sum(n for _, n in bad), edges.flag_key(bad[0][0], ebase, owners))
        )
    if merges != len(pieces.parent) - 1:
        # a tetrahedron or pentachoron apart from triangle 0 keeps its
        # pentachora's triangles with it, and vertex ids start with the
        # triangles', so the least vertex apart from vertex 0 is the
        # first vertex of a triangle
        root = pieces.find(0)
        apart = next(u for u in range(len(tris)) if pieces.find(u) != root)
        raise TriangError(
            "central surface is disconnected, e.g. at %r"
            % (vertices.flag_key(apart * vertices.per_unit[0], vbase, owners),)
        )
    return V, E, F


def sigma_oracle(K: GTriangulation) -> int:
    """Genus of the central surface, from an explicit cell assembly.

    Shares no formula with :func:`trisection_parameters`: the surface
    is assembled from one copy of the template's cells per pentachoron
    (:func:`_sigma_counts`) and checked to be closed and connected, and
    its genus is read off the Euler characteristic, which must be even.
    ``K`` is validated first.
    """
    validate_triangulation(K)
    V, E, F = _sigma_counts(K)
    chi = V - E + F
    if chi % 2:
        raise TriangError("central surface has odd Euler characteristic %d" % chi)
    return (2 - chi) // 2


# ---------------------------------------------------------------------------
# text format


def _row_ints(ln: str, tokens: list[str]) -> list[int]:
    """The integers of one line's ``tokens``; a bad one names the line."""
    try:
        return read_ints(tokens)
    except FileFormatError as err:
        raise FileFormatError("bad line %r: %s" % (ln, err))


def parse_triangulation(text: str) -> GTriangulation:
    """Read the text format; every error names its 1-based line, except
    a missing header or ``vertices`` line and a missing ``glue`` line,
    which names its facet.  Each facet shared by two pentachora takes
    exactly one ``glue`` line, joining those two.  Integers are read as
    :func:`etd.diagio.read_ints` reads them: as ``str`` writes them."""
    rows = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows:
        raise FileFormatError("expected header 'etd-triangulation 1'")
    if rows[0][1].split() != ["etd-triangulation", "1"]:
        raise FileFormatError("line %d: expected header 'etd-triangulation 1'" % rows[0][0])
    n_vertices = None
    pentachora = []
    glues = []
    generators = []
    generator_names = []
    surfaces = []
    for lineno, ln in rows[1:]:
        key, *rest = ln.split()
        try:
            if key == "vertices":
                vals = _row_ints(ln, rest)
                if len(vals) != 1:
                    raise FileFormatError("bad line %r" % ln)
                (n_vertices,) = vals
            elif key == "pentachoron":
                vals = _row_ints(ln, rest)
                if len(vals) != 5:
                    raise FileFormatError("pentachoron needs 5 vertices: %r" % ln)
                pentachora.append(tuple(vals))
            elif key == "glue":
                vals = _row_ints(ln, rest)
                if len(vals) != 4:
                    raise FileFormatError("glue needs 4 numbers: %r" % ln)
                glues.append((lineno, tuple(vals)))
            elif key == "generator":
                if not rest:
                    raise FileFormatError("generator needs a name: %r" % ln)
                generator_names.append(rest[0])
                generators.append(tuple(_row_ints(ln, rest[1:])))
            elif key == "surface":
                vals = _row_ints(ln, rest)
                if len(vals) % 3:
                    raise FileFormatError("surface needs vertex triples: %r" % ln)
                surfaces.append([tuple(vals[i : i + 3]) for i in range(0, len(vals), 3)])
            else:
                raise FileFormatError("unknown key %r" % key)
        except FileFormatError as err:
            raise FileFormatError("line %d: %s" % (lineno, err))
    if n_vertices is None:
        raise FileFormatError("missing vertices line")
    glued = set()
    for lineno, (i, fi, j, fj) in glues:
        if not (0 <= i < len(pentachora) and 0 <= j < len(pentachora)):
            raise FileFormatError(
                "line %d: glue pentachoron index out of range (%d pentachora)"
                % (lineno, len(pentachora))
            )
        if not (0 <= fi < 5 and 0 <= fj < 5):
            raise FileFormatError("line %d: glue facet index out of range 0..4" % lineno)
        a = tuple(sorted(v for x, v in enumerate(pentachora[i]) if x != fi))
        b = tuple(sorted(v for x, v in enumerate(pentachora[j]) if x != fj))
        if a != b:
            raise FileFormatError(
                "line %d: glue %r does not match facet vertex sets %r vs %r"
                % (lineno, (i, fi, j, fj), a, b)
            )
        if i == j:
            raise FileFormatError("line %d: glue joins pentachoron %d to itself" % (lineno, i))
        if a in glued:
            raise FileFormatError("line %d: facet %r is glued twice" % (lineno, a))
        glued.add(a)
    K = GTriangulation(n_vertices, pentachora, generators, generator_names, surfaces)
    for t, owners in sorted(_facet_multiset(K).items()):
        if len(owners) == 2 and t not in glued:
            raise FileFormatError(
                "facet %r of pentachora %d and %d has no glue line" % (t, *owners)
            )
    return K
