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
inside every pentachoron, glued along the shared tetrahedra) and reads
the genus off the assembled complex.

Limitations, by design: vertex links are not checked for sphericity
(that would need 3-sphere recognition), so the input is trusted to be a
manifold triangulation; the group action is validated but the parameters
do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .cmap import DisjointSets
from .diagio import FileFormatError


class TriangError(ValueError):
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
    n_vertices: int
    pentachora: list  # 5-tuples of vertex indices
    generators: list = field(default_factory=list)  # vertex permutations
    generator_names: list = field(default_factory=list)
    surfaces: list = field(default_factory=list)  # lists of triangles

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
    invariants; raises a :class:`TriangError` subclass on failure."""
    for p in K.pentachora:
        if len(p) != 5 or len(set(p)) != 5:
            raise TriangError("pentachoron %r does not have 5 distinct vertices" % (p,))
        for v in p:
            if not (0 <= v < K.n_vertices):
                raise TriangError("vertex %r out of range" % (v,))

    used = {v for p in K.pentachora for v in p}
    if used != set(range(K.n_vertices)):
        raise TriangError("unused vertices: %s" % sorted(set(range(K.n_vertices)) - used))

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
        if sorted(g) != list(range(K.n_vertices)):
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
    return True


# ---------------------------------------------------------------------------
# counting path


@dataclass
class TriParamReport:
    genus: int
    k: tuple  # (k1, k2, k3)
    chi_simplex: int  # V - E + F - T + P
    bridge: list  # per surface: (b, (p1, p2, p3))
    notes: list
    oracle_genus: int = None

    @property
    def chi_trisection(self):
        return 2 + self.genus - sum(self.k)

    def summary(self):
        lines = [
            "(%d; %d,%d,%d)  chi=%d" % ((self.genus,) + self.k + (self.chi_simplex,))
        ]
        for b, p in self.bridge:
            lines.append("surface (%d; %d,%d,%d)" % ((b,) + p))
        if self.oracle_genus is not None:
            lines.append("oracle genus %d" % self.oracle_genus)
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
# Cells at depth 0 live in the boundary tetrahedra and are shared by the
# two adjacent pentachora; everything else is pentachoron-local.  Cells
# are keyed by incidence flags (v in e in f in t), so the gluing is
# forced and no coordinates are needed.


def _sigma_cells(K: GTriangulation):
    edges = {}  # edge id -> (vertex id, vertex id)
    faces = []  # (face id, [edge ids])

    def tet_faces_of(t, e):
        """The two triangles of tetrahedron t containing edge e."""
        other = [v for v in t if v not in e]
        return tuple(sorted(e + (other[0],))), tuple(sorted(e + (other[1],)))

    for t in K.tetrahedra():
        for f in combinations(t, 3):
            for e in combinations(f, 2):
                for v in e:
                    edges[("h", v, e, f, t)] = (("q", v, e, f), ("p", v, e, f, t))
        for e in combinations(t, 2):
            f1, f2 = tet_faces_of(t, e)
            for v in e:
                edges[("s", v, e, t)] = (("p", v, e, f1, t), ("p", v, e, f2, t))

    for ip, penta in enumerate(K.pentachora):
        S = tuple(sorted(penta))
        tets = list(combinations(S, 4))
        for f in combinations(S, 3):
            f_tets = [t for t in tets if set(f) <= set(t)]  # always two
            for e in combinations(f, 2):
                for v in e:
                    edges[("wAq", ip, v, e, f)] = (("q", v, e, f), ("qq", ip, v, e, f))
                    edges[("wCqq", ip, v, e, f)] = (
                        ("qq", ip, v, e, f),
                        ("rr", ip, v, e, f),
                    )
                    for t in f_tets:
                        edges[("wAp", ip, v, e, f, t)] = (
                            ("p", v, e, f, t),
                            ("c", ip, v, e, f, t),
                        )
                        edges[("hh", ip, v, e, f, t)] = (
                            ("qq", ip, v, e, f),
                            ("c", ip, v, e, f, t),
                        )
                        edges[("wCc", ip, v, e, f, t)] = (
                            ("c", ip, v, e, f, t),
                            ("r", ip, v, e, f, t),
                        )
                        edges[("hh3", ip, v, e, f, t)] = (
                            ("rr", ip, v, e, f),
                            ("r", ip, v, e, f, t),
                        )
            for t in f_tets:
                for e in combinations(f, 2):
                    v1, v2 = e
                    edges[("m", ip, e, f, t)] = (
                        ("r", ip, v1, e, f, t),
                        ("r", ip, v2, e, f, t),
                    )
                for v in f:
                    e1, e2 = [e for e in combinations(f, 2) if v in e]
                    edges[("g", ip, v, f, t)] = (
                        ("c", ip, v, e1, f, t),
                        ("c", ip, v, e2, f, t),
                    )
                    edges[("g3", ip, v, f, t)] = (
                        ("r", ip, v, e1, f, t),
                        ("r", ip, v, e2, f, t),
                    )
        for t in tets:
            for e in combinations(t, 2):
                f1, f2 = tet_faces_of(t, e)
                for v in e:
                    edges[("ss", ip, v, e, t)] = (
                        ("c", ip, v, e, f1, t),
                        ("c", ip, v, e, f2, t),
                    )

        # 2-cells
        for e in combinations(S, 2):
            e_faces = [f for f in combinations(S, 3) if set(e) <= set(f)]
            e_tets = [t for t in tets if set(e) <= set(t)]
            for v in e:
                for f in e_faces:
                    for t in [t for t in tets if set(f) <= set(t)]:
                        faces.append(
                            (
                                ("Ah", ip, v, e, f, t),
                                [
                                    ("h", v, e, f, t),
                                    ("wAq", ip, v, e, f),
                                    ("hh", ip, v, e, f, t),
                                    ("wAp", ip, v, e, f, t),
                                ],
                            )
                        )
                for t in e_tets:
                    f1, f2 = tet_faces_of(t, e)
                    faces.append(
                        (
                            ("As", ip, v, e, t),
                            [
                                ("s", v, e, t),
                                ("wAp", ip, v, e, f1, t),
                                ("ss", ip, v, e, t),
                                ("wAp", ip, v, e, f2, t),
                            ],
                        )
                    )
        for t in tets:
            for v in t:
                boundary = [
                    ("ss", ip, v, e, t) for e in combinations(t, 2) if v in e
                ] + [("g", ip, v, f, t) for f in combinations(t, 3) if v in f]
                faces.append((("B", ip, v, t), boundary))
        for f in combinations(S, 3):
            f_tets = [t for t in tets if set(f) <= set(t)]
            for v in f:
                for e in [e for e in combinations(f, 2) if v in e]:
                    for t in f_tets:
                        faces.append(
                            (
                                ("Chh", ip, v, e, f, t),
                                [
                                    ("hh", ip, v, e, f, t),
                                    ("wCqq", ip, v, e, f),
                                    ("hh3", ip, v, e, f, t),
                                    ("wCc", ip, v, e, f, t),
                                ],
                            )
                        )
                for t in f_tets:
                    e1, e2 = [e for e in combinations(f, 2) if v in e]
                    faces.append(
                        (
                            ("Cg", ip, v, f, t),
                            [
                                ("g", ip, v, f, t),
                                ("wCc", ip, v, e1, f, t),
                                ("g3", ip, v, f, t),
                                ("wCc", ip, v, e2, f, t),
                            ],
                        )
                    )
            t1, t2 = f_tets
            for e in combinations(f, 2):
                v1, v2 = e
                faces.append(
                    (
                        ("dE", ip, e, f),
                        [
                            ("m", ip, e, f, t1),
                            ("hh3", ip, v1, e, f, t1),
                            ("hh3", ip, v1, e, f, t2),
                            ("m", ip, e, f, t2),
                            ("hh3", ip, v2, e, f, t2),
                            ("hh3", ip, v2, e, f, t1),
                        ],
                    )
                )
            for t in f_tets:
                boundary = [("m", ip, e, f, t) for e in combinations(f, 2)] + [
                    ("g3", ip, v, f, t) for v in f
                ]
                faces.append((("dT", ip, f, t), boundary))
    return edges, faces


def sigma_oracle(K: GTriangulation) -> int:
    """Genus of the central surface, from an explicit cell assembly.

    Shares no formula with :func:`trisection_parameters`: the surface is
    built as an edge-vertex-face complex, checked to be closed (every
    edge borders exactly two cells) and connected, and its genus is read
    off the Euler characteristic.
    """
    validate_triangulation(K)
    edges, faces = _sigma_cells(K)

    use = {eid: 0 for eid in edges}
    for _, boundary in faces:
        for eid in boundary:
            use[eid] += 1
    bad = [eid for eid, c in use.items() if c != 2]
    if bad:
        raise TriangError(
            "central surface is not closed at %d cells, e.g. %r" % (len(bad), bad[0])
        )

    verts = {}
    for a, b in edges.values():
        verts.setdefault(a, len(verts))
        verts.setdefault(b, len(verts))
    pieces = DisjointSets(len(verts))
    merges = sum(pieces.union(verts[a], verts[b]) for a, b in edges.values())
    if merges != len(verts) - 1:
        raise TriangError("central surface is disconnected")

    chi = len(verts) - len(edges) + len(faces)
    if chi % 2:
        raise TriangError("central surface has odd Euler characteristic %d" % chi)
    return (2 - chi) // 2


# ---------------------------------------------------------------------------
# fixtures


def boundary_five_simplex() -> GTriangulation:
    """The six-pentachoron 4-sphere with its full vertex symmetry."""
    pentachora = list(combinations(range(6), 5))
    swap = (1, 0, 2, 3, 4, 5)
    cycle = (1, 2, 3, 4, 5, 0)
    return GTriangulation(6, pentachora, [swap, cycle], ["swap", "cycle"])


def double_four_simplex() -> GTriangulation:
    """Two pentachora glued along all five facets: the smallest 4-sphere."""
    p = tuple(range(5))
    swap = (1, 0, 2, 3, 4)
    cycle = (1, 2, 3, 4, 0)
    return GTriangulation(5, [p, p], [swap, cycle], ["swap", "cycle"])


def tetrahedral_sphere():
    """The four triangles on vertices 0..3 (a subcomplex of both
    4-sphere fixtures)."""
    return [tuple(t) for t in combinations(range(4), 3)]


def cyclic_polytope_boundary() -> GTriangulation:
    """Boundary of the cyclic 5-polytope on 7 vertices, carrying the
    7-vertex torus as an invariant surface.

    Facets are the complements of the vertex pairs at odd distance (the
    evenness condition for moment-curve polytopes); the reversal
    v -> 6 - v preserves them and the torus.
    """
    penta = []
    for a in range(7):
        for b in range(a + 1, 7):
            if (b - a) % 2 == 1:
                penta.append(tuple(v for v in range(7) if v not in (a, b)))
    rev = tuple(6 - v for v in range(7))
    return GTriangulation(7, penta, [rev], ["rev"], [csaszar_torus()])


def csaszar_torus():
    """The 7-vertex torus with complete 1-skeleton: triangles
    {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted(((i, (i + 1) % 7, (i + 3) % 7)))))
        tris.append(tuple(sorted(((i, (i + 2) % 7, (i + 3) % 7)))))
    return tris


# ---------------------------------------------------------------------------
# text format


def serialize_triangulation(K: GTriangulation) -> str:
    lines = ["etd-triangulation 1", "vertices %d" % K.n_vertices]
    for p in K.pentachora:
        lines.append("pentachoron " + " ".join(str(v) for v in p))
    for t, owners in sorted(_facet_multiset(K).items()):
        if len(owners) == 2:
            i, j = owners
            fi = [x for x in range(5) if K.pentachora[i][x] not in t][0]
            fj = [x for x in range(5) if K.pentachora[j][x] not in t][0]
            lines.append("glue %d %d %d %d" % (i, fi, j, fj))
    for g, name in zip(K.generators, K.generator_names):
        lines.append("generator %s " % name + " ".join(str(v) for v in g))
    for s in K.surfaces:
        lines.append("surface " + " ".join(str(v) for tri in s for v in tri))
    return "\n".join(lines) + "\n"


def parse_triangulation(text: str) -> GTriangulation:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or lines[0].split() != ["etd-triangulation", "1"]:
        raise FileFormatError("expected header 'etd-triangulation 1'")
    n_vertices = None
    pentachora = []
    glues = []
    generators = []
    generator_names = []
    surfaces = []
    for ln in lines[1:]:
        key, *rest = ln.split()
        try:
            if key == "vertices":
                (n_vertices,) = rest
                n_vertices = int(n_vertices)
            elif key == "pentachoron":
                if len(rest) != 5:
                    raise FileFormatError("pentachoron needs 5 vertices: %r" % ln)
                pentachora.append(tuple(int(v) for v in rest))
            elif key == "glue":
                if len(rest) != 4:
                    raise FileFormatError("glue needs 4 numbers: %r" % ln)
                glues.append(tuple(int(v) for v in rest))
            elif key == "generator":
                generator_names.append(rest[0])
                generators.append(tuple(int(v) for v in rest[1:]))
            elif key == "surface":
                if len(rest) % 3:
                    raise FileFormatError("surface needs vertex triples: %r" % ln)
                vals = [int(v) for v in rest]
                surfaces.append(
                    [tuple(vals[i : i + 3]) for i in range(0, len(vals), 3)]
                )
            else:
                raise FileFormatError("unknown key %r" % key)
        except ValueError:
            raise FileFormatError("bad line %r" % ln)
    if n_vertices is None:
        raise FileFormatError("missing vertices line")
    K = GTriangulation(n_vertices, pentachora, generators, generator_names, surfaces)
    for i, fi, j, fj in glues:
        try:
            a = tuple(sorted(v for x, v in enumerate(K.pentachora[i]) if x != fi))
            b = tuple(sorted(v for x, v in enumerate(K.pentachora[j]) if x != fj))
        except IndexError:
            raise FileFormatError("glue indices out of range: %r" % ((i, fi, j, fj),))
        if a != b:
            raise FileFormatError(
                "glue %r does not match facet vertex sets %r vs %r"
                % ((i, fi, j, fj), a, b)
            )
    return K
