"""Combinatorial maps (rotation systems) on oriented surfaces.

A map is a finite set of darts (half-edges) together with an involution
``edge_pairing`` matching the two halves of each edge and a permutation
``rotation`` giving the counterclockwise successor of each dart around its
vertex.  Vertices are rotation orbits, edges are pairing orbits, faces are
orbits of the face walk rotation^-1 o edge_pairing.  Only orientable
surfaces are representable; orientation is implicit in the rotation.

Each map keeps flat per-dart arrays, built once at construction:
``vertex_of[d]``, ``edge_of[d]`` and ``face_of[d]`` number the vertex,
edge and face containing dart ``d``, and ``_vertex_orbits``,
``_edge_orbits`` and ``_face_orbits`` list those cells' dart cycles in
that numbering, by ascending least dart.  Hot code reads these arrays.
The :class:`CellId` lists of ``vertices()``, ``edges()`` and ``faces()``
are built per kind on first use, in the same order, and ``cell_of``
indexes them.

Two partition primitives serve every connectivity question in ``etd``:
:func:`perm_orbits` gives the orbits of the group a set of dart
permutations generates (cells, color components, quotient darts), and
:class:`DisjointSets` is the union-find for partitions built edge by
edge (canonical-form ties, shadow-arc regions, triangulation
connectivity).  Both number their classes by least element.
:func:`spanning_forest` is the one rooted spanning tree, of the graph or
of its dual (components, homology coordinates and the H1 cotree,
shadow-arc cycles), and :func:`compose` and :func:`inverse` are the one
product and inverse of dart permutations.

:class:`CutSurface` slices a map along a set of edges on flat arrays:
its pieces are the face classes glued across the uncut edges, found in
one breadth-first pass over the faces, and each boundary circle is
walked on the face side of its cut darts with the face walk alone.

:func:`canonical_search` is the one search over start darts: it gives the
canonical form of a connected decorated map and, from the starts that
tie the best code, generators of its automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import EtdError


class MapError(EtdError):
    pass


class NotInvolution(MapError):
    pass


class DanglingDart(MapError):
    """edge_pairing has a fixed point: a dart with no edge partner."""


class NotConnected(MapError):
    pass


class UnknownCell(MapError):
    pass


def perm_orbits(n: int, perms: Sequence[Sequence[int]]):
    """Orbits on ``0..n-1`` of the group the permutations generate.

    Returns ``(orbit_id, orbits)``: the orbits as lists numbered by least
    element, and the orbit number of each element.  With a single
    permutation each orbit lists its cycle from the least element on.
    """
    orbit_id = [-1] * n
    orbits = []
    single = perms[0] if len(perms) == 1 else None
    for x in range(n):
        if orbit_id[x] >= 0:
            continue
        k = len(orbits)
        orbit_id[x] = k
        orb = [x]
        if single is not None:  # walk the cycle
            z = single[x]
            while orbit_id[z] < 0:
                orbit_id[z] = k
                orb.append(z)
                z = single[z]
        else:
            for y in orb:
                for p in perms:
                    z = p[y]
                    if orbit_id[z] < 0:
                        orbit_id[z] = k
                        orb.append(z)
        orbits.append(orb)
    return orbit_id, orbits


def is_permutation(p, n: int) -> bool:
    """Whether ``p`` is a permutation of ``0..n-1``: n entries covering them."""
    return len(p) == n and set(p).issuperset(range(n))


def compose(p, q):
    """p after q as dart permutations."""
    return tuple(p[x] for x in q)


def inverse(p):
    """The inverse of the permutation ``p``."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def spanning_forest(m: CombMap, darts=None, dual=False):
    """A breadth-first spanning forest of the map's graph, or of the
    subgraph of the edges in ``darts`` (both darts of each edge).  With
    ``dual`` the nodes are the faces instead of the vertices: each dart
    joins its face to the face of its edge partner.

    Roots are taken by ascending node index: every node, or only the
    nodes the darts meet.  Each node's darts are walked in its stored
    orbit order (rotation or face walk) from its least dart.  Returns
    ``(parent, order)``: ``parent[v]`` is the dart whose edge first
    reached node v (the dart lies on v's parent, its partner on v), -1 at
    a root and at a node the darts miss; ``order`` lists the reached
    nodes in visiting order.
    """
    node_of, orbits = (m.face_of, m._face_orbits) if dual else (m.vertex_of, m._vertex_orbits)
    ep = m.edge_pairing
    n = len(orbits)
    use = None if darts is None else set(darts)
    roots = range(n) if darts is None else sorted({node_of[x] for x in darts})
    parent, seen, order = [-1] * n, [False] * n, []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        tree = [root]
        for u in tree:
            for x in orbits[u]:
                w = node_of[ep[x]]
                if not seen[w] and (use is None or x in use):
                    seen[w] = True
                    parent[w] = x
                    tree.append(w)
        order += tree
    return parent, order


class DisjointSets:
    """Union-find on ``0..n-1`` with path halving.  ``union`` hangs the
    larger root under the smaller, so ``find(x)`` is the least element of
    x's class."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of ``a`` and ``b``; False if already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True


@dataclass(frozen=True, order=True)
class CellId:
    """A vertex, edge or face, named by the minimum dart in its orbit.
    Cells of one kind sort by that dart."""

    kind: str  # 'vertex' | 'edge' | 'face'
    dart: int

    def __post_init__(self):
        if self.kind not in ("vertex", "edge", "face"):
            raise MapError("bad cell kind %r" % (self.kind,))


class CombMap:
    """Immutable closed combinatorial map on darts 0..n_darts-1: a
    fixed-point-free edge-pairing involution and a vertex rotation,
    both checked on construction.

    Construction builds the flat arrays only: the face walk, the
    ``*_of`` cell numbers and the three orbit lists.  The :class:`CellId`
    lists are built per kind on the first call that needs one."""

    def __init__(self, n_darts, edge_pairing, rotation):
        edge_pairing = tuple(edge_pairing)
        rotation = tuple(rotation)
        if len(edge_pairing) != n_darts or len(rotation) != n_darts:
            raise MapError("permutation length does not match dart count")
        if not is_permutation(rotation, n_darts):
            raise MapError("rotation is not a permutation of the darts")
        if not is_permutation(edge_pairing, n_darts):
            raise MapError("edge_pairing is not a permutation of the darts")
        darts = list(range(n_darts))
        if [edge_pairing[y] for y in edge_pairing] != darts:
            d = next(d for d in darts if edge_pairing[edge_pairing[d]] != d)
            raise NotInvolution("edge_pairing is not an involution at dart %d" % d)
        self.edge_of, self._edge_orbits = perm_orbits(n_darts, (edge_pairing,))
        if 2 * len(self._edge_orbits) != n_darts:  # n/2 orbits iff no fixed point
            d = next(d for d in darts if edge_pairing[d] == d)
            raise DanglingDart("dart %d has no partner" % d)
        self.n_darts = n_darts
        self.edge_pairing = edge_pairing
        self.rotation = rotation
        # face walk: rotation^-1 after edge_pairing
        self.face_walk = compose(inverse(rotation), edge_pairing)
        self.vertex_of, self._vertex_orbits = perm_orbits(n_darts, (rotation,))
        self.face_of, self._face_orbits = perm_orbits(n_darts, (self.face_walk,))
        self._kinds = {
            "vertex": (self.vertex_of, self._vertex_orbits),
            "edge": (self.edge_of, self._edge_orbits),
            "face": (self.face_of, self._face_orbits),
        }
        self._cells = {}  # kind -> CellId list, built on first use
        self._components = None
        self._h1_frame = None  # built by invariants.h1_frame on first use

    # ---- cells ----------------------------------------------------------
    # The cell lists are built once per map; callers must not mutate them.

    def _cell_list(self, kind):
        cells = self._cells.get(kind)
        if cells is None:
            cells = self._cells[kind] = [CellId(kind, o[0]) for o in self._kinds[kind][1]]
        return cells

    def vertices(self):
        return self._cell_list("vertex")

    def edges(self):
        return self._cell_list("edge")

    def faces(self):
        return self._cell_list("face")

    def cell_of(self, kind: str, dart: int) -> CellId:
        if kind not in self._kinds or not (isinstance(dart, int) and 0 <= dart < self.n_darts):
            raise UnknownCell("no %s cell at dart %r" % (kind, dart))
        return self._cell_list(kind)[self._kinds[kind][0][dart]]

    def orbit(self, cell: CellId) -> list[int]:
        """The dart cycle of ``cell`` (rotation, edge pairing or face walk)
        from its least dart, as stored at construction; callers must not
        mutate it."""
        if self.cell_of(cell.kind, cell.dart) != cell:
            raise UnknownCell("unknown %s %r" % (cell.kind, cell))
        of, orbits = self._kinds[cell.kind]
        return orbits[of[cell.dart]]

    # ---- invariants -----------------------------------------------------

    def euler_characteristic(self) -> int:
        return len(self._vertex_orbits) - len(self._edge_orbits) + len(self._face_orbits)

    def components(self) -> list[set[int]]:
        """Connected components as dart sets, by least dart: the trees of
        the graph's :func:`spanning_forest`, each the darts of its
        vertices.

        Computed once per map; callers must not mutate the result.
        """
        if self._components is None:
            parent, order = spanning_forest(self)
            comps = []
            for v in order:
                if parent[v] < 0:  # a root starts the next tree
                    comps.append(set())
                comps[-1].update(self._vertex_orbits[v])
            self._components = comps
        return self._components

    def is_connected(self) -> bool:
        return self.n_darts == 0 or len(self.components()) == 1

    def genus(self) -> int:
        if not self.is_connected():
            raise NotConnected("genus requires a connected map")
        chi = self.euler_characteristic()
        if (2 - chi) % 2:
            raise MapError("odd Euler defect; map is not an orientable closed surface")
        return (2 - chi) // 2


# ---------------------------------------------------------------------------
# cutting


@dataclass
class CutComponent:
    """One connected piece of a cut surface: its Euler characteristic and
    its boundary circles, each a list of cut darts."""

    chi: int
    boundary_circles: list

    @property
    def n_boundary(self):
        return len(self.boundary_circles)

    @property
    def genus(self):
        return (2 - self.chi - self.n_boundary) // 2


class CutSurface:
    """Result of slicing a closed map along the edges of the given darts.

    Each cut edge becomes two boundary edges, one on each side.  A dart
    ``d`` stands for its face side: the corner between ``d`` and
    ``rotation[d]`` at its tail, which lies in the face of ``d``.  Faces
    survive the cut whole and an uncut edge glues its two faces, so the
    pieces are the classes of faces glued across uncut edges, found
    breadth-first over the faces in index order; ``component_of[d]`` is
    the piece of dart ``d``'s face, pieces numbered by least dart (faces
    are).  ``cut[d]`` is 1 exactly on the darts of cut edges.

    A piece's vertices are its corners: one per cut dart at a vertex
    that has cut darts, and the whole vertex at one that has none.  A cut
    dart also brings one boundary edge, so the two cancel in the Euler
    characteristic, which counts the uncut vertices, uncut edges and
    faces of the piece.  The boundary circle through a cut dart ``d``
    runs along its face side: from ``x = face_walk[d]``, step to
    ``face_walk[edge_pairing[x]]`` (the clockwise neighbour of ``x``)
    until ``x`` is cut; that is the next cut dart of the circle.
    """

    def __init__(self, m: CombMap, cut_darts: Iterable[int]):
        n, ep, fw = m.n_darts, m.edge_pairing, m.face_walk
        cut = bytearray(n)
        darts = []
        for d in cut_darts:
            if not (isinstance(d, int) and 0 <= d < n):
                raise UnknownCell("no edge at dart %r" % (d,))
            if not cut[d]:
                cut[d] = cut[ep[d]] = 1
                darts += (d, ep[d])
        darts.sort()
        self.cut = cut
        # pieces: a breadth-first pass over the faces, across uncut edges
        face_of, face_orbits = m.face_of, m._face_orbits
        piece_of = [-1] * len(face_orbits)
        k = 0
        for f in range(len(face_orbits)):
            if piece_of[f] >= 0:
                continue
            piece_of[f] = k
            piece = [f]
            for g in piece:
                for x in face_orbits[g]:
                    if not cut[x]:
                        h = face_of[ep[x]]
                        if piece_of[h] < 0:
                            piece_of[h] = k
                            piece.append(h)
            k += 1
        self.component_of = component_of = [piece_of[f] for f in face_of]

        chi = [0] * k
        vertex_of = m.vertex_of
        cut_vertices = {vertex_of[x] for x in darts}
        for v, orb in enumerate(m._vertex_orbits):
            if v not in cut_vertices:
                chi[component_of[orb[0]]] += 1
        for x, _ in m._edge_orbits:
            if not cut[x]:
                chi[component_of[x]] -= 1
        for orb in m._face_orbits:
            chi[component_of[orb[0]]] += 1

        circles = [[] for _ in chi]
        seen = bytearray(n)
        for d in darts:
            if seen[d]:
                continue
            circle = []
            x = d
            while not seen[x]:
                seen[x] = 1
                circle.append(x)
                x = fw[x]
                while not cut[x]:
                    x = fw[ep[x]]
            circles[component_of[d]].append(circle)
        self.components = [CutComponent(*c) for c in zip(chi, circles)]

    @property
    def n_components(self):
        return len(self.components)


# ---------------------------------------------------------------------------
# subdivision


def subdivide_edges(m: CombMap, edges: Iterable[CellId]):
    """Insert a valence-2 midpoint vertex on each listed edge.

    Returns (new_map, origin) where the list origin maps every dart of
    the new map to the dart of ``m`` it came from (new midpoint darts map
    to the dart of the half they extend).  With no edges listed the new
    map is ``m`` itself and origin the identity.
    """
    targets = []
    for cell in edges:
        if cell.kind != "edge":
            raise UnknownCell("subdivide_edges expects edge cells")
        targets.append(m.orbit(cell))
    n = m.n_darts
    if not targets:
        return m, list(range(n))
    ep = list(m.edge_pairing)
    rot = list(m.rotation)
    origin = list(range(n))
    for d, e in targets:
        n1, n2 = n, n + 1
        n += 2
        ep.extend([0, 0])
        rot.extend([0, 0])
        # edge {d,e} -> {d,n1} + {n2,e}; midpoint rotation (n1 n2)
        ep[d], ep[n1] = n1, d
        ep[e], ep[n2] = n2, e
        rot[n1], rot[n2] = n2, n1
        origin += [e, d]
    return CombMap(n, ep, rot), origin


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def canonical_form(m: CombMap, labels: Sequence):
    """A relabeling-invariant encoding of a connected decorated map: the
    code of :func:`canonical_search`, its ties left unbuilt."""
    return _search_starts(m, labels)[0]


def canonical_search(m: CombMap, labels: Sequence):
    """The canonical form of a connected decorated map and generators of
    its label-preserving automorphism group, as ``(code, ties)``.

    Relabel the darts breadth-first from a start dart, visiting the
    rotation successor before the edge partner of each dart; the start's
    code lists, in that order, ``(new rotation successor, new partner,
    label)`` for every dart.  The canonical form is the lexicographic
    minimum of the codes over all start darts.

    A start's BFS stops at the first entry that exceeds the best code's
    entry at the same position: with an equal prefix that start can never
    win.  A start whose BFS runs to the end without going below the best
    code ties it, and then ``best_seq[i] -> seq[i]`` (the two BFS orders
    side by side) is a label-preserving automorphism, kept in ``ties``
    even when a later start lowers the best code.  Its pairs are merged
    into one :class:`DisjointSets` over the darts, whose classes are the
    orbits of the automorphisms found so far.  A start whose class holds
    a smaller dart is skipped: the class holds a tried start, and the
    skipped start's code equals that start's code.  So the minimum, and
    every code, is unchanged.

    The ties generate the whole automorphism group Aut (McKay-Piperno,
    *Practical graph isomorphism, II*, J. Symb. Comput. 2014): every
    start with the minimum code is tried and ties the first one, or is
    skipped in the orbit of a tried one, so the group H of the ties is
    transitive on those starts, which form one free Aut-orbit; hence
    |H| = |Aut|.  A map whose only automorphism is the identity has no
    ties.

    Each tie that runs maps the best start outside its orbit under the
    automorphisms found before, so the group found at least doubles:
    at most log2 |Aut| ties run in full, besides the starts that lower
    the best code, and the rest of each automorphism orbit is skipped.
    That is O(n log |Aut|) on top of the prefix-pruned starts.

    The best code itself is built only as far as it is read.  The best
    start's BFS stays suspended, and a start compared past its end
    extends it, to twice its length or to n.  A start that goes below
    the best code stops there and becomes the suspended best, so only
    the final best, and every best a tie runs against, reaches n
    entries.  While two codes agree, their BFS orders have the same
    length at every step, so the start being compared never runs out of
    darts before the best one does; a disconnected map is rejected when
    the best start's BFS ends short, at the latest when the final best
    is completed.  Memory stays linear: the best and the start being
    compared keep one ``order`` array each, reset through their visited
    darts when they are done with.
    """
    code, pairs = _search_starts(m, labels)
    return code, [compose(seq, inverse(best_seq)) for best_seq, seq in pairs]


def _search_starts(m: CombMap, labels):
    """The loop of :func:`canonical_search`: the code, and the two BFS
    orders ``(best_seq, seq)`` of each tie."""
    n = m.n_darts
    if n == 0:
        return (), []
    rot, ep = m.rotation, m.edge_pairing
    # the best start's BFS, suspended after ``len(best)`` entries of its
    # code; start 0 to begin with
    best, best_seq, best_order = [], [0], [-1] * n
    best_order[0] = 0

    def extend(stop):
        """Run the best start's BFS on until its code has ``stop`` entries."""
        for i in range(len(best), stop):
            if i == len(best_seq):
                raise NotConnected("canonical_form requires a connected map")
            d = best_seq[i]
            r = rot[d]
            if best_order[r] < 0:
                best_order[r] = len(best_seq)
                best_seq.append(r)
            e = ep[d]
            if best_order[e] < 0:
                best_order[e] = len(best_seq)
                best_seq.append(e)
            best.append((best_order[r], best_order[e], labels[d]))

    order = [-1] * n  # dart -> new index for the start being compared
    ties = []
    orbits = DisjointSets(n)
    find = orbits.find
    for start in range(1, n):
        if find(start) != start:
            continue
        seq = [start]
        order[start] = 0
        i = 0
        while True:  # compare with the best code, extended as it is read
            for i in range(i, len(best)):
                d = seq[i]
                r = rot[d]
                if order[r] < 0:
                    order[r] = len(seq)
                    seq.append(r)
                e = ep[d]
                if order[e] < 0:
                    order[e] = len(seq)
                    seq.append(e)
                entry = (order[r], order[e], labels[d])
                if entry != best[i]:
                    break
            else:
                i = len(best)
                if i < n:
                    extend(min(n, 2 * i + 1))
                    continue
                entry = None  # equal to the end
            break
        if entry is None:  # a tie
            for a, b in zip(best_seq, seq):
                orbits.union(a, b)
            ties.append((best_seq, seq))
        elif entry < best[i]:  # the new best, suspended after entry i
            del best[i:]
            best.append(entry)
            for d in best_seq:
                best_order[d] = -1
            # extend() reads these names, so it runs the new best on
            best_seq, best_order, order = seq, order, best_order
            continue
        for d in seq:
            order[d] = -1
    extend(n)
    return tuple(best), ties


def _propagate(m1: CombMap, m2: CombMap, labels1, labels2, d1: int, d2: int):
    """Extend dart assignment d1 -> d2 to a full isomorphism, or fail.

    One walk over the darts: each assigned dart a, with image b, fixes
    the images of its rotation and edge successors.  The two pairs of
    arrays are read from a local tuple, and ``used`` is a bytearray
    marking the taken darts of m2.  Each dart's label is compared when
    it is popped, and a dart of m1 left unreached (m1 disconnected)
    fails the walk."""
    steps = ((m1.rotation, m2.rotation), (m1.edge_pairing, m2.edge_pairing))
    f = [-1] * m1.n_darts
    f[d1] = d2
    used = bytearray(m2.n_darts)
    used[d2] = 1
    stack = [d1]
    while stack:
        a = stack.pop()
        b = f[a]
        if labels1[a] != labels2[b]:
            return None
        for pa, pb in steps:
            na, nb = pa[a], pb[b]
            fa = f[na]
            if fa == -1:
                if used[nb]:
                    return None
                f[na] = nb
                used[nb] = 1
                stack.append(na)
            elif fa != nb:
                return None
    if -1 in f:
        return None  # m1 disconnected
    return f


def _seed_images(m1: CombMap, m2: CombMap, labels1, labels2):
    """The darts of m2, ascending, that match dart 0 of m1 in label, vertex
    degree and face degree.  Isomorphisms preserve all three, so any other
    image of dart 0 fails in :func:`_propagate`."""
    v1, f1 = len(m1._vertex_orbits[m1.vertex_of[0]]), len(m1._face_orbits[m1.face_of[0]])
    vertex_of, vertices = m2.vertex_of, m2._vertex_orbits
    face_of, faces = m2.face_of, m2._face_orbits
    return [
        d2
        for d2 in range(m2.n_darts)
        if len(vertices[vertex_of[d2]]) == v1 and len(faces[face_of[d2]]) == f1
        and labels1[0] == labels2[d2]
    ]


def is_isomorphic(m1: CombMap, m2: CombMap, labels1, labels2):
    """A label-preserving isomorphism (dart map m1 -> m2), or None."""
    if m1.n_darts != m2.n_darts:
        return None
    if m1.n_darts == 0:
        return []
    if not m1.is_connected() or not m2.is_connected():
        raise NotConnected("is_isomorphic requires connected maps")
    for d2 in _seed_images(m1, m2, labels1, labels2):
        f = _propagate(m1, m2, labels1, labels2, 0, d2)
        if f is not None:
            return f
    return None


# ---------------------------------------------------------------------------
# building maps from face lists


def build_from_faces(faces):
    """Build a closed CombMap from polygons.

    ``faces``: list of polygons, each a list of (vertex, edge_key) pairs
    read counterclockwise: entry p means "an edge with key edge_key runs
    from this vertex to the vertex of entry p+1".  Every edge key must be
    used by exactly two polygon sides (in opposite directions for an
    orientable result).

    Each vertex label must name exactly one rotation orbit.

    Returns (map, dart_info) where dart_info[d] = (face_index, position,
    vertex, edge_key).
    """
    dart_info = []
    index = {}
    for fi, poly in enumerate(faces):
        for p, (v, k) in enumerate(poly):
            index[(fi, p)] = len(dart_info)
            dart_info.append((fi, p, v, k))
    n = len(dart_info)

    by_key = {}
    for d, (fi, p, v, k) in enumerate(dart_info):
        by_key.setdefault(k, []).append(d)
    ep = [0] * n
    for k, ds in by_key.items():
        if len(ds) != 2:
            raise MapError("edge key %r used %d times (want 2)" % (k, len(ds)))
        a, b = ds
        fa, pa, va, _ = dart_info[a]
        fb, pb, vb, _ = dart_info[b]
        head_a = faces[fa][(pa + 1) % len(faces[fa])][0]
        head_b = faces[fb][(pb + 1) % len(faces[fb])][0]
        if not (va == head_b and vb == head_a):
            raise MapError("edge key %r traversed inconsistently" % (k,))
        ep[a], ep[b] = b, a

    # the face walk is forced: next side of the same polygon
    fw = [0] * n
    for d, (fi, p, v, k) in enumerate(dart_info):
        fw[d] = index[(fi, (p + 1) % len(faces[fi]))]
    # rotation = edge_pairing o face_walk^-1
    rot = compose(ep, inverse(fw))

    m = CombMap(n, ep, rot)
    seen = set()
    for orbit in m._vertex_orbits:
        labels = {dart_info[d][2] for d in orbit}
        if len(labels) != 1:
            raise MapError("rotation orbit mixes vertex labels %r" % (labels,))
        lab = labels.pop()
        if lab in seen:
            raise MapError("vertex %r has a disconnected link" % (lab,))
        seen.add(lab)
    return m, dart_info
