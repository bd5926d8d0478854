"""Integer linear algebra: Smith normal form, surface homology and the
Riemann-Hurwitz defect of a branched cover.

Everything is exact: matrices are lists of Python-int rows, so there is no
overflow and no rational shortcut that could hide torsion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import EtdError
from .cmap import CombMap, spanning_forest


class InvariantError(EtdError):
    pass


# ---------------------------------------------------------------------------
# Smith normal form


def invariant_factors(M):
    """The nonzero invariant factors of the integer matrix ``M``: the
    diagonal of its Smith normal form, each dividing the next.

    Only the diagonal is computed; the unimodular transforms are not
    kept.  Pivoting is deterministic: smallest nonzero magnitude, ties
    broken by (row, column) index.
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    s = 0
    while s < min(rows, cols):
        p = None
        for i in range(s, rows):
            for j in range(s, cols):
                a = A[i][j]
                if a and (p is None or abs(a) < abs(A[p[0]][p[1]])):
                    p = (i, j)
        if p is None:
            break
        A[s], A[p[0]] = A[p[0]], A[s]
        for r in A:
            r[s], r[p[1]] = r[p[1]], r[s]
        # clear column s, then row s, re-selecting the globally smallest
        # pivot after every pass: any nonzero remainder strictly shrinks
        # the pivot, and never promoting a freshly reduced row keeps the
        # intermediate entries from feeding back on themselves
        if any(A[i][s] for i in range(s + 1, rows)):
            for i in range(s + 1, rows):
                if A[i][s]:
                    k = -(A[i][s] // A[s][s])
                    A[i] = [a + k * b for a, b in zip(A[i], A[s])]
            continue
        if any(A[s][j] for j in range(s + 1, cols)):
            for j in range(s + 1, cols):
                if A[s][j]:
                    k = -(A[s][j] // A[s][s])
                    for r in A:
                        r[j] += k * r[s]
            continue
        # enforce divisibility: fold the first row holding a non-divisible
        # entry into row s
        culprit = next(
            (i for i in range(s + 1, rows) if any(A[i][j] % A[s][s] for j in range(s + 1, cols))),
            None,
        )
        if culprit is not None:
            A[s] = [a + b for a, b in zip(A[s], A[culprit])]
            continue
        s += 1
    return [abs(A[i][i]) for i in range(s)]


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvariantError("torsion coefficients must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise InvariantError("torsion coefficients must exceed 1")

    @property
    def is_free(self):
        return not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _invariant_factors_sparse(rows):
    """Invariant factors of the rows, each a dict {column: nonzero entry}.

    Relation matrices from surfaces are mostly 0/+-1; peeling unit pivots
    (each contributing an invariant factor 1) leaves a small residue for
    the dense routine.  The row dicts are consumed.
    """
    rows = {ri: r for ri, r in enumerate(rows) if r}
    col_rows = {}
    for ri, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(ri)
    n_unit = 0
    # Rows to scan for a unit, first row on top: every row once, then each
    # row that was scanned without a unit and that a pivot has changed
    # since.  Waiting rows keep their order, as in a scan from the top;
    # pushing every changed row reorders the pivots and multiplies fill-in.
    work = list(reversed(rows))
    idle = set()
    while work:
        ri = work.pop()
        prow = rows.get(ri)
        if prow is None:
            continue  # emptied by a pivot
        j = next((c for c, v in prow.items() if v in (1, -1)), None)
        if j is None:
            idle.add(ri)
            continue
        del rows[ri]
        v = prow[j]
        for c in prow:
            col_rows[c].discard(ri)
        for oi in list(col_rows.get(j, ())):
            orow = rows[oi]
            k = -orow[j] * v  # orow += k * prow clears column j
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
            elif oi in idle:
                idle.remove(oi)
                work.append(oi)
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


def cokernel(n_ambient, rows) -> AbelianGroup:
    """Z^n modulo the subgroup generated by the rows, each a dict
    {column: nonzero entry}.  The row dicts are consumed."""
    facs = _invariant_factors_sparse(rows)
    torsion = tuple(sorted(f for f in facs if f > 1))
    return AbelianGroup(n_ambient - len(facs), torsion)


# ---------------------------------------------------------------------------
# surface homology


class H1Frame:
    """The per-map data of :func:`surface_h1_mod`, built once per map:
    a basis of H1 from a tree-cotree decomposition (Eppstein, *Dynamic
    generators of topologically embedded graphs*, SODA 2003).

    A spanning forest of the 1-skeleton makes the non-tree edges
    coordinates of the cycle space: a cycle's coefficient on the
    fundamental cycle of a non-tree edge is just its entry at that edge.
    A spanning forest of the dual graph over the non-tree edges is the
    cotree.  The ``rank`` edges in neither (2g on a connected surface of
    genus g) are the columns, and cycles modulo face boundaries are
    Z^rank on them.  Each face off the dual roots meets its parent cotree
    edge exactly once, so its boundary relation solves for that edge in
    terms of the face's other edges.  Faces are solved leaf faces first,
    so the other non-tree edges of the face are columns or child cotree
    edges, already solved.  ``coords[j]`` is edge j's class as a sparse
    dict {column: coefficient}: a column its unit, a tree edge nothing.

    Cycles are given as dicts {edge index: coefficient}, an edge oriented
    from the vertex of its least dart; see :meth:`project`.
    """

    def __init__(self, m: CombMap):
        ep, vertex_of, edge_of = m.edge_pairing, m.vertex_of, m.edge_of
        n_edges = len(m._edge_orbits)
        self.tail = [vertex_of[x] for x, _ in m._edge_orbits]
        self.head = [vertex_of[y] for _, y in m._edge_orbits]
        in_forest = bytearray(n_edges)
        for x in spanning_forest(m)[0]:
            if x >= 0:
                in_forest[edge_of[x]] = 1
        non_tree = [x for x in range(m.n_darts) if not in_forest[edge_of[x]]]
        parent, order = spanning_forest(m, non_tree, dual=True)
        for x in parent:
            if x >= 0:
                in_forest[edge_of[x]] = 1
        empty = {}  # shared by the tree edges, never written
        coords = [empty] * n_edges
        self.rank = 0
        for j in range(n_edges):
            if not in_forest[j]:
                coords[j] = {self.rank: 1}
                self.rank += 1
        for f in reversed(order):
            x = parent[f]
            if x < 0:
                continue
            y = ep[x]  # the parent edge's dart on face f
            row = {}
            for z in m._face_orbits[f]:
                if z != y:
                    a = 1 if z < ep[z] else -1
                    for c, v in coords[edge_of[z]].items():
                        row[c] = row.get(c, 0) + a * v
            a = 1 if y < x else -1  # the boundary is a * edge + row = 0
            coords[edge_of[y]] = {c: -a * v for c, v in row.items() if v}
        self.coords = coords

    def project(self, cycle):
        """The H1 class of ``cycle``, a dict {edge index: coefficient}, as
        a sparse dict {column: coefficient}; raises InvariantError if it
        is not a cycle."""
        head, tail, coords = self.head, self.tail, self.coords
        bnd = {}
        out = {}
        for j, a in cycle.items():
            if a:
                bnd[head[j]] = bnd.get(head[j], 0) + a
                bnd[tail[j]] = bnd.get(tail[j], 0) - a
                for c, v in coords[j].items():
                    out[c] = out.get(c, 0) + a * v
        if any(bnd.values()):
            raise InvariantError("relation vector is not a cycle")
        return {c: v for c, v in out.items() if v}


def h1_frame(m: CombMap) -> H1Frame:
    """The H1 frame of ``m``, built on first use and kept on the map."""
    if m._h1_frame is None:
        m._h1_frame = H1Frame(m)
    return m._h1_frame


def surface_h1_mod(m: CombMap) -> AbelianGroup:
    """H1 of a closed surface map: cycles modulo face boundaries, free
    on the columns of the map's :class:`H1Frame`.  To quotient by curves
    as well, take the cokernel of their :meth:`H1Frame.project` classes,
    as :func:`h1_mod_curves` does."""
    return AbelianGroup(h1_frame(m).rank)


def h1_mod_curves(d, families) -> AbelianGroup:
    """H1 of the diagram surface modulo the cycles of the families, as
    :func:`etd.diagram.family_cycles` lists them: each Alpha(i) curve,
    then a cycle basis of the Shadow(i) arcs, projected once per diagram.

    With one family this is the handlebody H1 (Z^g for a genuine cut
    system); with all three it is H1 of the trisected 4-manifold.  Cycles
    supported on a family's shadow arcs bound bridge disks on the
    handlebody side and are quotiented alongside the curves.
    """
    from .diagram import family_classes  # avoids a cycle

    rows = [dict(c) for i in families for c in family_classes(d, i)]
    return cokernel(h1_frame(d.surface).rank, rows)


# ---------------------------------------------------------------------------
# branched covers


def branching_defect(group_order: int, branch_orders) -> int:
    """The Riemann-Hurwitz defect sum(|G| - |G|/m) over branch points of
    orders m, each dividing |G|: a |G|-sheeted branched cover of a closed
    surface of Euler characteristic chi has Euler characteristic
    |G| * chi - defect."""
    return sum(group_order - group_order // m for m in branch_orders)
