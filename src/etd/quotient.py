"""Quotients of shadow diagrams by normal subgroups of a symmetry group.

The quotient of the surface by a subgroup N acting freely on darts is
again a combinatorial map; edges inverted by N are first subdivided (a
midpoint vertex splits them) so freeness on darts always holds.  Cells
with nontrivial N-stabilizer become cone points, kept as metadata.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import EtdError
from .cmap import CellId, CombMap, inverse, perm_orbits, subdivide_edges
from .diagram import SCAFFOLD, ShadowDiagram, alpha, color_components, validate_trisection
from .invariants import branching_defect
from .symmetry import (
    DiagramAction,
    NotAutomorphism,
    SymmetryError,
    base_darts,
    check_action,
    check_automorphism,
)


class QuotientError(EtdError):
    pass


class NotNormal(QuotientError):
    pass


class NotValidAction(QuotientError):
    pass


@dataclass
class QuotientResult:
    """A quotient diagram with its cone points, induced action and projection."""

    diagram: ShadowDiagram
    cone_points: list  # (CellId in the quotient, order m)
    induced_action: DiagramAction
    projection: list  # dart of ``source`` -> quotient dart
    source: ShadowDiagram  # the input itself when N inverts no edge, else its subdivision
    subgroup_order: int

    def cone_orders(self):
        return sorted(m for _, m in self.cone_points)


def _extend_perm(perm, m2: CombMap, n_old: int):
    """Extend a dart permutation across midpoint darts added by
    subdivision (every subdivided edge's image must also be subdivided)."""
    out = list(perm) + [0] * (m2.n_darts - n_old)
    for x in range(n_old, m2.n_darts):
        d = m2.edge_pairing[x]
        if d >= n_old:
            raise QuotientError("midpoint dart paired with a midpoint dart")
        out[x] = m2.edge_pairing[perm[d]]
    return tuple(out)


def _subdivided_diagram(d: ShadowDiagram, cells):
    """``d`` with a midpoint vertex on each listed edge; ``d`` itself
    when no edge is listed."""
    m2, origin = subdivide_edges(d.surface, cells)
    if m2 is d.surface:
        return d
    colors = [d.dart_colors[x] for x in origin]
    return ShadowDiagram.from_darts(m2, colors, [v.dart for v in d.marked])


def quotient(d: ShadowDiagram, a: DiagramAction, n_generators=None) -> QuotientResult:
    """Quotient the diagram by the subgroup N generated by
    ``n_generators`` (default: all of the action, i.e. N = G).

    N must be normal in the action's closure.  Returns the quotient
    diagram with cone points, the induced G/N action, and the dart
    projection from the source: the input diagram itself when N inverts
    no edge, else the input with each N-inverted edge subdivided.

    The action and the induced action are checked by
    :func:`etd.symmetry.check_action` (raising NotValidAction), and
    G's closure serves the membership test of N's generators; a
    generator of N that is not one of G's generators is checked by
    :func:`etd.symmetry.check_automorphism` first (raising NotNormal).
    """
    try:
        g_closure = check_action(d, a)
    except SymmetryError as e:
        raise NotValidAction(str(e))
    m = d.surface
    if n_generators is None:
        n_sub, n_closure = a, g_closure
    else:
        n_sub = DiagramAction(list(n_generators), base=a.base)
        for g, name in zip(n_sub.generators, n_sub.names):
            # an automorphism is the group element with its base images;
            # G's own generators passed check_action
            if g not in a.generators:
                try:
                    check_automorphism(m, g, name)
                except NotAutomorphism as e:
                    raise NotNormal("subgroup generator is not in the group: %s" % e)
            if g_closure.index(g_closure.key_of(g)) is None:
                raise NotNormal("subgroup generator is not in the group")
        n_closure = n_sub.closure()
        # in a finite group, N is normal iff g n g^-1 lies in N for every
        # pair of generators g of G and n of N
        for g in a.generators:
            g_inv = inverse(g)
            for n in n_sub.generators:
                key = tuple(g[n[g_inv[b]]] for b in a.base)
                if n_closure.index(key) is None:
                    raise NotNormal("subgroup is not normal in the action")
    order_n = len(n_closure)

    # N-orbits of darts become the quotient darts.  N-inverted edges
    # have both darts in one N-orbit; N is normal, so that set is
    # G-invariant, and after subdivision the whole group still acts and
    # the orbits are found again on the midpoint-extended generators.
    orbit_id, orbits = perm_orbits(m.n_darts, n_sub.generators)
    inverted = [CellId("edge", x) for x, y in m._edge_orbits if orbit_id[x] == orbit_id[y]]
    sub_d = _subdivided_diagram(d, inverted)
    m2 = sub_d.surface
    g_perms = a.generators
    if inverted:
        n_old = m.n_darts
        orbit_id, orbits = perm_orbits(
            m2.n_darts, [_extend_perm(n, m2, n_old) for n in n_sub.generators]
        )
        g_perms = [_extend_perm(g, m2, n_old) for g in g_perms]
    if any(len(orb) != order_n for orb in orbits):
        raise QuotientError("subgroup does not act freely on darts after subdivision")
    reps = [orb[0] for orb in orbits]
    k = len(reps)

    ep_q = [orbit_id[m2.edge_pairing[reps[i]]] for i in range(k)]
    rot_q = [orbit_id[m2.rotation[reps[i]]] for i in range(k)]
    mq = CombMap(k, ep_q, rot_q)

    dq = ShadowDiagram.from_darts(
        mq, [sub_d.dart_colors[r] for r in reps], [orbit_id[v.dart] for v in sub_d.marked]
    )

    # cone points: quotient vertices/faces whose preimage cells have a
    # nontrivial N-stabilizer.  N is free on darts, so the stabilizer of
    # a cell is its share of the N-orbit of its dart, and the orbit of
    # the cell is the set of cells that dart orbit meets.
    cone = []
    for kind, of, q_orbits in (
        ("vertex", m2.vertex_of, mq._vertex_orbits), ("face", m2.face_of, mq._face_orbits)
    ):
        for q_orbit in q_orbits:
            i = q_orbit[0]  # the quotient cell's least dart
            met = [of[y] for y in orbits[i]]  # met[0] is the cell of reps[i]
            stab = met.count(met[0])
            if stab * len(set(met)) != order_n:
                raise QuotientError(
                    "orbit-stabilizer equality fails at %r" % (m2.cell_of(kind, reps[i]),)
                )
            if stab > 1:
                cone.append((CellId(kind, i), stab))

    # Riemann-Hurwitz, exactly
    chi = m2.euler_characteristic()
    chi_q = mq.euler_characteristic()
    defect = branching_defect(order_n, [mm for _, mm in cone])
    if chi != order_n * chi_q - defect:
        raise QuotientError(
            "Riemann-Hurwitz failure: chi %d != %d*%d - %d" % (chi, order_n, chi_q, defect)
        )

    # induced G/N action from the images of the original generators
    induced_gens = [tuple(orbit_id[g2[r]] for r in reps) for g2 in g_perms]
    induced_names = list(a.names)
    if not induced_gens:
        induced_gens = [tuple(range(k))]
        induced_names = ["e"]
    induced = DiagramAction(induced_gens, induced_names, base_darts(mq))
    try:
        check_action(dq, induced)
    except SymmetryError as e:
        raise NotValidAction("induced action on the quotient is invalid: %s" % e)

    return QuotientResult(dq, cone, induced, orbit_id, sub_d, order_n)


YES = "Yes"
CERTIFIED = "Certified"
NO = "No"


def folded_curve_edges(d: ShadowDiagram, i: int):
    """Edges of alpha(i) components that terminate somewhere (odd family
    valence at a vertex): the images of invariant curves running through
    fixed points, folded in half by the quotient."""
    m = d.surface
    edges = m.edges()
    out = set()
    for comp in color_components(d, alpha(i)):
        valence = Counter(m.vertex_of[x] for x in comp)
        if any(k % 2 for k in valence.values()):
            out.update(edges[m.edge_of[x]] for x in comp)
    return out


def demoted_diagram(q: QuotientResult) -> ShadowDiagram:
    """The quotient with folded half-curves demoted to scaffold.

    An invariant curve through two fixed points maps to an arc between
    cone points; downstairs it is a shadow of the branch surface, not a
    compressing curve of the quotient trisection, so it is kept only as
    decoration.
    """
    d = q.diagram
    drop = set()
    for i in (1, 2, 3):
        drop |= folded_curve_edges(d, i)
    if not drop:
        return d
    m = d.surface
    edges = m.edges()
    colors = [SCAFFOLD if edges[m.edge_of[x]] in drop else c for x, c in enumerate(d.dart_colors)]
    return ShadowDiagram.from_darts(m, colors, [v.dart for v in d.marked])


def quotient_is_trisection(q: QuotientResult):
    """Validate the quotient as a plain diagram (cone points demoted to
    ordinary cells, folded half-curves to scaffold).  Yes = all pair
    checks Verified; Certified = valid at the homology tier; No = some
    check fails."""
    report = validate_trisection(demoted_diagram(q))
    if not report.ok:
        return NO, report
    if all(report.pair_verdicts[i].tier == "Verified" for i in (1, 2, 3)):
        return YES, report
    return CERTIFIED, report
