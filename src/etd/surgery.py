"""Diagram surgery: tubing two diagrams together."""

from __future__ import annotations

from .cmap import CellId, CombMap
from .diagram import SCAFFOLD, DiagramError, ShadowDiagram


class SurgeryError(DiagramError):
    pass


def tube(d1: ShadowDiagram, face1: CellId, d2: ShadowDiagram, face2: CellId):
    """Join two diagrams by a tube (cylinder of scaffold rungs) between two
    faces of equal length.  Genus adds: chi = chi1 + chi2 - 2.

    Rung k joins the corner before ``cyc1[k]`` to the corner before
    ``cyc2[-k]`` (each face's dart cycle from its least dart), so the two
    boundary circles are glued with opposite orientations.  Raises
    SurgeryError if the Euler characteristic does not add up as above.

    Returns (diagram, shift) where darts of d2 appear shifted by shift.
    """
    m1, m2 = d1.surface, d2.surface
    cyc1 = m1.orbit(face1)
    cyc2 = m2.orbit(face2)
    L = len(cyc1)
    if len(cyc2) != L:
        raise SurgeryError("faces have different lengths (%d vs %d)" % (L, len(cyc2)))
    n1, n2 = m1.n_darts, m2.n_darts
    n = n1 + n2 + 2 * L

    def a(k):
        return n1 + n2 + 2 * k

    def b(k):
        return n1 + n2 + 2 * k + 1

    ep = list(m1.edge_pairing) + [x + n1 for x in m2.edge_pairing] + [0] * (2 * L)
    rot = list(m1.rotation) + [x + n1 for x in m2.rotation] + [0] * (2 * L)
    # rung k sits at the corner before cyc1[k] and before cyc2[-k]
    for k in range(L):
        j = -k % L
        ep[a(k)] = b(j)
        ep[b(j)] = a(k)
    # face walk satisfies sigma(cyc[k]) = eps(cyc[k-1]); the rung at the
    # corner of cyc[k] slips between those two darts
    for k in range(L):
        rot[cyc1[k]] = a(k)
        rot[a(k)] = m1.edge_pairing[cyc1[k - 1]]
    for k in range(L):
        rot[cyc2[k] + n1] = b(k)
        rot[b(k)] = m2.edge_pairing[cyc2[k - 1]] + n1

    m = CombMap(n, ep, rot)
    want = m1.euler_characteristic() + m2.euler_characteristic() - 2
    if m.euler_characteristic() != want:
        raise SurgeryError("tube matching is orientation-incompatible")

    colors = d1.dart_colors + d2.dart_colors + bytes([SCAFFOLD]) * (2 * L)
    marked = [v.dart for v in d1.marked] + [v.dart + n1 for v in d2.marked]
    return ShadowDiagram.from_darts(m, colors, marked), n1
