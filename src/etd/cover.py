"""Regular branched covers of diagrams from voltage assignments.

Each dart carries a deck-group element (voltage), inverse on the partner
dart; crossing an edge multiplies the sheet coordinate on the left.
Marked vertices may declare a meridian: walking once around the vertex
multiplies the sheet by it, so the vertex lifts to |G|/order(meridian)
branch points.  (Conceptually the vertex is blown up into a small polygon
whose boundary carries the meridian as net voltage, the polygon's lifts
being collapsed back to vertices; the twisted rotation below is that
construction with the polygon elided.)  The twists are solved on the
constraints that hold a marked corner only; every other face is checked
by the product of its voltages.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import reduce

from .cmap import CellId, CombMap
from .diagram import ShadowDiagram
from .groups import Group, greedy_generators
from .invariants import branching_defect
from .symmetry import DiagramAction, base_darts, check_action


class CoverError(ValueError):
    pass


class VoltageIncompatible(CoverError):
    pass


class MeridianMismatch(CoverError):
    pass


class DisconnectedCoverWarning(UserWarning):
    pass


@dataclass
class VoltageAssignment:
    """Deck-group voltages on the darts and meridians at marked vertices."""

    group: Group
    voltage: dict  # dart -> group element
    meridians: dict = field(default_factory=dict)  # marked vertex CellId -> element

    def validated(self, d: ShadowDiagram) -> "VoltageAssignment":
        g = self.group
        m = d.surface
        volt = dict(self.voltage)
        for x in range(m.n_darts):
            if x not in volt:
                raise VoltageIncompatible("dart %d has no voltage" % x)
            if volt[x] not in g:
                raise VoltageIncompatible("voltage at dart %d is not a group element" % x)
        for x in range(m.n_darts):
            if volt[m.edge_pairing[x]] != g.inv(volt[x]):
                raise VoltageIncompatible(
                    "voltages on edge {%d, %d} are not mutually inverse"
                    % (x, m.edge_pairing[x])
                )
        mer = dict(self.meridians)
        for v, w in mer.items():
            if v not in d.marked:
                raise MeridianMismatch("meridian declared at unmarked cell %r" % (v,))
            if w not in g:
                raise MeridianMismatch("meridian at %r is not a group element" % (v,))
        for v in d.marked:
            mer.setdefault(v, g.identity)
        return VoltageAssignment(g, volt, mer)


@dataclass
class BranchPoint:
    """A marked base vertex, its meridian's order and its number of lifts."""

    base_vertex: CellId
    order: int
    lift_count: int


@dataclass
class CoverResult:
    """A derived cover with its deck action, projection and branch data."""

    diagram: ShadowDiagram
    deck: DiagramAction
    projection: dict  # lifted dart -> (base dart, group element)
    branch_points: list
    group: Group
    n_components: int
    structural_errors: list


def expected_lift_parameters(d: ShadowDiagram, va: VoltageAssignment, *, validated=False):
    """(genus of a connected cover, per-branch lift counts) from the
    Riemann-Hurwitz formula, without building anything.  ``va`` is
    validated first, unless the caller passes ``validated=True`` for
    the result of :meth:`VoltageAssignment.validated` on ``d``."""
    if not validated:
        va = va.validated(d)
    g = va.group
    m = d.surface
    if not m.is_connected():
        raise CoverError("base must be connected")
    n = len(g)
    orders = {v: g.element_order(w) for v, w in va.meridians.items()}
    if any(n % o for o in orders.values()):
        raise MeridianMismatch("meridian order does not divide the group order")
    chi_lift = n * m.euler_characteristic() - branching_defect(n, orders.values())
    if chi_lift % 2:
        raise CoverError("lifted Euler characteristic is odd")
    return (2 - chi_lift) // 2, {v: n // o for v, o in orders.items()}


def _face_word(cyc, volt, unknowns):
    """The constraint of the face ``cyc`` (face-walk order d1 -> d2 ->
    ...) as a token word, ``("const", element)`` or ``("unk", dart,
    exponent)``, multiplying left to right to the identity:
    t(d1)^-1 v(dk) t(dk)^-1 v(d_{k-1}) ... t(d2)^-1 v(d1).  Only the
    corners in ``unknowns`` carry a twist token; any other twist is the
    identity."""
    word = [("unk", cyc[0], -1)] if cyc[0] in unknowns else []
    for x in reversed(cyc[1:]):
        word.append(("const", volt[x]))
        if x in unknowns:
            word.append(("unk", x, -1))
    word.append(("const", volt[cyc[0]]))
    return word


def _solve_twists(d: ShadowDiagram, va: VoltageAssignment):
    """Per-corner sheet twists at the marked vertices.

    This is the blown-up-polygon construction in compressed form: the
    twist t(c) is the voltage of the polygon edge at corner c.  The
    twists must multiply to the declared meridian around each marked
    vertex while keeping every face's total holonomy trivial (faces lift
    unbranched; only marked vertices branch).  Each twist appears in
    exactly one face constraint and one vertex constraint, so the system
    peels off one constraint at a time; an unsatisfiable residue means
    the declared meridians are globally inconsistent.

    Only the constraints that hold a marked corner are built as words
    and swept: the vertex constraints, and the faces through a marked
    corner.  Every other face has no unknown, so its check is the plain
    product of its voltages.  All constraints are checked in one order,
    faces in face-walk order and then the marked vertices, so the first
    failing one decides the error.
    """
    g = va.group
    mul, inv, e = g.mul, g.inv, g.identity
    m = d.surface
    volt = va.voltage
    marked = {v: m._vertex_orbits[m.vertex_of[v.dart]] for v in d.marked}
    unknowns = set()
    for cyc in marked.values():
        unknowns.update(cyc)
    t = {}

    # each constraint with an unknown is a token word multiplying (left
    # to right) to the identity (see _face_word); ``checks`` holds every
    # constraint in order: a word, or the voltages of a face without a
    # marked corner, in product order
    words, checks = [], []
    for cyc in m._face_orbits:
        if unknowns.isdisjoint(cyc):
            checks.append((False, [volt[x] for x in reversed(cyc)]))
        else:
            words.append(_face_word(cyc, volt, unknowns))
            checks.append((True, words[-1]))
    for v in sorted(d.marked):
        word = [("unk", c, 1) for c in reversed(marked[v])]
        word.append(("const", inv(va.meridians[v])))
        words.append(word)
        checks.append((True, word))

    def token_value(tok):
        if tok[0] == "const":
            return tok[1]
        val = t[tok[1]]
        return val if tok[2] == 1 else inv(val)

    pending = set(unknowns)
    while pending:
        progressed = False
        for word in words:
            open_toks = [tok for tok in word if tok[0] == "unk" and tok[1] not in t]
            if len(open_toks) != 1:
                continue
            (unk,) = open_toks
            _, dart, s = unk
            before = e
            after = e
            seen = False
            for tok in word:
                if tok is unk:
                    seen = True
                    continue
                val = token_value(tok)
                if seen:
                    after = mul(after, val)
                else:
                    before = mul(before, val)
            # before * u^s * after = e
            u_s = mul(inv(before), inv(after))
            t[dart] = u_s if s == 1 else inv(u_s)
            pending.discard(dart)
            progressed = True
        if not progressed:
            # gauge freedom: pin an arbitrary twist and keep peeling
            dart = min(pending)
            t[dart] = e
            pending.discard(dart)

    for is_word, factors in checks:
        if reduce(mul, map(token_value, factors) if is_word else factors) != e:
            if is_word:
                raise MeridianMismatch(
                    "declared meridians are inconsistent with the voltages"
                )
            raise VoltageIncompatible(
                "face with nontrivial holonomy: branching is only allowed "
                "at marked vertices"
            )
    return {x: t.get(x, e) for x in range(m.n_darts)}


def derived_cover(d: ShadowDiagram, va: VoltageAssignment, *, validated=False) -> CoverResult:
    """Build the derived cover, its deck action (right translation), and
    branch data; warns DisconnectedCoverWarning when the voltages do not
    generate the deck group.  ``va`` is validated first, unless the
    caller passes ``validated=True`` as for
    :func:`expected_lift_parameters`."""
    if not validated:
        va = va.validated(d)
    g = va.group
    m = d.surface
    if not m.is_connected():
        raise CoverError("base must be connected")
    n = m.n_darts
    elements = g.elements
    order = len(elements)
    idx = {x: i for i, x in enumerate(elements)}
    mul = g.mul  # a cached function: a local name is the cheapest call
    twist = _solve_twists(d, va)
    # left multiplication by each voltage and twist, as an index row
    row = {w: [idx[mul(w, e)] for e in elements] for w in {*va.voltage.values(), *twist.values()}}

    # lifted dart x*|G| + i is (base dart x, elements[i])
    ep, rot = [], []
    pairing, rotation, voltage = m.edge_pairing, m.rotation, va.voltage
    for x in range(n):
        b = pairing[x] * order
        ep += [b + j for j in row[voltage[x]]]
        b = rotation[x] * order
        rot += [b + j for j in row[twist[x]]]
    proj = dict(enumerate(itertools.product(range(n), elements)))
    lifted = CombMap(n * order, ep, rot)

    # Riemann-Hurwitz, exactly (holds for the full cover, connected or not)
    defect = branching_defect(order, [g.element_order(w) for w in va.meridians.values()])
    if lifted.euler_characteristic() != order * m.euler_characteristic() - defect:
        raise CoverError("derived map violates Riemann-Hurwitz")

    # lifted dart x*|G| + i takes the color and mark of base dart x
    colors = [c for c in d.dart_colors for _ in range(order)]
    marked = [v.dart * order + i for v in d.marked for i in range(order)]
    dq = ShadowDiagram.from_darts(lifted, colors, marked)

    branch = []
    for v, w in sorted(va.meridians.items(), key=lambda it: it[0].dart):
        o = g.element_order(w)
        b = v.dart * order
        lifts = len({lifted.vertex_of[b + i] for i in range(order)})
        if lifts != order // o:
            raise CoverError("branch point lift count disagrees with the meridian order")
        branch.append(BranchPoint(v, o, lifts))

    # right translation by h: (x, e) -> (x, e h)
    gens = []
    names = []
    for h in greedy_generators(elements, g.identity, mul) or [g.identity]:
        right_h = [idx[mul(e, h)] for e in elements]
        gens.append(tuple(b + r for b in range(0, n * order, order) for r in right_h))
        names.append(str(h))
    comps = lifted.components()
    deck = DiagramAction(gens, names, base_darts(lifted))
    if len(comps) > 1:
        warnings.warn(
            "voltages do not generate: cover has %d components" % len(comps),
            DisconnectedCoverWarning,
        )
    errs = dq.well_formed_errors()
    deck_order = len(check_action(dq, deck))
    if deck_order != order:
        raise CoverError("deck action order %d != group order %d" % (deck_order, order))
    return CoverResult(dq, deck, proj, branch, g, len(comps), errs)


def reduce_voltages(va: VoltageAssignment, target: Group, hom: dict) -> VoltageAssignment:
    """Push a voltage assignment forward along a group homomorphism
    (given as an element-image table); the derived cover of the result
    is the corresponding intermediate quotient cover."""
    return VoltageAssignment(
        target,
        {x: hom[v] for x, v in va.voltage.items()},
        {p: hom[w] for p, w in va.meridians.items()},
    )
