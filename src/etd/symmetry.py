"""Finite group actions on shadow diagrams.

Actions are given by generator permutations of the dart set.  A valid
element commutes with the edge pairing and the rotation (so it is an
orientation-preserving map automorphism; anti-automorphisms inverting the
rotation are rejected), preserves each color family setwise, and preserves
the marked set.

A map automorphism is fixed by its images of one dart per connected
component (Gross-Tucker, *Topological Graph Theory*, 1987): it commutes
with the rotation and the edge pairing, which act transitively on each
component.  So a group closure stores every element only as its images
of the action's base darts, one dart per component, and is built in
O(|G| * #generators * #components) steps with no n-length tuples.  Full
dart permutations cost one composition each, O(|G| * #darts) for the
whole group, and are built only where a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cmap import CellId
from .diagram import ShadowDiagram

DEFAULT_CLOSURE_CAP = 100_000


class SymmetryError(ValueError):
    pass


class NotAutomorphism(SymmetryError):
    def __init__(self, name, dart, why):
        super().__init__("generator %s is not a map automorphism at dart %d: %s" % (name, dart, why))
        self.generator = name
        self.dart = dart


class ColorBroken(SymmetryError):
    def __init__(self, name, family):
        super().__init__("generator %s does not preserve %s" % (name, family))
        self.generator = name
        self.family = family


class ClosureCapExceeded(SymmetryError):
    pass


def compose(p, q):
    """p after q as dart permutations."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def base_darts(m) -> tuple:
    """The least dart of each connected component of the map, ascending."""
    return tuple(sorted(min(c) for c in m.components()))


class GroupClosure:
    """The elements of a group of map automorphisms, each stored as its
    images of the base darts (its key), identity first, in the
    breadth-first order of the generators.

    Element ``i > 0`` is ``generators[via[i]]`` after element
    ``parent[i]``.  Keys identify elements only when the base meets
    every connected component of the map the generators act on; that is
    what :func:`check_action` establishes.
    """

    def __init__(self, generators, base, cap: int = DEFAULT_CLOSURE_CAP):
        self.generators = generators
        self.base = tuple(base)
        self.keys = [self.base]
        self.parent = [-1]
        self.via = [-1]
        self._index = {self.base: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                key = self.keys[i]
                for gi, g in enumerate(generators):
                    k = tuple(g[x] for x in key)
                    if k not in self._index:
                        self._index[k] = len(self.keys)
                        nxt.append(len(self.keys))
                        self.keys.append(k)
                        self.parent.append(i)
                        self.via.append(gi)
                        if len(self.keys) > cap:
                            raise ClosureCapExceeded("closure exceeds %d elements" % cap)
            frontier = nxt

    def __len__(self):
        return len(self.keys)

    def key_of(self, perm) -> tuple:
        return tuple(perm[x] for x in self.base)

    def index(self, key) -> Optional[int]:
        """The element with this key, or None."""
        return self._index.get(key)

    def _word(self, i) -> list:
        """Generator permutations whose successive application is
        element ``i``, first applied first."""
        out = []
        while i > 0:
            out.append(self.generators[self.via[i]])
            i = self.parent[i]
        out.reverse()
        return out

    def orders(self) -> list:
        """The order of every element: the least k whose k-th power
        fixes the base darts, read by applying the element's word."""
        out = []
        for i, key in enumerate(self.keys):
            word = self._word(i)
            pts, k = key, 1
            while pts != self.base:
                for g in word:
                    pts = tuple(g[x] for x in pts)
                k += 1
            out.append(k)
        return out

    def permutations(self) -> list:
        """Every element as a full dart permutation, one composition per
        search-tree edge."""
        n = len(self.generators[0]) if self.generators else 0
        out = [tuple(range(n))]
        for i in range(1, len(self.keys)):
            out.append(compose(self.generators[self.via[i]], out[self.parent[i]]))
        return out


@dataclass
class DiagramAction:
    """A finite group of dart permutations, given by generators.

    ``base`` holds one dart per connected component of the map acted on
    (default: the map is connected, base dart 0); the group closure keys
    every element by its images of these darts.
    """

    generators: list  # of dart-permutation tuples
    names: Optional[list] = None
    base: Optional[tuple] = None

    def __post_init__(self):
        self.generators = [tuple(g) for g in self.generators]
        if self.names is None:
            self.names = ["g%d" % i for i in range(len(self.generators))]
        if len(self.names) != len(self.generators):
            raise SymmetryError("one name per generator")
        if self.base is None:
            self.base = (0,) if self.n_darts() else ()
        self.base = tuple(self.base)

    def n_darts(self):
        return len(self.generators[0]) if self.generators else 0

    def closure(self, cap: int = DEFAULT_CLOSURE_CAP) -> GroupClosure:
        """The group keyed by base-dart images; raises ClosureCapExceeded
        past the cap."""
        return GroupClosure(self.generators, self.base, cap)

    def elements(self, cap: int = DEFAULT_CLOSURE_CAP):
        """The closure of the generators as full permutations, identity
        first; raises ClosureCapExceeded past the cap."""
        return self.closure(cap).permutations()

    def order(self, cap: int = DEFAULT_CLOSURE_CAP):
        return len(self.closure(cap))


def identity_action(n_darts: int) -> DiagramAction:
    return DiagramAction([tuple(range(n_darts))], ["e"])


def act_on_cell(m, p, cell: CellId) -> CellId:
    return m.cell_of(cell.kind, p[cell.dart])


# ---------------------------------------------------------------------------
# validation


@dataclass
class ActionReport:
    ok: bool
    order: int
    structure_hint: str
    element_orders: dict  # order -> count
    reason: str = ""

    def __bool__(self):
        return self.ok


def _structure_hint(order, orders_count):
    if order == 1:
        return "trivial"
    if orders_count.get(order, 0) > 0:
        return "cyclic"
    if order % 2 == 0:
        n = order // 2
        if orders_count.get(2, 0) >= n and (n <= 2 or orders_count.get(n, 0) > 0):
            return "dihedral"
    return "other"


def check_automorphism(m, g, name):
    """Raise NotAutomorphism unless g is a dart permutation commuting
    with the map's edge pairing and rotation."""
    n = m.n_darts
    if len(g) != n or sorted(g) != list(range(n)):
        raise NotAutomorphism(name, -1, "not a permutation of the darts")
    for x in range(n):
        if g[m.edge_pairing[x]] != m.edge_pairing[g[x]]:
            raise NotAutomorphism(name, x, "does not commute with the edge pairing")
        if g[m.rotation[x]] != m.rotation[g[x]]:
            raise NotAutomorphism(name, x, "does not commute with the rotation")


def check_action(d: ShadowDiagram, a: DiagramAction, cap: int = DEFAULT_CLOSURE_CAP) -> ActionReport:
    """Validate an action and report its order and a structure hint.

    The hint (trivial/cyclic/dihedral/other) is heuristic, from element
    orders only; correctness never depends on it.  The action's base
    darts must meet each connected component of the surface once, so
    that they identify the elements of the closure.
    """
    m = d.surface
    for g, name in zip(a.generators, a.names):
        check_automorphism(m, g, name)
        for e in m.edges():
            img = act_on_cell(m, g, e)
            if d.color[img] != d.color[e]:
                raise ColorBroken(name, str(d.color[e]))
        marked_img = {act_on_cell(m, g, v) for v in d.marked}
        if marked_img != d.marked:
            raise ColorBroken(name, "marked set")
    comps = m.components()
    if len(a.base) != len(comps) or any(
        sum(1 for b in a.base if b in c) != 1 for c in comps
    ):
        raise SymmetryError("the action's base darts must meet each connected component once")
    closure = a.closure(cap)
    orders_count = {}
    for o in closure.orders()[1:]:
        orders_count[o] = orders_count.get(o, 0) + 1
    order = len(closure)
    return ActionReport(True, order, _structure_hint(order, orders_count), orders_count)


# ---------------------------------------------------------------------------
# orbits and stabilizers


def orbits(m, a: DiagramAction, cells, cap: int = DEFAULT_CLOSURE_CAP):
    """Partition of the given cells into action orbits."""
    elems = a.elements(cap)
    cells = list(cells)
    cell_set = set(cells)
    seen = set()
    out = []
    for c in cells:
        if c in seen:
            continue
        orb = {act_on_cell(m, e, c) for e in elems}
        if not orb <= cell_set:
            raise SymmetryError("orbit of %r leaves the given cell set" % (c,))
        seen |= orb
        out.append(frozenset(orb))
    # orbit-stabilizer consistency on every cell
    for orb in out:
        for c in orb:
            stab = [e for e in elems if act_on_cell(m, e, c) == c]
            if len(orb) * len(stab) != len(elems):
                raise SymmetryError("orbit-stabilizer equality fails at %r" % (c,))
    return out


def stabilizer(m, a: DiagramAction, cell: CellId, cap: int = DEFAULT_CLOSURE_CAP):
    elems = a.elements(cap)
    stab = [e for e in elems if act_on_cell(m, e, cell) == cell]
    orb = {act_on_cell(m, e, cell) for e in elems}
    if len(orb) * len(stab) != len(elems):
        raise SymmetryError("orbit-stabilizer equality fails at %r" % (cell,))
    return stab


# ---------------------------------------------------------------------------
# singular locus


@dataclass
class FixedCell:
    cell: CellId
    local_order: int


@dataclass
class ElementFixedData:
    element: tuple
    order: int
    fixed_vertices: list = field(default_factory=list)
    fixed_faces: list = field(default_factory=list)
    inverted_edges: list = field(default_factory=list)

    @property
    def n_fixed_points(self):
        return len(self.fixed_vertices) + len(self.fixed_faces) + len(self.inverted_edges)


@dataclass
class SingularReport:
    per_element: list  # ElementFixedData for each nonidentity element
    hyperelliptic_involutions: list  # elements with 2g+2 fixed points
    genus: int

    @property
    def is_free(self):
        return all(e.n_fixed_points == 0 for e in self.per_element)


def _cycle_shift_order(cycle, perm):
    """Order of perm's induced rotation on an invariant cycle of darts."""
    n = len(cycle)
    d0 = cycle[0]
    img = perm[d0]
    s = cycle.index(img)
    from math import gcd

    return n // gcd(n, s) if s else 1


def singular_locus(d: ShadowDiagram, a: DiagramAction, cap: int = DEFAULT_CLOSURE_CAP) -> SingularReport:
    """Fixed vertices/faces and inverted edges of every nonidentity
    element, with local rotation orders; flags hyperelliptic involutions
    (2g+2 fixed points on a genus-g surface)."""
    m = d.surface
    g = m.genus()
    closure = a.closure(cap)
    per = []
    hyper = []
    for e, order in zip(closure.permutations()[1:], closure.orders()[1:]):
        data = ElementFixedData(e, order)
        for v in m.vertices():
            cyc = m.orbit(v)
            if act_on_cell(m, e, v) == v:
                lo = _cycle_shift_order(cyc, e)
                if lo > 1:
                    data.fixed_vertices.append(FixedCell(v, lo))
        for f in m.faces():
            if act_on_cell(m, e, f) == f:
                lo = _cycle_shift_order(m.orbit(f), e)
                if lo > 1:
                    data.fixed_faces.append(FixedCell(f, lo))
        for c in m.edges():
            x = c.dart
            if e[x] == m.edge_pairing[x]:
                data.inverted_edges.append(FixedCell(c, 2))
        per.append(data)
        if data.order == 2 and data.n_fixed_points == 2 * g + 2:
            hyper.append(e)
    return SingularReport(per, hyper, g)


# ---------------------------------------------------------------------------
# equivalence of actions


def is_equivalent_action(d: ShadowDiagram, a: DiagramAction, b: DiagramAction,
                         up_to_group_automorphism: bool = True,
                         cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Whether some color-preserving diagram automorphism conjugates one
    action onto the other.

    With the default flag the closures are compared as sets, which ignores
    how elements are labeled (equivalence up to abstract-group
    automorphism); with the flag off, generators must match one by one
    under a single conjugator.  No claim beyond diagram equivalence.
    """
    from .cmap import automorphisms

    ea = set(a.elements(cap))
    eb = set(b.elements(cap))
    if len(ea) != len(eb):
        return False
    labels = d.dart_labels()
    for phi in automorphisms(d.surface, labels):
        phi = tuple(phi)
        phi_inv = inverse(phi)
        if up_to_group_automorphism:
            if {compose(phi, compose(e, phi_inv)) for e in ea} == eb:
                return True
        else:
            if len(a.generators) == len(b.generators) and all(
                compose(phi, compose(g, phi_inv)) == h
                for g, h in zip(a.generators, b.generators)
            ):
                return True
    return False
