"""Finite group actions on shadow diagrams.

Actions are given by generator permutations of the dart set.  A valid
element commutes with the edge pairing and the rotation (so it is an
orientation-preserving map automorphism; anti-automorphisms inverting the
rotation are rejected), preserves each color family setwise, and preserves
the marked set.  :func:`check_action` is the one check of all this, and
returns the checked group closure; :func:`etd.quotient.quotient`,
:func:`etd.cover.derived_cover` and :func:`singular_locus` run it.

A map automorphism is fixed by its images of one dart per connected
component (Gross-Tucker, *Topological Graph Theory*, 1987): it commutes
with the rotation and the edge pairing, which act transitively on each
component.  So a group closure keys every element by its images of the
action's base darts, one dart per component, and is the breadth-first
orbit tree of the base darts under the generators
(:func:`etd.groups.orbit_tree`): O(|G| * #generators * #components)
steps.  The action queries read keys and :meth:`GroupClosure.images`,
the image of one dart under every element at one step per tree edge.
Full dart permutations are built only for generators and
:meth:`DiagramAction.elements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter
from typing import Optional

from . import EtdError
from .cmap import CellId, canonical_search, compose, is_permutation, perm_orbits
from .diagram import COLOR_NAMES, ShadowDiagram
from .groups import orbit_tree

# A safety bound on the size of every group closure, read each time a
# closure is built: past it GroupClosure raises ClosureCapExceeded.
CLOSURE_CAP = 100_000


class SymmetryError(EtdError):
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
    what :func:`check_action` establishes.  Raises ClosureCapExceeded
    past ``CLOSURE_CAP`` elements.
    """

    def __init__(self, generators, base):
        self.generators = generators
        self.base = tuple(base)
        self.keys = []
        self.parent = []
        self.via = []
        self._index = {}
        for key, parent, via in orbit_tree(
            self.base, generators, lambda g, key: tuple(g[x] for x in key)
        ):
            self._index[key] = len(self.keys)
            self.keys.append(key)
            self.parent.append(parent)
            self.via.append(via)
            if parent >= 0 and len(self.keys) > CLOSURE_CAP:
                raise ClosureCapExceeded("closure exceeds %d elements" % CLOSURE_CAP)

    def __len__(self):
        return len(self.keys)

    def key_of(self, perm) -> tuple:
        return tuple(perm[x] for x in self.base)

    def index(self, key) -> Optional[int]:
        """The element with this key, or None."""
        return self._index.get(key)

    def images(self, x) -> list:
        """The image of dart ``x`` under every element, in closure
        order, one step per search-tree edge."""
        out = [x]
        for g, i in zip(self.via[1:], self.parent[1:]):
            out.append(self.generators[g][out[i]])
        return out

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
        fixes the base darts.  The powers of each element not yet
        reached are walked once, by applying its word, and fill the
        whole cyclic subgroup: ord(g^j) = ord(g) / gcd(j, ord(g))."""
        out = [0] * len(self.keys)
        for i, key in enumerate(self.keys):
            if out[i]:
                continue
            word = self._word(i)
            powers, pts = [i], key  # powers[j - 1] is g^j
            while pts != self.base:
                for g in word:
                    pts = tuple(g[x] for x in pts)
                powers.append(self._index[pts])
            k = len(powers)
            for j, e in enumerate(powers, 1):
                out[e] = k // gcd(j, k)
        return out

    def permutation(self, i) -> tuple:
        """Element ``i`` as a full dart permutation, one composition per
        generator of its word."""
        out = tuple(range(len(self.generators[0])))
        for g in self._word(i):
            out = compose(g, out)
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

    def closure(self) -> GroupClosure:
        """The group keyed by base-dart images; raises ClosureCapExceeded
        past ``CLOSURE_CAP`` elements."""
        return GroupClosure(self.generators, self.base)

    def elements(self):
        """The closure of the generators as full permutations, identity
        first; raises ClosureCapExceeded past ``CLOSURE_CAP`` elements."""
        return self.closure().permutations()


# ---------------------------------------------------------------------------
# validation


def check_automorphism(m, g, name):
    """Raise NotAutomorphism unless g is a dart permutation commuting
    with the map's edge pairing and rotation.  Both are checked as
    whole arrays; only a failed check walks to the first bad dart, the
    edge pairing before the rotation at each dart."""
    n = m.n_darts
    if not is_permutation(g, n):
        raise NotAutomorphism(name, -1, "not a permutation of the darts")
    if not n:
        return
    # itemgetter composes in C: after_g(p) is p after g, itemgetter(*p)(g) is g after p
    ep, rot, after_g = m.edge_pairing, m.rotation, itemgetter(*g)
    if itemgetter(*ep)(g) == after_g(ep) and itemgetter(*rot)(g) == after_g(rot):
        return
    for x in range(n):
        if g[ep[x]] != ep[g[x]]:
            raise NotAutomorphism(name, x, "does not commute with the edge pairing")
        if g[rot[x]] != rot[g[x]]:
            raise NotAutomorphism(name, x, "does not commute with the rotation")


def check_action(d: ShadowDiagram, a: DiagramAction) -> GroupClosure:
    """Check an action on a diagram and return its group closure.

    In this order, each generator must be a map automorphism
    (:func:`check_automorphism`), preserve every color family and
    preserve the marked set; the action's base darts must meet each
    connected component of the surface once, so that they identify the
    elements of the closure; and the closure must stay within
    ``CLOSURE_CAP``.  The first failed check raises its SymmetryError.
    """
    m = d.surface
    colors, vertex_of = d.dart_colors, m.vertex_of
    marked = {vertex_of[v.dart] for v in d.marked}
    for g, name in zip(a.generators, a.names):
        check_automorphism(m, g, name)
        if bytes(map(colors.__getitem__, g)) != colors:
            x = next(x for x, _ in m._edge_orbits if colors[g[x]] != colors[x])
            raise ColorBroken(name, COLOR_NAMES[colors[x]])
        if {vertex_of[g[v.dart]] for v in d.marked} != marked:
            raise ColorBroken(name, "marked set")
    comps = m.components()
    if len(a.base) != len(comps) or any(
        sum(1 for b in a.base if b in c) != 1 for c in comps
    ):
        raise SymmetryError("the action's base darts must meet each connected component once")
    return a.closure()


# ---------------------------------------------------------------------------
# singular locus


@dataclass
class FixedCell:
    """A cell fixed by a group element, with its local order."""

    cell: CellId
    local_order: int


@dataclass
class ElementFixedData:
    """The cells one group element fixes or inverts."""

    element: tuple  # the element's key: its images of the base darts
    order: int
    fixed_vertices: list = field(default_factory=list)
    fixed_faces: list = field(default_factory=list)
    inverted_edges: list = field(default_factory=list)

    @property
    def n_fixed_points(self):
        return len(self.fixed_vertices) + len(self.fixed_faces) + len(self.inverted_edges)


@dataclass
class SingularReport:
    """The fixed cells of every nonidentity element of an action."""

    per_element: list  # ElementFixedData for each nonidentity element
    hyperelliptic_involutions: list  # keys of the involutions with 2g+2 fixed points
    genus: Optional[int]  # None on a disconnected surface

    @property
    def is_free(self):
        return all(e.n_fixed_points == 0 for e in self.per_element)


def singular_locus(d: ShadowDiagram, a: DiagramAction) -> SingularReport:
    """Fixed vertices/faces and inverted edges of every nonidentity
    element, with local rotation orders; flags hyperelliptic involutions
    (2g+2 fixed points on a genus-g surface).  Elements are reported by
    their closure keys.  A disconnected surface has no genus: its report
    has ``genus=None`` and flags no involution.  The action must pass
    :func:`check_action` on ``d``; its first failed check raises."""
    closure = check_action(d, a)
    m = d.surface
    g = m.genus() if m.is_connected() else None
    per = [
        ElementFixedData(e, order)
        for e, order in zip(closure.keys[1:], closure.orders()[1:])
    ]
    for cells, fixed in (
        (m.vertices(), "fixed_vertices"), (m.faces(), "fixed_faces"), (m.edges(), "inverted_edges")
    ):
        for c in cells:
            # turning the dart cycle by s > 0 has local order len / gcd(len, s);
            # an inverted edge turns its two darts by 1
            cycle = m.orbit(c)
            shift = {x: s for s, x in enumerate(cycle)}
            for data, y in zip(per, closure.images(c.dart)[1:]):
                s = shift.get(y)
                if s:
                    getattr(data, fixed).append(FixedCell(c, len(cycle) // gcd(len(cycle), s)))
    hyper = [
        data.element for data in per
        if g is not None and data.order == 2 and data.n_fixed_points == 2 * g + 2
    ]
    return SingularReport(per, hyper, g)


# ---------------------------------------------------------------------------
# equivalence of actions


def automorphism_group(d: ShadowDiagram) -> GroupClosure:
    """Every color-preserving automorphism of a connected diagram: the
    closure of the canonical form's ties (see
    :func:`etd.cmap.canonical_search`).  Without ties the identity is
    the one generator, so that every element is a full dart permutation.
    """
    m = d.surface
    ties = canonical_search(m, d.dart_labels())[1]
    return GroupClosure(ties or [tuple(range(m.n_darts))], base_darts(m))


def is_equivalent_action(d: ShadowDiagram, a: DiagramAction, b: DiagramAction,
                         up_to_group_automorphism: bool = True) -> bool:
    """Whether some color-preserving diagram automorphism conjugates one
    action onto the other.

    With the default flag the groups are compared as sets, which ignores
    how elements are labeled (equivalence up to abstract-group
    automorphism); with the flag off, generators must match one by one
    under a single conjugator.  No claim beyond diagram equivalence.
    The conjugators are the elements of :func:`automorphism_group`,
    walked when the two groups have the same order; a disconnected
    surface then raises NotConnected.

    Both actions must have passed :func:`check_action` on ``d``.  An
    automorphism of the connected map is fixed by one dart's image, so
    phi g phi^-1 is the generator h of ``b`` exactly when h(phi(x)) =
    phi(g(x)), and lies in ``b``'s group, which acts freely, exactly
    when phi(g(x)) is in the orbit of phi(x).
    """
    if len(a.closure()) != len(b.closure()):
        return False
    aut = automorphism_group(d)
    (x,) = aut.base
    phi_x = aut.images(x)
    phi_gx = [aut.images(g[x]) for g in a.generators]
    if up_to_group_automorphism:
        orbit_of = perm_orbits(d.surface.n_darts, b.generators)[0]
        return any(
            all(orbit_of[img[i]] == orbit_of[y] for img in phi_gx) for i, y in enumerate(phi_x)
        )
    if len(a.generators) != len(b.generators):
        return False
    return any(
        all(h[y] == img[i] for h, img in zip(b.generators, phi_gx)) for i, y in enumerate(phi_x)
    )
