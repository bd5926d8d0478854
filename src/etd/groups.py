"""Small finite groups with named elements, each known by its product
function and its identity.  Used as deck groups for covers and as
abstract models of symmetry groups.  :func:`orbit_tree` is the one
group-closure loop of the package, here and in :mod:`etd.symmetry`."""

from __future__ import annotations

from functools import cache, reduce
from math import prod

from . import EtdError


class GroupError(EtdError):
    pass


def orbit_tree(root, gens, act):
    """The breadth-first (Schreier) tree of the orbit of ``root`` under
    the generators: yields ``(point, parent, via)``, ``root`` first with
    ``-1, -1``, then each new point ``act(gens[via], p)`` where ``p`` is
    the point yielded at position ``parent``."""
    index = {root: 0}
    points = [root]
    yield root, -1, -1
    for i, x in enumerate(points):
        for gi, g in enumerate(gens):
            y = act(g, x)
            if y not in index:
                index[y] = len(points)
                points.append(y)
                yield y, i, gi


class Group:
    """A finite group given by its elements, its identity and its product.

    ``mul`` is the product under :func:`functools.cache`: a table filled
    only where it is read.  Associativity is the product's own (each
    group comes from a named family); the constructor checks that the
    elements are distinct and the identity is one, and finds each inverse
    by walking powers.
    """

    def __init__(self, elements, mul, identity, name=None):
        self.name = name
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise GroupError("duplicate elements")
        self._set = set(self.elements)
        self.mul = cache(mul)
        self.identity = identity
        if identity not in self._set:
            raise GroupError("identity not among the elements")
        for a in self.elements:
            if self.mul(identity, a) != a or self.mul(a, identity) != a:
                raise GroupError("identity does not act as identity")
        # a's powers a, a^2, ..., a^k = 1 invert each other: a^i a^(k-i) = 1
        self._inv = {}
        for a in self.elements:
            if a in self._inv:
                continue
            powers = [identity, a]
            while powers[-1] != identity:
                if len(powers) > len(self.elements):
                    raise GroupError("element %r has no inverse" % (a,))
                powers.append(self.mul(powers[-1], a))
            k = len(powers) - 1
            for i in range(k):
                self._inv[powers[i]] = powers[k - i]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._set

    def inv(self, a):
        return self._inv[a]

    def element_order(self, a):
        return len(self.generated([a]))

    def generated(self, gens):
        """The subgroup generated by the given elements."""
        return {x for x, _, _ in orbit_tree(self.identity, gens, self.mul)}


def greedy_generators(elements, identity, mul):
    """A generating set of the finite group ``elements``: each element, in
    the given order, that the ones chosen before it do not generate,
    until they generate everything."""
    elements = list(elements)
    gens = []
    have = {identity}
    for x in elements:
        if x in have:
            continue
        gens.append(x)
        have = {y for y, _, _ in orbit_tree(identity, gens, mul)}
        if len(have) == len(elements):
            break
    return gens


def cyclic(n):
    return Group(range(n), lambda a, b: (a + b) % n, 0, name="cyclic %d" % n)


def direct_product(g1: Group, g2: Group):
    elements = [(a, b) for a in g1.elements for b in g2.elements]
    name = None
    if g1.name and g2.name:
        name = "%s x %s" % (g1.name, g2.name)
    return Group(
        elements,
        lambda x, y: (g1.mul(x[0], y[0]), g2.mul(x[1], y[1])),
        (g1.identity, g2.identity),
        name=name,
    )


def quaternion():
    """Q8 = {+-1, +-i, +-j, +-k} with the usual multiplication."""
    units = ["1", "i", "j", "k"]
    base = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
        ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
        ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
    }
    elements = [s + u if s else u for u in units for s in ("", "-")]

    def split(x):
        return (x[1:], -1) if x.startswith("-") else (x, 1)

    def mul(x, y):
        ux, sx = split(x)
        uy, sy = split(y)
        u, s = base[(ux, uy)]
        s *= sx * sy
        return u if s == 1 else "-" + u

    return Group(elements, mul, "1", name="quaternion")


def dihedral(n):
    """D_n of order 2n: elements (r, s) acting as x -> r + s*x mod n."""
    elements = [(r, s) for r in range(n) for s in (1, -1)]

    def mul(a, b):
        # (r1,s1) after (r2,s2): x -> r1 + s1*(r2 + s2*x)
        return ((a[0] + a[1] * b[0]) % n, a[1] * b[1])

    return Group(elements, mul, (0, 1), name="dihedral %d" % n)


def handlebody_torus_group(m):
    """(Z_m x Z_m) semidirect Z_2, the sign acting by negation; order 2m^2."""
    elements = [((a, b), s) for a in range(m) for b in range(m) for s in (1, -1)]

    def mul(x, y):
        (a, b), s = x
        (c, d), t = y
        return (((a + s * c) % m, (b + s * d) % m), s * t)

    return Group(elements, mul, ((0, 0), 1), name="handlebody_torus %d" % m)


MAX_NAMED_ORDER = 64


def group_by_name(name: str) -> Group:
    """Reconstruct a standard group from its ``name`` string.

    Understood: ``cyclic N``, ``dihedral N``, ``quaternion``,
    ``handlebody_torus N``, and ``x``-separated direct products thereof
    (left-associated, as direct_product produces them).  The order is
    read off the name first, and a name above MAX_NAMED_ORDER is
    rejected before anything is built.  The bound is a check on file
    input, part of the CLI contract (the error names the order and the
    bound); building a group costs only O(|G|) products.
    """
    atoms = [_atom_by_name(p.strip()) for p in name.split(" x ")]
    order = prod(size for _, size in atoms)
    if order > MAX_NAMED_ORDER:
        raise GroupError("group %r has order %d, above %d" % (name, order, MAX_NAMED_ORDER))
    return reduce(direct_product, (build() for build, _ in atoms))


def _is_natural(tok: str) -> bool:
    """Whether ``tok`` is ASCII digits with no leading zero: the rule the
    diagram reader applies to its integer tokens."""
    return tok.isdigit() and tok.isascii() and (tok[0] != "0" or tok == "0")


def _atom_by_name(name: str):
    """``(build, order)`` for a named group that is not a product.

    Its order is ASCII digits with no leading zero, as ``str`` writes a
    number, so a name reads back as it is written."""
    words = name.split()
    if words == ["quaternion"]:
        return quaternion, 8
    if len(words) == 2 and _is_natural(words[1]):
        try:
            kind, n = words[0], int(words[1])
        except ValueError:  # more digits than int reads
            raise GroupError("integer too long in group name") from None
        if kind == "cyclic":
            return (lambda: cyclic(n)), n
        if kind == "dihedral":
            return (lambda: dihedral(n)), 2 * n
        if kind == "handlebody_torus":
            return (lambda: handlebody_torus_group(n)), 2 * n * n
    raise GroupError("unknown group name %r" % name)


def hom_from_generator_images(src: Group, dst: Group, gen_images: dict):
    """Extend images of generators to the whole group along the orbit
    tree; GroupError unless that is a homomorphism, that is unless
    img(g x) = img(g) img(x) for each generator g and element x (then
    img(w x) = img(w) img(x) for every word w, by induction on w)."""
    gens = list(gen_images)
    for g, h in gen_images.items():
        if g not in src or h not in dst:
            raise GroupError("%r -> %r does not map an element to an element" % (g, h))
    points = []
    images = {}
    for x, parent, via in orbit_tree(src.identity, gens, src.mul):
        points.append(x)
        images[x] = dst.identity if parent < 0 else dst.mul(
            gen_images[gens[via]], images[points[parent]]
        )
    if len(images) != len(src):
        raise GroupError("generators do not generate the source group")
    for g in gens:
        for x in src.elements:
            if images[src.mul(g, x)] != dst.mul(gen_images[g], images[x]):
                raise GroupError("not a homomorphism at (%r, %r)" % (g, x))
    return images
