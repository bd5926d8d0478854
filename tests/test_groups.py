import random

import pytest

from etd.catalog import q8_reductions
from etd.cli import main
from etd.diagio import serialize_diagram
from etd.groups import (
    MAX_NAMED_ORDER,
    Group,
    GroupError,
    cyclic,
    dihedral,
    direct_product,
    greedy_generators,
    group_by_name,
    handlebody_torus_group,
    hom_from_generator_images,
    quaternion,
)


def abelian(g):
    return all(g.mul(a, b) == g.mul(b, a) for a in g.elements for b in g.elements)


def test_cyclic():
    g = cyclic(6)
    assert len(g) == 6
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.inv(1) == 5
    assert abelian(g)


def test_quaternion():
    q = quaternion()
    assert len(q) == 8
    assert q.mul("i", "j") == "k"
    assert q.mul("j", "i") == "-k"
    assert q.element_order("-1") == 2
    assert q.element_order("i") == 4
    assert q.inv("i") == "-i"
    assert not abelian(q)
    assert q.generated(["i", "j"]) == set(q.elements)
    assert q.generated(["i"]) == {"1", "i", "-1", "-i"}


def test_dihedral():
    d3 = dihedral(3)
    assert len(d3) == 6
    assert not abelian(d3)
    r = (1, 1)
    s = (0, -1)
    assert d3.element_order(r) == 3
    assert d3.element_order(s) == 2
    # s r s = r^-1
    assert d3.mul(s, d3.mul(r, s)) == d3.inv(r)


def test_handlebody_torus_group():
    for m in (1, 2, 3):
        g = handlebody_torus_group(m)
        assert len(g) == 2 * m * m
    g3 = handlebody_torus_group(3)
    t = ((1, 0), 1)
    s = ((0, 0), -1)
    assert g3.element_order(t) == 3
    assert g3.element_order(s) == 2
    # s t s = t^-1
    assert g3.mul(s, g3.mul(t, s)) == g3.inv(t)


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(2))
    assert len(g) == 4
    assert all(g.element_order(x) <= 2 for x in g.elements)


def test_homomorphisms():
    q = quaternion()
    z2 = cyclic(2)
    phi = hom_from_generator_images(q, z2, {"i": 0, "j": 1})
    assert phi["k"] == 1 and phi["-1"] == 0
    with pytest.raises(GroupError):
        hom_from_generator_images(q, z2, {"i": 1, "j": 1, "k": 1})
    with pytest.raises(GroupError, match="does not map an element to an element"):
        hom_from_generator_images(q, z2, {"i": 2, "j": 0})
    with pytest.raises(GroupError, match="does not map an element to an element"):
        hom_from_generator_images(q, z2, {"l": 0, "j": 0})


def test_group_table_validation():
    with pytest.raises(GroupError):
        # broken table: constant multiplication
        Group([0, 1], lambda a, b: 0, 0)
    with pytest.raises(GroupError, match="duplicate"):
        Group([0, 0], lambda a, b: 0, 0)
    with pytest.raises(GroupError, match="identity not among"):
        Group([0, 1], lambda a, b: (a + b) % 2, 2)
    with pytest.raises(GroupError, match="no inverse"):
        # an identity, and 1 * 1 = 1: the powers of 1 never reach 0
        Group([0, 1], lambda a, b: a | b, 0)


# ---------------------------------------------------------------------------
# Test-only copies of the checks the table-free Group no longer makes:
# associativity over all triples, two-sided inverses and closure, on the
# named families up to MAX_NAMED_ORDER.

NAMED = (
    ["cyclic %d" % n for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 64)]
    + ["dihedral %d" % n for n in (1, 2, 3, 4, 6, 8, 32)]
    + ["quaternion"]
    + ["handlebody_torus %d" % m for m in (1, 2, 3, 4, 5)]
    + [
        "cyclic 8 x cyclic 8", "cyclic 4 x dihedral 4", "dihedral 4 x cyclic 4",
        "dihedral 4 x dihedral 4", "cyclic 8 x quaternion", "quaternion x dihedral 4",
        "quaternion x quaternion", "handlebody_torus 2 x cyclic 8",
        "cyclic 2 x handlebody_torus 4", "dihedral 2 x handlebody_torus 2",
        "handlebody_torus 2 x quaternion", "handlebody_torus 2 x handlebody_torus 2",
        "cyclic 2 x cyclic 3",
    ]
)


def ref_table(g):
    """All n^2 products, each checked to be an element."""
    table = {}
    for a in g.elements:
        for b in g.elements:
            table[a, b] = g.mul(a, b)
            assert table[a, b] in g, (g.name, a, b)
    return table


@pytest.mark.parametrize("name", NAMED)
def test_named_groups_are_groups(name):
    g = group_by_name(name)
    assert len(g) <= MAX_NAMED_ORDER and g.name == name
    table = ref_table(g)
    e = g.identity
    for a in g.elements:
        assert table[a, g.inv(a)] == e == table[g.inv(a), a], (name, a)
        for b in g.elements:
            ab = table[a, b]
            for c in g.elements:
                assert table[ab, c] == table[a, table[b, c]], (name, a, b, c)


@pytest.mark.parametrize(
    "name", ["cyclic 02", "cyclic \u0662", "dihedral \u0663", "cyclic 2 x cyclic 002", "cyclic \uff12"]
)
def test_group_orders_are_ascii_digits_without_leading_zeros(name):
    # such a name would read as a group whose name is written differently
    with pytest.raises(GroupError, match="^unknown group name "):
        group_by_name(name)


def test_cli_rejects_a_group_line_that_does_not_round_trip(tmp_path, capsys):
    base, reds = q8_reductions()
    label, va, report = reds[0]
    assert label == "z2_i" and va.group.name == "cyclic 2"
    text = serialize_diagram(base.diagram, voltages=va, expected=(report.genus, report.k))
    assert "\ngroup cyclic 2\n" in text
    lineno = text.splitlines().index("group cyclic 2") + 1
    for order in ("02", "\u0662"):
        p = tmp_path / "z2_i.diagram"
        p.write_text(text.replace("\ngroup cyclic 2\n", "\ngroup cyclic %s\n" % order), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == "parse error: line %d: unknown group name 'cyclic %s'\n" % (
            lineno, order,
        )


def test_building_a_group_costs_linear_products():
    # Z16 x Z16 took n^2 products for its table and n^3 for associativity;
    # now the identity check and the power walks take at most 4n
    g1, g2 = cyclic(16), cyclic(16)
    calls = [0]
    factor_mul = g1.mul

    def counted(a, b):
        calls[0] += 1
        return factor_mul(a, b)

    g1.mul = counted  # the product of the direct product calls it once per call
    g = direct_product(g1, g2)
    n = len(g)
    assert n == 256
    assert 0 < calls[0] <= 4 * n
    # later products read the cache on repeat
    before = calls[0]
    x, y = (3, 5), (7, 11)
    assert g.mul(x, y) == g.mul(x, y) == (10, 0)
    assert calls[0] == before + 1


# Test-only copies of the closure loops that orbit_tree replaced.


def ref_generated(g, gens):
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for h in gens:
                for y in (g.mul(h, x), g.mul(g.inv(h), x)):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return seen


def ref_greedy_generators(elements, identity, mul):
    gens = []
    have = {identity}
    for x in elements:
        if x in have:
            continue
        gens.append(x)
        frontier = []
        for y in [mul(x, h) for h in have]:
            if y not in have:
                have.add(y)
                frontier.append(y)
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    y = mul(g, h)
                    if y not in have:
                        have.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(have) == len(elements):
            break
    return gens


def ref_hom_from_generator_images(src, dst, gen_images):
    images = {src.identity: dst.identity}
    frontier = [src.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in gen_images.items():
                y = src.mul(g, x)
                im = dst.mul(h, images[x])
                if y in images:
                    if images[y] != im:
                        raise GroupError("generator images are inconsistent")
                else:
                    images[y] = im
                    nxt.append(y)
        frontier = nxt
    if len(images) != len(src):
        raise GroupError("generators do not generate the source group")
    return ref_homomorphism(src, dst, images)


def ref_homomorphism(src, dst, images):
    """The full n^2 pair check of a map on every element."""
    for a in src.elements:
        if images[a] not in dst:
            raise GroupError("image %r not in the target group" % (images[a],))
    for a in src.elements:
        for b in src.elements:
            if images[src.mul(a, b)] != dst.mul(images[a], images[b]):
                raise GroupError("not a homomorphism at (%r, %r)" % (a, b))
    return images


def _hom_outcome(f, src, dst, gen_images):
    try:
        return f(src, dst, gen_images)
    except GroupError:
        return GroupError


SMALL_GROUPS = [
    cyclic(1), cyclic(6), cyclic(7), dihedral(3), dihedral(4), quaternion(),
    handlebody_torus_group(2), handlebody_torus_group(3),
    direct_product(cyclic(2), cyclic(2)), direct_product(cyclic(2), quaternion()),
]


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=[g.name for g in SMALL_GROUPS])
def test_closures_match_reference(g):
    rng = random.Random(len(g))
    targets = [cyclic(2), direct_product(cyclic(2), cyclic(2)), g]
    for _ in range(20):
        elements = list(g.elements)
        rng.shuffle(elements)
        gens = greedy_generators(elements, g.identity, g.mul)
        assert gens == ref_greedy_generators(elements, g.identity, g.mul)
        some = elements[: rng.randint(0, 3)]
        assert g.generated(some) == ref_generated(g, some)
        assert all(g.element_order(x) == len(ref_generated(g, [x])) for x in some)
        dst = rng.choice(targets)
        images = {x: rng.choice(dst.elements) for x in gens}
        assert _hom_outcome(hom_from_generator_images, g, dst, images) == _hom_outcome(
            ref_hom_from_generator_images, g, dst, images
        )
        # the identity map on the group's own generators always extends
        own = {x: x for x in gens}
        assert hom_from_generator_images(g, g, own) == {x: x for x in g.elements}
