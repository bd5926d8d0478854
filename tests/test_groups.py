import random

import pytest

from etd.groups import (
    GroupError,
    cyclic,
    dihedral,
    direct_product,
    greedy_generators,
    handlebody_torus_group,
    hom_from_generator_images,
    homomorphism,
    quaternion,
)


def test_cyclic():
    g = cyclic(6)
    assert len(g) == 6
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.inv(1) == 5
    assert g.is_abelian()


def test_quaternion():
    q = quaternion()
    assert len(q) == 8
    assert q.mul("i", "j") == "k"
    assert q.mul("j", "i") == "-k"
    assert q.element_order("-1") == 2
    assert q.element_order("i") == 4
    assert q.inv("i") == "-i"
    assert not q.is_abelian()
    assert q.generated(["i", "j"]) == set(q.elements)
    assert q.generated(["i"]) == {"1", "i", "-1", "-i"}


def test_dihedral():
    d3 = dihedral(3)
    assert len(d3) == 6
    assert not d3.is_abelian()
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
    with pytest.raises(GroupError):
        homomorphism(q, z2, {x: 1 for x in q.elements})


def test_group_table_validation():
    with pytest.raises(GroupError):
        # broken table: constant multiplication
        from etd.groups import Group

        Group([0, 1], lambda a, b: 0, 0)


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
    return homomorphism(src, dst, images)


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
