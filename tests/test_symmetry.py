import random
from fractions import Fraction

import pytest

from etd import symmetry
from etd.cmap import CombMap
from etd.diagram import ShadowDiagram, alpha, shadow
from etd.symmetry import (
    ClosureCapExceeded,
    ColorBroken,
    DiagramAction,
    NotAutomorphism,
    check_action,
    is_equivalent_action,
    singular_locus,
)
from etd.torus import affine_dart_map, arrangement, line

F = Fraction
I2 = ((1, 0), (0, 1))
NEG = ((-1, 0), (0, -1))
ROT90 = ((0, -1), (1, 0))


def grid2():
    return arrangement(
        [line(1, 0, 0), line(1, 0, F(-1, 2)), line(0, 1, 0), line(0, 1, F(1, 2))]
    )


def grid2_diagram(arr=None, colored=True):
    arr = arr or grid2()
    if not colored:
        return ShadowDiagram(arr.map)
    # lines 0, 1 horizontal, lines 2, 3 vertical
    return ShadowDiagram.from_darts(arr.map, [alpha(1 if i < 2 else 2) for i in arr.dart_line])


def grid2_generators(arr):
    tx = affine_dart_map(arr, I2, (F(1, 2), 0))
    ty = affine_dart_map(arr, I2, (0, F(1, 2)))
    nu = affine_dart_map(arr, NEG)
    return tx, ty, nu


def test_identity_action():
    arr = grid2()
    d = grid2_diagram(arr)
    rep = check_action(d, DiagramAction([tuple(range(d.surface.n_darts))], ["e"]))
    assert rep.ok and rep.order == 1
    assert rep.structure_hint == "trivial"


def test_full_grid_action_order8():
    arr = grid2()
    d = grid2_diagram(arr)
    tx, ty, nu = grid2_generators(arr)
    a = DiagramAction([tx, ty, nu], ["tx", "ty", "nu"])
    rep = check_action(d, a)
    assert rep.ok and rep.order == 8
    # every nonidentity element is an involution here
    assert rep.element_orders == {2: 7}


def test_translation_action_free():
    arr = grid2()
    d = grid2_diagram(arr)
    tx, ty, _ = grid2_generators(arr)
    a = DiagramAction([tx, ty], ["tx", "ty"])
    rep = check_action(d, a)
    assert rep.order == 4
    sing = singular_locus(d, a)
    assert sing.is_free
    # free action: the four elements carry one vertex to all four
    m = d.surface
    v = m.vertices()[0]
    images = [m.cell_of("vertex", g[v.dart]) for g in a.elements()]
    assert len(images) == 4 and sorted(images) == m.vertices()


def test_negation_is_hyperelliptic():
    arr = grid2()
    d = grid2_diagram(arr)
    _, _, nu = grid2_generators(arr)
    a = DiagramAction([nu], ["nu"])
    rep = check_action(d, a)
    assert rep.order == 2 and rep.structure_hint == "cyclic"
    sing = singular_locus(d, a)
    (data,) = sing.per_element
    assert data.order == 2
    # the four grid vertices are the fixed points: 2g+2 = 4 on the torus
    assert len(data.fixed_vertices) == 4
    assert all(fc.local_order == 2 for fc in data.fixed_vertices)
    assert data.fixed_faces == [] and data.inverted_edges == []
    assert sing.hyperelliptic_involutions == [(nu[0],)]


def test_orbit_stabilizer_at_fixed_vertex():
    arr = grid2()
    d = grid2_diagram(arr)
    _, _, nu = grid2_generators(arr)
    a = DiagramAction([nu], ["nu"])
    m = d.surface
    v0 = m.cell_of("vertex", arr.dart_point.index((0, 0)))
    elems = a.elements()
    assert sum(m.cell_of(v0.kind, g[v0.dart]) == v0 for g in elems) == 2
    face_parts = {frozenset(m.cell_of(f.kind, g[f.dart]) for g in elems) for f in m.faces()}
    assert sorted(len(p) for p in face_parts) == [2, 2]


def test_rotation_by_90_breaks_colors():
    arr = grid2()
    d = grid2_diagram(arr)
    r = affine_dart_map(arr, ROT90)
    with pytest.raises(ColorBroken, match="^generator r does not preserve alpha1$"):
        check_action(d, DiagramAction([r], ["r"]))
    # on the uncolored diagram the same permutation is a valid symmetry
    rep = check_action(grid2_diagram(arr, colored=False), DiagramAction([r], ["r"]))
    assert rep.order == 4 and rep.structure_hint == "cyclic"


def test_turn_of_the_theta_sphere_breaks_shadow_colors():
    # the turn carries each edge of the theta sphere onto the next one;
    # it fixes both marked vertices, and moves the shadow3 arc off itself
    m = CombMap(6, [1, 0, 3, 2, 5, 4], [2, 5, 4, 1, 0, 3])
    turn = (2, 3, 4, 5, 0, 1)
    colors = [shadow(3)] * 2 + [shadow(1)] * 2 + [shadow(2)] * 2
    d = ShadowDiagram.from_darts(m, colors, [0, 1])
    with pytest.raises(ColorBroken, match="^generator turn does not preserve shadow3$"):
        check_action(d, DiagramAction([turn], ["turn"]))
    # with one shadow color on every edge the turn is a symmetry of order 3
    rep = check_action(ShadowDiagram.from_darts(m, [shadow(2)] * 6, [0, 1]), DiagramAction([turn], ["turn"]))
    assert rep.order == 3 and rep.structure_hint == "cyclic"


def test_reflection_rejected():
    arr = grid2()
    d = grid2_diagram(arr)
    flip = affine_dart_map(arr, ((1, 0), (0, -1)))
    with pytest.raises(NotAutomorphism):
        check_action(d, DiagramAction([flip], ["flip"]))


def test_garbage_permutation_rejected():
    d = grid2_diagram()
    n = d.surface.n_darts
    with pytest.raises(NotAutomorphism):
        check_action(d, DiagramAction([tuple([0] * n)], ["bad"]))


def test_closure_cap(monkeypatch):
    arr = grid2()
    d = grid2_diagram(arr)
    tx, ty, nu = grid2_generators(arr)
    monkeypatch.setattr(symmetry, "CLOSURE_CAP", 3)
    with pytest.raises(ClosureCapExceeded, match="closure exceeds 3 elements"):
        check_action(d, DiagramAction([tx, ty, nu]))


def test_order3_rotation_fixes_three_faces():
    # three lines cyclically permuted by an order-3 torus rotation
    h = F(1, 5)
    arr = arrangement([line(1, 0, -h), line(0, 1, -h), line(1, 1, h)])
    d = ShadowDiagram(arr.map)  # scaffold only: the symmetry permutes lines
    b = affine_dart_map(arr, ((0, -1), (1, -1)))
    a = DiagramAction([b], ["b"])
    rep = check_action(d, a)
    assert rep.order == 3 and rep.structure_hint == "cyclic"
    sing = singular_locus(d, a)
    for data in sing.per_element:
        assert data.fixed_vertices == [] and data.inverted_edges == []
        assert len(data.fixed_faces) == 3
        assert all(fc.local_order == 3 for fc in data.fixed_faces)
    assert sing.hyperelliptic_involutions == []


def test_equivalent_actions():
    arr = grid2()
    d_colored = grid2_diagram(arr)
    d_plain = grid2_diagram(arr, colored=False)
    tx, ty, _ = grid2_generators(arr)
    ax = DiagramAction([tx], ["tx"])
    ay = DiagramAction([ty], ["ty"])
    # the quarter-turn symmetry of the uncolored grid conjugates the two
    # translations; the coloring destroys it
    assert is_equivalent_action(d_plain, ax, ay)
    assert not is_equivalent_action(d_colored, ax, ay)
    assert is_equivalent_action(d_colored, ax, ax)


def loop_check_automorphism(m, g, name):
    """``check_automorphism`` as it was before the whole-array checks:
    one dart at a time, the edge pairing before the rotation."""
    n = m.n_darts
    if len(g) != n or sorted(g) != list(range(n)):
        raise NotAutomorphism(name, -1, "not a permutation of the darts")
    for x in range(n):
        if g[m.edge_pairing[x]] != m.edge_pairing[g[x]]:
            raise NotAutomorphism(name, x, "does not commute with the edge pairing")
        if g[m.rotation[x]] != m.rotation[g[x]]:
            raise NotAutomorphism(name, x, "does not commute with the rotation")


def _automorphism_outcome(check, m, g):
    try:
        check(m, g, "g")
    except NotAutomorphism as err:
        return (err.generator, err.dart, str(err))
    return None


def test_check_automorphism_matches_the_dart_loop():
    """On the grid generators, swaps of their images, rotations of the
    map, non-permutations and maps of 0 and 2 darts, the whole-array
    check raises what the dart loop raises: the same dart and message,
    or nothing."""
    from etd.catalog import natural_genus1

    rng = random.Random(5)
    arr, torus = grid2(), natural_genus1(3)
    cases, outcomes = [], set()
    for m, gens in (
        (arr.map, grid2_generators(arr)),
        (torus.diagram.surface, torus.action.generators),
    ):
        n = m.n_darts
        cases += [(m, tuple(g)) for g in gens]
        cases += [(m, tuple(m.rotation)), (m, tuple(m.edge_pairing))]
        cases += [(m, tuple(range(n))[:-1]), (m, (0,) * n)]
        for g in gens:
            for _ in range(15):
                h = list(g)
                a, b = rng.sample(range(n), 2)
                h[a], h[b] = h[b], h[a]
                cases.append((m, tuple(h)))
    cases += [(CombMap(0, [], []), ()), (CombMap(2, [1, 0], [0, 1]), (1, 0))]
    for m, g in cases:
        got = _automorphism_outcome(symmetry.check_automorphism, m, g)
        assert got == _automorphism_outcome(loop_check_automorphism, m, g), g
        outcomes.add(got[2].split(": ")[-1] if got else None)
    assert outcomes == {
        None,
        "not a permutation of the darts",
        "does not commute with the edge pairing",
        "does not commute with the rotation",
    }
