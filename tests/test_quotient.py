from fractions import Fraction

import pytest

from etd.catalog import entry
from etd.cmap import CombMap, is_isomorphic
from etd.diagram import ShadowDiagram, alpha
from etd.quotient import (
    YES,
    NotNormal,
    NotValidAction,
    folded_curve_edges,
    quotient,
    quotient_is_trisection,
)
from etd.symmetry import DiagramAction
from etd.torus import affine_dart_map, arrangement, line

F = Fraction
I2 = ((1, 0), (0, 1))
NEG = ((-1, 0), (0, -1))


def grid2():
    return arrangement(
        [line(1, 0, 0), line(1, 0, F(-1, 2)), line(0, 1, 0), line(0, 1, F(1, 2))]
    )


def grid2_diagram(arr):
    return ShadowDiagram.from_darts(arr.map, [alpha(1 if i < 2 else 2) for i in arr.dart_line])


def full_action(arr):
    tx = affine_dart_map(arr, I2, (F(1, 2), 0))
    ty = affine_dart_map(arr, I2, (0, F(1, 2)))
    nu = affine_dart_map(arr, NEG)
    return DiagramAction([tx, ty, nu], ["tx", "ty", "nu"])


def square_torus():
    return CombMap(4, [1, 0, 3, 2], [2, 3, 1, 0])


def test_trivial_subgroup_gives_input_back():
    arr = grid2()
    d = grid2_diagram(arr)
    a = full_action(arr)
    q = quotient(d, a, [tuple(range(d.surface.n_darts))])
    assert q.subgroup_order == 1
    assert q.cone_points == []
    assert q.diagram.isomorphic_to(d) is not None
    # the induced action is the full group again
    assert q.induced_action.order() == 8


def test_free_translation_quotient_is_smaller_torus():
    arr = grid2()
    d = grid2_diagram(arr)
    a = full_action(arr)
    tx, ty = a.generators[0], a.generators[1]
    q = quotient(d, a, [tx, ty])
    assert q.subgroup_order == 4
    assert q.cone_points == []
    mq = q.diagram.surface
    assert mq.genus() == 1
    assert len(mq.vertices()) == 1 and len(mq.edges()) == 2
    assert is_isomorphic(mq, square_torus()) is not None
    # chi scales by the group order for a free action
    assert d.surface.euler_characteristic() == 4 * mq.euler_characteristic()
    assert q.induced_action.order() == 2


def test_hyperelliptic_quotient_has_four_cone_points():
    arr = grid2()
    d = grid2_diagram(arr)
    a = full_action(arr)
    nu = a.generators[2]
    q = quotient(d, a, [nu])
    assert q.subgroup_order == 2
    assert q.cone_orders() == [2, 2, 2, 2]
    assert q.diagram.surface.genus() == 0
    # curves through fixed points descend to folded arcs; those are
    # branch-surface shadows and get demoted, leaving a spherical diagram
    verdict, report = quotient_is_trisection(q)
    assert verdict == YES
    assert report.ok
    assert report.genus == 0


def test_edge_inverting_involution_subdivides():
    arr = grid2()
    d = grid2_diagram(arr)
    a = full_action(arr)
    tx, _, nu = a.generators
    mu = tuple(nu[x] for x in tx)  # x -> 1/2 - x, y -> -y
    q = quotient(d, a, [mu])
    # all four horizontal edges are inverted: four midpoint vertices added
    assert q.source.surface.n_darts == d.surface.n_darts + 8
    assert q.subgroup_order == 2
    assert q.cone_orders() == [2, 2, 2, 2]
    assert q.diagram.surface.genus() == 0


def test_full_quotient_equals_two_step_quotient():
    arr = grid2()
    d = grid2_diagram(arr)
    a = full_action(arr)
    direct = quotient(d, a)  # N = G
    assert direct.diagram.surface.genus() == 0
    assert direct.cone_orders() == [2, 2, 2, 2]

    step1 = quotient(d, a, list(a.generators[:2]))
    step2 = quotient(step1.diagram, step1.induced_action)
    assert step2.cone_orders() == [2, 2, 2, 2]
    assert direct.diagram.isomorphic_to(step2.diagram) is not None


def test_projection_commutes_with_structure():
    arr = grid2()
    d = grid2_diagram(arr)
    a = full_action(arr)
    q = quotient(d, a, list(a.generators[:2]))
    src = q.source.surface
    dst = q.diagram.surface
    assert isinstance(q.projection, list) and len(q.projection) == src.n_darts
    for x in range(src.n_darts):
        assert q.projection[src.edge_pairing[x]] == dst.edge_pairing[q.projection[x]]
        assert q.projection[src.rotation[x]] == dst.rotation[q.projection[x]]


def test_rejects_foreign_generator():
    arr = grid2()
    d = grid2_diagram(arr)
    a = DiagramAction([affine_dart_map(arr, I2, (F(1, 2), 0))], ["tx"])
    ty = affine_dart_map(arr, I2, (0, F(1, 2)))
    with pytest.raises(NotNormal):
        quotient(d, a, [ty])


@pytest.mark.parametrize(
    "name, gen", [("d4_double", "g2"), ("d6_double", "g1"), ("d6_s4", "g1")]
)
def test_rejects_non_normal_subgroup(name, gen):
    e = entry(name)
    g = e.action.generators[e.action.names.index(gen)]
    assert DiagramAction([g]).order() == 2
    with pytest.raises(NotNormal):
        quotient(e.diagram, e.action, [g])


def test_rejects_invalid_action():
    arr = grid2()
    d = grid2_diagram(arr)
    r90 = affine_dart_map(arr, ((0, -1), (1, 0)))  # swaps the color families
    with pytest.raises(NotValidAction):
        quotient(d, DiagramAction([r90], ["r"]))


def test_identity_action_quotient():
    arr = grid2()
    d = grid2_diagram(arr)
    q = quotient(d, DiagramAction([tuple(range(d.surface.n_darts))], ["e"]))
    assert q.diagram.isomorphic_to(d) is not None
    assert q.cone_points == []


@pytest.mark.parametrize(
    "name, darts",
    [
        ("cp2", [0, 2, 4]),
        ("cp2bar", [0, 2, 4]),
        ("s1xs3", []),
        ("s2xs2_genus2", [0, 2, 4]),
        ("s4_suspension_genus2", [1, 5, 7]),
    ],
)
def test_folded_curve_edges_on_catalog_quotients(name, darts):
    e = entry(name)
    q = quotient(e.diagram, e.action)
    folded = [sorted(c.dart for c in folded_curve_edges(q.diagram, i)) for i in (1, 2, 3)]
    assert sum(folded, []) == darts
