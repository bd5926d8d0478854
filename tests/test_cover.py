from fractions import Fraction

import pytest

from etd.catalog import q8_reductions
from etd.cmap import CombMap
from etd.diagram import ShadowDiagram, alpha, shadow
from etd.groups import cyclic, greedy_generators, quaternion
from etd.cover import (
    DisconnectedCoverWarning,
    MeridianMismatch,
    VoltageAssignment,
    VoltageIncompatible,
    _solve_twists,
    derived_cover,
    expected_lift_parameters,
)
from etd.quotient import quotient
from etd.torus import arrangement, line

F = Fraction


def standard_torus_diagram():
    arr = arrangement(
        [line(1, 0, 0), line(0, 1, F(1, 4)), line(1, 1, F(1, 2))]
    )
    return ShadowDiagram.from_darts(arr.map, [alpha(i + 1) for i in arr.dart_line])


def theta_sphere_diagram():
    ep = [1, 0, 3, 2, 5, 4]
    rot = [2, 5, 4, 1, 0, 3]
    m = CombMap(6, ep, rot)
    color = {
        m.cell_of("edge", 0): shadow(1),
        m.cell_of("edge", 2): shadow(2),
        m.cell_of("edge", 4): shadow(3),
    }
    marked = [m.cell_of("vertex", 0), m.cell_of("vertex", 1)]
    return ShadowDiagram(m, color, marked)


def component_diagrams(res):
    """One diagram per connected component of the cover ``res``, each
    component's darts renumbered in ascending order."""
    m = res.diagram.surface
    out = []
    for comp in m.components():
        darts = sorted(comp)
        index = {x: i for i, x in enumerate(darts)}
        ep = [index[m.edge_pairing[x]] for x in darts]
        rot = [index[m.rotation[x]] for x in darts]
        sub = CombMap(len(darts), ep, rot)
        colors = [res.diagram.dart_colors[x] for x in darts]
        marked = [index[v.dart] for v in res.diagram.marked if v.dart in index]
        out.append(ShadowDiagram.from_darts(sub, colors, marked))
    return out


def edge_voltages(d, group, assignments):
    """Voltage dict from {edge representative dart: element}."""
    g = group
    volt = {x: g.identity for x in range(d.surface.n_darts)}
    for dart, elt in assignments.items():
        volt[dart] = elt
        volt[d.surface.edge_pairing[dart]] = g.inv(elt)
    return volt


def trivial_voltages(d, g):
    return VoltageAssignment(g, {x: g.identity for x in range(d.surface.n_darts)}).validated(d)


def test_trivial_group_cover():
    d = standard_torus_diagram()
    res = derived_cover(d, trivial_voltages(d, cyclic(1)))
    assert res.n_components == 1
    assert res.diagram.isomorphic_to(d) is not None
    assert len(res.deck.closure()) == 1


def square_torus_diagram():
    m = CombMap(4, [1, 0, 3, 2], [2, 3, 1, 0])
    color = {m.cell_of("edge", 0): alpha(1), m.cell_of("edge", 2): alpha(2)}
    return ShadowDiagram(m, color)


def test_unbranched_double_cover_of_torus():
    d = square_torus_diagram()
    g = cyclic(2)
    va = VoltageAssignment(g, edge_voltages(d, g, {0: 1}))
    genus, counts = expected_lift_parameters(d, va)
    assert genus == 1 and counts == {}
    res = derived_cover(d, va)
    assert res.n_components == 1
    assert res.diagram.surface.genus() == 1
    assert len(res.deck.closure()) == 2


def test_nongenerating_voltages_disconnect():
    d = standard_torus_diagram()
    va = trivial_voltages(d, cyclic(2))
    with pytest.warns(DisconnectedCoverWarning):
        res = derived_cover(d, va)
    assert res.n_components == 2
    for comp in component_diagrams(res):
        assert comp.isomorphic_to(d) is not None


def test_branched_double_cover_of_sphere_two_points():
    d = theta_sphere_diagram()
    g = cyclic(2)
    va = VoltageAssignment(
        g,
        {x: 0 for x in range(d.surface.n_darts)},
        {v: 1 for v in d.marked},
    )
    genus, counts = expected_lift_parameters(d, va)
    assert genus == 0
    assert set(counts.values()) == {1}
    res = derived_cover(d, va)
    assert res.n_components == 1
    assert res.diagram.surface.genus() == 0
    assert len(res.diagram.marked) == 2
    for bp in res.branch_points:
        assert bp.order == 2 and bp.lift_count == 1
    assert res.structural_errors == []


def test_cover_then_quotient_roundtrip():
    d = theta_sphere_diagram()
    g = cyclic(2)
    va = VoltageAssignment(
        g,
        {x: 0 for x in range(d.surface.n_darts)},
        {v: 1 for v in d.marked},
    )
    res = derived_cover(d, va)
    q = quotient(res.diagram, res.deck)
    assert q.diagram.isomorphic_to(d) is not None
    assert q.cone_orders() == [2, 2]


def test_branch_schedule_with_quaternion_meridians():
    d = theta_sphere_diagram()
    g = quaternion()
    marked = sorted(d.marked, key=lambda c: c.dart)
    va = VoltageAssignment(
        g,
        {x: "1" for x in range(d.surface.n_darts)},
        {marked[0]: "i", marked[1]: "-i"},
    )
    with pytest.warns(DisconnectedCoverWarning):
        res = derived_cover(d, va)
    # meridians generate an index-2 subgroup: two components
    assert res.n_components == 2
    for comp in component_diagrams(res):
        assert comp.surface.genus() == 0
    for bp in res.branch_points:
        assert bp.order == 4 and bp.lift_count == 2


def test_gauge_fixing_preserves_cover():
    d = theta_sphere_diagram()
    g = cyclic(2)
    va = VoltageAssignment(
        g, edge_voltages(d, g, {0: 1}), {v: 1 for v in d.marked}
    )
    # the gauge transform by vertex potentials p: dart x gets
    # p(head) v(x) p(tail)^-1, a meridian at v gets p(v) w p(v)^-1
    m = d.surface
    pot = [g.identity, 1]  # the head of dart 0 gets the nontrivial element
    assert m.vertex_of[0] == 0 and m.vertex_of[m.edge_pairing[0]] == 1

    def moved(w, head, tail):
        return g.mul(pot[m.vertex_of[head]], g.mul(w, g.inv(pot[m.vertex_of[tail]])))

    volt = va.validated(d).voltage
    fixed = VoltageAssignment(
        g,
        {x: moved(w, m.edge_pairing[x], x) for x, w in volt.items()},
        {v: moved(w, v.dart, v.dart) for v, w in va.meridians.items()},
    ).validated(d)
    # the tree dart between the two vertices now carries the identity
    assert fixed.voltage[0] == g.identity != volt[0]
    r1 = derived_cover(d, va)
    r2 = derived_cover(d, fixed)
    assert r1.diagram.isomorphic_to(r2.diagram) is not None
    assert r1.diagram.surface.genus() == r2.diagram.surface.genus() == 0


def test_voltage_validation_errors():
    d = standard_torus_diagram()
    g = cyclic(3)
    volt = {x: 0 for x in range(d.surface.n_darts)}
    volt[0] = 1
    volt[d.surface.edge_pairing[0]] = 1  # should be 2
    with pytest.raises(VoltageIncompatible):
        VoltageAssignment(g, volt).validated(d)
    with pytest.raises(MeridianMismatch):
        VoltageAssignment(
            g,
            {x: 0 for x in range(d.surface.n_darts)},
            {d.surface.cell_of("vertex", 0): 1},
        ).validated(d)


def test_a_checked_assignment_is_checked_once_per_diagram():
    d = theta_sphere_diagram()
    g = cyclic(4)
    v0, v1 = sorted(d.marked, key=lambda v: v.dart)
    va = VoltageAssignment(g, edge_voltages(d, g, {0: 3}), {v0: 1, v1: 3})
    checked = va.validated(d)
    assert checked is not va and checked == va
    assert checked.validated(d) is checked
    # a different diagram, even an equal one, is checked again
    again = checked.validated(theta_sphere_diagram())
    assert again is not checked and again == checked
    # the constructor, equality and repr see the fields only
    assert VoltageAssignment(g, checked.voltage, checked.meridians) == checked
    assert repr(checked) == repr(VoltageAssignment(g, checked.voltage, checked.meridians))
    # a failure is not remembered
    bad = VoltageAssignment(g, {**checked.voltage, 1: 3}, checked.meridians)
    for _ in range(2):
        with pytest.raises(VoltageIncompatible):
            bad.validated(d)


def per_dart_lift(d, va):
    """The cover's pairing, rotation, projection and deck generators,
    built one lifted dart at a time: dart x*|G| + i is (x, elements[i]),
    each neighbour found by a group product and an index lookup."""
    va = va.validated(d)
    g, m = va.group, d.surface
    n, order = m.n_darts, len(g)
    idx = {x: i for i, x in enumerate(g.elements)}

    def dart(base, elt):
        return base * order + idx[elt]

    twist = _solve_twists(d, va)
    ep, rot, proj = [0] * (n * order), [0] * (n * order), {}
    for x in range(n):
        for e in g.elements:
            i = dart(x, e)
            proj[i] = (x, e)
            ep[i] = dart(m.edge_pairing[x], g.mul(va.voltage[x], e))
            rot[i] = dart(m.rotation[x], g.mul(twist[x], e))
    gens = [
        tuple(dart(proj[i][0], g.mul(proj[i][1], h)) for i in range(n * order))
        for h in greedy_generators(g.elements, g.identity, g.mul) or [g.identity]
    ]
    return tuple(ep), tuple(rot), proj, gens


def twisted_theta_cover():
    d = theta_sphere_diagram()
    g = cyclic(2)
    va = VoltageAssignment(g, edge_voltages(d, g, {0: 1}), {v: 1 for v in d.marked})
    return d, va


def lift_cases():
    cases = [pytest.param(lambda k=k: q8_case(k), id="q8_reduction_%d" % k) for k in range(5)]
    return cases + [pytest.param(twisted_theta_cover, id="theta_twisted")]


def q8_case(k):
    base, reds = q8_reductions()
    return base.diagram, reds[k][1]


@pytest.mark.parametrize("build", lift_cases())
def test_derived_cover_matches_the_per_dart_lift(build):
    d, va = build()
    ep, rot, proj, gens = per_dart_lift(d, va)
    res = derived_cover(d, va)
    assert res.diagram.surface.edge_pairing == ep
    assert res.diagram.surface.rotation == rot
    assert res.projection == proj
    assert res.deck.generators == gens


def test_theta_cover_has_a_nontrivial_twist():
    d, va = twisted_theta_cover()
    g = va.group
    assert any(t != g.identity for t in _solve_twists(d, va.validated(d)).values())
