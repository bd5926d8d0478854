from collections import Counter
from fractions import Fraction

import pytest

from etd import quotient as quotient_mod
from etd import symmetry as symmetry_mod
from etd.catalog import FROZEN_NAMES, STANDARD_NAMES, entry, natural_genus1
from etd.cmap import CellId, CombMap, inverse, is_isomorphic, perm_orbits
from etd.diagram import ShadowDiagram, alpha
from etd.invariants import branching_defect
from etd.quotient import (
    YES,
    NotNormal,
    NotValidAction,
    QuotientError,
    folded_curve_edges,
    quotient,
    quotient_is_trisection,
)
from etd.symmetry import (
    DiagramAction,
    GroupClosure,
    NotAutomorphism,
    SymmetryError,
    base_darts,
    check_action,
    check_automorphism,
)
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
    assert len(q.induced_action.closure()) == 8


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
    assert len(q.induced_action.closure()) == 2


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
    assert len(DiagramAction([g]).closure()) == 2
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


# ---- the work of one quotient --------------------------------------------------


def count_calls(monkeypatch, calls):
    """Count map and closure constructions, element-order reports and
    automorphism checks into ``calls``."""

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(CombMap, "__init__", "CombMap")
    counting(GroupClosure, "__init__", "GroupClosure")
    counting(GroupClosure, "orders", "orders")
    # quotient calls check_automorphism through its own import of it
    counting(symmetry_mod, "check_automorphism", "check_automorphism")
    counting(quotient_mod, "check_automorphism", "check_automorphism")


@pytest.mark.parametrize("m", [4, 10])
def test_quotient_does_each_piece_of_work_once(monkeypatch, m):
    e = natural_genus1(m)
    tx, ty = e.action.generators[:2]
    calls = Counter()
    count_calls(monkeypatch, calls)
    q = quotient(e.diagram, e.action, [tx, ty])
    # one map (the quotient's); the closures of G, N and G/N; no element
    # orders; tx and ty are checked once, as generators of G
    assert calls == {
        "CombMap": 1,
        "GroupClosure": 3,
        "check_automorphism": len(e.action.generators) + len(q.induced_action.generators),
    }
    assert q.subgroup_order == m * m and q.source is e.diagram


def test_quotient_still_subdivides_inverted_edges(monkeypatch):
    e = entry("d6_double")
    calls = Counter()
    count_calls(monkeypatch, calls)
    q = quotient(e.diagram, e.action)  # N = G: one closure serves both
    assert q.source is not e.diagram
    assert q.source.surface.n_darts == e.diagram.surface.n_darts + 24
    assert calls == {
        "CombMap": 2,
        "GroupClosure": 2,
        "check_automorphism": len(e.action.generators) + len(q.induced_action.generators),
    }


# ---- a reference: the quotient that always rebuilds its source ------------------


def reference_subdivided(d, cells):
    """A fresh copy of ``d`` with a midpoint vertex on each listed edge,
    even when none is listed."""
    m = d.surface
    n = m.n_darts
    ep, rot, origin = list(m.edge_pairing), list(m.rotation), list(range(n))
    for cell in cells:
        x, y = m.orbit(cell)
        n1, n2 = n, n + 1
        n += 2
        ep += [x, y]
        rot += [n2, n1]
        ep[x], ep[y] = n1, n2
        origin += [y, x]
    m2 = CombMap(n, ep, rot)
    return ShadowDiagram.from_darts(m2, [d.dart_colors[x] for x in origin], [v.dart for v in d.marked])


def reference_extend(perm, m2, n_old):
    out = list(perm) + [0] * (m2.n_darts - n_old)
    for x in range(n_old, m2.n_darts):
        out[x] = m2.edge_pairing[perm[m2.edge_pairing[x]]]
    return tuple(out)


def reference_quotient(d, a, n_generators=None):
    """The quotient as computed before the source was shared: the whole
    report of each action check, a second closure of G for membership,
    every subgroup generator checked, a rebuilt source and a second
    orbit pass on the extended generators."""
    try:
        check_action(d, a)
    except SymmetryError as e:
        raise NotValidAction(str(e))
    m = d.surface
    if n_generators is None:
        n_sub = a
    else:
        g_closure = a.closure()
        n_sub = DiagramAction(list(n_generators), base=a.base)
        for g, name in zip(n_sub.generators, n_sub.names):
            try:
                check_automorphism(m, g, name)
            except NotAutomorphism as e:
                raise NotNormal("subgroup generator is not in the group: %s" % e)
            if g_closure.index(g_closure.key_of(g)) is None:
                raise NotNormal("subgroup generator is not in the group")
    n_closure = n_sub.closure()
    for g in a.generators:
        g_inv = inverse(g)
        for n in n_sub.generators:
            if n_closure.index(tuple(g[n[g_inv[b]]] for b in a.base)) is None:
                raise NotNormal("subgroup is not normal in the action")
    order_n = len(n_closure)
    orbit_id, _ = perm_orbits(m.n_darts, n_sub.generators)
    inverted = [CellId("edge", x) for x, y in m._edge_orbits if orbit_id[x] == orbit_id[y]]
    sub_d = reference_subdivided(d, inverted)
    m2 = sub_d.surface
    orbit_id, orbits = perm_orbits(
        m2.n_darts, [reference_extend(n, m2, m.n_darts) for n in n_sub.generators]
    )
    assert all(len(orb) == order_n for orb in orbits)
    reps = [orb[0] for orb in orbits]
    mq = CombMap(
        len(reps),
        [orbit_id[m2.edge_pairing[r]] for r in reps],
        [orbit_id[m2.rotation[r]] for r in reps],
    )
    dq = ShadowDiagram.from_darts(
        mq, [sub_d.dart_colors[r] for r in reps], [orbit_id[v.dart] for v in sub_d.marked]
    )
    cone = []
    for kind, of, q_orbits in (
        ("vertex", m2.vertex_of, mq._vertex_orbits), ("face", m2.face_of, mq._face_orbits)
    ):
        for q_orbit in q_orbits:
            met = [of[y] for y in orbits[q_orbit[0]]]
            stab = met.count(met[0])
            assert stab * len(set(met)) == order_n
            if stab > 1:
                cone.append((CellId(kind, q_orbit[0]), stab))
    defect = branching_defect(order_n, [k for _, k in cone])
    assert m2.euler_characteristic() == order_n * mq.euler_characteristic() - defect
    gens = [
        tuple(orbit_id[g2[r]] for r in reps)
        for g2 in (reference_extend(g, m2, m.n_darts) for g in a.generators)
    ]
    names = list(a.names)
    if not gens:
        gens, names = [tuple(range(len(reps)))], ["e"]
    induced = DiagramAction(gens, names, base_darts(mq))
    try:
        check_action(dq, induced)
    except SymmetryError as e:
        raise NotValidAction("induced action on the quotient is invalid: %s" % e)
    return quotient_mod.QuotientResult(dq, cone, induced, orbit_id, sub_d, order_n)


def outcome(fn, d, a, gens):
    try:
        return fn(d, a, gens)
    except QuotientError as e:
        return type(e), str(e)


def same_diagram(d, ref):
    assert d.surface.edge_pairing == ref.surface.edge_pairing
    assert d.surface.rotation == ref.surface.rotation
    assert d.dart_colors == ref.dart_colors
    assert d.marked == ref.marked


def reference_cases():
    """(id, diagram, action, subgroup generators or None): every catalog
    action and natural_genus1(m) for m <= 6, by the whole action, each
    single generator and all generators listed; the tori also by the
    translations."""
    named = [(n, entry(n)) for n in STANDARD_NAMES + FROZEN_NAMES]
    named += [("natural_genus1(m=%d)" % m, natural_genus1(m)) for m in range(1, 7)]
    for name, e in named:
        if e.action is None:
            continue
        a = e.action
        yield pytest.param(e.diagram, a, None, id=name + "-G")
        yield pytest.param(e.diagram, a, list(a.generators), id=name + "-gens")
        for g, gname in zip(a.generators, a.names):
            yield pytest.param(e.diagram, a, [g], id="%s-%s" % (name, gname))
        if name.startswith("natural_genus1"):
            yield pytest.param(e.diagram, a, list(a.generators[:2]), id=name + "-txty")


@pytest.mark.parametrize("d, a, gens", list(reference_cases()))
def test_quotient_matches_the_reference(d, a, gens):
    got, ref = outcome(quotient, d, a, gens), outcome(reference_quotient, d, a, gens)
    if isinstance(ref, tuple):
        assert got == ref
        return
    same_diagram(got.diagram, ref.diagram)
    assert got.cone_points == ref.cone_points
    assert got.induced_action == ref.induced_action
    assert got.projection == ref.projection
    assert got.subgroup_order == ref.subgroup_order
    same_diagram(got.source, ref.source)
    assert (got.source is d) == (ref.source.surface.n_darts == d.surface.n_darts)


def test_the_reference_reaches_both_outcomes():
    cases = [p.values for p in reference_cases()]
    results = [outcome(reference_quotient, *c) for c in cases]
    rebuilt = [r for r, (d, _, _) in zip(results, cases) if not isinstance(r, tuple)
               and r.source.surface.n_darts > d.surface.n_darts]
    # 11 quotients rebuild their source and 11 subgroups are not normal
    assert len(cases) == 74 and len(rebuilt) == 11
    assert Counter(r for r in results if isinstance(r, tuple)) == {
        (NotNormal, "subgroup is not normal in the action"): 11
    }


def torus_with_foreign_generator():
    arr = grid2()
    d = grid2_diagram(arr)
    a = DiagramAction([affine_dart_map(arr, I2, (F(1, 2), 0))], ["tx"])
    return d, a, [affine_dart_map(arr, I2, (0, F(1, 2)))]


def torus_with_non_normal_generator():
    e = natural_genus1(3)
    return e.diagram, e.action, [e.action.generators[2]]


def torus_with_color_breaking_generator():
    arr = grid2()
    return grid2_diagram(arr), DiagramAction([affine_dart_map(arr, ((0, -1), (1, 0)))], ["r"]), None


def torus_past_the_cap(monkeypatch):
    monkeypatch.setattr(symmetry_mod, "CLOSURE_CAP", 10)
    e = natural_genus1(3)
    return e.diagram, e.action, list(e.action.generators[:2])


@pytest.mark.parametrize(
    "build, cls, message",
    [
        (torus_with_foreign_generator, NotNormal, "subgroup generator is not in the group"),
        (torus_with_non_normal_generator, NotNormal, "subgroup is not normal in the action"),
        (torus_with_color_breaking_generator, NotValidAction, "generator r does not preserve alpha1"),
        (torus_past_the_cap, NotValidAction, "closure exceeds 10 elements"),
    ],
    ids=["foreign", "non-normal", "colors", "cap"],
)
def test_quotient_errors_match_the_reference(monkeypatch, build, cls, message):
    args = build(monkeypatch) if build is torus_past_the_cap else build()
    assert outcome(quotient, *args) == outcome(reference_quotient, *args) == (cls, message)
