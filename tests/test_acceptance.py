"""End-to-end acceptance checks, one test (= one pass/fail line) each:

1. the quaternion covering family, quantitatively;
2. the classification fixtures with homology and action orders;
3. the quotient suite (hyperelliptic, natural tori, exact branching count);
4. the triangulation suite on the frozen ``.tri`` files, with the
   independent surface oracle;
5. the property suites (round trips, relabeling, SNF stability,
   orbit-stabilizer).
"""

import random
import time
from itertools import combinations

from etd.catalog import entry, q8_reductions
from etd.cover import derived_cover, expected_lift_parameters
from etd.diagram import ShadowDiagram, validate_trisection
from etd.invariants import (
    AbelianGroup,
    h1_mod_curves,
    invariant_factors,
)
from etd.quotient import YES, quotient, quotient_is_trisection
from test_canonical import relabel_map
from test_catalog import frozen_text


def relabeled_diagram(d: ShadowDiagram, perm):
    m = d.surface
    colors = [None] * m.n_darts
    for x, c in enumerate(d.dart_colors):
        colors[perm[x]] = c
    marked = [perm[v.dart] for v in d.marked]
    return ShadowDiagram.from_darts(relabel_map(m, perm), colors, marked)


def test_q8_covering_family():
    t0 = time.time()
    base_entry, reds = q8_reductions()
    base = base_entry.diagram
    assert base.surface.genus() == 0
    seen = []
    for label, va, expect in reds:
        # Riemann-Hurwitz closed form from the branch orders alone
        n = len(va.group)
        orders = [va.group.element_order(w) for w in va.meridians.values()]
        chi_lift = n * 2 - sum(n - n // o for o in orders)
        g_rh = (2 - chi_lift) // 2
        assert g_rh == expect.genus
        assert expected_lift_parameters(base, va)[0] == g_rh

        cover = derived_cover(base, va).diagram
        report = validate_trisection(cover)
        assert report.ok, label
        assert (report.genus, report.k) == (expect.genus, expect.k), label
        seen.append((report.genus, report.k))
    for want in [
        (1, (0, 0, 0)),
        (3, (1, 1, 1)),
        (5, (1, 1, 1)),
        (17, (5, 5, 5)),
    ]:
        assert want in seen
    assert time.time() - t0 < 10


def test_classification_fixtures():
    expectations = {
        "cp2": ((1, (0, 0, 0)), AbelianGroup(0), None),
        "s1xs3": ((1, (1, 1, 1)), AbelianGroup(1), None),
        "s2xs2_genus2": ((2, (0, 0, 0)), AbelianGroup(0), 4),
        "d4_double": ((2, (2, 2, 2)), AbelianGroup(2), 8),
        "d6_double": ((2, (2, 2, 2)), AbelianGroup(2), 12),
        "d6_s4": ((2, (0, 0, 2)), AbelianGroup(0), 12),
    }
    for name, (gk, h1, order) in expectations.items():
        e = entry(name)
        report = validate_trisection(e.diagram)
        assert report.ok, name
        assert (report.genus, report.k) == gk, name
        assert h1_mod_curves(e.diagram, (1, 2, 3)) == h1, name
        if order is not None:
            assert len(e.action.closure()) == order, name
    # the maximal genus-2 symmetry realizes 12(g-1) on the nose
    assert len(entry("d6_s4").action.closure()) == 12 * (2 - 1)


def _assert_exact_branching(d, q):
    chi_src = q.source.surface.euler_characteristic()
    chi_q = q.diagram.surface.euler_characteristic()
    n = q.subgroup_order
    defect = sum((n // m) * (m - 1) for _, m in q.cone_points)
    assert chi_src == n * chi_q - defect


def test_quotient_suite():
    e = entry("s2xs2_genus2")
    q = quotient(e.diagram, e.action, [e.action.generators[0]])
    verdict, report = quotient_is_trisection(q)
    assert verdict == YES and report.ok
    assert q.diagram.surface.genus() == 0
    _assert_exact_branching(e.diagram, q)

    one = entry("natural_genus1(m=1)").diagram
    for m in (2, 3, 4):
        em = entry("natural_genus1(m=%d)" % m)
        tx, ty = em.action.generators[:2]
        qm = quotient(em.diagram, em.action, [tx, ty])
        assert qm.subgroup_order == m * m
        assert qm.cone_points == []
        assert qm.diagram.isomorphic_to(one) is not None
        _assert_exact_branching(em.diagram, qm)


def test_triangulation_suite():
    from etd.triang import bridge_parameters, parse_triangulation, sigma_oracle, trisection_parameters

    t0 = time.time()
    five, double, cyclic = (
        parse_triangulation(frozen_text(name + ".tri"))
        for name in ("boundary_5_simplex", "double_4_simplex", "cyclic_7_5")
    )
    for K in (five, double):
        r = trisection_parameters(K)
        assert sigma_oracle(K) == r.genus
        assert r.chi_simplex == 2 == r.chi_trisection
    assert trisection_parameters(five).k[0] == 19
    assert bridge_parameters(five, list(combinations(range(4), 3))) == (
        12,
        (4, 4, 6),
    )
    assert 4 + 4 + 6 - 12 == 2
    assert bridge_parameters(cyclic, cyclic.surfaces[0]) == (
        42,
        (7, 14, 21),
    )
    assert 7 + 14 + 21 - 42 == 0
    assert time.time() - t0 < 60


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for j in range(n):
            u[a][j] += c * u[b][j]
        if rng.random() < 0.3:
            u[a], u[b] = u[b], u[a]
    return u


def _mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_property_suites():
    # cover -> quotient round trip on every voltage fixture
    base_entry, reds = q8_reductions()
    base = base_entry.diagram
    for label, va, expect in reds:
        cover = derived_cover(base, va)
        q = quotient(cover.diagram, cover.deck)
        assert q.diagram.isomorphic_to(base) is not None, label
        _assert_exact_branching(cover.diagram, q)

    # canonical form is invariant under dart relabeling
    rng = random.Random(2024)
    for name in ("cp2", "s1xs3", "s2xs2_genus2", "d6_s4", "q8_link_base"):
        d = entry(name).diagram
        reference = d.canonical()
        for _ in range(100):
            perm = list(range(d.surface.n_darts))
            rng.shuffle(perm)
            assert relabeled_diagram(d, perm).canonical() == reference

    # Smith invariant factors are stable under unimodular transforms
    for _ in range(100):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = invariant_factors(mat)
        u = _random_unimodular(rng, rows)
        v = _random_unimodular(rng, cols)
        assert invariant_factors(_mat_mul(u, _mat_mul(mat, v))) == factors

    # orbit-stabilizer equality on every cell of every catalog action
    for name in ("cp2", "s1xs3", "s2xs2_genus2", "d4_double", "d6_double", "d6_s4"):
        e = entry(name)
        elems = e.action.elements()
        m = e.diagram.surface
        for kind, cells in (
            ("vertex", m.vertices()),
            ("edge", m.edges()),
            ("face", m.faces()),
        ):
            for cell in cells:
                images = [m.cell_of(kind, g[cell.dart]) for g in elems]
                orbit, stab = set(images), images.count(cell)
                assert len(orbit) * stab == len(elems), (name, cell)
