"""The integer-grid torus arrangements against a reference copy that does
its geometry in Fractions and finds each crossing by a lattice-shift
search, as the first implementation did; and the sheet-wise lift of
``natural_genus1(m)`` against the m-general builder it replaced, which
arranged every line of the m x m grid, and against ``derived_cover``."""

import random
from fractions import Fraction
from math import gcd

import pytest

from etd.angles import rotation_by_angle
from etd.catalog import _grid_torus, _normalize_slope, _transversal_slope, natural_genus1
from etd.cmap import CombMap
from etd.cover import VoltageAssignment, derived_cover
from etd.diagram import SCAFFOLD, ShadowDiagram, alpha
from etd.groups import cyclic, direct_product
from etd.quotient import quotient
from etd.torus import ArrangementError, _ext_gcd, affine_dart_map, arrangement, line
from test_torus import translation_dart_map

SLOPE_SETS = [
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (1, 0), (1, 0)),
    ((1, 0), (0, 1), (1, 0)),
    ((1, 0), (0, 1), (-1, 1)),
]
# the slope sets of the lift cross-checks: the default, two and three
# parallel families, and two sets with other crossing slopes
LIFT_SLOPE_SETS = [
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (1, 0), (0, 1)),
    ((1, 0), (1, 0), (1, 0)),
    ((1, 0), (0, 1), (1, -1)),
    ((2, 1), (1, 1), (1, 0)),
]


def slope_id(slopes):
    return "".join("%d%d" % pq for pq in slopes)


# ---------------------------------------------------------------------------
# reference copy of the m-general grid torus builder


def ref_grid_lines(m, slopes):
    """(lines, family of each line) of the m x m grid torus, as the
    m-general builder wrote them: the full translation/negation orbit of
    each slope, plus scaffold transversals (family 0) when all three
    slopes are parallel."""
    slopes = [_normalize_slope(s) for s in slopes]
    half = [Fraction(2 * t + 1, 2 * m) for t in range(m)]
    whole = [Fraction(t, m) for t in range(m)]
    lines, family_of, seen_slope = [], [], {}
    all_equal = len(set(slopes)) == 1
    for f, pq in enumerate(slopes, start=1):
        if all_equal:
            offs = [sign * Fraction(f, 8 * m) + Fraction(t, m) for t in range(m) for sign in (1, -1)]
        elif pq in seen_slope:
            offs = whole
        else:
            seen_slope[pq] = f
            offs = half
        for c in offs:
            lines.append(line(pq[0], pq[1], c))
            family_of.append(f)
    if all_equal:
        r, s = _transversal_slope(slopes[0])
        for c in half:
            lines.append(line(r, s, c))
            family_of.append(0)
    return lines, family_of


def ref_natural_genus1(m, slopes):
    """(arrangement, diagram, [tx, ty, nu]) of the m-general builder: the
    translations by 1/m and the negation, as affine dart maps."""
    lines, family_of = ref_grid_lines(m, slopes)
    arr = arrangement(lines)
    color = [SCAFFOLD if f == 0 else alpha(f) for f in family_of]
    d = ShadowDiagram.from_darts(arr.map, [color[i] for i in arr.dart_line])
    gens = [
        translation_dart_map(arr, (Fraction(1, m), 0)),
        translation_dart_map(arr, (0, Fraction(1, m))),
        affine_dart_map(arr, ((-1, 0), (0, -1))),
    ]
    return arr, d, gens


def lattice_step(arr, x):
    """The lattice vector that dart x's segment adds on the way to its
    partner's point: P_x + k D_x - P_partner over N, where k in [1, N]
    is read off the line's position a*X + b*Y, a*p + b*q = +-1."""
    N = arr.N
    (X, Y), (p, q) = arr.dart_point[x], arr.dart_dir[x]
    QX, QY = arr.dart_point[arr.map.edge_pairing[x]]
    g, a, b = _ext_gcd(p, q)
    k = (g * (a * (QX - X) + b * (QY - Y)) - 1) % N + 1
    return ((X + k * p - QX) // N, (Y + k * q - QY) // N)


# ---------------------------------------------------------------------------
# reference copy: Fraction arithmetic and a lattice-shift search


def ref_base_point(L):
    g, alpha, mbeta = _ext_gcd(L.q, L.p)
    return (Fraction(alpha * L.c) % 1, Fraction(-mbeta * L.c) % 1)


def ref_contains(L, pt):
    return (L.q * pt[0] - L.p * pt[1] - L.c) % 1 == 0


def ref_param(L, pt):
    """Position of a point along the line, in [0, 1)."""
    if not ref_contains(L, pt):
        raise ArrangementError("point not on line")
    g, a, b = _ext_gcd(L.p, L.q)
    x0, y0 = ref_base_point(L)
    return (a * (pt[0] - x0) + b * (pt[1] - y0)) % 1


def ref_crossings(lines):
    """(points on each line, lines through each point), as Fractions mod 1."""
    points_on = [set() for _ in lines]
    point_lines = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            L1, L2 = lines[i], lines[j]
            det = L1.p * L2.q - L2.p * L1.q
            if det == 0:
                if (L1.c - L2.c) % 1 == 0:
                    raise ArrangementError("coincident lines %d and %d" % (i, j))
                continue
            # the crossings are the cosets of M Z^2 (M the matrix of the two
            # slopes) in Z^2; det Z^2 lies in M Z^2, so [0, |det|)^2 meets all
            pts = set()
            for mm in range(abs(det)):
                for nn in range(abs(det)):
                    rhs1 = L1.c + mm
                    rhs2 = L2.c + nn
                    x = Fraction(-L2.p * rhs1 + L1.p * rhs2, det)
                    y = Fraction(-L2.q * rhs1 + L1.q * rhs2, det)
                    pts.add((x % 1, y % 1))
            for pt in pts:
                points_on[i].add(pt)
                points_on[j].add(pt)
                point_lines.setdefault(pt, set()).update((i, j))
    return points_on, point_lines


def ref_arrangement(lines):
    """(map, dart_point, dart_dir, dart_line), points as Fractions mod 1."""
    lines = list(lines)
    if len(set(lines)) != len(lines):
        raise ArrangementError("duplicate lines")
    points_on, point_lines = ref_crossings(lines)
    for pt, ls in point_lines.items():
        if len(ls) > 2:
            raise ArrangementError("triple point at %r" % (pt,))
    for i, pts in enumerate(points_on):
        if not pts:
            raise ArrangementError("line %d crosses nothing; add a transversal" % (i,))
    dart_point, dart_dir, dart_line, pairing = {}, {}, {}, []
    n = 0
    for i, L in enumerate(lines):
        pts = sorted(points_on[i], key=lambda pt: ref_param(L, pt))
        k = len(pts)
        for a in range(k):
            d_out, d_in = n, n + 1
            n += 2
            dart_point[d_out] = pts[a]
            dart_dir[d_out] = (L.p, L.q)
            dart_point[d_in] = pts[(a + 1) % k]
            dart_dir[d_in] = (-L.p, -L.q)
            dart_line[d_out] = dart_line[d_in] = i
            pairing.extend([d_in, d_out])
    m = CombMap(n, pairing, rotation_by_angle(n, dart_point, dart_dir))
    if m.genus() != 1:
        raise ArrangementError("arrangement did not close up to a torus")
    return m, dart_point, dart_dir, dart_line


def ref_affine_dart_map(ref, matrix, translation=(0, 0)):
    m, dart_point, dart_dir, _ = ref
    (a, b), (c, d) = matrix
    if a * d - b * c not in (1, -1):
        raise ArrangementError("matrix is not unimodular")
    tx, ty = Fraction(translation[0]), Fraction(translation[1])
    lookup = {}
    for x in range(m.n_darts):
        lookup[(dart_point[x], dart_dir[x])] = x
    perm = []
    for x in range(m.n_darts):
        px, py = dart_point[x]
        dx, dy = dart_dir[x]
        q = ((a * px + b * py + tx) % 1, (c * px + d * py + ty) % 1)
        w = (a * dx + b * dy, c * dx + d * dy)
        try:
            perm.append(lookup[(q, w)])
        except KeyError:
            raise ArrangementError(
                "affine map does not preserve the arrangement (dart %d)" % x
            )
    return tuple(perm)


# ---------------------------------------------------------------------------


def outcome(f, *args):
    try:
        return f(*args)
    except ArrangementError as err:
        return ("raised", type(err), str(err))


def assert_same_arrangement(lines):
    new, ref = outcome(arrangement, lines), outcome(ref_arrangement, lines)
    if ref[0] == "raised":
        if ref[2].startswith("triple point"):
            # With several triple points the reference names the first in
            # the iteration order of a set of Fraction pairs; any of them
            # is a correct report.
            triple = [pt for pt, ls in ref_crossings(lines)[1].items() if len(ls) > 2]
            assert new[:2] == ref[:2] and new[2] in ["triple point at %r" % (pt,) for pt in triple]
        else:
            assert new == ref
        return None, None
    m, dart_point, dart_dir, dart_line = ref
    assert new.map.edge_pairing == m.edge_pairing
    assert new.map.rotation == m.rotation
    assert new.dart_line == [dart_line[x] for x in range(m.n_darts)]
    assert new.dart_dir == [dart_dir[x] for x in range(m.n_darts)]
    N = new.N
    assert [(Fraction(X, N), Fraction(Y, N)) for X, Y in new.dart_point] == [
        dart_point[x] for x in range(m.n_darts)
    ]
    return new, ref


def assert_same_affine_maps(new, ref, m):
    cases = [
        (((1, 0), (0, 1)), (Fraction(1, m), 0)),
        (((1, 0), (0, 1)), (0, Fraction(1, m))),
        (((-1, 0), (0, -1)), (0, 0)),
        (((0, -1), (1, 0)), (0, 0)),
        (((1, 0), (0, 1)), (Fraction(1, 3 * new.N), 0)),  # off the grid
    ]
    for matrix, t in cases:
        got = outcome(translation_dart_map, new, t) if any(t) else outcome(affine_dart_map, new, matrix)
        assert got == outcome(ref_affine_dart_map, ref, matrix, t)


def random_line(rng):
    while True:
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        if gcd(p, q) == 1:
            return line(p, q, Fraction(rng.randrange(12), rng.randint(1, 12)))


@pytest.mark.parametrize("slopes", SLOPE_SETS, ids=slope_id)
@pytest.mark.parametrize("m", range(1, 13))
def test_grid_torus_matches_reference(m, slopes):
    lines, _ = ref_grid_lines(m, slopes)
    new, ref = assert_same_arrangement(lines)
    assert_same_affine_maps(new, ref, m)
    if m == 1:
        assert _grid_torus(slopes)[0].lines == lines


@pytest.mark.parametrize("seed", range(25))
def test_random_arrangements_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(4):
        lines = [random_line(rng) for _ in range(rng.randint(3, 6))]
        new, ref = assert_same_arrangement(lines)
        if new is not None:
            assert_same_affine_maps(new, ref, rng.randint(1, 12))


def lift_to_reference(m, slopes):
    """The reference builder's map, diagram and generators, and the dart
    bijection from natural_genus1(m, slopes) to them: base dart x on sheet
    (a, b) is the reference dart at the point (P_x / N + (a, b)) / m mod 1,
    in the direction of x."""
    base, _ = _grid_torus(slopes)
    arr, d, gens = ref_natural_genus1(m, slopes)
    at = {
        ((Fraction(X, arr.N), Fraction(Y, arr.N)), u): x
        for x, ((X, Y), u) in enumerate(zip(arr.dart_point, arr.dart_dir))
    }
    N = base.N
    phi = [
        at[((Fraction(X + N * a, N * m) % 1, Fraction(Y + N * b, N * m) % 1), u)]
        for (X, Y), u in zip(base.dart_point, base.dart_dir)
        for a in range(m)
        for b in range(m)
    ]
    return d, gens, phi


def assert_lift_is_reference(m, slopes):
    e = natural_genus1(m, slopes)
    ref, ref_gens, phi = lift_to_reference(m, slopes)
    lift, new = e.diagram.surface, ref.surface
    assert sorted(phi) == list(range(new.n_darts))
    for x in range(lift.n_darts):
        assert phi[lift.edge_pairing[x]] == new.edge_pairing[phi[x]]
        assert phi[lift.rotation[x]] == new.rotation[phi[x]]
        assert e.diagram.dart_colors[x] == ref.dart_colors[phi[x]]
    assert e.action.names == ["tx", "ty", "nu"]
    for g, h in zip(e.action.generators, ref_gens):
        assert all(phi[g[x]] == h[phi[x]] for x in range(lift.n_darts))
    return e, ref


@pytest.mark.parametrize("m", range(1, 33))
def test_lift_is_the_m_general_builder(m):
    """For the default slopes, relabelling the lift's darts by their points
    gives the old builder's map, colors and tx, ty, nu exactly; so the two
    are labelled-isomorphic."""
    e, ref = assert_lift_is_reference(m, ((1, 0), (0, 1), (1, 1)))
    if m <= 12:
        assert e.diagram.isomorphic_to(ref) is not None


@pytest.mark.parametrize("slopes", LIFT_SLOPE_SETS[1:], ids=slope_id)
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_lift_is_the_m_general_builder_on_other_slopes(m, slopes):
    e, ref = assert_lift_is_reference(m, slopes)
    assert e.diagram.isomorphic_to(ref) is not None


@pytest.mark.parametrize("slopes", LIFT_SLOPE_SETS, ids=slope_id)
@pytest.mark.parametrize("m", range(1, 9))
def test_lift_is_the_derived_cover(m, slopes):
    """natural_genus1(m) is, dart for dart, the derived cover of the m = 1
    entry with Z_m x Z_m voltages, each dart's lattice step mod m; its
    deck generators are the translations tx and ty."""
    arr, _ = _grid_torus(slopes)
    g = direct_product(cyclic(m), cyclic(m))
    volt = {}
    for x in range(arr.map.n_darts):
        sa, sb = lattice_step(arr, x)
        volt[x] = (sa % m, sb % m)
    cover = derived_cover(natural_genus1(1, slopes).diagram, VoltageAssignment(g, volt))
    e = natural_genus1(m, slopes)
    assert cover.diagram.surface.edge_pairing == e.diagram.surface.edge_pairing
    assert cover.diagram.surface.rotation == e.diagram.surface.rotation
    assert cover.diagram.dart_colors == e.diagram.dart_colors
    assert set(cover.deck.generators) == (set(e.action.generators[:2]) if m > 1 else {e.action.generators[0]})


@pytest.mark.parametrize("slopes", LIFT_SLOPE_SETS, ids=slope_id)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_translation_quotient_is_the_m1_entry(m, slopes):
    e = natural_genus1(m, slopes)
    q = quotient(e.diagram, e.action, e.action.generators[:2])
    assert q.subgroup_order == m * m and q.cone_points == []
    assert q.diagram.isomorphic_to(natural_genus1(1, slopes).diagram) is not None


def test_quotient_of_natural_genus1_16_is_natural_genus1_1():
    e = natural_genus1(16)
    tx, ty = e.action.generators[:2]
    q = quotient(e.diagram, e.action, [tx, ty])
    assert q.subgroup_order == 256 and q.cone_points == []
    assert q.diagram.isomorphic_to(natural_genus1(1).diagram) is not None
