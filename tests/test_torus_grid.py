"""The integer-grid torus arrangements against a reference copy that does
its geometry in Fractions and finds each crossing by a lattice-shift
search, as the first implementation did."""

import random
from fractions import Fraction
from math import gcd

import pytest

from etd.catalog import _grid_torus, natural_genus1
from etd.cmap import CombMap
from etd.planar import rotation_by_angle
from etd.quotient import quotient
from etd.torus import ArrangementError, _ext_gcd, affine_dart_map, arrangement, line

SLOPE_SETS = [
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (1, 0), (1, 0)),
    ((1, 0), (0, 1), (1, 0)),
    ((1, 0), (0, 1), (-1, 1)),
]


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
        assert outcome(affine_dart_map, new, matrix, t) == outcome(ref_affine_dart_map, ref, matrix, t)


def random_line(rng):
    while True:
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        if gcd(p, q) == 1:
            return line(p, q, Fraction(rng.randrange(12), rng.randint(1, 12)))


@pytest.mark.parametrize("slopes", SLOPE_SETS, ids=lambda s: "".join("%d%d" % pq for pq in s))
@pytest.mark.parametrize("m", range(1, 13))
def test_grid_torus_matches_reference(m, slopes):
    arr, _ = _grid_torus(m, slopes)
    new, ref = assert_same_arrangement(arr.lines)
    assert_same_affine_maps(new, ref, m)


@pytest.mark.parametrize("seed", range(25))
def test_random_arrangements_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(4):
        lines = [random_line(rng) for _ in range(rng.randint(3, 6))]
        new, ref = assert_same_arrangement(lines)
        if new is not None:
            assert_same_affine_maps(new, ref, rng.randint(1, 12))


def test_quotient_of_natural_genus1_16_is_natural_genus1_1():
    e = natural_genus1(16)
    tx, ty = e.action.generators[:2]
    q = quotient(e.diagram, e.action, [tx, ty])
    assert q.subgroup_order == 256 and q.cone_points == []
    assert q.diagram.isomorphic_to(natural_genus1(1).diagram) is not None
