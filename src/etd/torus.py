"""Geodesic line arrangements on the square flat torus, exactly.

A line is a primitive slope (p, q) and an offset c, describing the closed
geodesic q*x - p*y = c (mod 1).  All coordinates are Fractions, so
incidence is exact.  The arrangement is returned as a combinatorial map
whose rotation comes from sorting outgoing directions counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cmap import CombMap, build_map


class ArrangementError(ValueError):
    pass


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


@dataclass(frozen=True)
class TorusLine:
    p: int
    q: int
    c: Fraction

    def __post_init__(self):
        if gcd(self.p, self.q) != 1:
            raise ArrangementError("slope (%d, %d) is not primitive" % (self.p, self.q))
        if self.q < 0 or (self.q == 0 and self.p < 0):
            raise ArrangementError("normalize the slope sign: q > 0, or q = 0 and p > 0")
        object.__setattr__(self, "c", Fraction(self.c) % 1)

    def base_point(self):
        """Some point on the line."""
        # alpha*q - beta*p = 1, so (alpha*c, beta*c) satisfies qx - py = c
        g, alpha, mbeta = _ext_gcd(self.q, self.p)
        beta = -mbeta
        return (Fraction(alpha * self.c) % 1, Fraction(beta * self.c) % 1)

    def contains(self, pt):
        return (self.q * pt[0] - self.p * pt[1] - self.c) % 1 == 0

    def param(self, pt):
        """Position of a point along the line, in [0, 1)."""
        if not self.contains(pt):
            raise ArrangementError("point not on line")
        g, a, b = _ext_gcd(self.p, self.q)
        x0, y0 = self.base_point()
        return (a * (pt[0] - x0) + b * (pt[1] - y0)) % 1


def line(p, q, c=0):
    """A torus geodesic with slope (p, q); signs are normalized."""
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
        c = -Fraction(c)
    return TorusLine(p, q, Fraction(c))


@dataclass
class TorusArrangement:
    map: CombMap
    lines: list
    dart_point: dict  # dart -> (x, y) of its vertex
    dart_dir: dict  # dart -> outgoing direction (dx, dy)
    dart_line: dict  # dart -> line index

    def vertex_at(self, pt):
        pt = (Fraction(pt[0]) % 1, Fraction(pt[1]) % 1)
        for d, q in self.dart_point.items():
            if q == pt:
                return self.map.cell_of("vertex", d)
        raise ArrangementError("no vertex at %r" % (pt,))

    def edges_of_line(self, idx):
        return sorted(
            {self.map.cell_of("edge", d) for d, i in self.dart_line.items() if i == idx},
            key=lambda c: c.dart,
        )

    def dart_at(self, pt, direction):
        pt = (Fraction(pt[0]) % 1, Fraction(pt[1]) % 1)
        for d in range(self.map.n_darts):
            if self.dart_point[d] == pt and self.dart_dir[d] == tuple(direction):
                return d
        raise ArrangementError("no dart at %r heading %r" % (pt, direction))


def arrangement(lines) -> TorusArrangement:
    """Build the combinatorial map of a line arrangement.

    Requires: distinct lines, no triple points, and every line crossed at
    least once (otherwise the complement is not a union of disks).
    """
    from .planar import rotation_by_angle  # here, so that importing etd does not load planar

    lines = list(lines)
    if len(set(lines)) != len(lines):
        raise ArrangementError("duplicate lines")

    # pairwise intersections
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
            pts = set()
            R = abs(det) + 2
            for mm in range(-R, R + 1):
                for nn in range(-R, R + 1):
                    rhs1 = L1.c + mm
                    rhs2 = L2.c + nn
                    x = Fraction(-L2.p * rhs1 + L1.p * rhs2, det)
                    y = Fraction(-L2.q * rhs1 + L1.q * rhs2, det)
                    pts.add((x % 1, y % 1))
            for pt in pts:
                points_on[i].add(pt)
                points_on[j].add(pt)
                point_lines.setdefault(pt, set()).update((i, j))
    for pt, ls in point_lines.items():
        if len(ls) > 2:
            raise ArrangementError("triple point at %r" % (pt,))
    for i, pts in enumerate(points_on):
        if not pts:
            raise ArrangementError("line %d crosses nothing; add a transversal" % (i,))

    # darts: two per segment of each line
    dart_point = {}
    dart_dir = {}
    dart_line = {}
    pairing = []
    n = 0
    for i, L in enumerate(lines):
        pts = sorted(points_on[i], key=L.param)
        k = len(pts)
        for a in range(k):
            p1 = pts[a]
            p2 = pts[(a + 1) % k]
            d_out, d_in = n, n + 1
            n += 2
            dart_point[d_out] = p1
            dart_dir[d_out] = (L.p, L.q)
            dart_point[d_in] = p2
            dart_dir[d_in] = (-L.p, -L.q)
            dart_line[d_out] = dart_line[d_in] = i
            pairing.extend([d_in, d_out])

    # distinct lines meet transversally, so no two darts at a point are parallel
    m = build_map(n, pairing, rotation_by_angle(n, dart_point, dart_dir))
    if m.genus() != 1:
        raise ArrangementError("arrangement did not close up to a torus")
    return TorusArrangement(m, lines, dart_point, dart_dir, dart_line)


def affine_dart_map(arr: TorusArrangement, matrix, translation=(0, 0)):
    """The dart permutation induced by x -> A x + t, if it maps the
    arrangement to itself; raises ArrangementError otherwise.

    A must be integral with determinant +-1 (a torus diffeomorphism).
    An orientation-reversing A yields a permutation that is not a map
    automorphism and will be rejected downstream.
    """
    (a, b), (c, d) = matrix
    if a * d - b * c not in (1, -1):
        raise ArrangementError("matrix is not unimodular")
    tx, ty = Fraction(translation[0]), Fraction(translation[1])
    lookup = {}
    for x in range(arr.map.n_darts):
        lookup[(arr.dart_point[x], arr.dart_dir[x])] = x
    perm = []
    for x in range(arr.map.n_darts):
        px, py = arr.dart_point[x]
        dx, dy = arr.dart_dir[x]
        q = ((a * px + b * py + tx) % 1, (c * px + d * py + ty) % 1)
        w = (a * dx + b * dy, c * dx + d * dy)
        try:
            perm.append(lookup[(q, w)])
        except KeyError:
            raise ArrangementError(
                "affine map does not preserve the arrangement (dart %d)" % x
            )
    return tuple(perm)
