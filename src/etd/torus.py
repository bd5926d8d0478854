"""Geodesic line arrangements on the square flat torus, exactly.

A line is a primitive slope (p, q) and an offset c, describing the closed
geodesic q*x - p*y = c (mod 1).  An arrangement lives on one grid
(1/N)Z^2 mod 1, where N is the lcm of the offsets' denominators times the
lcm of the crossing determinants: every crossing is an integer pair
(X, Y) = N*(x, y) mod N, so incidence is exact integer arithmetic.  The
arrangement is returned as a combinatorial map whose rotation comes from
sorting outgoing directions counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import EtdError
from .cmap import CombMap


class ArrangementError(EtdError):
    pass


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


@dataclass(frozen=True)
class TorusLine:
    """The closed geodesic q*x - p*y = c (mod 1) of primitive slope (p, q)."""

    p: int
    q: int
    c: Fraction

    def __post_init__(self):
        if gcd(self.p, self.q) != 1:
            raise ArrangementError("slope (%d, %d) is not primitive" % (self.p, self.q))
        if self.q < 0 or (self.q == 0 and self.p < 0):
            raise ArrangementError("normalize the slope sign: q > 0, or q = 0 and p > 0")
        object.__setattr__(self, "c", Fraction(self.c) % 1)


def line(p, q, c=0):
    """A torus geodesic with slope (p, q); signs are normalized."""
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
        c = -Fraction(c)
    return TorusLine(p, q, Fraction(c))


@dataclass
class TorusArrangement:
    """The map of a torus line arrangement, with each dart's point, direction and line."""

    map: CombMap
    lines: list
    N: int  # points lie on the grid (1/N)Z^2 mod 1
    dart_point: list  # dart -> (X, Y), its vertex at (X/N, Y/N)
    dart_dir: list  # dart -> outgoing direction (dx, dy)
    dart_line: list  # dart -> line index


def arrangement(lines) -> TorusArrangement:
    """Build the combinatorial map of a line arrangement.

    Requires: distinct lines, no triple points, and every line crossed at
    least once (otherwise the complement is not a union of disks).
    """
    from .planar import rotation_by_angle  # here, so that importing etd does not load planar

    lines = list(lines)
    if len(set(lines)) != len(lines):
        raise ArrangementError("duplicate lines")
    # distinct lines with det = 0 have equal slopes and never meet
    dets = {}
    for i, L1 in enumerate(lines):
        for j in range(i + 1, len(lines)):
            det = L1.p * lines[j].q - lines[j].p * L1.q
            if det:
                dets[i, j] = det
    N = lcm(*(L.c.denominator for L in lines)) * lcm(*dets.values())
    C = [L.c.numerator * (N // L.c.denominator) for L in lines]

    # Lines i and j meet |det| times.  The k-th crossing solves
    # q_i x - p_i y = c_i + k, q_j x - p_j y = c_j; since (p_j, q_j) is
    # primitive, k = 0..|det|-1 reaches every crossing mod 1.  C and N are
    # multiples of det, so each division is exact.
    points_on = [[] for _ in lines]
    pairs_at = {}  # point -> number of line pairs through it
    for (i, j), det in dets.items():
        Li, Lj = lines[i], lines[j]
        for k in range(abs(det)):
            ci = C[i] + k * N
            pt = ((Li.p * C[j] - Lj.p * ci) // det % N, (Li.q * C[j] - Lj.q * ci) // det % N)
            points_on[i].append(pt)
            points_on[j].append(pt)
            pairs_at[pt] = pairs_at.get(pt, 0) + 1
    for pt, count in pairs_at.items():
        if count > 1:
            raise ArrangementError("triple point at %r" % ((Fraction(pt[0], N), Fraction(pt[1], N)),))
    for i, pts in enumerate(points_on):
        if not pts:
            raise ArrangementError("line %d crosses nothing; add a transversal" % (i,))

    # darts: two per segment of each line, in order of N times the position
    # a*x + b*y along the line from the point (alpha*c, beta*c), where
    # a*p + b*q = alpha*q - beta*p = +-1
    dart_point, dart_dir, dart_line, pairing = [], [], [], []
    for i, L in enumerate(lines):
        _, a, b = _ext_gcd(L.p, L.q)
        _, alpha, mbeta = _ext_gcd(L.q, L.p)
        s = (a * alpha - b * mbeta) * C[i]
        pts = sorted(points_on[i], key=lambda pt: (a * pt[0] + b * pt[1] - s) % N)
        for t, pt in enumerate(pts):
            n = len(dart_point)
            dart_point += [pt, pts[(t + 1) % len(pts)]]
            dart_dir += [(L.p, L.q), (-L.p, -L.q)]
            dart_line += [i, i]
            pairing += [n + 1, n]

    # distinct lines meet transversally, so no two darts at a point are parallel
    n = len(dart_point)
    m = CombMap(n, pairing, rotation_by_angle(n, dart_point, dart_dir))
    if m.genus() != 1:
        raise ArrangementError("arrangement did not close up to a torus")
    return TorusArrangement(m, lines, N, dart_point, dart_dir, dart_line)


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
    N = arr.N
    tx, ty = (Fraction(t) * N for t in translation)
    darts = list(enumerate(zip(arr.dart_point, arr.dart_dir)))
    # A maps the grid to itself, so a translation off the grid hits no dart
    on_grid = tx.denominator == ty.denominator == 1
    lookup = {key: x for x, key in darts} if on_grid else {}
    tx, ty = int(tx), int(ty)
    perm = []
    for x, ((X, Y), (dx, dy)) in darts:
        key = (((a * X + b * Y + tx) % N, (c * X + d * Y + ty) % N), (a * dx + b * dy, c * dx + d * dy))
        try:
            perm.append(lookup[key])
        except KeyError:
            raise ArrangementError(
                "affine map does not preserve the arrangement (dart %d)" % x
            )
    return tuple(perm)
