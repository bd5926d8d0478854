"""Polyline arrangements in the plane, assembled into sphere maps.

Strands are polylines (open arcs or closed polygons) with integer
coordinates.  Crossings are computed exactly; the resulting graph, with
rotations from the one angle ordering (``angles``), is a combinatorial
map on the sphere (the unbounded face closes up for free).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from .angles import PlanarError, rotation_by_angle
from .cmap import CombMap


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _int_points(points, what):
    """``points`` as tuples, or a PlanarError naming ``what``."""
    out = [tuple(p) for p in points]
    for p in out:
        if any(type(c) is not int for c in p):
            raise PlanarError("%s has a non-integer point %r" % (what, p))
    return out


def segment_intersection(p1, p2, q1, q2):
    """Classify the intersection of integer segments p1p2 and q1q2.

    Returns None (disjoint), ("point", pt, u, t) for a single point with
    parameters u, t in [0, 1] along each segment, or raises on overlap.
    Only a crossing builds Fractions; a collinear touch has u, t in {0, 1}.
    """
    if (max(p1[0], p2[0]) < min(q1[0], q2[0]) or max(q1[0], q2[0]) < min(p1[0], p2[0])
            or max(p1[1], p2[1]) < min(q1[1], q2[1]) or max(q1[1], q2[1]) < min(p1[1], p2[1])):
        return None  # bounding boxes apart
    r = _sub(p2, p1)
    s = _sub(q2, q1)
    den = _cross(r, s)
    qp = _sub(q1, p1)
    if den == 0:
        if _cross(qp, r) != 0:
            return None
        # collinear: any overlap beyond a shared endpoint is an error
        rr = r[0] * r[0] + r[1] * r[1]
        t0 = (qp[0] * r[0] + qp[1] * r[1])
        t1 = t0 + (s[0] * r[0] + s[1] * r[1])
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < 0 or lo > rr:
            return None
        if hi == 0:
            return ("point", p1, 0, 0 if t0 == 0 else 1)
        if lo == rr:
            return ("point", p2, 1, 0 if t0 == rr else 1)
        raise PlanarError("collinear overlapping segments")
    t_num, u_num = _cross(qp, r), _cross(qp, s)
    if den < 0:
        den, t_num, u_num = -den, -t_num, -u_num
    if 0 <= u_num <= den and 0 <= t_num <= den:
        u = Fraction(u_num, den)
        return ("point", (p1[0] + u * r[0], p1[1] + u * r[1]), u, Fraction(t_num, den))
    return None


@dataclass
class Strand:
    """An integer polyline: an open arc, or a closed polygon."""

    points: list
    closed: bool = False

    def __post_init__(self):
        self.points = _int_points(self.points, "strand")
        if self.closed:
            if len(self.points) < 3:
                raise PlanarError("closed strands need at least 3 points")
            if self.points[0] == self.points[-1]:
                raise PlanarError("closed strands must not repeat the first point")
        else:
            if len(self.points) < 2:
                raise PlanarError("open strands need at least 2 points")

    def segments(self):
        pts = self.points + ([self.points[0]] if self.closed else [])
        return list(zip(pts[:-1], pts[1:]))


def arc(points):
    return Strand(list(points), False)


def loop(points):
    return Strand(list(points), True)


@dataclass
class PlanarDiagram:
    """A planar arrangement as a sphere map, with flat per-dart lists.

    Dart ``2k`` leaves the start of edge k and dart ``2k + 1`` its end,
    edges numbered along each strand in turn.  ``dart_point[x]`` is the
    vertex dart x leaves, ``dart_dir[x]`` the integer vector of the
    strand segment it leaves along, ``dart_strand[x]`` the index of its
    strand and ``dart_pos[x]`` its position ``(k, t)`` along that strand
    (see :func:`build_planar`).
    """

    map: CombMap
    strands: list
    dart_point: list
    dart_dir: list
    dart_strand: list
    dart_pos: list

    def vertex_at(self, pt):
        if pt in self.dart_point:
            return self.map.cell_of("vertex", self.dart_point.index(pt))
        raise PlanarError("no vertex at %r" % (pt,))


def branch_cut_crossings(pd: PlanarDiagram, cuts):
    """Signed crossings of each edge with each cut ray.

    ``cuts`` is a list of (start, end) segments with integer coordinates,
    typically rays from a branch point into the unbounded face.  Returns
    {outgoing dart: [(cut_index, sign), ...]} ordered along the edge;
    sign is +1 when the edge crosses the cut left-to-right.  Cuts meet the
    strands' own segments; a hit at position (k, t) is on the edge that
    starts last at or before it, or on a closed strand's last edge.
    Crossings at the start of a cut (its branch point) are ignored; any
    other degenerate contact is an error -- nudge the cut.
    """
    cuts = [_int_points(cut, "cut %d" % ci) for ci, cut in enumerate(cuts)]
    edges = [[] for _ in pd.strands]  # strand -> its outgoing darts, in order
    for d in range(0, len(pd.dart_pos), 2):
        edges[pd.dart_strand[d]].append(d)
    found = {d: [] for d in range(0, len(pd.dart_pos), 2)}
    for si, s in enumerate(pd.strands):
        for k, (a, b) in enumerate(s.segments()):
            for ci, (c1, c2) in enumerate(cuts):
                hit = segment_intersection(c1, c2, a, b)
                if hit is None or hit[2] == 0:
                    continue  # apart, or at the cut's own branch point
                _, pt, u, t = hit
                # index -1 is a closed strand's last edge
                d = edges[si][bisect(edges[si], (k, t), key=pd.dart_pos.__getitem__) - 1]
                start = pd.dart_pos[d]
                if u == 1 or t in (0, 1) or start == (k, t):
                    raise PlanarError("cut %d has a degenerate contact at %r" % (ci, pt))
                sign = 1 if _cross(_sub(c2, c1), _sub(b, a)) > 0 else -1
                found[d].append((((k, t) < start, k, t), ci, sign))
    return {d: [(ci, sign) for _, ci, sign in sorted(hits)] for d, hits in found.items()}


def branch_cut_voltages(pd: PlanarDiagram, group, cut_values, crossings):
    """Edge voltages from branch cuts: walking along an edge, each cut
    crossing multiplies the sheet by the cut's value (inverse for
    negative crossings), later crossings acting on the left."""
    volt = {}
    for d, hits in crossings.items():
        v = group.identity
        for ci, sign in hits:
            w = cut_values[ci] if sign > 0 else group.inv(cut_values[ci])
            v = group.mul(w, v)
        volt[d] = v
        volt[pd.map.edge_pairing[d]] = group.inv(v)
    return volt


def build_planar(strands) -> PlanarDiagram:
    """The sphere map of a polyline arrangement.

    A strand's position ``(k, t)`` is the point at parameter t in [0, 1)
    along its segment from point k.  Its special positions are its open
    ends, its crossings with other strands and the ends of other strands
    that land on it; an uncrossed closed strand gets its first point.
    Each edge runs from one special position of a strand to the next in
    sorted order (cyclically on a closed strand).  Its outgoing dart
    leaves along segment k of its start; its incoming dart leaves its end
    backwards along segment k, or k - 1 when the end is the strand point
    k.  Darts around a point are ordered by angle.
    """
    strands = list(strands)
    segs = [s.segments() for s in strands]
    all_segs = []  # (strand_idx, seg_idx, a, b)
    for si, ss in enumerate(segs):
        for gi, (a, b) in enumerate(ss):
            if a == b:
                raise PlanarError("zero-length segment in strand %d" % si)
            all_segs.append((si, gi, a, b))

    def is_end(si, g, t):
        return not strands[si].closed and (
            (g, t) == (0, 0) or (g, t) == (len(segs[si]) - 1, 1)
        )

    def position(si, g, t):
        # a segment's far end is the strand's next point
        return ((g + 1) % len(strands[si].points), 0) if t == 1 else (g, t)

    # special points per strand: position -> point
    special = [{} for _ in strands]
    terminals = set()
    for si, s in enumerate(strands):
        if not s.closed:
            special[si][(0, 0)] = s.points[0]
            special[si][(len(segs[si]), 0)] = s.points[-1]
            terminals.update((s.points[0], s.points[-1]))

    point_owners = {pt: set() for pt in terminals}  # crossing/terminal -> strand ids
    for i in range(len(all_segs)):
        si, gi, a1, b1 = all_segs[i]
        for j in range(i + 1, len(all_segs)):
            sj, gj, a2, b2 = all_segs[j]
            hit = segment_intersection(a1, b1, a2, b2)
            if hit is None:
                continue
            if si == sj:
                # consecutive segments share a bend point; that is not a
                # crossing.  Other self-intersections are rejected.
                n_seg = len(segs[si])
                if abs(gi - gj) == 1 or (strands[si].closed and {gi, gj} == {0, n_seg - 1}):
                    continue
                raise PlanarError("strand %d intersects itself" % si)
            _, pt, t1, t2 = hit
            end1, end2 = is_end(si, gi, t1), is_end(sj, gj, t2)
            point_owners.setdefault(pt, set()).update((si, sj))
            if end1 and end2:
                # shared terminal: a declared junction, not a crossing
                continue
            if end1 or end2:
                # T-junction: a terminal subdivides the other strand
                so, go, to = (sj, gj, t2) if end1 else (si, gi, t1)
                special[so][position(so, go, to)] = pt
                continue
            if t1 in (0, 1) or t2 in (0, 1):
                # a genuine crossing must not sit on a bend point
                raise PlanarError(
                    "strands %d and %d cross at a bend point %r" % (si, sj, pt)
                )
            special[si][(gi, t1)] = pt
            special[sj][(gj, t2)] = pt
    for pt, owners in point_owners.items():
        if len(owners) > 2 and pt not in terminals:
            raise PlanarError("triple point at %r" % (pt,))

    dart_point, dart_dir, dart_strand, dart_pos, pairing = [], [], [], [], []
    for si, s in enumerate(strands):
        # an uncrossed closed strand is cut at its first point only
        at = special[si] or {(0, 0): s.points[0]}
        cut = sorted(at)
        ends = cut[1:] + cut[:1] if s.closed else cut[1:]
        for start, end in zip(cut, ends):
            n = len(dart_point)
            a, b = segs[si][start[0]]
            c, e = segs[si][end[0] - 1 if end[1] == 0 else end[0]]
            dart_point += [at[start], at[end]]
            dart_dir += [_sub(b, a), _sub(c, e)]
            dart_strand += [si, si]
            dart_pos += [start, end]
            pairing += [n + 1, n]

    n = len(dart_point)
    m = CombMap(n, pairing, rotation_by_angle(n, dart_point, dart_dir))
    if not m.is_connected():
        raise PlanarError("arrangement is disconnected; add connecting strands")
    if m.euler_characteristic() != 2:
        raise PlanarError("arrangement did not close up to a sphere")
    return PlanarDiagram(m, strands, dart_point, dart_dir, dart_strand, dart_pos)
