import ast
import inspect
import math
import random
from fractions import Fraction

import pytest

import etd.planar
from etd.cmap import CombMap
from etd.planar import (
    PlanarDiagram,
    PlanarError,
    _cross,
    _sub,
    arc,
    branch_cut_crossings,
    branch_cut_voltages,
    build_planar,
    loop,
    rotation_by_angle,
    segment_intersection,
)


def edges_labelled(pd, label):
    """The edges of the strands labelled ``label``."""
    return {
        pd.map.cell_of("edge", x)
        for x, i in enumerate(pd.dart_strand)
        if pd.strands[i].label == label
    }


def test_segment_intersection_basic():
    kind, pt, t, u = segment_intersection((0, 0), (2, 2), (0, 2), (2, 0))
    assert pt == (1, 1)
    assert t == u == Fraction(1, 2)
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None
    with pytest.raises(PlanarError):
        segment_intersection((0, 0), (2, 0), (1, 0), (3, 0))


def test_fractions_only_at_crossings_and_angles():
    """Planar geometry is on integer points: no Fraction conversion of
    inputs, no edge polylines, and Fraction is named only where a crossing
    point or an angle key is built."""
    assert not hasattr(etd.planar, "_frac_point")
    assert not hasattr(PlanarDiagram, "edge_path")
    tree = ast.parse(inspect.getsource(etd.planar))
    users = {
        getattr(stmt, "name", type(stmt).__name__)
        for stmt in tree.body
        if any(isinstance(n, ast.Name) and n.id == "Fraction" for n in ast.walk(stmt))
    }
    assert users == {"segment_intersection", "_angle_key"}


def test_two_crossing_arcs_with_frame():
    # two diameters of a square frame: 5 vertices, sphere
    frame = loop([(-2, -2), (2, -2), (2, 2), (-2, 2)], label="frame")
    d1 = arc([(-2, -2), (2, 2)], label="d1")
    d2 = arc([(-2, 2), (2, -2)], label="d2")
    pd = build_planar([frame, d1, d2])
    m = pd.map
    assert m.euler_characteristic() == 2
    assert len(m.vertices()) == 5
    assert len(m.edges()) == 8
    assert len(edges_labelled(pd, "d1")) == 2
    center = pd.vertex_at((0, 0))
    assert len(m.orbit(center)) == 4


def test_theta_from_coordinates():
    top = arc([(0, 0), (1, 1), (2, 0)], label="a")
    mid = arc([(0, 0), (2, 0)], label="b")
    bot = arc([(0, 0), (1, -1), (2, 0)], label="c")
    pd = build_planar([top, mid, bot])
    m = pd.map
    assert len(m.vertices()) == 2
    assert len(m.edges()) == 3
    assert len(m.faces()) == 3
    assert m.genus() == 0


def test_anchored_circle_needs_connection():
    c1 = loop([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(PlanarError):
        build_planar([c1, loop([(10, 10), (11, 10), (10, 11)])])


def test_nested_loops_connected_by_arc():
    inner = loop([(0, 0), (2, 0), (2, 2), (0, 2)], label="in")
    outer = loop([(-2, -2), (4, -2), (4, 4), (-2, 4)], label="out")
    tie = arc([(2, 1), (4, 1)], label="tie")
    pd = build_planar([inner, outer, tie])
    m = pd.map
    # tie ends subdivide each loop: 2 vertices, loops contribute 1 edge each
    assert len(m.vertices()) == 2
    assert len(m.edges()) == 3
    assert m.genus() == 0
    assert len(edges_labelled(pd, "tie")) == 1


def test_triple_point_rejected():
    a = arc([(-1, 0), (1, 0)])
    b = arc([(0, -1), (0, 1)])
    c = arc([(-1, -1), (1, 1)])
    with pytest.raises(PlanarError):
        build_planar([a, b, c])


def test_t_junction_subdivides():
    a = arc([(-1, 0), (1, 0)])
    b = arc([(0, 0), (0, 1)])
    pd = build_planar([a, b])
    m = pd.map
    assert len(m.vertices()) == 4
    assert len(m.edges()) == 3
    assert len(m.orbit(pd.vertex_at((0, 0)))) == 3


def test_self_intersection_rejected():
    z = arc([(0, 0), (2, 0), (2, 1), (1, -1)])
    with pytest.raises(PlanarError):
        build_planar([z])


def cross_in_frame():
    frame = loop([(-2, -2), (2, -2), (2, 2), (-2, 2)], label="frame")
    diam = arc([(-2, 0), (2, 0)], label="diam")
    return build_planar([frame, diam])


def test_edge_paths_cover_every_edge():
    pd = cross_in_frame()
    m = pd.map
    # dart 2k leaves the start of edge k along its strand, dart 2k + 1 its end
    assert len(pd.dart_pos) == m.n_darts
    for x in range(0, m.n_darts, 2):
        assert m.edge_pairing[x] == x + 1
        assert pd.dart_strand[x] == pd.dart_strand[x + 1]
    covered = {m.cell_of("edge", x) for x in range(0, m.n_darts, 2)}
    assert covered == set(m.edges())
    assert len(covered) == m.n_darts // 2


def test_branch_cut_voltage_on_crossed_edge():
    from etd.groups import cyclic

    pd = cross_in_frame()
    cuts = [((0, 0), (0, -3))]  # straight down from the diameter's midpoint
    crossings = branch_cut_crossings(pd, cuts)
    hit = {x: cs for x, cs in crossings.items() if cs}
    # only the bottom frame edge is crossed, exactly once
    assert len(hit) == 1
    [(x, cs)] = hit.items()
    assert len(cs) == 1 and cs[0][0] == 0
    g = cyclic(4)
    volt = branch_cut_voltages(pd, g, [1], crossings)
    nontrivial = {y: w for y, w in volt.items() if w != 0}
    assert set(nontrivial) == {x, pd.map.edge_pairing[x]}
    assert g.mul(volt[x], volt[pd.map.edge_pairing[x]]) == 0


def test_branch_cut_sign_tracks_crossing_direction():
    pd = cross_in_frame()
    m = pd.map
    diam = edges_labelled(pd, "diam")

    def diam_signs(cut):
        cs = branch_cut_crossings(pd, [cut])
        return [
            s
            for x, hits in cs.items()
            if m.cell_of("edge", x) in diam
            for (_, s) in hits
        ]

    assert diam_signs(((1, 1), (1, -3))) == [1]  # downward cut
    assert diam_signs(((1, -1), (1, 3))) == [-1]  # upward cut


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, Fraction(2)])
def test_non_integer_coordinates_rejected(bad):
    with pytest.raises(PlanarError, match="strand 'x'"):
        arc([(0, 0), (bad, 1)], label="x")
    with pytest.raises(PlanarError, match="strand None"):
        loop([(0, 0), (1, 0), (0, bad)])
    pd = cross_in_frame()
    with pytest.raises(PlanarError, match="cut 1"):
        branch_cut_crossings(pd, [((1, 1), (1, -3)), ((0, 0), (bad, -3))])


def test_branch_cut_through_vertex_rejected():
    pd = cross_in_frame()
    with pytest.raises(PlanarError):
        # the cut ends exactly on the bottom frame edge
        branch_cut_crossings(pd, [((0, 0), (0, -2))])
    with pytest.raises(PlanarError):
        # the cut passes through the corner vertex
        branch_cut_crossings(pd, [((0, 0), (-4, -4))])


# ---------------------------------------------------------------------------
# segment intersection against its form without the bounding-box reject


def ref_segment_intersection(p1, p2, q1, q2):
    """Test-only copy of ``segment_intersection`` without its bounding-box
    reject: every pair goes through the cross-product classification."""
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (q2[0] - q1[0], q2[1] - q1[1])
    qp = (q1[0] - p1[0], q1[1] - p1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    qp_r = qp[0] * r[1] - qp[1] * r[0]
    if denom == 0:
        if qp_r != 0:
            return None
        rr = r[0] * r[0] + r[1] * r[1]
        t0 = qp[0] * r[0] + qp[1] * r[1]
        t1 = t0 + (s[0] * r[0] + s[1] * r[1])
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < 0 or lo > rr:
            return None
        if hi == 0:
            return ("point", p1, Fraction(0), Fraction(0) if t0 == 0 else Fraction(1))
        if lo == rr:
            return ("point", p2, Fraction(1), Fraction(0) if t0 == rr else Fraction(1))
        raise PlanarError("collinear overlapping segments")
    t = Fraction(qp_r, denom)
    u = Fraction(qp[0] * s[1] - qp[1] * s[0], denom)
    if 0 <= u <= 1 and 0 <= t <= 1:
        return ("point", (p1[0] + u * r[0], p1[1] + u * r[1]), u, t)
    return None


def random_segment_pairs(seed, count):
    """Integer segment pairs in [0, 4]^2, a third of them built to share
    an endpoint and a third to lie on one line."""
    rng = random.Random(seed)

    def point():
        return (rng.randint(0, 4), rng.randint(0, 4))

    out = []
    while len(out) < count:
        p1, p2, q1, q2 = point(), point(), point(), point()
        kind = len(out) % 3
        if kind == 1:
            q1 = rng.choice((p1, p2))
        elif kind == 2:
            d = (p2[0] - p1[0], p2[1] - p1[1])
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            q1 = (p1[0] + a * d[0], p1[1] + a * d[1])
            q2 = (p1[0] + b * d[0], p1[1] + b * d[1])
        if p1 != p2 and q1 != q2:
            out.append((p1, p2, q1, q2))
    return out


def _intersection_outcome(fn, pair):
    try:
        return fn(*pair)
    except PlanarError as err:
        return str(err)


def test_bounding_box_reject_keeps_every_intersection():
    pairs = random_segment_pairs(11, 3000)
    kinds = {"apart": 0, "crossing": 0, "touching": 0, "overlap": 0}
    for pair in pairs:
        want = _intersection_outcome(ref_segment_intersection, pair)
        assert _intersection_outcome(segment_intersection, pair) == want, pair
        if isinstance(want, str):
            kinds["overlap"] += 1
        elif want is None:
            kinds["apart"] += 1
        elif {want[2], want[3]} & {0, 1}:
            kinds["touching"] += 1
        else:
            kinds["crossing"] += 1
    # every outcome occurs often, so the comparison is not vacuous
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# the strand walk against the segment-pair edge cutter it replaced


def ref_build_planar(strands):
    """Test-only copy of the earlier ``build_planar``: specials sorted
    and deduped per strand, closed strands anchored, and each edge's
    bends and end directions looked up per segment.  Returns (map,
    dart_point, dart_strand, edge_path) with dicts keyed by dart."""

    def normalize_param(strand, g, t, pt):
        n_seg = len(strand.segments())
        if t == 1:
            if strand.closed:
                return ((g + 1) % n_seg, Fraction(0), pt)
            if g < n_seg - 1:
                return (g + 1, Fraction(0), pt)
        return (g, t, pt)

    strands = list(strands)
    all_segs = []
    for si, s in enumerate(strands):
        for gi, (a, b) in enumerate(s.segments()):
            if a == b:
                raise PlanarError("zero-length segment in strand %d" % si)
            all_segs.append((si, gi, a, b))

    special = {si: [] for si in range(len(strands))}
    terminals = set()
    for si, s in enumerate(strands):
        if not s.closed:
            special[si].append((0, Fraction(0), s.points[0]))
            last = len(s.segments()) - 1
            special[si].append((last, Fraction(1), s.points[-1]))
            terminals.add(s.points[0])
            terminals.add(s.points[-1])

    point_owners = {}
    for pt in terminals:
        point_owners.setdefault(pt, set())
    for i in range(len(all_segs)):
        for j in range(i + 1, len(all_segs)):
            si, gi, a1, b1 = all_segs[i]
            sj, gj, a2, b2 = all_segs[j]
            if si == sj:
                n_seg = len(strands[si].segments())
                consecutive = abs(gi - gj) == 1 or (
                    strands[si].closed and {gi, gj} == {0, n_seg - 1}
                )
                hit = ref_segment_intersection(a1, b1, a2, b2)
                if hit is None:
                    continue
                if consecutive:
                    continue
                raise PlanarError("strand %d intersects itself" % si)
            hit = ref_segment_intersection(a1, b1, a2, b2)
            if hit is None:
                continue
            _, pt, t1, t2 = hit
            end1 = not strands[si].closed and (
                (t1 == 0 and gi == 0) or (t1 == 1 and gi == len(strands[si].segments()) - 1)
            )
            end2 = not strands[sj].closed and (
                (t2 == 0 and gj == 0) or (t2 == 1 and gj == len(strands[sj].segments()) - 1)
            )
            point_owners.setdefault(pt, set()).update((si, sj))
            if end1 and end2:
                continue
            if end1 or end2:
                so, go, to = (sj, gj, t2) if end1 else (si, gi, t1)
                special[so].append(normalize_param(strands[so], go, to, pt))
                continue
            if t1 in (0, 1) or t2 in (0, 1):
                raise PlanarError(
                    "strands %d and %d cross at a bend point %r" % (si, sj, pt)
                )
            special[si].append((gi, t1, pt))
            special[sj].append((gj, t2, pt))

    for si in special:
        seen = set()
        uniq = []
        for e in special[si]:
            key = (e[0], e[1])
            if key not in seen:
                seen.add(key)
                uniq.append(e)
        special[si] = sorted(uniq, key=lambda e: (e[0], e[1]))
    for pt, owners in point_owners.items():
        if len(owners) > 2 and pt not in terminals:
            raise PlanarError("triple point at %r" % (pt,))

    for si, s in enumerate(strands):
        if s.closed and not special[si]:
            special[si] = [(0, Fraction(0), s.points[0])]

    dart_point, dart_dir, dart_strand, edge_path = {}, {}, {}, {}
    pairing = []
    n = 0

    def bends_between(s, a, b):
        n_seg = len(s.segments())
        zero = Fraction(0)
        if s.closed and b <= a:
            ks = list(range(a[0] + 1, n_seg)) + list(range(0, b[0] + 1))
        else:
            ks = list(range(a[0], b[0] + 1))
        out = []
        for k in ks:
            pos = (k, zero)
            inside = (pos > a and pos < b) if not (s.closed and b <= a) else (
                pos > a or pos < b
            )
            if inside:
                out.append(s.segments()[k][0])
        return out

    def seg_dir(si, gi, reverse=False):
        a, b = strands[si].segments()[gi]
        d = _sub(b, a)
        return (-d[0], -d[1]) if reverse else d

    for si, s in enumerate(strands):
        pts = special[si]
        if s.closed:
            pairs = [(pts[k], pts[(k + 1) % len(pts)]) for k in range(len(pts))]
        else:
            pairs = [(pts[k], pts[k + 1]) for k in range(len(pts) - 1)]
        for (g1, t1, p1), (g2, t2, p2) in pairs:
            d_out, d_in = n, n + 1
            n += 2
            dart_point[d_out] = p1
            dart_dir[d_out] = seg_dir(si, g1 if t1 < 1 else (g1 + 1) % len(s.segments()))
            g2_eff = g2 if t2 > 0 else (g2 - 1) % len(s.segments())
            dart_point[d_in] = p2
            dart_dir[d_in] = seg_dir(si, g2_eff, reverse=True)
            dart_strand[d_out] = dart_strand[d_in] = si
            edge_path[d_out] = [p1] + bends_between(s, (g1, t1), (g2, t2)) + [p2]
            pairing.extend([d_in, d_out])

    m = CombMap(n, pairing, rotation_by_angle(n, dart_point, dart_dir))
    if not m.is_connected():
        raise PlanarError("arrangement is disconnected; add connecting strands")
    if m.euler_characteristic() != 2:
        raise PlanarError("arrangement did not close up to a sphere")
    return m, dart_point, dart_strand, edge_path


FIXED_ARRANGEMENTS = [
    ("two diameters", lambda: [
        loop([(-2, -2), (2, -2), (2, 2), (-2, 2)]),
        arc([(-2, -2), (2, 2)]),
        arc([(-2, 2), (2, -2)]),
    ]),
    ("theta", lambda: [
        arc([(0, 0), (1, 1), (2, 0)]), arc([(0, 0), (2, 0)]), arc([(0, 0), (1, -1), (2, 0)]),
    ]),
    ("two far circles", lambda: [
        loop([(0, 0), (1, 0), (0, 1)]), loop([(10, 10), (11, 10), (10, 11)]),
    ]),
    ("nested loops", lambda: [
        loop([(0, 0), (2, 0), (2, 2), (0, 2)]),
        loop([(-2, -2), (4, -2), (4, 4), (-2, 4)]),
        arc([(2, 1), (4, 1)]),
    ]),
    ("triple point", lambda: [
        arc([(-1, 0), (1, 0)]), arc([(0, -1), (0, 1)]), arc([(-1, -1), (1, 1)]),
    ]),
    ("t-junction", lambda: [arc([(-1, 0), (1, 0)]), arc([(0, 0), (0, 1)])]),
    ("self-intersection", lambda: [arc([(0, 0), (2, 0), (2, 1), (1, -1)])]),
    ("cross in frame", lambda: [
        loop([(-2, -2), (2, -2), (2, 2), (-2, 2)]), arc([(-2, 0), (2, 0)]),
    ]),
    # ends landing on bends and on a closed strand's seam, and a closed
    # strand whose first special point is not its first point
    ("ends on bends", lambda: [
        loop([(0, 0), (4, 0), (4, 4), (0, 4)]),
        arc([(4, 4), (6, 6), (-2, 6), (0, 4)]),
        arc([(0, 0), (-2, -2)]),
        loop([(5, 1), (5, 3), (3, 3), (3, 1)]),
    ]),
]

GRID = [(x, y) for x in range(7) for y in range(7)]


def random_arrangement(seed):
    """2-5 integer polylines in the box [0, 6]^2: closed ones through 3-4
    points taken around their centroid, open ones through 2-4 points in
    lexicographic order."""
    rng = random.Random(seed)
    out = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            pts = rng.sample(GRID, rng.randint(3, 4))
            cx = sum(x for x, _ in pts) / len(pts)
            cy = sum(y for _, y in pts) / len(pts)
            out.append(loop(sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))))
        else:
            out.append(arc(sorted(rng.sample(GRID, rng.randint(2, 4)))))
    return out


ARRANGEMENTS = FIXED_ARRANGEMENTS + [
    ("random %d" % seed, lambda seed=seed: random_arrangement(seed)) for seed in range(40)
]


def _planar_outcome(build, strands):
    try:
        return build(strands)
    except PlanarError as err:
        return str(err)


def edge_polylines(pd):
    """Each edge's polyline under its outgoing dart, rebuilt from its
    darts' points and positions and the strand points strictly between
    them (past the first point, on an edge that wraps a closed strand)."""
    out = {}
    for x in range(0, len(pd.dart_pos), 2):
        points = pd.strands[pd.dart_strand[x]].points
        a, b = pd.dart_pos[x], pd.dart_pos[x + 1]
        ks = range(len(points))
        if a < b:
            inner = [k for k in ks if a < (k, 0) < b]
        else:
            inner = [k for k in ks if (k, 0) > a] + [k for k in ks if (k, 0) < b]
        out[x] = [pd.dart_point[x]] + [points[k] for k in inner] + [pd.dart_point[x + 1]]
    return out


@pytest.mark.parametrize("name, make", ARRANGEMENTS, ids=[a[0] for a in ARRANGEMENTS])
def test_walk_matches_the_segment_pair_cutter(name, make):
    got = _planar_outcome(build_planar, make())
    want = _planar_outcome(ref_build_planar, make())
    if isinstance(want, str):
        assert got == want
        return
    m, dart_point, dart_strand, edge_path = want
    n = m.n_darts
    assert got.map.edge_pairing == m.edge_pairing
    assert got.map.rotation == m.rotation
    assert got.dart_point == [dart_point[x] for x in range(n)]
    assert got.dart_strand == [dart_strand[x] for x in range(n)]
    assert edge_polylines(got) == edge_path


def test_differential_arrangements_build():
    # the comparison above is not vacuous: many arrangements close up
    built = sum(
        not isinstance(_planar_outcome(build_planar, make()), str) for _, make in ARRANGEMENTS
    )
    assert built >= 15


# ---------------------------------------------------------------------------
# branch cuts met on strand segments against the edge-polyline walker


def ref_branch_cut_crossings(edge_path, cuts):
    """Test-only copy of the earlier ``branch_cut_crossings``: every cut
    against every segment of every edge's polyline."""
    out = {}
    for d, path in edge_path.items():
        found = []
        for gi, (q1, q2) in enumerate(zip(path[:-1], path[1:])):
            for ci, (c1, c2) in enumerate(cuts):
                hit = ref_segment_intersection(c1, c2, q1, q2)
                if hit is None:
                    continue
                _, pt, u, t = hit
                if u == 0:
                    continue
                if u == 1 or t in (0, 1):
                    raise PlanarError("cut %d has a degenerate contact at %r" % (ci, pt))
                sign = 1 if _cross(_sub(c2, c1), _sub(q2, q1)) > 0 else -1
                found.append(((gi, t), ci, sign))
        found.sort(key=lambda e: e[0])
        out[d] = [(ci, sign) for _, ci, sign in found]
    return out


def random_cuts(rng):
    """1-3 integer cuts in the box [-1, 7]^2, each of positive length."""
    out = []
    while len(out) < rng.randint(1, 3):
        a = (rng.randint(-1, 7), rng.randint(-1, 7))
        b = (rng.randint(-1, 7), rng.randint(-1, 7))
        if a != b:
            out.append((a, b))
    return out


def test_branch_cuts_on_strand_segments_match_the_polyline_walker():
    rng = random.Random(5)
    kinds = {"crossed": 0, "uncrossed": 0, "error": 0}
    for name, make in ARRANGEMENTS:
        want_pd = _planar_outcome(ref_build_planar, make())
        if isinstance(want_pd, str):
            continue
        pd = build_planar(make())
        for _ in range(12):
            cuts = random_cuts(rng)
            want = _planar_outcome(lambda c: ref_branch_cut_crossings(want_pd[3], c), cuts)
            got = _planar_outcome(lambda c: branch_cut_crossings(pd, c), cuts)
            if isinstance(want, str):
                # with several contacts, either side may name any of them
                assert isinstance(got, str), (name, cuts)
                kinds["error"] += 1
                continue
            assert got == want, (name, cuts)
            kinds["crossed" if any(want.values()) else "uncrossed"] += 1
    # every outcome occurs often, so the comparison is not vacuous
    assert min(kinds.values()) >= 20, kinds


def ref_rotation_by_angle(n, dart_point, dart_dir):
    """The rotation as it was computed before directions were ranked:
    each point sorts its darts by their ``_angle_key`` tuples."""
    at_point = {}
    for d in range(n):
        at_point.setdefault(dart_point[d], []).append(d)
    key = [etd.planar._angle_key(dart_dir[d]) for d in range(n)]
    rotation = [0] * n
    for pt, ds in at_point.items():
        keyed = sorted(ds, key=key.__getitem__)
        if any(key[a] == key[b] for a, b in zip(keyed, keyed[1:])):
            raise PlanarError("parallel darts at %r" % (pt,))
        for k, d in enumerate(keyed):
            rotation[d] = keyed[(k + 1) % len(keyed)]
    return rotation


def _rotation_outcome(fn, *args):
    try:
        return fn(*args)
    except PlanarError as err:
        return str(err)


def test_ranked_rotation_matches_the_reference(monkeypatch):
    """Every rotation built for the Q8 link base, for natural_genus1(m),
    m <= 16, and for the random arrangements is the reference's; so are
    the parallel-dart errors."""
    from etd.catalog import natural_genus1, q8_link_base

    calls = []
    ranked = etd.planar.rotation_by_angle

    def both(n, dart_point, dart_dir):
        calls.append(n)
        want = _rotation_outcome(ref_rotation_by_angle, n, dart_point, dart_dir)
        assert _rotation_outcome(ranked, n, dart_point, dart_dir) == want
        return ranked(n, dart_point, dart_dir)

    monkeypatch.setattr(etd.planar, "rotation_by_angle", both)
    q8_link_base()
    for m in range(1, 17):
        natural_genus1(m)
    for _, make in ARRANGEMENTS:
        _planar_outcome(build_planar, make())
    assert len(calls) >= 1 + 16  # the base and every torus at least
    points = {0: (0, 0), 1: (0, 0), 2: (0, 0), 3: (1, 1)}
    for dirs in ({0: (1, 0), 1: (2, 0), 2: (0, 1), 3: (1, 0)},
                 {0: (-1, 1), 1: (0, 1), 2: (-3, 3), 3: (5, 2)},
                 {0: (0, -2), 1: (3, -1), 2: (0, -1), 3: (0, -1)}):
        want = _rotation_outcome(ref_rotation_by_angle, 4, points, dirs)
        assert _rotation_outcome(ranked, 4, points, dirs) == want
        assert want.startswith("parallel darts")
