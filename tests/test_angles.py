"""The one angle ordering, ``etd.angles``: direction ranks and rotations
against the exact Fraction angle key they replaced, on every arrangement
that planar and torus build."""

import random
from fractions import Fraction

import pytest

import etd.angles
import etd.planar
import etd.torus
from etd.angles import PlanarError, rotation_by_angle
from etd.planar import build_planar
from etd.torus import arrangement
from test_planar import ARRANGEMENTS, _planar_outcome
from test_torus_grid import ref_grid_lines


def ref_angle_key(d):
    """The exact angle key the directions were once sorted by: the
    half-plane (angles [0, pi) or [pi, 2 pi)), then whether d is off the
    x-axis, then -x/y, which grows with the angle inside each open
    half-plane.  Parallel directions get equal keys."""
    x, y = d
    upper = y > 0 or (y == 0 and x > 0)
    return (0 if upper else 1, y != 0, Fraction(-x, y) if y else 0)


def ref_angle_ranks(dirs):
    """Each distinct direction -> the rank of its ``ref_angle_key``."""
    keys = sorted({ref_angle_key(u) for u in dirs})
    return {u: keys.index(ref_angle_key(u)) for u in dirs}


def test_angle_ranks_match_the_reference_key():
    """Ranked by half-plane and cross product, the directions with
    |x|, |y| <= 8, and random samples of them, rank as the Fraction key
    ranks them; parallel directions share a rank."""
    dirs = [(x, y) for x in range(-8, 9) for y in range(-8, 9) if (x, y) != (0, 0)]
    want = ref_angle_ranks(dirs)
    assert etd.angles._angle_ranks(dirs) == want
    assert len(set(want.values())) < len(dirs)  # parallel directions occur
    rng = random.Random(12)
    for _ in range(200):
        some = rng.sample(dirs, rng.randint(1, 12))
        assert etd.angles._angle_ranks(some) == ref_angle_ranks(some)


def ref_rotation_by_angle(n, dart_point, dart_dir):
    """The rotation as it was computed before directions were ranked:
    each point sorts its darts by their ``ref_angle_key`` tuples."""
    at_point = {}
    for d in range(n):
        at_point.setdefault(dart_point[d], []).append(d)
    key = [ref_angle_key(dart_dir[d]) for d in range(n)]
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
    """Every rotation built for the Q8 link base, for the m x m grid tori
    of the m-general builder, m <= 16, and for the random arrangements is
    the reference's; so are the parallel-dart errors."""
    from etd.catalog import q8_link_base

    calls = []
    ranked = etd.angles.rotation_by_angle

    def both(n, dart_point, dart_dir):
        calls.append(n)
        want = _rotation_outcome(ref_rotation_by_angle, n, dart_point, dart_dir)
        assert _rotation_outcome(ranked, n, dart_point, dart_dir) == want
        return ranked(n, dart_point, dart_dir)

    monkeypatch.setattr(etd.planar, "rotation_by_angle", both)
    monkeypatch.setattr(etd.torus, "rotation_by_angle", both)
    q8_link_base()
    for m in range(1, 17):
        arrangement(ref_grid_lines(m, ((1, 0), (0, 1), (1, 1)))[0])
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


def test_rotation_by_angle_rejects_parallel_darts():
    points = {0: (0, 0), 1: (0, 0), 2: (0, 0)}
    with pytest.raises(PlanarError, match="parallel darts"):
        rotation_by_angle(3, points, {0: (1, 0), 1: (2, 0), 2: (0, 1)})
    dirs = {0: (1, 0), 1: (-1, 1), 2: (0, -3)}
    assert rotation_by_angle(3, points, dirs) == [1, 2, 0]
