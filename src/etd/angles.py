"""The one angle ordering: the rotation of a map drawn with straight
darts, each leaving its point in an integer direction, shared by the
plane's polylines (``planar``) and the flat torus's lines (``torus``)."""

from __future__ import annotations

from functools import cmp_to_key
from itertools import groupby

from . import EtdError


class PlanarError(EtdError):
    pass


def _angle_ranks(dirs):
    """Each distinct direction in ``dirs`` -> its rank in counterclockwise
    angle order from the positive x-axis: by half-plane (angles [0, pi)
    or [pi, 2 pi)), then inside one by the sign of the cross product.
    Parallel directions share a rank."""

    def lower(d):
        return d[1] < 0 or (d[1] == 0 and d[0] < 0)

    order = cmp_to_key(lambda u, v: lower(u) - lower(v) or u[1] * v[0] - u[0] * v[1])
    groups = groupby(sorted(set(dirs), key=order), key=order)
    return {u: r for r, (_, parallel) in enumerate(groups) for u in parallel}


def rotation_by_angle(n, dart_point, dart_dir):
    """The rotation of darts 0..n-1 that turns each dart to the next
    outgoing direction counterclockwise around its point.  Raises
    PlanarError when two darts leave one point in the same direction.

    The distinct directions are ranked once by :func:`_angle_ranks`, so
    each point sorts its darts by an integer."""
    at_point = {}
    for d in range(n):
        at_point.setdefault(dart_point[d], []).append(d)
    dirs = [dart_dir[d] for d in range(n)]
    rank = _angle_ranks(dirs)
    key = [rank[u] for u in dirs]
    rotation = [0] * n
    for pt, ds in at_point.items():
        keyed = sorted(ds, key=key.__getitem__)
        # parallel darts sort next to each other
        if any(key[a] == key[b] for a, b in zip(keyed, keyed[1:])):
            raise PlanarError("parallel darts at %r" % (pt,))
        for k, d in enumerate(keyed):
            rotation[d] = keyed[(k + 1) % len(keyed)]
    return rotation
