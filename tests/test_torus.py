from fractions import Fraction

import pytest

from etd.cmap import is_isomorphic
from etd.torus import ArrangementError, TorusLine, affine_dart_map, arrangement, line


def grid2():
    # 2x2 grid: horizontals y = 0, 1/2 and verticals x = 0, 1/2
    return arrangement(
        [
            line(1, 0, 0),
            line(1, 0, Fraction(-1, 2)),
            line(0, 1, 0),
            line(0, 1, Fraction(1, 2)),
        ]
    )


def test_line_normalization():
    L = line(-1, 0, Fraction(1, 3))
    assert (L.p, L.q) == (1, 0)
    with pytest.raises(ArrangementError):
        TorusLine(2, 4, Fraction(0))


def test_line_geometry():
    from test_torus_grid import ref_param

    arr = arrangement(
        [line(1, 2, Fraction(1, 3)), line(1, 0, Fraction(1, 4)), line(-1, 1, Fraction(1, 6))]
    )
    N = arr.N
    # every dart point lies on its line
    for x, (X, Y) in enumerate(arr.dart_point):
        L = arr.lines[arr.dart_line[x]]
        assert (L.q * X - L.p * Y - L.c * N) % N == 0
    # each line's first dart leaves its point of least position along the line
    for i, L in enumerate(arr.lines):
        pts = [arr.dart_point[x] for x, j in enumerate(arr.dart_line) if j == i]
        keys = [ref_param(L, (Fraction(X, N), Fraction(Y, N))) for X, Y in pts]
        assert keys[0] == min(keys)


def test_grid_counts():
    arr = grid2()
    m = arr.map
    assert len(m.vertices()) == 4
    assert len(m.edges()) == 8
    assert len(m.faces()) == 4
    assert m.genus() == 1


def test_three_lines_pairwise_crossing():
    h = Fraction(1, 5)
    arr = arrangement(
        [line(1, 0, -h), line(0, 1, -h), line(1, 1, h)]
    )
    m = arr.map
    assert len(m.vertices()) == 3
    assert len(m.edges()) == 6
    assert len(m.faces()) == 3


def test_matches_hand_built_map():
    # slopes (1,0), (0,1), (1,1) in generic position: same map as the
    # hand-coded fixture used by the diagram tests
    from etd.cmap import CombMap

    hand = CombMap(
        12,
        [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10],
        [4, 11, 8, 7, 3, 10, 9, 0, 1, 5, 6, 2],
    )
    arr = arrangement(
        [line(1, 0, 0), line(0, 1, Fraction(1, 4)), line(1, 1, Fraction(1, 2))]
    )
    assert is_isomorphic(arr.map, hand, bytes(12), bytes(12)) is not None


def test_parallel_lines_with_transversal():
    arr = arrangement(
        [
            line(1, 0, 0),
            line(1, 0, Fraction(-1, 3)),
            line(1, 0, Fraction(-2, 3)),
            line(0, 1, 0),
        ]
    )
    m = arr.map
    assert len(m.vertices()) == 3
    assert len(m.edges()) == 6
    assert len(m.faces()) == 3


def test_rejects_bad_arrangements():
    with pytest.raises(ArrangementError):
        arrangement([line(1, 0, 0), line(1, 0, 0)])
    with pytest.raises(ArrangementError):
        # three lines through the origin: triple point
        arrangement([line(1, 0, 0), line(0, 1, 0), line(1, 1, 0)])
    with pytest.raises(ArrangementError):
        # parallel lines never cross
        arrangement([line(1, 0, 0), line(1, 0, Fraction(1, 2))])


def test_affine_translation_action():
    arr = grid2()
    t = affine_dart_map(arr, ((1, 0), (0, 1)), (Fraction(1, 2), 0))
    m = arr.map
    for d in range(m.n_darts):
        assert t[m.edge_pairing[d]] == m.edge_pairing[t[d]]
        assert t[m.rotation[d]] == m.rotation[t[d]]
    # order 2
    assert tuple(t[t[d]] for d in range(m.n_darts)) == tuple(range(m.n_darts))


def test_affine_rejects_non_symmetry():
    arr = grid2()
    with pytest.raises(ArrangementError):
        affine_dart_map(arr, ((1, 0), (0, 1)), (Fraction(1, 3), 0))
    with pytest.raises(ArrangementError):
        affine_dart_map(arr, ((2, 0), (0, 1)))


def test_negation_fixes_grid_vertices():
    arr = grid2()
    nu = affine_dart_map(arr, ((-1, 0), (0, -1)))
    m = arr.map
    for v in m.vertices():
        assert m.cell_of("vertex", nu[v.dart]) == v
