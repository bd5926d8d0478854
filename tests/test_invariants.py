import random

import pytest
from hypothesis import given, settings, strategies as st

from etd.cmap import CombMap
from etd.invariants import (
    AbelianGroup,
    InvariantError,
    branching_defect,
    cokernel,
    h1_frame,
    invariant_factors,
    surface_h1_mod,
)


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))] for i in range(len(A))]


def det(M):
    # fraction-free Gaussian elimination (Bareiss) for small matrices
    n = len(M)
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def test_snf_identity():
    assert invariant_factors([[1, 0], [0, 1]]) == [1, 1]


def test_snf_2_3():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero():
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([]) == []


def test_snf_known_diagonal():
    # a full-rank matrix whose Smith form is diag(2, 6, 12): the factors
    # form a divisibility chain and multiply to |det|
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert invariant_factors(M) == [2, 6, 12]
    assert abs(det(M)) == 2 * 6 * 12


def random_unimodular(n, rng):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        for c in range(n):
            M[i][c] += k * M[j][c]
    return M


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_snf_invariant_factor_stability(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    base = invariant_factors(M)
    L = random_unimodular(rows, rng)
    R = random_unimodular(cols, rng)
    assert invariant_factors(mat_mul(mat_mul(L, M), R)) == base


def test_cokernel():
    g = cokernel(2, [{0: 2}, {1: 3}])
    assert g.rank == 0
    assert g.torsion == (6,)
    assert str(g) == "Z/6"
    assert cokernel(3, [{0: 1}]) == AbelianGroup(2)
    assert cokernel(2, []).rank == 2


def test_abelian_group_validation():
    with pytest.raises(InvariantError):
        AbelianGroup(0, (2, 3))  # 3 not divisible by 2
    with pytest.raises(InvariantError):
        AbelianGroup(0, (1,))


def test_surface_h1_rank():
    # square torus: H1 = Z^2
    ep = [1, 0, 3, 2]
    rot = [2, 3, 1, 0]
    torus = CombMap(4, ep, rot)
    assert surface_h1_mod(torus) == AbelianGroup(2)
    frame = h1_frame(torus)
    # mod the loop of edge 0: Z
    assert cokernel(frame.rank, [frame.project({0: 1})]) == AbelianGroup(1)
    # mod both loop classes: 0
    assert cokernel(frame.rank, [frame.project(c) for c in ({0: 1}, {1: 1})]) == AbelianGroup(0)


def test_surface_h1_genus2():
    ep = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8]
    rot = [2, 3, 1, 4, 0, 6, 8, 9, 7, 5]
    m = CombMap(10, ep, rot)
    assert m.genus() == 2
    assert surface_h1_mod(m) == AbelianGroup(4)


def test_surface_h1_torsion_detection():
    # quotient-like relation: twice a loop class
    ep = [1, 0, 3, 2]
    rot = [2, 3, 1, 0]
    torus = CombMap(4, ep, rot)
    frame = h1_frame(torus)
    g = cokernel(frame.rank, [frame.project({0: 2})])
    assert g.rank == 1
    assert g.torsion == (2,)


def test_branching_defect():
    assert branching_defect(8, []) == 0
    # the hyperelliptic double cover of the sphere, branched at 2g+2 points
    for g in range(5):
        assert 2 * 2 - branching_defect(2, [2] * (2 * g + 2)) == 2 - 2 * g
    # Q8 over the sphere, branched at eight points of order 4: genus 17
    assert 8 * 2 - branching_defect(8, [4] * 8) == 2 - 2 * 17


def test_rank():
    assert len(invariant_factors([[1, 2], [2, 4]])) == 1
    assert len(invariant_factors([[1, 0], [0, 1]])) == 2
