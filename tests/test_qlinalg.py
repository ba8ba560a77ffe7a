import random

import pytest

from coadjoint.qlinalg import (
    QQ,
    QMatrix,
    SampleConfig,
    kernel_basis,
    rank,
    sample_vector,
    solve_right,
)


def test_rank_identity():
    assert rank(QMatrix.identity(3)) == 3


def test_rank_zero():
    assert rank(QMatrix.zero(4, 2)) == 0


def test_rank_proportional_rows():
    assert rank(QMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(2)) == []


def test_kernel_zero_full():
    assert len(kernel_basis(QMatrix.zero(2, 3))) == 3


def test_kernel_single_row():
    m = QMatrix.from_rows([[1, 1, 0]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in m.matvec(v))


def test_rank_plus_kernel_is_cols():
    rng = random.Random(0)
    for _ in range(25):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        m = QMatrix.from_rows(
            [[QQ(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(c)]
             for _ in range(r)])
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == c
        for v in ker:
            assert all(x == 0 for x in m.matvec(v))


def test_certified_large_path_matches_bareiss():
    from coadjoint.qlinalg import Basis

    rng = random.Random(7)
    n = 90
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    for i in range(5):
        cs = [rng.randint(-2, 2) for _ in range(8)]
        rows[n - 1 - i] = [sum(cs[j] * rows[j][c] for j in range(8))
                           for c in range(n)]
    m = QMatrix.from_rows(rows)
    r_slow = len(Basis([[int(x) for x in row] for row in m.data]))
    assert rank(m) == r_slow
    ker = kernel_basis(m)
    assert len(ker) == n - r_slow
    for v in ker:
        assert all(x == 0 for x in m.matvec(v))


def test_solve_right():
    m = QMatrix.from_rows([[1, 2], [3, 4]])
    x = solve_right(m, [5, 6])
    assert m.matvec(x) == [QQ(5), QQ(6)]
    assert solve_right(QMatrix.from_rows([[1, 1], [1, 1]]), [0, 1]) is None
    for b in ([5], [5, 6, 7]):   # one entry per row, or no answer
        with pytest.raises(ValueError):
            solve_right(m, b)


def test_solve_right_uses_the_greedy_independent_columns():
    # column 1 repeats column 0 and column 3 is column 0 + column 2
    m = QMatrix.from_rows([[1, 1, 0, 1], [0, 0, 1, 1]])
    assert solve_right(m, [2, 3]) == [QQ(2), QQ(0), QQ(3), QQ(0)]


def test_sample_empty():
    assert sample_vector(SampleConfig(1, 5, 1), 0) == []


def test_sample_deterministic():
    cfg = SampleConfig(seed=7, height=5, rounds=3)
    assert sample_vector(cfg, 6, 1) == sample_vector(cfg, 6, 1)


def test_sample_rounds_differ_statistically():
    # different round indices give independent samples; collisions over 100
    # seeds should be rare for dimension 6, height 5
    collisions = 0
    for seed in range(100):
        cfg = SampleConfig(seed=seed, height=5, rounds=3)
        if sample_vector(cfg, 6, 1) == sample_vector(cfg, 6, 2):
            collisions += 1
    assert collisions <= 2


def test_sample_height_bound():
    cfg = SampleConfig(seed=3, height=2, rounds=1)
    v = sample_vector(cfg, 50, 0)
    assert all(-2 <= x <= 2 for x in v)
