"""Property tests of the exact kernels on both sides of _BAREISS_CUTOFF.

Matrices are products A*B of random factors, so their rank is controlled and
their kernels are nontrivial.  Entries are integers, or rationals with
denominators in {1, 2, 4} (the denominators of the spin modules).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coadjoint.qlinalg import (
    _BAREISS_CUTOFF,
    Basis,
    QMatrix,
    _int_rows,
    _kernel_exact_small,
    SampleConfig,
    inverse,
    kernel_basis,
    rank,
    sample_rounds,
    sample_vector,
    solve_right,
)

SMALL = settings(max_examples=40, deadline=None, derandomize=True)
LARGE = settings(max_examples=3, deadline=None, derandomize=True)


def _matrix(seed, rows, cols, rnk, rational):
    rng = random.Random(seed)
    dens = (1, 2, 4) if rational else (1,)
    A = [[rng.randint(-3, 3) for _ in range(rnk)] for _ in range(rows)]
    B = [[Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(cols)]
         for _ in range(rnk)]
    data = [[sum((a * B[k][c] for k, a in enumerate(row)), Fraction(0))
             for c in range(cols)] for row in A]
    return QMatrix(rows, cols, data)


def _with_zero_rows(m, positions):
    data = [row[:] for row in m.data]
    for p in positions:
        data.insert(p % (len(data) + 1), [Fraction(0)] * m.cols)
    return QMatrix(len(data), m.cols, data)


def _shapes(lo, hi):
    return st.tuples(st.integers(0, 2 ** 32), st.integers(lo, hi),
                     st.integers(lo, hi), st.integers(0, hi), st.booleans())


def _check_properties(seed, rows, cols, rnk, rational, positions):
    m = _matrix(seed, rows, cols, min(rnk, rows, cols), rational)
    ker = kernel_basis(m)
    r = rank(m)
    assert r + len(ker) == cols
    for v in ker:
        assert all(x == 0 for x in m.matvec(v))
    padded = _with_zero_rows(m, positions)
    assert kernel_basis(padded) == ker
    assert rank(padded) == r
    # the row [0 ... 0 | 1] makes M x = b inconsistent whatever b is
    b = [Fraction(i % 3 - 1) for i in range(rows)]
    inconsistent = _with_zero_rows(m, [rows])
    assert solve_right(inconsistent, b + [Fraction(1)]) is None
    # b = M * 1 is consistent
    b = [sum(row, Fraction(0)) for row in m.data]
    x = solve_right(m, b)
    assert x is not None and m.matvec(x) == b


@SMALL
@given(_shapes(1, 12), st.lists(st.integers(0, 100), max_size=4))
def test_small_kernel_properties(shape, positions):
    _check_properties(*shape, positions)


@LARGE
@given(_shapes(_BAREISS_CUTOFF + 1, _BAREISS_CUTOFF + 12),
       st.lists(st.integers(0, 100), min_size=1, max_size=3))
def test_large_kernel_properties(shape, positions):
    _check_properties(*shape, positions)


@LARGE
@given(_shapes(_BAREISS_CUTOFF + 1, _BAREISS_CUTOFF + 8))
def test_large_path_matches_bareiss(shape):
    seed, rows, cols, rnk, rational = shape
    m = _matrix(seed, rows, cols, min(rnk, rows, cols), rational)
    assert kernel_basis(m) == _kernel_exact_small(_int_rows(m), cols)


@SMALL
@given(_shapes(1, 12))
def test_basis_rank_and_coordinates(shape):
    seed, rows, cols, rnk, rational = shape
    m = _matrix(seed, rows, cols, min(rnk, rows, cols), rational)
    assert len(Basis(m.data)) == rank(m)
    vecs = [m.data[t] for t in Basis(m.data).accepted]
    span = Basis(vecs)
    rng = random.Random(seed)
    c = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))) for _ in vecs]
    v = [sum((a * x[j] for a, x in zip(c, vecs)), Fraction(0))
         for j in range(cols)]
    assert span.coords(v) == c
    for j in span.complement():
        e = [Fraction(int(i == j)) for i in range(cols)]
        assert rank(QMatrix(len(vecs) + 1, cols, vecs + [e])) == len(vecs) + 1
        assert span.coords(e) is None
    with pytest.raises(ValueError):
        Basis(vecs + [v]).coords(v)


@SMALL
@given(_shapes(1, 10))
def test_inverse_on_invertible_and_singular(shape):
    seed, n, _, rnk, rational = shape
    m = _matrix(seed, n, n, min(rnk, n), rational)
    if rank(m) == n:
        assert inverse(m) * m == QMatrix.identity(n)
    else:
        with pytest.raises(ZeroDivisionError):
            inverse(m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 6), k=st.integers(0, 6),
       m=st.integers(0, 6), density=st.sampled_from([0.3, 0.7, 1.0]))
def test_product_is_the_triple_sum(seed, n, k, m, density):
    rng = random.Random(seed)

    def sparse(rows, cols):
        return QMatrix(rows, cols, [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
             if rng.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)])

    A, B = sparse(n, k), sparse(k, m)
    if n and k:
        A.data[rng.randrange(n)] = [Fraction(0)] * k   # a zero row
    if k and m:
        j = rng.randrange(m)
        for row in B.data:                              # a zero column
            row[j] = Fraction(0)
    naive = [[sum((A.data[i][t] * B.data[t][j] for t in range(k)), Fraction(0))
              for j in range(m)] for i in range(n)]
    assert A * B == QMatrix(n, m, naive)
    assert A.entries() == {(i, j): a for i, row in enumerate(A.data)
                           for j, a in enumerate(row) if a != 0}


def test_sample_rounds_doubles_the_height():
    cfg = SampleConfig(seed=5, height=3, rounds=4)
    expected = [sample_vector(SampleConfig(5, 3 * 2 ** rnd, 4), 7, rnd, "t")
                for rnd in range(4)]
    assert list(sample_rounds(cfg, 7, "t")) == expected
