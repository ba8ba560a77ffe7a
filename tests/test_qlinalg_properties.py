"""Property tests of the exact kernels on both sides of _BAREISS_CUTOFF.

Matrices are products A*B of random factors, so their rank is controlled and
their kernels are nontrivial.  Entries are integers, or rationals with
denominators in {1, 2, 4} (the denominators of the spin modules).  The
integer coordinates of `Basis`, rational reconstruction, the int64 guards of
the modular path and its exact verification have their own tests below, and
so do tall sparse integer systems on both sides of the sparsity selection,
and the peeling of singleton rows on systems with planted singleton chains.
`rank` is checked to compute no kernel, and `solve_right` against the
three-elimination route on the greedy independent columns, kept here as a
reference.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coadjoint import qlinalg
from coadjoint.qlinalg import (
    _BAREISS_CUTOFF,
    _PRIMES,
    Basis,
    QMatrix,
    _certified_kernel,
    _dixon_solve,
    _int_rows,
    _kernel_exact_small,
    _rational_reconstruct,
    _reconstruct_columns,
    SampleConfig,
    inverse,
    kernel_basis,
    peel,
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
@given(seed=st.integers(0, 2 ** 32), rows=st.integers(1, 9),
       cols=st.integers(1, 12), deficient=st.booleans(), sparse=st.booleans(),
       divisible=st.booleans(), drop=st.booleans())
def test_rank_of_integers_above_64_bits(seed, rows, cols, deficient, sparse,
                                        divisible, drop):
    """The rank of integer rows with entries above 2^64, full-rank or
    deficient, dense or sparse, is the exact one: also when every entry is
    divisible by the first prime, or when one row is another plus p e_c, so
    that the rank mod p falls short of the rank over Q."""
    rng = random.Random(seed)
    p = _PRIMES[0]

    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, 2 ** 70)

    data = []
    for _ in range(rows):
        support = (rng.sample(range(cols), min(cols, rng.randint(1, 2)))
                   if sparse else range(cols))
        data.append({c: entry() for c in support})
    if deficient:   # the sum of two rows, or a multiple of one
        a, b = rng.choice(data), rng.choice(data)
        data.append({c: a.get(c, 0) + b.get(c, 0) for c in {*a, *b}})
    if drop:
        c = rng.randrange(cols)
        row = dict(rng.choice(data))
        row[c] = row.get(c, 0) + p
        data.append(row)
    if divisible:
        data = [{c: p * x for c, x in row.items()} for row in data]
    data = [{c: x for c, x in row.items() if x} for row in data]
    dense = [qlinalg._dense(row, cols) for row in data]
    want = len(Basis(dense))
    assert rank(qlinalg.IntRows(cols, data)) == want
    assert rank(QMatrix(len(dense), cols, dense)) == want
    if divisible:
        assert len(qlinalg._sparse_echelon(
            _int_rows(QMatrix(len(dense), cols, dense)), cols, p)[0]) == 0


def test_rank_computes_no_kernel(monkeypatch):
    """Wide systems, sparse and dense, full row rank and deficient, are
    ranked without the p-adic kernel route, and so is the faithfulness of
    so14 on phi7 + 2 phi1 (a 91 x 8464 system of full row rank)."""
    from coadjoint.liealg import classical_algebra
    from coadjoint.repn import build_module
    from coadjoint.semidirect import semidirect

    def refuse(*args):
        raise AssertionError("rank computed a kernel")

    monkeypatch.setattr(qlinalg, "_dixon_solve", refuse)
    monkeypatch.setattr(qlinalg, "_certified_kernel", refuse)
    rng = random.Random(30)
    sparse = [{i: 1, rng.randrange(20, 300): rng.randint(-3, 3) or 1}
              for i in range(20)]
    dense = [{c: rng.randint(-5, 5) or 1 for c in range(200)}
             for _ in range(30)]
    deficient = dense + [{c: 2 * x for c, x in dense[0].items()}]
    for rows, nc, want in [(sparse, 300, 20), (dense, 200, 30),
                           (deficient, 200, 30)]:
        assert nc > _BAREISS_CUTOFF
        assert len(Basis([qlinalg._dense(r, nc) for r in rows])) == want
        assert rank(qlinalg.IntRows(nc, rows)) == want
        assert rank(QMatrix(len(rows), nc, [
            [Fraction(r.get(c, 0)) for c in range(nc)] for r in rows])) == want
    L = classical_algebra("so", 14)
    S = semidirect(L, build_module("so", 14, [("phi7", 1), ("phi1", 2)], L=L))
    assert S.faithful


def _solve_by_columns(m, b):
    """solve_right as it read before one elimination of [M | b]: a `Basis`
    of the columns for the greedy independent ones, a second of those
    columns, and its coordinates of b."""
    cols = [list(c) for c in zip(*m.data)]
    accepted = Basis(cols).accepted
    coords = Basis([cols[j] for j in accepted]).coords(
        [Fraction(x) for x in b])
    if coords is None:
        return None
    x = [Fraction(0)] * m.cols
    for j, c in zip(accepted, coords):
        x[j] = c
    return x


@SMALL
@given(seed=st.integers(0, 2 ** 32), rows=st.integers(0, 10),
       cols=st.integers(1, 10), rnk=st.integers(0, 10),
       rational=st.booleans(),
       kind=st.sampled_from(["consistent", "any", "inconsistent"]))
def test_solve_right_matches_the_column_reference(seed, rows, cols, rnk,
                                                  rational, kind):
    """Consistent systems b = M x0, arbitrary right-hand sides (mostly
    inconsistent when M is rank-deficient), systems made inconsistent by a
    zero row with b = 1 there, and the 0-row case: the solution is the
    reference's, entry for entry, and solves M x = b."""
    m = _matrix(seed, rows, cols, min(rnk, rows, cols), rational)
    rng = random.Random(seed)
    if kind == "consistent":
        x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
              for _ in range(cols)]
        b = m.matvec(x0)
    else:
        b = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rows)]
    if kind == "inconsistent":
        t = rng.randrange(rows + 1)
        m = _with_zero_rows(m, [t])
        b.insert(t, Fraction(1))
    x = solve_right(m, b)
    assert x == _solve_by_columns(m, b)
    if kind == "consistent" or m.rows == 0:
        assert x is not None
    if kind == "inconsistent":
        assert x is None
    if x is not None:
        assert m.matvec(x) == b


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


@SMALL
@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.integers(1, 10))
def test_integer_coords_with_mixed_denominators(seed, k, extra):
    rng = random.Random(seed)
    n = k + extra

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    vecs = [[q() for _ in range(n)] for _ in range(k)]
    span = Basis(vecs)
    if len(span) < k:
        with pytest.raises(ValueError):
            span.coords(vecs[0])
        return
    c = [q() for _ in range(k)]
    v = [sum((a * x[j] for a, x in zip(c, vecs)), Fraction(0))
         for j in range(n)]
    got = span.coords(v)
    assert got == c
    assert [sum((a * x[j] for a, x in zip(got, vecs)), Fraction(0))
            for j in range(n)] == v
    # integer entries give the same coordinates as their Fractions
    scale = math.lcm(*(x.denominator for x in v))
    assert span.coords([int(x * scale) for x in v]) == [a * scale for a in c]
    # off the span, whatever the denominators
    j = span.complement()[rng.randrange(n - k)]
    off = list(v)
    off[j] += Fraction(1, rng.randint(1, 12))
    assert span.coords(off) is None


def _rref_reference(vectors):
    """(rows, pivots, accepted) of the reduced echelon form, by Gauss-Jordan
    over Fraction, one input vector at a time."""
    red, piv, accepted = [], [], []
    for t, vec in enumerate(vectors):
        row = list(vec)
        for p, rr in zip(piv, red):
            row = [a - row[p] * b for a, b in zip(row, rr)]
        nz = next((c for c, a in enumerate(row) if a), None)
        if nz is None:
            continue
        row = [a / row[nz] for a in row]
        red = [[a - rr[nz] * b for a, b in zip(rr, row)] for rr in red]
        red.append(row)
        piv.append(nz)
        accepted.append(t)
    order = sorted(range(len(piv)), key=piv.__getitem__)
    return [red[t] for t in order], [piv[t] for t in order], accepted


@SMALL
@given(_shapes(1, 12))
def test_integer_echelon_is_the_reduced_echelon_form(shape):
    seed, rows, cols, rnk, rational = shape
    m = _matrix(seed, rows, cols, min(rnk, rows, cols), rational)
    rng = random.Random(seed)
    vecs = [[x / rng.randint(1, 9) for x in row] for row in m.data]
    span = Basis(vecs)
    assert (span.rows, span.pivots, span.accepted) == _rref_reference(vecs)


@SMALL
@given(_shapes(1, 12), st.integers(1, 10 ** 6))
def test_basis_matches_gauss_jordan_within_the_hadamard_bound(shape, height):
    seed, rows, cols, rnk, rational = shape
    m = _matrix(seed, rows, cols, min(rnk, rows, cols), rational)
    rng = random.Random(seed)
    # large entries, integer and rational rows mixed, dependent rows included
    vecs = [[x * height for x in row] if t % 3 else
            [Fraction(x * rng.randint(-9, 9), rng.randint(1, 9)) for x in row]
            for t, row in enumerate(m.data)]
    vecs = [[int(x) if x.denominator == 1 and t % 2 else x for x in row]
            for t, row in enumerate(vecs)]
    ref_rows, ref_pivots, ref_accepted = _rref_reference(vecs)
    ref_complement = [c for c in range(cols) if c not in ref_pivots]
    span = Basis(vecs)

    def forward():
        return len(span), span.accepted, span.pivots, span.complement()

    expected = (len(ref_rows), ref_accepted, ref_pivots, ref_complement)
    assert forward() == expected
    assert span.rows == ref_rows
    assert forward() == expected
    # every stored integer row is bounded by the minors of the cleared input
    bound = 1
    for row in vecs:
        d = math.lcm(*(x.denominator for x in row))
        bound *= max(1, sum(int(x * d) ** 2 for x in row))
    assert all(x * x <= bound for row in span.echelon for x in row)
    # coords: unique on independent inputs, refused on dependent ones
    c = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in ref_accepted]
    sub = [vecs[t] for t in ref_accepted]
    v = [sum((a * x[j] for a, x in zip(c, sub)), Fraction(0))
         for j in range(cols)]
    assert Basis(sub).coords(v) == c
    if ref_complement:
        off = list(v)
        off[ref_complement[0]] += 1
        assert Basis(sub).coords(off) is None
    if len(ref_accepted) < rows:
        with pytest.raises(ValueError):
            span.coords(v)
    else:
        assert span.coords(v) == c


def _reconstructions(m):
    """Every (a, b) with |a|, b <= sqrt(m/2), gcd(a, b) = gcd(b, m) = 1, by
    residue a/b mod m."""
    bound = math.isqrt(m // 2)
    out = {}
    for b in range(1, bound + 1):
        if math.gcd(b, m) == 1:
            inv = pow(b, -1, m)
            for a in range(-bound, bound + 1):
                if math.gcd(a, b) == 1:
                    out.setdefault(a * inv % m, set()).add((a, b))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 600))
def test_rational_reconstruct_agrees_with_search(m):
    sols = _reconstructions(m)
    for u in range(m):
        got = _rational_reconstruct(u, m)
        if got is None:
            assert u not in sols        # no solution within the bound
        else:
            assert got in sols[u]


def test_rational_reconstruct_edges():
    p = _PRIMES[0]
    m = p ** 2
    bound = math.isqrt(m // 2)
    assert _rational_reconstruct(0, m) == (0, 1)
    assert _rational_reconstruct(m - 3, m) == (-3, 1)
    assert _rational_reconstruct(-3 * pow(7, -1, m) % m, m) == (-3, 7)
    # at the size bound, and one past it: a/b with a > bound is not returned
    u = bound * pow(bound - 1, -1, m) % m
    assert _rational_reconstruct(u, m) == (bound, bound - 1)
    u = (bound + 1) * pow(bound, -1, m) % m
    assert _rational_reconstruct(u, m) != (bound + 1, bound)
    # m = 2 k^2, where the bound is exactly sqrt(m / 2)
    for u in range(2 * 7 ** 2):
        got = _rational_reconstruct(u, 2 * 7 ** 2)
        assert got is None or (got[0] - got[1] * u) % (2 * 7 ** 2) == 0


def _columns_one_euclid_each(columns, mod):
    """_reconstruct_columns as it read before the running-denominator fast
    path: one _rational_reconstruct per entry."""
    out = []
    for col in columns:
        fracs = [_rational_reconstruct(u, mod) for u in col]
        if None in fracs:
            return None
        d = math.lcm(1, *(b for _, b in fracs))
        out.append((d, [a * (d // b) for a, b in fracs]))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 12),
       st.sampled_from([1, 2, 3]))
def test_reconstruct_columns_matches_one_euclid_per_entry(seed, ncols, nrows,
                                                          digits):
    """Shared and unrelated denominators, values near and past the bound,
    and residues with no reconstruction all give the per-entry answer."""
    rng = random.Random(seed)
    p = _PRIMES[seed % len(_PRIMES)]
    mod = p ** digits
    bound = math.isqrt(mod // 2)
    columns = []
    for _ in range(ncols):
        shared = rng.randint(1, max(1, math.isqrt(bound)))
        col = []
        for _ in range(nrows):
            kind = rng.random()
            if kind < 0.1:
                col.append(rng.randrange(mod))          # usually no fraction
                continue
            b = shared if kind < 0.6 else rng.randint(1, bound)
            b += b % p == 0                             # a unit mod p
            a = rng.randint(-bound, bound)
            if kind > 0.9:
                a = rng.choice([-bound, bound, bound + 1])
            col.append(a * pow(b, -1, mod) % mod)
        columns.append(col)
    assert _reconstruct_columns(columns, mod) == \
        _columns_one_euclid_each(columns, mod)


def _guarded_matrix(seed, n, big):
    """An n x n integer matrix of rank n - 3 whose largest entry is `big`."""
    rng = random.Random(seed)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 3)]
    rows[0][1] = big
    rows += [[a + b for a, b in zip(rows[t], rows[t + 1])] for t in range(3)]
    return rows


@pytest.mark.parametrize("side", [-1, 1])
def test_kernel_at_the_int64_guard(side):
    n = _BAREISS_CUTOFF + 2
    # _certified_kernel takes the modular path iff n * amax * p < 2**62
    guard = (2 ** 62 - 1) // (n * _PRIMES[0])
    big = guard if side < 0 else guard + 1
    rows = _guarded_matrix(5, n, big)
    m = QMatrix.from_rows(rows)
    assert (_certified_kernel(_int_rows(m), n) is None) == (side > 0)
    small = _kernel_exact_small(_int_rows(m), n)
    assert kernel_basis(m) == small
    assert rank(m) == len(Basis(rows)) == n - len(small)


@pytest.mark.parametrize("side", [-1, 1])
def test_dixon_solve_at_its_int64_guard(side):
    p = _PRIMES[0]
    n = 6
    guard = (2 ** 62 - 1) // (n * p)
    rng = random.Random(11)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        A[i][i] = 10          # diagonally dominant, so invertible mod p
    A[0][1] = guard if side < 0 else guard + 1
    b = [[rng.randint(-3, 3)] for _ in range(n)]
    pivots, rows, solve = qlinalg._dense_echelon(np.array(A, np.int64), p)
    assert pivots == list(range(n))
    A_rows = [{c: x for c, x in enumerate(A[i]) if x} for i in rows]
    candidates = list(_dixon_solve(A_rows, np.array([b[i] for i in rows],
                                                    dtype=np.int64), p, solve))
    if side > 0:
        assert candidates == []
        return
    d, w = candidates[-1][0]
    assert all(sum(a * x for a, x in zip(row, w)) == d * rhs[0]
               for row, rhs in zip(A, b))


@pytest.mark.parametrize("corrupt_every", [True, False])
def test_a_corrupted_lift_never_reaches_the_kernel(monkeypatch, corrupt_every):
    n = _BAREISS_CUTOFF + 4
    m = _matrix(3, n, n, n - 5, True)
    expected = _kernel_exact_small(_int_rows(m), n)
    lift = qlinalg._dixon_solve
    seen = []

    def corrupted(*args):
        for t, candidate in enumerate(lift(*args)):
            seen.append(t)
            if corrupt_every or t == 0:
                (d, w), *rest = candidate
                candidate = [(d, [w[0] + 1] + w[1:])] + rest
            yield candidate

    monkeypatch.setattr(qlinalg, "_dixon_solve", corrupted)
    assert kernel_basis(m) == expected
    assert rank(m) == n - len(expected)
    assert seen    # the lift ran and its candidates were checked


def _tall_system(seed, nc, k, weight, divisible):
    """Integer rows B C, with about 2 nc rows and rank at most nc - k: each
    row of C is e_s + c e_t, each row of B has `weight` nonzeros, so a row
    of B C has at most 2 weight.  With `divisible`, some rows (all, when
    it is 2) are multiplied by the first prime, and with 1 some single
    entries too."""
    rng = random.Random(seed)
    m = nc - k
    C = [{s: 1} for s in rng.sample(range(nc), m)]
    for row in C:
        t = rng.randrange(nc)
        row[t] = row.get(t, 0) + rng.choice((-2, -1, 1, 2))
    rows = []
    for _ in range(2 * nc):
        acc = {}
        for i in rng.sample(range(m), min(weight, m)) if m else ():
            f = rng.choice((-3, -2, -1, 1, 2, 3))
            for c, x in C[i].items():
                acc[c] = acc.get(c, 0) + f * x
        row = {c: x for c, x in acc.items() if x}
        if divisible == 2 or (divisible and rng.random() < 0.3):
            row = {c: x * _PRIMES[0] for c, x in row.items()}
        elif divisible and row and rng.random() < 0.3:
            # one entry that vanishes mod p: the modular pivots then differ
            # from those of the reduced echelon form over Q
            c = rng.choice(sorted(row))
            row[c] *= _PRIMES[0]
        rows.append(row)
    return rows


@pytest.mark.parametrize("size", [(5, 14), (_BAREISS_CUTOFF // 2 + 1,
                                           _BAREISS_CUTOFF - 10),
                                  (_BAREISS_CUTOFF + 1, _BAREISS_CUTOFF + 10)])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 4),
       weight=st.sampled_from([1, 2, 3, 4]), divisible=st.sampled_from([0, 1, 2]),
       data=st.data())
def test_sparse_path_matches_exact_elimination(size, seed, k, weight,
                                               divisible, data):
    """Weights 1 and 2 give at most 4 nonzeros per row, the sparse side of
    the selection; 3 and 4 mostly the dense side.  With 2 nc rows, the middle
    sizes take the sparse path with fewer columns than _BAREISS_CUTOFF, the
    smallest go to exact elimination."""
    nc = data.draw(st.integers(*size))
    rows = _tall_system(seed, nc, min(k, nc - 1), weight, divisible)
    exact = _kernel_exact_small(rows, nc)
    fast = _certified_kernel([r for r in rows if r], nc)
    if fast is not None:
        assert Basis(fast).rows == Basis(exact).rows
    m = qlinalg.IntRows(nc, rows)
    assert kernel_basis(m) == exact
    assert rank(m) == nc - len(exact)
    dense = QMatrix(len(rows), nc, [[Fraction(r.get(c, 0)) for c in range(nc)]
                                    for r in rows])
    assert kernel_basis(dense) == exact and rank(dense) == nc - len(exact)


def test_sparse_selection_follows_the_row_weight(monkeypatch):
    calls = []
    echelon = qlinalg._sparse_echelon
    monkeypatch.setattr(qlinalg, "_sparse_echelon",
                        lambda *a: calls.append(1) or echelon(*a))
    weight = qlinalg._SPARSE_ROW_WEIGHT
    tiny = _tall_system(1, 8, 2, 1, 0)
    tall = _tall_system(1, 40, 2, 1, 0)
    heavy = _tall_system(1, _BAREISS_CUTOFF + 2, 2, 4, 0)
    assert sum(map(len, tall)) <= weight * len(tall)
    assert sum(map(len, heavy)) > weight * len(heavy)
    for rows, nc, sparse in [(tiny, 8, False), (tall, 40, True),
                             (heavy, _BAREISS_CUTOFF + 2, False)]:
        calls.clear()
        assert len(kernel_basis(qlinalg.IntRows(nc, rows))) >= 2
        assert bool(calls) == sparse


@pytest.mark.parametrize("sparse", [True, False])
def test_normal_form_when_the_modular_pivots_differ(sparse):
    """Column 0 vanishes mod p, so the modular pivots skip it, while over Q
    it is the first pivot: the kernel still comes in the normal form of the
    reduced echelon form."""
    p = _PRIMES[0]
    if sparse:
        rows = [{2 * j: p, 2 * j + 1: 1} for j in range(_BAREISS_CUTOFF)]
        first = kernel_basis(qlinalg.IntRows(2 * _BAREISS_CUTOFF, rows))[0]
        assert first[:2] == [Fraction(-1, p), 1] and not any(first[2:])
    else:
        n = _BAREISS_CUTOFF + 3
        rows = [{c: x for c, x in enumerate(r) if x}
                for r in _guarded_matrix(2, n, 3)]
        for r in rows:
            r[0] = r.get(0, 1) * p
    n = max(max(r) for r in rows) + 1
    m = qlinalg.IntRows(n, rows)
    assert kernel_basis(m) == _kernel_exact_small(rows, n)
    assert rank(m) == n - len(_kernel_exact_small(rows, n))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), nc=st.integers(1, 30),
       k=st.integers(0, 4), weight=st.sampled_from([1, 2, 4]))
def test_pivot_rows_are_nonsingular_mod_p(seed, nc, k, weight):
    """Both modular eliminations return input rows that are nonsingular mod p
    on the pivot columns, and a solve that inverts that block."""
    p = _PRIMES[0]
    rows = [r for r in _tall_system(seed, nc, min(k, nc - 1), weight, 0) if r]
    if not rows:
        return
    an = np.array([qlinalg._dense(r, nc) for r in rows])
    sparse = qlinalg._sparse_echelon(rows, nc, p)
    dense = qlinalg._dense_echelon(an, p)
    assert len(sparse[0]) == len(dense[0])
    rng = random.Random(seed)
    R = np.array([[rng.randrange(p) for _ in range(2)] for _ in sparse[0]],
                 dtype=np.int64).reshape(len(sparse[0]), 2)
    for piv, rr, solve in (sparse, dense):
        assert len(piv) == len(rr) == len(set(rr))
        sub = an[np.ix_(rr, piv)]
        assert not np.mod(sub @ solve(R) - R, p).any()


@pytest.mark.parametrize("sparse", [True, False])
def test_rank_deficient_mod_p_is_answered_exactly(sparse):
    """Rows r and r + p e_c are independent over Q but not mod p, so the
    first prime finds too few pivots and its lifted vectors fail the check
    over Z."""
    p = _PRIMES[0]
    n = _BAREISS_CUTOFF + 6
    rng = random.Random(4)
    rows = []
    for j in range(0, n - 4, 2):
        r = ({j: 1, j + 1: rng.randint(1, 3)} if sparse else
             {c: rng.randint(-3, 3) for c in range(n)})
        rows += [r, {**r, j: r.get(j, 0) + p}]
    rows = [{c: x for c, x in r.items() if x} for r in rows]
    exact = _kernel_exact_small(rows, n)
    if sparse:
        pivots = qlinalg._sparse_echelon(rows, n, p)[0]
    else:
        dense = np.array([qlinalg._dense(r, n) for r in rows])
        pivots = qlinalg._mod_echelon(dense, p)[0]
    assert len(pivots) < n - len(exact)
    m = qlinalg.IntRows(n, rows)
    assert kernel_basis(m) == exact
    assert rank(m) == n - len(exact)


@pytest.mark.parametrize("corrupt_every", [True, False])
def test_a_corrupted_sparse_lift_never_reaches_the_kernel(monkeypatch,
                                                          corrupt_every):
    nc = _BAREISS_CUTOFF + 4
    rows = _tall_system(7, nc, 3, 1, 1)
    assert sum(map(len, rows)) <= qlinalg._SPARSE_ROW_WEIGHT * len(rows)
    expected = _kernel_exact_small(rows, nc)
    assert expected
    lift = qlinalg._dixon_solve
    seen = []

    def corrupted(*args):
        for t, candidate in enumerate(lift(*args)):
            seen.append(t)
            if corrupt_every or t == 0:
                (d, w), *rest = candidate
                candidate = [(d, [w[0] + 1] + w[1:])] + rest
            yield candidate

    monkeypatch.setattr(qlinalg, "_dixon_solve", corrupted)
    m = qlinalg.IntRows(nc, rows)
    assert kernel_basis(m) == expected
    assert rank(m) == nc - len(expected)
    assert seen


def _peelable_system(seed, nc, chain, leftover, rnk):
    """Integer rows in nc columns, shuffled: a planted chain of `chain`
    columns, each killed by a row that is nonzero on it and otherwise only
    on the columns killed before it, then `leftover` dense rows of rank at
    most rnk on the other columns, each also holding a few entries on the
    chain's columns.  Returns (rows, the chain's columns)."""
    rng = random.Random(seed)
    order = rng.sample(range(nc), nc)
    dead, rest = order[:chain], order[chain:]
    rows = []
    for t, c in enumerate(dead):
        row = {c: rng.choice((-3, -2, -1, 1, 2, 3))}
        for e in rng.sample(dead[:t], min(t, rng.randrange(3))):
            row[e] = rng.randint(-4, 4) or 1
        rows.append(row)
    factors = [{c: rng.randint(-2, 2) for c in rest} for _ in range(rnk)]
    for _ in range(leftover):
        acc = {}
        for f in factors:
            a = rng.randint(-2, 2)
            for c, x in f.items():
                acc[c] = acc.get(c, 0) + a * x
        for e in rng.sample(dead, min(len(dead), rng.randrange(3))):
            acc[e] = acc.get(e, 0) + rng.randint(-3, 3)
        rows.append({c: x for c, x in acc.items() if x})
    rng.shuffle(rows)
    return [r for r in rows if r], dead


def _renumbered(kept, dead):
    """(live, core): the columns that dead leaves alive, increasing, and the
    rows that peel kept renumbered onto them, as IntRows."""
    live = [c for c in range(len(dead)) if not dead[c]]
    at = {c: t for t, c in enumerate(live)}
    return live, qlinalg.IntRows(
        len(live), [{at[c]: x for c, x in r.items()} for r in kept])


def _embedded_kernel(live, core, nc):
    """kernel_basis of core, with 0 at the columns outside live."""
    embedded = []
    for v in kernel_basis(core):
        x = [Fraction(0)] * nc
        for c, a in zip(live, v):
            x[c] = a
        embedded.append(x)
    return embedded


@pytest.mark.parametrize("size", [(2, 14), (_BAREISS_CUTOFF + 1,
                                            _BAREISS_CUTOFF + 12)])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_peeled_core_has_the_kernel_and_rank_of_the_system(size, seed, data):
    """The core's kernel, with 0 at the dead columns, is kernel_basis of the
    whole system in values and entry types, rank is #dead + rank(core), the
    planted chain is dead, and no core row is left with one live column or
    a dead entry.  The rows are handed over as an iterator of copies, read
    once, since peel deletes dead entries in place.  The larger systems
    take the modular path whole, while their cores may not."""
    nc = data.draw(st.integers(*size))
    chain = data.draw(st.integers(0, nc))
    leftover = data.draw(st.integers(0, nc))
    rnk = data.draw(st.integers(0, nc - chain))
    rows, planted = _peelable_system(seed, nc, chain, leftover, rnk)
    dead = bytearray(nc)
    kept = peel((dict(r) for r in rows), dead)
    assert all(len(r) >= 2 and all(x for x in r.values())
               and not any(dead[c] for c in r) for r in kept)
    live, core = _renumbered(kept, dead)
    assert live == sorted(live) and not set(planted) & set(live)
    assert core.cols == len(live)
    embedded = _embedded_kernel(live, core, nc)
    whole = kernel_basis(qlinalg.IntRows(nc, rows))
    assert embedded == whole
    assert [list(map(type, v)) for v in embedded] == [
        list(map(type, v)) for v in whole]
    assert rank(qlinalg.IntRows(nc, rows)) == nc - len(live) + rank(core)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_peeling_in_two_batches_on_one_mask_is_one_peel(seed, data):
    """Rows peeled in two batches on one mask, the first batch's survivors
    chained into the second, leave the same dead columns and the same
    embedded kernel as one peel of all the rows, and every row returned is
    one of the caller's own dicts."""
    nc = data.draw(st.integers(2, 14))
    chain = data.draw(st.integers(0, nc))
    rows, _ = _peelable_system(seed, nc, chain, data.draw(st.integers(0, nc)),
                               data.draw(st.integers(0, nc - chain)))
    cut = data.draw(st.integers(0, len(rows)))
    once = bytearray(nc)
    whole = peel([dict(r) for r in rows], once)
    twice = bytearray(nc)
    first = [dict(r) for r in rows[:cut]]
    second = [dict(r) for r in rows[cut:]]
    kept = peel(iter(first), twice)
    assert all(any(r is f for f in first) for r in kept)
    kept = peel(itertools.chain(kept, second), twice)
    assert all(any(r is f for f in first + second) for r in kept)
    assert twice == once
    assert (_embedded_kernel(*_renumbered(kept, twice), nc)
            == _embedded_kernel(*_renumbered(whole, once), nc)
            == kernel_basis(qlinalg.IntRows(nc, rows)))


def test_peel_follows_a_chain_to_the_end():
    """x_0 = 0 from the singleton row, then x_1 from the row on (0, 1), and
    so on: every column dies, and nothing is left for elimination; a row on
    two columns that no singleton reaches keeps both, and comes back as the
    caller's own dict.  On a mask that an earlier peel filled, a row loses
    its dead entries even when nothing more dies."""
    rows = [{t - 1: 5, t: -2} for t in range(1, 6)] + [{0: 3}]
    dead = bytearray(6)
    kept = peel(rows, dead)
    live, core = _renumbered(kept, dead)
    assert live == [] and core.cols == 0 and core.data == []
    pair = {0: 1, 1: 1}
    dead = bytearray(3)
    kept = peel([pair, {2: 7}], dead)
    live, core = _renumbered(kept, dead)
    assert live == [0, 1] and core.data == [{0: 1, 1: 1}] and kept[0] is pair
    row = {0: 4, 1: 1, 2: -1}
    assert peel([row], dead) == [{0: 4, 1: 1}] and list(dead) == [0, 0, 1]


# --- ranks mod p of alternating matrices (sampled Kirillov forms) ----------

def _alternating(seed, n, half, p, height):
    """An n x n matrix alternating mod p of rank exactly 2 half: X J X^T,
    J the standard symplectic 2 half x 2 half form and X = [I; R] with its
    rows permuted, of full column rank, plus p times a matrix with entries
    up to height in absolute value, so that the input is not reduced."""
    rng = np.random.default_rng(seed)
    k = 2 * half
    X = np.concatenate([np.eye(k, dtype=np.int64),
                        rng.integers(0, p, (n - k, k))])[rng.permutation(n)]
    J = np.zeros((k, k), np.int64)
    J[:half, half:], J[half:, :half] = np.eye(half), -np.eye(half)
    a = (X @ J % p) @ X.T % p
    return a + p * rng.integers(-(height // p), height // p + 1, (n, n))


ALTERNATING_SIZES = [0, 1, 2, 5, 8, _BAREISS_CUTOFF - 1, _BAREISS_CUTOFF,
                     _BAREISS_CUTOFF + 1, _BAREISS_CUTOFF + 16]


@pytest.mark.parametrize("n", ALTERNATING_SIZES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_alternating_rank_is_the_planted_rank_and_the_echelon_rank(n, seed,
                                                                   data):
    """On an alternating matrix of planted rank 2h (h = 0 makes every entry
    0 mod p), with input entries up to 2^40 in absolute value, the rank
    mod p is 2h by the alternating kernel, by `rank` and by `_mod_echelon`;
    p = 2 is included, where alternating is symmetric with zero
    diagonal."""
    p = data.draw(st.sampled_from([2, 3, 7, _PRIMES[0], _PRIMES[-1]]))
    half = data.draw(st.integers(0, n // 2))
    height = data.draw(st.sampled_from([0, 2 ** 20, 2 ** 40]))
    a = _alternating(seed, n, half, p, height)
    assert np.abs(a).max(initial=0) <= height + p
    assert not ((a + a.T) % p).any() and not (a.diagonal() % p).any()
    before = a.copy()
    assert qlinalg._alternating_rank(a, p) == 2 * half
    assert rank(qlinalg.ModMatrix(a, p)) == 2 * half
    assert len(qlinalg._mod_echelon(a, p)[0]) == 2 * half
    assert (a == before).all()


@pytest.mark.parametrize("n", [1, 2, 5, _BAREISS_CUTOFF + 1])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_a_matrix_mod_p_that_is_not_alternating_is_ranked_by_echelon(n, seed,
                                                                     data):
    """One entry off an alternating matrix (on the diagonal, or off it
    without its mirror), and an alternating matrix less a column, are
    ranked by `_mod_echelon` and never reach the alternating kernel."""
    p = data.draw(st.sampled_from([2, 3, _PRIMES[0]]))
    a = _alternating(seed, n, data.draw(st.integers(0, n // 2)), p, 2 ** 40)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    off = a.copy()
    off[i, j] += 1
    with mock.patch.object(qlinalg, "_alternating_rank",
                           side_effect=AssertionError("not alternating")):
        for b in (off, a[:, 1:]):
            assert rank(qlinalg.ModMatrix(b, p)) == len(
                qlinalg._mod_echelon(b, p)[0])
