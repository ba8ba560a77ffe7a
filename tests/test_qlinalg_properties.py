"""Property tests of the exact kernels on both sides of _BAREISS_CUTOFF.

Matrices are products A*B of random factors, so their rank is controlled and
their kernels are nontrivial.  Entries are integers, or rationals with
denominators in {1, 2, 4} (the denominators of the spin modules).  The
integer coordinates of `Basis`, rational reconstruction, the int64 guards of
the modular path and its exact verification have their own tests below, and
so do tall sparse integer systems on both sides of the sparsity selection.
"""

import math
import random
from fractions import Fraction

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
    candidates = list(_dixon_solve(np.array(A, dtype=np.int64),
                                   np.array(b, dtype=np.int64), p))
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
    on the pivot columns; the sparse one also solves with them."""
    p = _PRIMES[0]
    rows = [r for r in _tall_system(seed, nc, min(k, nc - 1), weight, 0) if r]
    if not rows:
        return
    an = np.array([qlinalg._dense(r, nc) for r in rows])
    dense_pivots, dense_rows, _ = qlinalg._mod_echelon(an, p)
    pivots, chosen, solve = qlinalg._sparse_echelon(rows, nc, p)
    assert len(pivots) == len(dense_pivots) == len(chosen) == len(dense_rows)
    for piv, rr in [(pivots, chosen), (dense_pivots, dense_rows)]:
        assert len(set(rr)) == len(rr)
        sub = an[np.ix_(rr, piv)]
        assert qlinalg._inverse_mod(sub, p) is not None
    rng = random.Random(seed)
    R = np.array([[rng.randrange(p) for _ in range(2)] for _ in pivots],
                 dtype=np.int64).reshape(len(pivots), 2)
    sub = an[np.ix_(chosen, pivots)]
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
