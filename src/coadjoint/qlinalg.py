"""Exact rational linear algebra.

Scalars are exact rationals, `fractions.Fraction` (`QQ`).  Matrices are
dense lists of rows; products walk only the nonzero entries, and `entries()`
is the one conversion to a sparse {(i, j): value} dict.  A sparse integer
vector has one form here and throughout the package, an {index: int} dict;
`_common_denominator`, the one place that takes an lcm of denominators,
clears a list of {index: rational} dicts to that form.  Ranks and kernels
run on rows of {column: int}: `IntRows` is taken as it is, and a `QMatrix`
row is scaled by the lcm of its denominators (all-zero rows dropped), which
changes neither rank nor right kernel.
`rank` is one elimination mod the first prime by `_sparse_echelon`: the
rank mod p bounds the rank over Q from below, so min(rows, cols) there is
the answer, and any smaller count is decided by `Basis`.  `kernel_basis`
chooses its path from the input: rows of at most `_SPARSE_ROW_WEIGHT`
nonzeros on average are eliminated sparsely mod p, shortest row first, once
there are more than `_BAREISS_CUTOFF` rows or columns; denser ones by numpy
mod p once there are more of both; the rest, and what the modular paths
cannot settle, exactly by `Basis`.  A modular kernel is certified from both
sides (`_certified_kernel`): full column rank mod p proves it zero;
otherwise its vectors are lifted p-adically from the pivot rows and each is
checked over Z on every row.  `solve_right` is one `Basis` of [M | b].

`Basis` is the one echelon-and-coordinates routine: one forward elimination
on primitive integer rows settles the rank, the pivots and the greedy choice
of inputs; the reduced row echelon form over Q is back-substituted when
read, and other vectors are written in terms of the inputs, on integers too:
a vector's denominators are cleared once, it is read at the pivots of the
reduced rows, and the change of basis, stored over one common denominator,
takes it to the inputs.  Exact ranks and kernels, subalgebras, invariant
spaces, changes of basis, `inverse` and `solve_right` all go through it.
`UnitBasis` is the one coordinates reader: a basis that is 1 at its own unit
column and 0 at the others' (reduced rows at their pivots, stabilisers,
submodules) is read at its unit columns, with no elimination.  `peel` runs
before an elimination where most columns are forced to zero: a row with one
live column kills it, in a dead-column mask that the caller keeps across
peels, and the caller renumbers the live columns once.

`ModMatrix` is a matrix over F_p: sampled generic ranks are taken mod p at
points from `sample_mod_p`.  An alternating one (a Kirillov form) is ranked
by `_alternating_rank`, two pivots a step on a shrinking block; any other by
`_mod_echelon`.

Also hosts the deterministic integer-point sampler used to realise "generic"
points, with `sample_rounds`, the one height-doubling schedule of every
generic-point search; the stabiliser search of `semidirect` tries one point
more, made from round 0, before its rounds.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

QQ = Fraction
# Scalars never come from gmpy2; the constant stays for the environment
# record that perfbench/worker.py writes.
HAVE_GMPY2 = False

Q0 = QQ(0)
Q1 = QQ(1)

# Single word prime for modular prescreens; products p*p*nrows must fit int64.
_PRIMES = [46337, 46327, 46309, 46307, 46301, 46279, 46273, 46271]


class VerificationError(AssertionError):
    """An exact check failed.  Raised explicitly, so it survives `python -O`;
    an AssertionError, so existing handlers of failed checks still apply."""


def as_q(x):
    """Coerce ints and rationals to the canonical rational type."""
    if isinstance(x, int):
        return QQ(x)
    return QQ(x.numerator, x.denominator)


class QMatrix:
    """Dense matrix over Q.  Entries are exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Q0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError(f"data is not {rows} x {cols}")
            self.data = data

    @staticmethod
    def from_rows(rows_):
        rows_ = [[as_q(x) for x in r] for r in rows_]
        return QMatrix(len(rows_), len(rows_[0]) if rows_ else 0, rows_)

    @staticmethod
    def identity(n):
        m = QMatrix(n, n)
        for i in range(n):
            m.data[i][i] = Q1
        return m

    @staticmethod
    def zero(r, c):
        return QMatrix(r, c)

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, v):
        self.data[ij[0]][ij[1]] = as_q(v)

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __mul__(self, other):
        """The product, walking only the nonzero entries of both factors."""
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows} x {self.cols} by "
                             f"{other.rows} x {other.cols}")
        right = [{j: b for j, b in enumerate(row) if b} for row in other.data]
        out = []
        for row in self.data:
            acc = {}
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k].items():
                        acc[j] = acc.get(j, Q0) + a * b
            prod = [Q0] * other.cols
            for j, c in acc.items():
                if c:
                    prod[j] = c
            out.append(prod)
        return QMatrix(self.rows, other.cols, out)

    def _entrywise(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shapes {self.rows} x {self.cols} and "
                             f"{other.rows} x {other.cols} differ")
        return QMatrix(self.rows, self.cols, [list(map(op, r, s)) for r, s
                                              in zip(self.data, other.data)])

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def scale(self, c):
        c = as_q(c)
        return QMatrix(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def transpose(self):
        return QMatrix(self.cols, self.rows, [list(r) for r in zip(*self.data)])

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError(f"{len(v)} entries for {self.cols} columns")
        return [sum((a * b for a, b in zip(row, v)), Q0) for row in self.data]

    def entries(self):
        """The nonzero entries, as {(i, j): value}."""
        return {(i, j): a for i, row in enumerate(self.data)
                for j, a in enumerate(row) if a}

    def is_zero(self):
        return all(a == 0 for row in self.data for a in row)

    def is_antisymmetric(self):
        if self.rows != self.cols:
            return False
        d = self.data
        return all(
            d[i][j] == -d[j][i] for i in range(self.rows) for j in range(i, self.cols)
        )

    def __repr__(self):
        body = "\n".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.data)
        return f"QMatrix({self.rows}x{self.cols})\n{body}"


def _primitive(row):
    """An integer row divided by its content."""
    c = math.gcd(*row)
    return [a // c for a in row] if c > 1 else row


class IntRows:
    """An integer matrix by its rows, each a {column: nonzero int} dict."""

    def __init__(self, cols, data):
        self.rows, self.cols, self.data = len(data), cols, data


class ModMatrix:
    """A matrix over F_p: an int64 numpy array of residues, and p."""

    def __init__(self, a, p):
        self.a, self.p = a, p
        self.rows, self.cols = a.shape


def _nonzero(terms):
    """The entries of a sparse {index: value} dict that are not zero."""
    return {m: c for m, c in terms.items() if c}


def _int_vector(vec):
    """(D, the rational or integer vector times D as a new list of ints), D
    the lcm of its denominators: an all-int vector is copied as it is, any
    other goes through `_common_denominator`."""
    if set(map(type, vec)) <= {int}:
        return 1, list(vec)
    D, (row,) = _common_denominator([{c: x for c, x in enumerate(vec) if x}])
    return D, _dense(row, len(vec))


def _int_rows(m):
    """The nonzero rows of a QMatrix or IntRows m, as {column: int} dicts;
    scaling a row preserves rank and right kernel."""
    rows = m.data if isinstance(m, IntRows) else (
        {c: x for c, x in enumerate(_int_vector(r)[1]) if x} for r in m.data)
    return [row for row in rows if row]


def _dense(row, nc):
    out = [0] * nc
    for c, x in row.items():
        out[c] = x
    return out


def _mod_echelon(a, p):
    """Row reduce an int64 numpy matrix mod p into reduced row echelon form;
    returns (pivot_cols, pivot_rows, reduced).  A row becomes a pivot row as
    itself plus multiples of earlier pivot rows and later gains only
    multiples of pivot rows, so the input rows pivot_rows are independent
    mod p and nonsingular on the pivot columns.  Entries are reduced only
    where they are read (the pivot column and row) and at the end: each
    step adds less than p^2 to an entry."""
    a = np.mod(a, p)
    nr, nc = a.shape
    perm = list(range(nr))
    piv_r = 0
    pivots = []
    for pc in range(nc):
        nz = np.flatnonzero(a[piv_r:, pc] % p)
        if nz.size == 0:
            continue
        r = piv_r + int(nz[0])
        if r != piv_r:
            a[[piv_r, r]] = a[[r, piv_r]]
            perm[piv_r], perm[r] = perm[r], perm[piv_r]
        row = a[piv_r, pc:] % p
        row = row * pow(int(row[0]), -1, p) % p
        col = a[:, pc] % p
        col[piv_r] = 0
        a[:, pc:] -= np.outer(col, row)
        a[piv_r, pc:] = row
        pivots.append(pc)
        piv_r += 1
        if piv_r == nr:
            break
    return pivots, perm[:piv_r], np.mod(a, p)


def _alternating_rank(a, p):
    """The rank mod p of a square int64 numpy matrix that is alternating mod
    p (zero diagonal, a + a^T = 0), by skew-symmetric 2 x 2 pivoting (Bunch,
    Math. Comp. 38 (1982)).  While a leading block of size m remains: if its
    last row is zero, so is its last column, and both are dropped; otherwise
    the last nonzero entry a[m-1, j] is swapped to c = a[m-1, m-2], and the
    block's first m-2 rows and columns become the Schur complement of that
    invertible 2 x 2 pivot, A11 + (u v^T - v u^T) / c, u and v its pivot
    columns: alternating again, with rank 2 less.  Entries are reduced only
    where they are read: each step adds less than p^2 to an entry."""
    a = np.mod(a, p)
    m, r = len(a), 0
    while m > 1:
        nz = np.flatnonzero(a[m - 1, :m - 1] % p)
        if nz.size == 0:
            m -= 1
            continue
        j, k = int(nz[-1]), m - 2
        if j != k:
            a[[j, k], :m] = a[[k, j], :m]
            a[:m, [j, k]] = a[:m, [k, j]]
        u = a[:k, k] % p * pow(int(a[m - 1, k] % p), -1, p) % p
        t = np.outer(u, a[:k, m - 1] % p)
        a[:k, :k] += t - t.T
        m, r = k, r + 2
    return r


def _dense_echelon(an, p):
    """(pivot_cols, pivot_rows, solve) of the int64 numpy matrix an mod p,
    by `_mod_echelon`.  Its pivot block S = an[pivot_rows, pivot_cols] is
    nonsingular mod p, so the reduced form of [S | I] is [I | S^-1], and
    solve(R) is S^-1 R mod p."""
    pivots, rows, _ = _mod_echelon(an, p)
    k = len(pivots)
    aug = np.concatenate([an[np.ix_(rows, pivots)],
                          np.eye(k, dtype=np.int64)], axis=1)
    inv = _mod_echelon(aug, p)[2][:, k:]
    return pivots, rows, lambda R: inv @ np.mod(R, p) % p


def _sparse_echelon(a, nc, p):
    """(pivot_cols, pivot_rows, solve) of the sparse integer rows a mod p.

    Rows are taken shortest first, each reduced against the pivot rows so
    far in their order of creation and pivoted on its smallest remaining
    column, until every column is a pivot.  The pivot rows are L A[pivot_rows]
    with L lower triangular in creation order, and upper triangular with unit
    diagonal on the pivot columns; solve(R) is A[pivot_rows, pivot_cols]^-1 R
    mod p, by substitution through both.
    """
    where = {}     # pivot column -> its creation index
    lower = []     # per pivot row: (1 / pivot, [(earlier pivot, multiple)])
    upper = []     # per pivot row: its entries mod p over the pivot entry
    cols, rows = [], []
    for i in sorted(range(len(a)), key=lambda i: len(a[i])):
        r = {c: x % p for c, x in a[i].items() if x % p}
        ops = []
        heap = [where[c] for c in r if c in where]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            f = r.pop(cols[k], 0)
            if not f:
                continue   # pushed twice
            ops.append((k, f))
            # upper[k] holds only columns that were no pivot at creation k,
            # so the pivots it brings in come later in the heap order
            for c, x in upper[k].items():
                y = (r.get(c, 0) - f * x) % p
                if not y:
                    del r[c]
                    continue
                if c not in r and c in where:
                    heapq.heappush(heap, where[c])
                r[c] = y
        if r:
            c = min(r)
            inv = pow(r.pop(c), -1, p)
            where[c] = len(cols)
            cols.append(c)
            rows.append(i)
            lower.append((inv, ops))
            upper.append({c2: x * inv % p for c2, x in r.items()})
            if len(cols) == nc:
                break
    upper = [{where[c]: x for c, x in u.items() if c in where} for u in upper]

    def solve(R):
        out = []
        for y in np.mod(R, p).T.tolist():
            for t, (inv, ops) in enumerate(lower):
                y[t] = (y[t] - sum(f * y[k] for k, f in ops)) * inv % p
            for t in range(len(y) - 1, -1, -1):
                y[t] = (y[t] - sum(x * y[k] for k, x in upper[t].items())) % p
            out.append(y)
        return np.array(out, dtype=np.int64).T

    return cols, rows, solve


def _rational_reconstruct(u, m):
    """Rational number a/b with a = b*u mod m, |a|, b <= sqrt(m/2); None if none."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        return None
    if math.gcd(r1, abs(s1)) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


# p-adic digits of the first lifting round; each later round doubles them
_FIRST_DIGITS = 8


def _dixon_solve(A_rows, rhs_cols, p, solve):
    """Candidate solutions of A x = b for the columns b of rhs_cols, by p-adic
    lifting (Dixon 1982).

    A_rows: the rows {column: int} of a square integer matrix A invertible
    mod p, with solve(R) = A^-1 R mod p (the third item of `_sparse_echelon`
    and `_dense_echelon`).  The digits are lifted in rounds that double their
    number, up to the count the Hadamard bound on det(A) calls for.  After
    each round every entry is rationally reconstructed; when all succeed the
    round yields one (D, w) per column, the solution being w / D with w
    integral.  The caller checks each candidate exactly and stops at the
    first that holds, so small solutions stop early, while a wrong early
    candidate only lifts further.  Yields nothing when the entries are too
    large for word-size residues.
    """
    rows = [list(r.values()) for r in A_rows]
    n = len(rows)
    amax = max((abs(x) for row in rows for x in row), default=0)
    if amax == 0 or n * amax * p >= 2 ** 62:
        return
    ri, ci, vals = np.array([(i, c, x) for i, row in enumerate(A_rows)
                             for c, x in row.items()], dtype=np.int64).T
    # the rows are in order, and none is empty as A is invertible mod p
    starts = np.flatnonzero(np.diff(ri, prepend=-1))

    def mul(X):
        return np.add.reduceat(vals[:, None] * X[ci], starts)

    # denominators divide det(A); Hadamard bound gives the digit count
    log_det = sum(math.log(max(1, sum(x * x for x in row))) for row in rows) / 2
    rhs_max = max(1, int(np.abs(rhs_cols).max()) if rhs_cols.size else 1)
    cap = int(2 * (log_det + math.log(n * (rhs_max + 1))) / math.log(p)) + 4
    R = rhs_cols
    acc = np.zeros(R.shape, dtype=object)   # the solution mod p**done
    done, mod = 0, 1
    target = min(_FIRST_DIGITS, cap)
    while True:
        while done < target:
            # up to four digits at a time: p**4 < 2**62
            block = np.zeros(R.shape, dtype=np.int64)
            weight = 1
            for _ in range(min(4, target - done)):
                X = solve(R)
                block += X * weight
                weight *= p
                # R = (R - A X) / p is exact; |R| stays <= |R0| + n*amax*p
                R = (R - mul(X)) // p
                done += 1
            acc = acc + block.astype(object) * mod
            mod *= weight
        candidate = _reconstruct_columns(acc.T.tolist(), mod)
        if candidate is not None:
            yield candidate
        if done >= cap:
            return
        target = min(2 * target, cap)


def _reconstruct_columns(columns, mod):
    """One (D, w) per column of residues mod `mod`: each entry a/b
    reconstructed, D the lcm of the b, w_i = a_i D / b_i.  None if an entry
    has no reconstruction.

    One Euclid per new denominator: each residue u is first multiplied by
    the column's running lcm D, and when the symmetric residue r of D u and
    D both lie within the bound of _rational_reconstruct, r/D is the
    reconstruction (a fraction within the bound congruent to u is unique).
    Only otherwise does u go through the Euclid, and D takes its b.
    """
    bound = math.isqrt(mod // 2)
    half = mod // 2
    out = []
    for col in columns:
        D = 1
        fracs = []
        for u in col:
            r = u * D % mod
            if r > half:
                r -= mod
            if abs(r) > bound or D > bound:
                rec = _rational_reconstruct(u, mod)
                if rec is None:
                    return None
                r, b = rec
                D = D * b // math.gcd(D, b)
                r *= D // b
            fracs.append((r, D))
        out.append((D, [r * (D // e) for r, e in fracs]))
    return out


_BAREISS_CUTOFF = 70

# Rows with at most this many nonzeros on average are eliminated sparsely.
# Measured: the benchmark's sparse-path systems have 1.0 to 2.8, the one
# dense-path system of a `tables` pass (the 92 x 91 stabiliser system of
# 1/9b m=2) 10.7 at seed 2024 and 10.2 to 10.8 at seeds 7, 3, 20, 26 and 35,
# and the peeled core of so7 on spin8 at multidegree (6, 4) (4677902 rows,
# 339063 columns) 3.7.
_SPARSE_ROW_WEIGHT = 4


def rank(m) -> int:
    """Exact rank over Q of a QMatrix or IntRows; over F_p of a ModMatrix.

    The nonzero integer rows are eliminated once mod p = _PRIMES[0] by
    `_sparse_echelon`, and a full rank there is the answer: an r x r minor
    of A that is nonzero mod p is a nonzero integer, so rank_Q A >= rank_p A,
    and rank_Q A <= min(rows, cols) always.  Any smaller rank mod p may be a
    drop at p, and is decided exactly by `Basis`; no kernel is computed.

    A ModMatrix is ranked by `_alternating_rank` when it is square and
    alternating mod p (the sampled Kirillov forms), by `_mod_echelon`
    otherwise."""
    if isinstance(m, ModMatrix):
        a = np.mod(m.a, m.p)
        if (m.rows == m.cols and not a.diagonal().any()
                and not ((a + a.T) % m.p).any()):
            return _alternating_rank(a, m.p)
        return len(_mod_echelon(a, m.p)[0])
    a = _int_rows(m)
    if not a:
        return 0
    r = len(_sparse_echelon(a, m.cols, _PRIMES[0])[0])
    if r == min(len(a), m.cols):
        return r
    return len(Basis([_dense(row, m.cols) for row in a]))


def _certified_kernel(a, nc):
    """Right-kernel basis of the nonzero sparse integer rows a by the modular
    path of `kernel_basis`, integer vectors each verified over Z, or None
    when exact elimination must decide (small systems, entries too large, or
    every prime failed).  Either elimination's pivot rows go to `_dixon_solve`
    sparse, with its solve."""
    sparse = sum(map(len, a)) <= _SPARSE_ROW_WEIGHT * len(a)
    if (max if sparse else min)(len(a), nc) <= _BAREISS_CUTOFF:
        return None
    amax = max(abs(x) for row in a for x in row.values())
    if max(len(a), nc) * amax * _PRIMES[0] >= 2 ** 62:
        return None
    an = None if sparse else np.array([_dense(r, nc) for r in a], np.int64)
    for p in _PRIMES:
        pivots, rows, solve = (_sparse_echelon(a, nc, p) if sparse
                               else _dense_echelon(an, p))
        if len(pivots) == nc:
            return []   # rank_p = nc <= rank_Q
        if not pivots:
            continue    # every entry divisible by p
        at = {c: t for t, c in enumerate(pivots)}
        free = [c for c in range(nc) if c not in at]
        sub = [{at[c]: x for c, x in a[i].items() if c in at} for i in rows]
        rhs = np.array([[-a[i].get(c, 0) for c in free] for i in rows],
                       dtype=np.int64)
        for candidate in _dixon_solve(sub, rhs, p, solve):
            basis = _verified_kernel(a, nc, pivots, free, candidate)
            if basis is not None:
                return basis
    return None


def _verified_kernel(a, nc, pivots, free, candidate):
    """The integer kernel vectors D v_j, v_j = e_j + w/D at the pivots, one
    per free column j and candidate (D, w), or None unless a (D v_j) = 0
    holds over Z on every row."""
    basis = []
    for j, (d, w) in zip(free, candidate):
        x = [0] * nc
        x[j] = d
        for c, y in zip(pivots, w):
            x[c] = y
        for row in a:
            if sum(map(operator.mul, row.values(), map(x.__getitem__, row))):
                return None
        basis.append(x)
    return basis


def kernel_basis(m):
    """Basis of the right null space { v : M v = 0 } of a QMatrix or IntRows,
    exact, in the normal form of the reduced echelon form: for each free
    column j the kernel vector with 1 at j and 0 at the other free columns.
    It is e_j plus pivot columns before j, so modular kernels are put in
    this form by echelonising them from the last column.
    """
    if m.cols == 0:
        return []
    a = _int_rows(m)
    kernel = _certified_kernel(a, m.cols) if a else None
    if kernel is None:
        return _kernel_exact_small(a, m.cols)
    return [v[::-1] for v in reversed(Basis([v[::-1] for v in kernel]).rows)]


def peel(a, dead):
    """The rows of a that peeling leaves: the first, exact stage of
    structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90).  a
    is any iterable of rows {column: nonzero int}, read once; dead is the
    caller's mask, a bytearray with one byte per column.  A row whose only
    live column is j forces x_j = 0 in every kernel vector, so j dies and is
    marked in dead, until no row has exactly one live column.  The rows left
    with a live column come back in the order read, the same dicts with
    their dead entries deleted (a row dropped may be changed too), in the
    caller's numbering, so a later peel takes them on the same mask.  Taken
    in the order they died, the dead columns carry the rows that killed
    them (over every peel on the mask) as a nonsingular triangular block
    that is zero on the live columns.  So rank = #dead + the rank of the
    rows left, and the kernel is theirs on the live columns with 0 at the
    dead ones; no dead column is free in the reduced echelon form, so
    `kernel_basis` of the rows left, renumbered onto the live columns and
    embedded with 0 at the dead ones, is that of all the rows, entry for
    entry."""
    # one pass in row order kills what it meets on the way and keeps only
    # the other rows: on the systems of the invariant spaces that is most of
    # what dies, and a small share of the rows
    rest, killed = [], False
    for row in a:
        live = [c for c in row if not dead[c]]
        if len(live) == 1:
            dead[live[0]] = 1
            killed = True
        elif live:
            if len(live) < len(row):
                for c in [c for c in row if dead[c]]:
                    del row[c]
            rest.append(row)
    if not killed:
        # nothing died, so every row kept still has two live columns or more
        return rest
    # the rows it leaves are peeled to the end, each column killed once and
    # deleted from the rows that hold it, so a row's length is its live count
    holders = {}
    for r, row in enumerate(rest):
        for c in [c for c in row if dead[c]]:
            del row[c]
        for c in row:
            holders.setdefault(c, []).append(r)
    stack = [r for r, row in enumerate(rest) if len(row) == 1]
    while stack:
        row = rest[stack.pop()]
        if len(row) != 1:
            continue    # its last live column died meanwhile
        j, = row
        dead[j] = 1
        for r in holders[j]:
            del rest[r][j]
            if len(rest[r]) == 1:
                stack.append(r)
    return [row for row in rest if row]


def _kernel_exact_small(a, nc):
    """Kernel of the sparse integer rows a in the normal form, read off the
    reduced rows of their `Basis`."""
    red = Basis([_dense(row, nc) for row in a])
    basis = []
    for j in red.complement() if a else range(nc):
        v = [Q0] * nc
        v[j] = Q1
        for p, row in zip(red.pivots, red.rows):
            v[p] = -row[j]
        basis.append(v)
    return basis


def solve_right(m: QMatrix, b):
    """One exact solution x of M x = b, or None if inconsistent, read off one
    `Basis` of the rows of [M | b]: b is outside the span iff its column is a
    pivot; otherwise x[p_i] is the last entry of reduced row i, the one
    solution supported on the pivots p_i, which are the greedily chosen
    independent columns of M (each kept when independent of those before)."""
    red = Basis([row + [as_q(y)] for row, y in zip(m.data, b, strict=True)])
    if m.cols in red.pivots:
        return None
    x = [Q0] * m.cols
    for p, row in zip(red.pivots, red.rows):
        x[p] = row[m.cols]
    return x


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse of a square matrix: the reduced echelon form of [M | I]."""
    if m.rows != m.cols:
        raise ValueError(f"a {m.rows} x {m.cols} matrix has no inverse")
    n = m.rows
    aug = Basis([row + [Q1 if i == j else Q0 for j in range(n)]
                 for i, row in enumerate(m.data)])
    if aug.pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return QMatrix(n, n, [row[n:] for row in aug.rows])


class Basis:
    """Echelon basis of the span of some vectors, with coordinates.

    Construction is one forward elimination in input order: each vector,
    cleared of denominators, is reduced at the pivots kept so far, in the
    order they were kept, divided by its content after each step, and kept
    when anything is left, its first nonzero column its pivot.  That gives
    accepted (the indices of the vectors that extended the span, in input
    order: the greedy choice), len, pivots (sorted), complement() and
    echelon, the kept primitive integer rows sorted by pivot.  rows, the
    reduced row echelon form over Q, is back-substituted once, when first
    read.  coords(v) writes v in terms of the input vectors, which must be
    independent: it reads v off the rows with `UnitBasis` and changes basis
    to the inputs; both are set up on its first call.

    The integers stay bounded by the minors of the input (Bareiss 1968): a
    row reduced at the first j kept pivots is the one direction in the span
    of their vectors and its own that vanishes there, so its primitive form
    divides a Cramer vector of (j+1)-minors; a reduced row, one of k-minors.
    """

    def __init__(self, vectors):
        self.vectors = vectors
        self.ncols = len(vectors[0]) if vectors else 0
        self.accepted = []
        kept = []   # (pivot, primitive integer row), in the order kept
        for t, vec in enumerate(vectors):
            row = _reduced(_int_vector(vec)[1], kept)
            nz = next((c for c, a in enumerate(row) if a), None)
            if nz is None:
                continue
            kept.append((nz, _primitive(row)))
            self.accepted.append(t)
            if len(kept) == self.ncols:
                break
        kept.sort(key=operator.itemgetter(0))
        self.pivots = [p for p, _ in kept]
        self.echelon = [row for _, row in kept]

    def __len__(self):
        return len(self.pivots)

    @functools.cached_property
    def rows(self):
        """The reduced row echelon form over Q, sorted by pivot: each
        echelon row, from the last up, reduced at the later pivots."""
        red = []
        for p, row in reversed(list(zip(self.pivots, self.echelon))):
            red.append((p, _reduced(row, red)))
        return [[QQ(a, rr[p]) if a else Q0 for a in rr]
                for p, rr in reversed(red)]

    def complement(self):
        """The coordinates that are not pivots, in increasing order."""
        pivots = set(self.pivots)
        return [c for c in range(self.ncols) if c not in pivots]

    @functools.cached_property
    def _to_inputs(self):
        """(the rows as a UnitBasis on the pivots, F, the nonzero entries of
        each row of the change of basis T from the inputs to the rows times
        F, integral)."""
        if len(self.accepted) < len(self.vectors):
            raise ValueError("coordinates need independent vectors")
        # row i = sum_j T[i][j] vectors[j]; read at the pivots, T A_P = I
        k = len(self.vectors)
        T = inverse(QMatrix(k, k, [[v[p] for p in self.pivots]
                                   for v in self.vectors]))
        F, T = _common_denominator([{j: t for j, t in enumerate(row) if t}
                                    for row in T.data])
        return UnitBasis(self.rows, self.pivots), F, T

    def coords(self, v):
        """c with v = sum c_j vectors[j], or None when v is outside the span.

        v's denominators are cleared once, to D; D v is read at the pivots
        by `UnitBasis.coords`, which checks it lies in the span, and
        D F c = sum_p (D v_p) (F T[p]) is summed in integers.  Raises
        ValueError when the input vectors are dependent.
        """
        span, F, T = self._to_inputs
        D, (w,) = _common_denominator([{c: x for c, x in enumerate(v) if x}])
        at = span.coords(w)
        if at is None:
            return None
        out = [0] * len(T)
        for m, f in at.items():
            for j, t in T[m].items():
                out[j] += f * t
        q = D * F
        return [QQ(x, q) if x else Q0 for x in out]


class UnitBasis:
    """Vectors u_l with unit columns c_m, u_l[c_m] = [l == m]: the pivots of
    a reduced echelon basis, or the free columns of kernel_basis's normal
    form.  A vector w of their span is sum_m w[c_m] u_m, so its coordinates
    are read at the units, with no elimination.  rows are the vectors times
    E, the lcm of their denominators, as sparse {column: int} dicts.  Raises
    ValueError unless each vector is 1 at its own unit and 0 at the
    others'."""

    def __init__(self, vectors, units):
        self.at = {c: m for m, c in enumerate(units)}
        self.E, self.rows = _common_denominator(
            [{t: a for t, a in enumerate(u) if a} for u in vectors])
        if not len(self.at) == len(units) == len(self.rows) or any(
                {t: a for t, a in row.items() if t in self.at} != {c: self.E}
                for c, row in zip(units, self.rows)):
            raise ValueError("a vector is not 1 at its unit, 0 at the others")

    def coords(self, w):
        """{m: w[c_m]} for a {column: int} vector w of the span, None outside
        it: checked exactly as E w = sum_m w[c_m] U_m, U = E u."""
        coeffs = {self.at[c]: x for c, x in w.items() if x and c in self.at}
        residual = {r: self.E * c for r, c in w.items()}
        for m, c in coeffs.items():
            for t, a in self.rows[m].items():
                residual[t] = residual.get(t, 0) - c * a
        return None if any(residual.values()) else coeffs


def _reduced(row, kept):
    """The integer row reduced at the pivot p of each (p, rr) in kept (rr
    zero at the pivots before it) in turn, made primitive after each step."""
    for p, rr in kept:
        f = row[p]
        if f:
            g = math.gcd(rr[p], f)
            s, u = rr[p] // g, f // g
            row = _primitive([s * a - u * b if b else s * a
                              for a, b in zip(row, rr)])
    return row


def _common_denominator(rows):
    """(E, the rows with every value times E, as ints), E the lcm of the
    denominators of the values in rows, {index: rational or int} dicts."""
    E = math.lcm(1, *(a.denominator for row in rows for a in row.values()))
    return E, [{c: a.numerator * (E // a.denominator) for c, a in row.items()}
               for row in rows]


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling policy for "generic" points.

    height bounds the integer entries of round 0 of `sample_rounds`, and of
    the sparse candidate the stabiliser search makes from it; rounds is the
    number of rounds a search draws before giving up, and the sparse
    candidate is not one of them.
    """

    seed: int = 2024
    height: int = 5
    rounds: int = 8

    def __post_init__(self):
        if self.height < 1 or self.rounds < 1:
            raise ValueError(f"sampling needs height and rounds >= 1, not "
                             f"height {self.height}, rounds {self.rounds}")


def sample_vector(cfg: SampleConfig, dim: int, round_idx: int = 0, tag: str = ""):
    """Integer vector in [-height, height]^dim, deterministic in all arguments."""
    if dim < 0:
        raise ValueError(f"dimension {dim} < 0")
    rng = random.Random(f"{cfg.seed}|{cfg.height}|{dim}|{round_idx}|{tag}")
    return [QQ(rng.randint(-cfg.height, cfg.height)) for _ in range(dim)]


def sample_rounds(cfg: SampleConfig, dim: int, tag: str):
    """The samples of a generic-point search, one per round: round rnd draws
    from [-H, H]^dim with H = cfg.height * 2**rnd."""
    for rnd in range(cfg.rounds):
        c = SampleConfig(cfg.seed, cfg.height * 2 ** rnd, cfg.rounds)
        yield sample_vector(c, dim, round_idx=rnd, tag=tag)


def sample_mod_p(cfg: SampleConfig, dim: int, tag: str):
    """The samples (p, x) of a search over F_p: round rnd takes the rnd-th
    prime of _PRIMES (cyclically) and x uniform in F_p^dim."""
    for rnd in range(cfg.rounds):
        p = _PRIMES[rnd % len(_PRIMES)]
        rng = random.Random(f"{cfg.seed}|{p}|{dim}|{rnd}|{tag}")
        yield p, [rng.randrange(p) for _ in range(dim)]
