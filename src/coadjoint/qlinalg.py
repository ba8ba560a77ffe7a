"""Exact rational linear algebra.

Scalars are exact rationals, `fractions.Fraction` (`QQ`).  Matrices are
dense lists of rows; products walk only the nonzero entries, and `entries()`
is the one conversion to a sparse {(i, j): value} dict.  Ranks and kernels
are computed over the integers: each row's denominators are cleared in
integer arithmetic (numerator times the cofactor of the row's lcm) and
all-zero rows are dropped, which changes neither the rank nor the right
kernel.  The integer rows go to fraction-free (Bareiss) elimination; for
large matrices a certified fast path combines a modular elimination (numpy,
single word prime) with p-adic lifting of kernel vectors and an exact
re-verification, so every reported rank is an exact rank over Q.

`Basis` is the one echelon-and-coordinates routine: it echelonises a list of
vectors once (reduced row echelon form over Q), and then writes other vectors
in terms of the inputs.  Subalgebras, submodules, invariant spaces, changes
of basis, `inverse` and `solve_right` all go through it.

Also hosts the deterministic integer-point sampler used to realise "generic"
points, with `sample_rounds`, the one height-doubling schedule of every
generic-point search, and exact univariate interpolation for graded-component
extraction.
"""

from __future__ import annotations

import functools
import math
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
            assert len(data) == rows and all(len(r) == cols for r in data)
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
        assert self.cols == other.rows
        right = [[(j, b) for j, b in enumerate(row) if b]
                 for row in other.data]
        out = []
        for row in self.data:
            acc = {}
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] = acc.get(j, Q0) + a * b
            prod = [Q0] * other.cols
            for j, c in acc.items():
                if c:
                    prod[j] = c
            out.append(prod)
        return QMatrix(self.rows, other.cols, out)

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return QMatrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return QMatrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)],
        )

    def scale(self, c):
        c = as_q(c)
        return QMatrix(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def transpose(self):
        return QMatrix(self.cols, self.rows, [list(r) for r in zip(*self.data)])

    def matvec(self, v):
        assert len(v) == self.cols
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


def _int_rows(m: QMatrix):
    """Integer rows with the row space of m, all-zero rows dropped.

    Each row is scaled by the lcm of its denominators in integer arithmetic
    (numerator times cofactor), which preserves rank and right kernel.  Most
    zero entries are the shared Q0, which is skipped by identity.
    """
    out = []
    for row in m.data:
        l = 1
        for x in row:
            if x is not Q0:
                d = x.denominator
                if d != 1:
                    l = l * d // math.gcd(l, d)
        if l == 1:
            ints = [0 if x is Q0 else x.numerator for x in row]
        else:
            ints = [0 if x is Q0 else x.numerator * (l // x.denominator)
                    for x in row]
        if any(ints):
            out.append(ints)
    return out


def _bareiss_echelon(a):
    """Fraction-free elimination on integer rows, in place.

    Returns (rank, pivot_cols).  Entries stay integral (they are minors of the
    input), which controls the blow-up without ever introducing fractions.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    prev = 1
    piv_r = 0
    pivots = []
    for pc in range(nc):
        # smallest nonzero pivot keeps the minors small
        best = -1
        for r in range(piv_r, nr):
            v = a[r][pc]
            if v:
                if best < 0 or abs(v) < abs(a[best][pc]):
                    best = r
        if best < 0:
            continue
        if best != piv_r:
            a[best], a[piv_r] = a[piv_r], a[best]
        piv = a[piv_r][pc]
        for r in range(piv_r + 1, nr):
            vr = a[r]
            f = vr[pc]
            if f:
                pr = a[piv_r]
                a[r] = [(piv * vr[c] - f * pr[c]) // prev for c in range(nc)]
                a[r][pc] = 0
            else:
                a[r] = [(piv * x) // prev for x in vr]
        prev = piv
        pivots.append(pc)
        piv_r += 1
        if piv_r == nr:
            break
    return piv_r, pivots


def _mod_echelon(a, p):
    """Row reduce an int64 numpy matrix mod p; returns (rank, pivot_cols, reduced).

    The reduced matrix is in reduced row-echelon form mod p.
    """
    a = np.mod(a, p)
    nr, nc = a.shape
    piv_r = 0
    pivots = []
    for pc in range(nc):
        col = a[piv_r:, pc]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        r = piv_r + int(nz[0])
        if r != piv_r:
            a[[piv_r, r]] = a[[r, piv_r]]
        piv = int(a[piv_r, pc])
        a[piv_r] = (a[piv_r] * pow(piv, p - 2, p)) % p
        col = a[:, pc].copy()
        col[piv_r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[piv_r])) % p
        pivots.append(pc)
        piv_r += 1
        if piv_r == nr:
            break
    return piv_r, pivots, a


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


def _dixon_solve(A_int, rhs_cols, p):
    """Solve A x = b exactly for the columns b of rhs_cols by p-adic lifting.

    A_int: square numpy int64 matrix whose image mod p is invertible.  Returns
    a list of solution vectors over Q (one per column), or None if the lifting
    failed (caller retries with another prime).  Residues stay word-sized, so
    each lifting step is a pair of numpy matmuls.
    """
    n = A_int.shape[0]
    amax = int(np.abs(A_int).max()) if A_int.size else 0
    if amax == 0 or n * amax * p >= 2 ** 62:
        return None
    Ainv = _inverse_mod(A_int, p)
    if Ainv is None:
        return None
    # denominators divide det(A); Hadamard bound gives the digit count
    norms = np.sqrt((A_int.astype(float) ** 2).sum(axis=1))
    norms[norms < 1] = 1.0
    log_det = float(np.log(norms).sum())
    rhs_max = max(1, int(np.abs(rhs_cols).max()) if rhs_cols.size else 1)
    digits = int(2 * (log_det + math.log(n * (rhs_max + 1))) / math.log(p)) + 4
    k = rhs_cols.shape[1]
    R = rhs_cols
    xdigits = np.empty((digits, n, k), dtype=np.int64)
    for d in range(digits):
        Rm = np.mod(R, p)
        X = np.mod(Ainv @ Rm, p)
        xdigits[d] = X
        # R = (R - A X) / p is exact; |R| stays <= |R0| + n*amax*p
        R = (R - A_int @ X) // p
    mod = p ** digits
    # Horner reconstruction of the p-adic expansion, then rational reconstruction
    sols = []
    for j in range(k):
        sol = []
        for i in range(n):
            acc = 0
            for d in range(digits - 1, -1, -1):
                acc = acc * p + int(xdigits[d, i, j])
            rec = _rational_reconstruct(acc % mod, mod)
            if rec is None:
                return None
            sol.append(QQ(rec[0], rec[1]))
        sols.append(sol)
    return sols


def _inverse_mod(A, p):
    n = A.shape[0]
    aug = np.concatenate([np.mod(A, p), np.eye(n, dtype=np.int64)], axis=1)
    rank, pivots, red = _mod_echelon(aug, p)
    if rank < n or pivots != list(range(n)):
        return None
    return red[:, n:]


_BAREISS_CUTOFF = 70


def rank(m: QMatrix) -> int:
    """Exact rank over Q."""
    a = _int_rows(m)
    if not a:
        return 0
    if min(len(a), m.cols) <= _BAREISS_CUTOFF:
        r, _ = _bareiss_echelon(a)
        return r
    return _certified_rank(a)


def _certified_rank(a):
    """Rank of nonzero integer rows, certified exactly.

    Lower bound: a pivot minor nonzero mod p is nonzero over Z.  Upper bound:
    exact kernel vectors (p-adically lifted, then re-verified over Z) of the
    right count.  The two bounds meet, so the value is exact.
    """
    candidates = _kernel_int(a)
    if candidates is not None:
        return len(a[0]) - len(candidates)
    # entries too large for the word-size fast path: fall back to Bareiss
    r, _ = _bareiss_echelon(a)
    return r


def _kernel_int(a):
    """Exact right-kernel basis of nonzero integer rows via mod-p + lifting.

    Returns a list of rational vectors, or None when the entries are too large
    for word-size residues or every prime failed.  Every returned vector is
    re-verified exactly, and the count is certified by the mod-p rank lower
    bound.
    """
    nr = len(a)
    nc = len(a[0])
    amax = max(max(map(abs, row)) for row in a)
    if max(nr, nc) * amax * _PRIMES[0] >= 2 ** 62:
        return None
    an = np.array(a, dtype=np.int64)
    for p in _PRIMES:
        r, pivots, _red = _mod_echelon(an, p)
        if r == 0:
            continue  # every entry divisible by p
        # pivot rows mod p: find nr-subset realising the rank
        rr, row_piv, _ = _mod_echelon(an.T.copy(), p)
        if rr != r:
            continue
        pivot_set = set(pivots)
        free = [c for c in range(nc) if c not in pivot_set]
        sub = an[np.ix_(row_piv, pivots)]
        if free:
            sols = _dixon_solve(sub, -an[np.ix_(row_piv, free)], p)
            if sols is None:
                continue
        else:
            sols = []
        basis = []
        ok = True
        for k, j in enumerate(free):
            v = [Q0] * nc
            v[j] = Q1
            for idx, c in enumerate(pivots):
                v[c] = sols[k][idx]
            # exact verification over Q
            for row in a:
                s = Q0
                for coef, x in zip(row, v):
                    if coef and x:
                        s += coef * x
                if s != 0:
                    ok = False
                    break
            if not ok:
                break
            basis.append(v)
        if ok:
            return basis
    return None


def kernel_basis(m: QMatrix):
    """Basis of the right null space { v : M v = 0 }, exact.

    Vectors are returned in the "unit free coordinate" normal form induced by
    the reduced echelon form, so output is deterministic.
    """
    if m.cols == 0:
        return []
    a = _int_rows(m)
    if not a:
        return [_unit(m.cols, j) for j in range(m.cols)]
    if min(len(a), m.cols) > _BAREISS_CUTOFF:
        fast = _kernel_int(a)
        if fast is not None:
            return fast
    return _kernel_exact_small(a, m.cols)


def _unit(n, j):
    v = [Q0] * n
    v[j] = Q1
    return v


def _kernel_exact_small(a, nc):
    """Kernel by fraction-free forward elimination + exact back substitution.

    The integer rows `a` are eliminated in place.
    """
    r, pivots = _bareiss_echelon(a)
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    basis = []
    for j in free:
        v = [Q0] * nc
        v[j] = Q1
        # rows 0..r-1 of a are in echelon form with pivot cols `pivots`
        for i in range(r - 1, -1, -1):
            pc = pivots[i]
            s = Q0
            row = a[i]
            for c in range(pc + 1, nc):
                if row[c] and v[c]:
                    s += QQ(row[c]) * v[c]
            v[pc] = -s / QQ(row[pc])
        basis.append(v)
    return basis


def solve_right(m: QMatrix, b):
    """One exact solution x of M x = b, or None if inconsistent.

    x is supported on the greedily chosen independent columns of M (each
    column kept when it is independent of the columns before it).
    """
    cols = [list(c) for c in zip(*m.data)]
    accepted = Basis(cols).accepted
    coords = Basis([cols[j] for j in accepted]).coords([as_q(x) for x in b])
    if coords is None:
        return None
    x = [Q0] * m.cols
    for j, c in zip(accepted, coords):
        x[j] = c
    return x


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse of a square matrix: the reduced echelon form of [M | I]."""
    assert m.rows == m.cols
    n = m.rows
    aug = Basis([row + [Q1 if i == j else Q0 for j in range(n)]
                 for i, row in enumerate(m.data)])
    if aug.pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return QMatrix(n, n, [row[n:] for row in aug.rows])


class Basis:
    """Reduced row echelon basis of the span of some vectors, with coordinates.

    rows and pivots are sorted by pivot column; accepted lists, in input
    order, the indices of the vectors that extended the span (the greedy
    choice).  coords(v) writes v in terms of the input vectors, which must be
    independent; the change of basis it needs is computed on its first call.
    """

    def __init__(self, vectors):
        self.vectors = vectors
        self.ncols = len(vectors[0]) if vectors else 0
        self.accepted = []
        red, piv = [], []
        for t, vec in enumerate(vectors):
            row = list(vec)
            for p, rr in zip(piv, red):
                f = row[p]
                if f:
                    row = [a - f * b if b else a for a, b in zip(row, rr)]
            nz = next((c for c, a in enumerate(row) if a), None)
            if nz is None:
                continue
            if row[nz] != 1:
                inv = Q1 / row[nz]
                row = [a * inv if a else a for a in row]
            # back-reduce earlier rows
            for i, rr in enumerate(red):
                f = rr[nz]
                if f:
                    red[i] = [a - f * b if b else a for a, b in zip(rr, row)]
            piv.append(nz)
            red.append(row)
            self.accepted.append(t)
        order = sorted(range(len(piv)), key=piv.__getitem__)
        self.rows = [red[t] for t in order]
        self.pivots = [piv[t] for t in order]

    def __len__(self):
        return len(self.rows)

    def complement(self):
        """The coordinates that are not pivots, in increasing order."""
        pivots = set(self.pivots)
        return [c for c in range(self.ncols) if c not in pivots]

    @functools.cached_property
    def _to_inputs(self):
        """(pivot set, non-pivot entries of each row, entries of each row of
        the change of basis T from the inputs to the rows)."""
        if len(self.accepted) < len(self.vectors):
            raise ValueError("coordinates need independent vectors")
        pivots = set(self.pivots)
        sparse = [[(c, a) for c, a in enumerate(row) if a and c not in pivots]
                  for row in self.rows]
        # row i = sum_j T[i][j] vectors[j]; read at the pivots, T A_P = I
        k = len(self.vectors)
        T = inverse(QMatrix(k, k, [[v[p] for p in self.pivots]
                                   for v in self.vectors]))
        return pivots, sparse, [[(j, t) for j, t in enumerate(row) if t]
                                for row in T.data]

    def coords(self, v):
        """c with v = sum c_j vectors[j], or None when v is outside the span.

        Raises ValueError when the input vectors are dependent.
        """
        pivots, sparse, T = self._to_inputs
        residual = {c: x for c, x in enumerate(v) if x and c not in pivots}
        out = [Q0] * len(T)
        for p, entries, t_row in zip(self.pivots, sparse, T):
            f = v[p]
            if f:
                for c, a in entries:
                    residual[c] = residual.get(c, Q0) - f * a
                for j, t in t_row:
                    out[j] += f * t
        if any(residual.values()):
            return None
        return out


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling policy for "generic" rational points.

    height bounds the integer entries, rounds bounds the number of
    escalations a generic-rank search may perform before giving up.
    """

    seed: int = 2024
    height: int = 5
    rounds: int = 6

    def __post_init__(self):
        assert self.height >= 1 and self.rounds >= 1


def sample_vector(cfg: SampleConfig, dim: int, round_idx: int = 0, tag: str = ""):
    """Integer vector in [-height, height]^dim, deterministic in all arguments."""
    assert dim >= 0
    rng = random.Random(f"{cfg.seed}|{cfg.height}|{dim}|{round_idx}|{tag}")
    return [QQ(rng.randint(-cfg.height, cfg.height)) for _ in range(dim)]


def sample_rounds(cfg: SampleConfig, dim: int, tag: str):
    """The samples of a generic-point search, one per round: round rnd draws
    from [-H, H]^dim with H = cfg.height * 2**rnd."""
    for rnd in range(cfg.rounds):
        c = SampleConfig(cfg.seed, cfg.height * 2 ** rnd, cfg.rounds)
        yield sample_vector(c, dim, round_idx=rnd, tag=tag)


def _poly_mul_linear(poly, c):
    """poly(t) * (t - c), coefficient lists."""
    out = [Q0] * (len(poly) + 1)
    for i, a in enumerate(poly):
        out[i + 1] += a
        out[i] -= c * a
    return out


def interpolate_coeffs(values):
    """Exact interpolation through (i+1, values[i]); returns coefficient list."""
    n = len(values)
    nodes = [QQ(i + 1) for i in range(n)]
    coef = [as_q(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    poly = [Q0]
    basis = [Q1]
    for k in range(n):
        while len(poly) < len(basis):
            poly.append(Q0)
        for i, c in enumerate(basis):
            poly[i] += coef[k] * c
        if k < n - 1:
            basis = _poly_mul_linear(basis, nodes[k])
    while len(poly) < n:
        poly.append(Q0)
    return poly


def leading_graded_component(evaluate, degree_bound: int):
    """Coefficient list of t -> evaluate(t), degree <= degree_bound, exact.

    evaluate is called at the distinct nodes t = 1 .. degree_bound+1; the
    result is the full coefficient list (index = t-degree).  The caller reads
    off the top nonzero coefficient index as the graded top degree.
    """
    nodes = [QQ(i + 1) for i in range(degree_bound + 1)]
    values = [evaluate(t) for t in nodes]
    return interpolate_coeffs(values)
