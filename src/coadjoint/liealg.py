"""Lie algebras as rational structure-constant tables.

Constructors for the split classical algebras gl, sl, so (antidiagonal
symmetric form) and sp (standard block form J = [[0, I], [-I, 0]]), plus the
index, b(q), Killing form, derived series, and the isomorphism fingerprint
used to recognise generic stabilisers.

`matrix_algebra` is the one builder of an algebra from independent matrices:
the classical algebras, sp_2k |x heis_k on its centraliser layout, and the
fixed points g_0 of a Z2-contraction all go through it.  Its expander
(`metadata["expand"]`, from `make_expander`) is the one way to write a matrix
in such a basis.

Structure constants live in `brackets` (i < j) and, built from it on first
use, in `ad_table` (every ordered pair) and `int_ad_table` (d ad_table in
ints, d the lcm of the denominators); brackets walk the supports of their
arguments through `ad_table`, while Kirillov forms, the Killing form,
subalgebras and the derivations of `invariants` sum in integers on
`int_ad_table`.

The index is computed per its definition, ind q = dim q - max rank B_gamma,
with the ranks sampled over F_p; the result records the ranks, the primes,
whether the maximal rank was seen twice (`stabilised`) and a miss bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    Q0,
    Q1,
    QQ,
    Basis,
    ModMatrix,
    QMatrix,
    SampleConfig,
    VerificationError,
    _common_denominator,
    as_q,
    rank,
    sample_mod_p,
)


class NotClosedError(ValueError):
    """A span fails to be bracket-closed; carries a witness pair."""

    def __init__(self, i, j):
        self.witness = (i, j)
        super().__init__(f"span not closed under bracket: witness pair ({i}, {j})")


class LieAlgebraData:
    """Structure constants c[i][j] -> sparse vector of [x_i, x_j].

    brackets maps (i, j) with i < j to {k: coefficient}; antisymmetry fills the
    rest.  Only set_bracket writes it.  metadata carries optional construction
    hints (matrix realisation, Cartan indices, ad-weights) used by downstream
    fast paths; none of it is required for correctness.
    """

    def __init__(self, dim, basis_labels=None, brackets=None, metadata=None):
        self.dim = dim
        self.basis_labels = basis_labels or [f"x{i}" for i in range(dim)]
        assert len(self.basis_labels) == dim
        self.brackets = brackets or {}
        self.metadata = metadata or {}
        self._ad_table = None
        self._int_ad_table = None

    @property
    def ad_table(self):
        """ad_table[i][j] = [x_i, x_j] as {k: coeff}, for every ordered pair
        with a nonzero bracket; built from `brackets` on first use and dropped
        by set_bracket.  The dicts are shared: read them, never write them."""
        if self._ad_table is None:
            table = [{} for _ in range(self.dim)]
            for (i, j), vec in self.brackets.items():
                table[i][j] = vec
                table[j][i] = {k: -c for k, c in vec.items()}
            self._ad_table = table
        return self._ad_table

    @property
    def int_ad_table(self):
        """(d, table) with table[i][j] = d [x_i, x_j] as {k: int}, d the lcm
        of the denominators of the structure constants; built beside
        ad_table on first use and dropped by set_bracket."""
        if self._int_ad_table is None:
            d = math.lcm(1, *(c.denominator for vec in self.brackets.values()
                              for c in vec.values()))
            table = [{j: {k: c.numerator * (d // c.denominator)
                          for k, c in vec.items()} for j, vec in row.items()}
                     for row in self.ad_table]
            self._int_ad_table = (d, table)
        return self._int_ad_table

    def bracket_basis(self, i, j):
        """[x_i, x_j] as {k: coeff}."""
        return self.ad_table[i].get(j, {})

    def bracket(self, u, v):
        """[u, v] for coefficient vectors u, v.

        Walks supp u x supp v through ad_table: the cost grows with the
        supports of u and v, not with the size of the structure table.
        """
        sv = [(j, b) for j, b in enumerate(v) if b]
        out = {}
        for i, a in enumerate(u):
            if a:
                row = self.ad_table[i]
                for j, b in sv:
                    for k, c in row.get(j, {}).items():
                        out[k] = out.get(k, Q0) + a * b * c
        res = [Q0] * self.dim
        for k, c in out.items():
            if c != 0:
                res[k] = c
        return res

    def set_bracket(self, i, j, vec):
        assert i < j
        self._ad_table = self._int_ad_table = None
        vec = {k: as_q(c) for k, c in vec.items() if c != 0}
        if vec:
            self.brackets[(i, j)] = vec
        else:
            self.brackets.pop((i, j), None)

    def kirillov_form(self, gamma, p=None):
        """The antisymmetric matrix B_gamma(x_i, x_j) = gamma([x_i, x_j]).

        Summed in integers as q B_gamma, from int_ad_table and gamma cleared
        of its denominators, then divided by q.  Given a prime p and gamma in
        F_p^n: the ModMatrix of (d/c) B_gamma mod p, c the content of the
        table, so that brackets all divisible by p do not vanish mod p.
        """
        n = self.dim
        d, table = self.int_ad_table
        if p is not None:
            c = math.gcd(*(x for i, j in self.brackets
                           for x in table[i][j].values()))
            a = [[0] * n for _ in range(n)]
            for i, j in self.brackets:
                s = sum(x * gamma[k] for k, x in table[i][j].items()) // c % p
                a[i][j], a[j][i] = s, -s % p
            return ModMatrix(np.array(a, np.int64), p)
        D, (g,) = _common_denominator([[(k, x) for k, x in enumerate(gamma)
                                        if x]])
        g = dict(g)
        data = [[Q0] * n for _ in range(n)]
        for i, j in self.brackets:
            s = sum(c * g[k] for k, c in table[i][j].items() if k in g)
            if s:
                data[i][j] = QQ(s, d * D)
                data[j][i] = -data[i][j]
        return QMatrix(n, n, data)

    def check_jacobi(self, max_dim=200):
        """Exhaustive Jacobi check; raises VerificationError with a witness
        triple.  Returns True when the check ran, False when dim > max_dim
        skipped it."""
        if self.dim > max_dim:
            return False
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, x in self.bracket_basis(a, b).items():
                            for mth, y in self.bracket_basis(l, c).items():
                                acc[mth] = acc.get(mth, Q0) + x * y
                    if any(acc.values()):
                        raise VerificationError(
                            f"Jacobi fails at triple ({i},{j},{k})")
        return True

    def __repr__(self):
        name = self.metadata.get("name", "lie algebra")
        return f"<{name}, dim {self.dim}>"


# ---------------------------------------------------------------------------
# classical constructors
# ---------------------------------------------------------------------------


def matrix_algebra(mats, labels, metadata):
    """The Lie algebra spanned by independent square matrices, in their basis.

    The only builder of an algebra from matrices: metadata gains
    "matrices", "matrix_size" and "expand" (make_expander on mats), and each
    commutator is written in the basis by that expander.  Raises
    VerificationError when a commutator leaves the span.
    """
    dim = len(mats)
    alg = LieAlgebraData(dim, labels, metadata=metadata)
    alg.metadata["matrices"] = mats
    alg.metadata["matrix_size"] = mats[0].rows if mats else 0
    expand = make_expander(mats)
    alg.metadata["expand"] = expand
    sparse = [m.entries() for m in mats]
    for a in range(dim):
        for b in range(a + 1, dim):
            comm = _commutator_sparse(sparse[a], sparse[b])
            if comm:
                alg.set_bracket(a, b, expand(comm))
    return alg


def _commutator_sparse(a, b):
    """[A, B] for sparse {(i,j): v} matrices."""
    out = {}
    for (i, k), va in a.items():
        for (k2, j), vb in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), Q0) + va * vb
    for (i, k), vb in b.items():
        for (k2, j), va in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), Q0) - vb * va
    return {p: v for p, v in out.items() if v != 0}


def make_expander(mats):
    """Return a function writing a sparse matrix in the span of mats.

    mats may be any independent family of square matrices.  A position owned
    by a single matrix fixes that matrix's coefficient exactly, and is peeled
    off (all off-diagonal positions of the classical bases); whatever remains
    is solved on the positions with several owners, in the matrices that own
    no position alone.  Raises VerificationError outside the span.
    """
    dim = len(mats)
    owners = {}
    sparse = [m.entries() for m in mats]
    for b, entries in enumerate(sparse):
        for pos in entries:
            owners.setdefault(pos, []).append(b)
    single = {pos: bs[0] for pos, bs in owners.items() if len(bs) == 1}
    multi_idx = [b for b in range(dim) if not any(p in single for p in sparse[b])]
    multi_pos = sorted({pos for pos, bs in owners.items() if len(bs) > 1})
    multi = Basis([[sparse[b].get(pos, Q0) for pos in multi_pos]
                   for b in multi_idx])

    def expand(target):
        """target: sparse {(i,j): value}; returns {basis_idx: coeff}."""
        work = dict(target)
        coeffs = {}
        for pos in list(work):
            b = single.get(pos)
            if b is None or work.get(pos, Q0) == 0:
                continue
            f = work[pos] / sparse[b][pos]
            coeffs[b] = coeffs.get(b, Q0) + f
            for p2, v2 in sparse[b].items():
                r = work.get(p2, Q0) - f * v2
                if r == 0:
                    work.pop(p2, None)
                else:
                    work[p2] = r
        residue = {p for p, v in work.items() if v != 0}
        if residue:
            rhs = [work.get(pos, Q0) for pos in multi_pos]
            sol = multi.coords(rhs) if residue <= set(multi_pos) else None
            if sol is None:
                raise VerificationError(f"matrix not in span: {residue}")
            for b_local, c in enumerate(sol):
                if c != 0:
                    b = multi_idx[b_local]
                    coeffs[b] = coeffs.get(b, Q0) + c
        return coeffs

    return expand


def _unit_matrix(n, i, j, c=1):
    m = QMatrix.zero(n, n)
    m.data[i][j] = as_q(c)
    return m


def gl_algebra(n):
    mats, labels = [], []
    for i in range(n):
        for j in range(n):
            mats.append(_unit_matrix(n, i, j))
            labels.append(f"E{i + 1}{j + 1}")
    md = {"name": f"gl{n}", "family": "gl", "size": n,
          "cartan": list(range(0, n * n, n + 1))}
    return matrix_algebra(mats, labels, md)


def sl_algebra(n):
    mats, labels = [], []
    for i in range(n - 1):
        m = QMatrix.zero(n, n)
        m.data[i][i] = Q1
        m.data[i + 1][i + 1] = -Q1
        mats.append(m)
        labels.append(f"H{i + 1}")
    for i in range(n):
        for j in range(n):
            if i != j:
                mats.append(_unit_matrix(n, i, j))
                labels.append(f"E{i + 1}{j + 1}")
    md = {"name": f"sl{n}", "family": "sl", "size": n, "cartan": list(range(n - 1))}
    return matrix_algebra(mats, labels, md)


def so_algebra(n):
    """so_n for the split symmetric form with ones on the antidiagonal."""
    bar = lambda i: n - 1 - i
    mats, labels, seen = [], [], set()
    cartan = []
    for i in range(n):
        for j in range(n):
            if (i, j) in seen or (bar(j), bar(i)) in seen:
                continue
            if i == bar(i) and j == bar(j):
                continue
            m = _unit_matrix(n, i, j)
            m.data[bar(j)][bar(i)] -= Q1
            if m.is_zero():
                continue
            seen.add((i, j))
            if i == j:
                cartan.append(len(mats))
            mats.append(m)
            labels.append(f"F{i + 1}{j + 1}")
    md = {"name": f"so{n}", "family": "so", "size": n, "cartan": cartan}
    return matrix_algebra(mats, labels, md)


def sp_algebra(n):
    """sp_n (n even) for J = [[0, I], [-I, 0]]."""
    if n % 2 != 0:
        raise ValueError("sp requires an even matrix size")
    m0 = n // 2
    pair = lambda i: (i + m0) if i < m0 else (i - m0)
    sign = lambda i: 1 if i < m0 else -1
    # omega(e_i, e_pair(i)) = sign(i); X in sp iff X^T Om + Om X = 0
    mats, labels, seen, cartan = [], [], set(), []
    for i in range(n):
        for j in range(n):
            # basis element supported at (i, j) and its symplectic partner,
            # unless (i, j) is its own partner
            partner = (pair(j), pair(i))
            if partner in seen:
                continue
            m = _unit_matrix(n, i, j)
            if partner != (i, j):
                m.data[partner[0]][partner[1]] -= sign(i) * sign(j)
            seen.add((i, j))
            if i == j:
                cartan.append(len(mats))
            mats.append(m)
            labels.append(f"S{i + 1}{j + 1}")
    md = {"name": f"sp{n}", "family": "sp", "size": n, "cartan": cartan}
    alg = matrix_algebra(mats, labels, md)
    assert alg.dim == m0 * (2 * m0 + 1)
    return alg


def classical_algebra(family: str, n: int) -> LieAlgebraData:
    """Matrix Lie algebra of the stated size over Q (split forms)."""
    if n < 1:
        raise ValueError("size must be >= 1")
    build = {"gl": gl_algebra, "sl": sl_algebra, "so": so_algebra,
             "sp": sp_algebra}.get(family)
    if build is None:
        raise ValueError(f"unknown family {family!r}")
    return build(n)


def abelian_algebra(n):
    return LieAlgebraData(n, [f"a{i + 1}" for i in range(n)],
                          metadata={"name": f"abelian{n}"})


def heisenberg_algebra(n):
    """heis_n: dimension 2n+1, [p_i, q_i] = z, z central."""
    labels = [f"p{i + 1}" for i in range(n)] + [f"q{i + 1}" for i in range(n)] + ["z"]
    alg = LieAlgebraData(2 * n + 1, labels, metadata={"name": f"heis{n}"})
    for i in range(n):
        alg.set_bracket(i, n + i, {2 * n: Q1})
    return alg


def direct_sum(a: LieAlgebraData, b: LieAlgebraData) -> LieAlgebraData:
    labels = [f"L.{s}" for s in a.basis_labels] + [f"R.{s}" for s in b.basis_labels]
    out = LieAlgebraData(a.dim + b.dim, labels,
                         metadata={"name": f"{a.metadata.get('name')}+{b.metadata.get('name')}"})
    for (i, j), vec in a.brackets.items():
        out.set_bracket(i, j, dict(vec))
    for (i, j), vec in b.brackets.items():
        out.set_bracket(a.dim + i, a.dim + j, {a.dim + k: c for k, c in vec.items()})
    return out


# ---------------------------------------------------------------------------
# index, b(q), fingerprint
# ---------------------------------------------------------------------------


class IndexResult(int):
    """The index as an int, with the rank and prime of each round, whether
    the maximal rank was seen twice (stabilised), and miss_bound, a bound
    on the probability that the maximum falls short of the generic rank."""

    def __new__(cls, value, stabilised=True, samples=(), primes=(),
                miss_bound=0.0):
        obj = super().__new__(cls, value)
        obj.stabilised, obj.miss_bound = stabilised, miss_bound
        obj.samples, obj.primes = tuple(samples), tuple(primes)
        return obj


def index(L: LieAlgebraData, cfg: SampleConfig = SampleConfig()) -> IndexResult:
    """ind L = dim L - max rank B_gamma, over gamma sampled in F_p^n.

    Each round ranks (d/c) B_gamma mod p at gamma uniform in F_p^n
    (`sample_mod_p`).  A rank mod p never exceeds the rank over Q, so each
    proves ind L <= dim L - r_p; it misses the generic rank r only where an
    r x r minor, of degree r <= dim L, vanishes: probability <= dim L / p
    (Schwartz, J. ACM 27 (1980); Zippel 1979).  Sampling stops when the
    maximal rank is seen again, after at most cfg.rounds rounds; miss_bound
    is the product of dim L / p over the rounds at the maximum.
    """
    n = L.dim
    if n == 0:
        return IndexResult(0, True)
    ranks, primes = [], []
    for p, gamma in sample_mod_p(cfg, n, "index"):
        r = rank(L.kirillov_form(gamma, p))
        again = bool(ranks) and r == max(ranks)
        ranks.append(r)
        primes.append(p)
        if again:
            break
    best = max(ranks)
    at_max = [p for p, r in zip(primes, ranks) if r == best]
    return IndexResult(n - best, len(at_max) > 1, ranks, primes,
                       math.prod(n / p for p in at_max))


def b_of(L: LieAlgebraData, cfg: SampleConfig = SampleConfig()):
    """b(q) = (ind q + dim q)/2, exact integer."""
    ind = index(L, cfg)
    assert (int(ind) + L.dim) % 2 == 0
    return IndexResult((int(ind) + L.dim) // 2, **vars(ind))


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism surrogate: cheap exact invariants of a Lie algebra."""

    dim: int
    index: int
    derived_series_dims: tuple
    killing_rank: int
    center_dim: int

    def __post_init__(self):
        ds = self.derived_series_dims
        assert all(ds[i] >= ds[i + 1] for i in range(len(ds) - 1))
        assert (self.index - self.dim) % 2 == 0

    def __str__(self):
        return (f"(dim={self.dim}, ind={self.index}, "
                f"derived={list(self.derived_series_dims)}, "
                f"killing={self.killing_rank}, center={self.center_dim})")


def killing_matrix(L: LieAlgebraData) -> QMatrix:
    """tr(ad x_i ad x_j) = sum over a, b of [x_i, x_a]_b [x_j, x_b]_a: one
    outer product per pair (a, b) of the vectors i -> [x_i, x_a]_b and
    j -> [x_j, x_b]_a, summed in integers on int_ad_table."""
    n = L.dim
    d, table = L.int_ad_table
    by_pair = {}
    for i, row in enumerate(table):
        for a, vec in row.items():
            for b, c in vec.items():
                by_pair.setdefault((a, b), []).append((i, c))
    acc = [[0] * n for _ in range(n)]
    for (a, b), col in by_pair.items():
        for j, e in by_pair.get((b, a), ()):
            for i, c in col:
                acc[i][j] += c * e
    return QMatrix(n, n, [[QQ(x, d * d) if x else Q0 for x in row]
                          for row in acc])


def derived_series_dims(L: LieAlgebraData):
    """Dims of L, [L, L], [[L,L],[L,L]], ... until stable or zero."""
    dims = [L.dim]
    # first derived algebra straight from the sparse table
    span_rows = []
    for vec in L.brackets.values():
        row = [Q0] * L.dim
        for k, c in vec.items():
            row[k] = c
        span_rows.append(row)
    while True:
        if not span_rows:
            dims.append(0)
            break
        current = Basis(span_rows).rows
        r = len(current)
        dims.append(r)
        if r == dims[-2] or r == 0:
            break
        span_rows = []
        for a in range(r):
            for b in range(a + 1, r):
                v = L.bracket(current[a], current[b])
                if any(x != 0 for x in v):
                    span_rows.append(v)
    return tuple(dims)


def center_dim(L: LieAlgebraData) -> int:
    """dim of the center = common kernel of all ad maps.

    Exact rank of the matrix whose row j lists the coefficient of x_k in
    [x_i, x_j], one column per (i, k) pair present in the structure table.
    """
    pos = {}
    rows = [{} for _ in range(L.dim)]
    for (i, j), vec in L.brackets.items():
        for k, c in vec.items():
            rows[j][pos.setdefault((i, k), len(pos))] = c
            rows[i][pos.setdefault((j, k), len(pos))] = -c
    n = len(pos)
    return L.dim - rank(QMatrix(L.dim, n, [[r.get(t, Q0) for t in range(n)]
                                           for r in rows]))


def fingerprint(L: LieAlgebraData, cfg: SampleConfig = SampleConfig()) -> Fingerprint:
    ind = index(L, cfg)
    return Fingerprint(
        dim=L.dim,
        index=ind,    # an IndexResult: how the index was sampled
        derived_series_dims=derived_series_dims(L),
        killing_rank=rank(killing_matrix(L)),
        center_dim=center_dim(L),
    )


def fingerprint_sum(a: Fingerprint, b: Fingerprint) -> Fingerprint:
    """Fingerprint of a direct sum, combined componentwise."""
    la, lb = list(a.derived_series_dims), list(b.derived_series_dims)
    n = max(len(la), len(lb))
    la += [la[-1]] * (n - len(la))
    lb += [lb[-1]] * (n - len(lb))
    return Fingerprint(
        dim=a.dim + b.dim,
        index=a.index + b.index,
        derived_series_dims=tuple(x + y for x, y in zip(la, lb)),
        killing_rank=a.killing_rank + b.killing_rank,
        center_dim=a.center_dim + b.center_dim,
    )


# ---------------------------------------------------------------------------
# subalgebras
# ---------------------------------------------------------------------------


def subalgebra(L: LieAlgebraData, span) -> LieAlgebraData:
    """Structure constants of a bracket-closed span, in the echelonised basis.

    span: list of coefficient vectors in the basis of L.  Raises
    NotClosedError with a witness pair if a bracket leaves the span.
    """
    return algebra_on_basis(L, Basis([[as_q(x) for x in v] for v in span]).rows)


def algebra_on_basis(L: LieAlgebraData, basis) -> LieAlgebraData:
    """Structure constants of L on the independent vectors `basis`, in exactly
    those coordinates.  Raises NotClosedError with a witness pair if a
    bracket leaves their span.

    ad(u_i) is built once, as sparse columns {t: [u_i, x_t]}; each
    [u_i, u_j] is then read off it along supp u_j.  Both run on integers:
    each u_i is scaled by the lcm of its denominators and ad is read off
    int_ad_table; the coordinates divide both out again.
    """
    span = Basis(basis)
    k = len(basis)
    sub = LieAlgebraData(k, [f"y{i + 1}" for i in range(k)],
                         metadata={"name": "subalgebra", "parent": L,
                                   "embedding": basis})
    scaled = [_common_denominator([[(t, a) for t, a in enumerate(u) if a]])
              for u in basis]
    d, ad = L.int_ad_table
    for i, (di, (ui,)) in enumerate(scaled):
        ad_u = {}
        for s, a in ui:
            for t, vec in ad[s].items():
                col = ad_u.setdefault(t, {})
                for r, c in vec.items():
                    col[r] = col.get(r, 0) + a * c
        for j in range(i + 1, k):
            dj, (uj,) = scaled[j]
            out = [0] * L.dim
            for t, b in uj:
                for r, c in ad_u.get(t, {}).items():
                    out[r] += b * c
            coeffs = span.coords(out)
            if coeffs is None:
                raise NotClosedError(i, j)
            q = d * di * dj
            sub.set_bracket(i, j, {t: c / q for t, c in enumerate(coeffs) if c})
    return sub
