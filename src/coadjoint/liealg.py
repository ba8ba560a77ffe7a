"""Lie algebras as structure-constant tables, stored in integers.

Constructors for the split classical algebras gl, sl, so (antidiagonal
symmetric form) and sp (standard block form J = [[0, I], [-I, 0]]), plus the
index, b(q), Killing form, derived series, and the isomorphism fingerprint
used to recognise generic stabilisers.

`matrix_algebra` is the one builder of an algebra from independent matrices,
each stored as its nonzero entries {(i, j): Fraction}: the classical
algebras, sp_2k |x heis_k on its centraliser layout, and the fixed points
g_0 of a Z2-contraction all go through it.  Its expander
(`metadata["expand"]`, from `make_expander`) is the one way to write a matrix
in such a basis.

Each algebra stores its structure constants once, as `int_ad_table` =
(d, table): table[i][j] = d [x_i, x_j] in ints for every ordered pair, d the
least common denominator, written by the constructor and never changed.
Every builder writes integers (commutators of cleared matrices, cleared
module columns, brackets of cleared basis vectors), and every reader sums in
integers: brackets of vectors divide by d at the end, while the Kirillov
and Killing forms, the derived and centre ranks (on `IntRows`), subalgebras
and the derivations of `invariants` stay integral.

The index is computed per its definition, ind q = dim q - max rank B_gamma,
with the ranks sampled over F_p; the result records the ranks, the primes,
whether the maximal rank was seen twice (`stabilised`) and a miss bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    Q0,
    Q1,
    QQ,
    Basis,
    IntRows,
    ModMatrix,
    SampleConfig,
    UnitBasis,
    VerificationError,
    _common_denominator,
    _dense,
    rank,
    sample_mod_p,
)


class NotClosedError(ValueError, VerificationError):
    """A span fails to be bracket-closed; carries a witness pair."""

    def __init__(self, i, j):
        self.witness = (i, j)
        super().__init__(f"span not closed under bracket: witness pair ({i}, {j})")


class LieAlgebraData:
    """A Lie algebra by its structure constants, stored once, in integers.

    int_ad_table = (d, table): table[i][j] = d [x_i, x_j] as {k: int} for
    every ordered pair with a nonzero bracket (table[j][i] is its negative),
    d the least common denominator of the structure constants.  The
    constructor is the one builder: `brackets` maps each pair (i, j), i < j,
    to d [x_i, x_j] as {k: int or rational}.  Integer input is stored as
    given, in copies without its zeros; any other is cleared of its
    denominators; a common factor above 1 is divided out.  Nothing writes
    the table afterwards; read it, never write it.  What the table
    determines (its list of brackets, its content, the arrays that assemble
    the Kirillov form mod p, dim [L, L] and the Killing rank) is computed
    once, when first read.  metadata carries optional construction hints
    (matrix realisation, Cartan indices) used by downstream fast paths;
    none of it is required for correctness.
    """

    def __init__(self, dim, basis_labels=None, brackets=None, metadata=None,
                 d=1):
        self.dim = dim
        self.basis_labels = basis_labels or [f"x{i}" for i in range(dim)]
        if len(self.basis_labels) != dim:
            raise ValueError(f"{len(self.basis_labels)} labels for dim {dim}")
        self.metadata = metadata or {}
        items = (brackets or {}).items()
        if all(type(c) is int for _, vec in items for c in vec.values()):
            e, items = 1, [(ij, {k: c for k, c in vec.items() if c})
                           for ij, vec in items]
        else:
            e = math.lcm(1, *(c.denominator for _, vec in items
                              for c in vec.values()))
            items = [(ij, {k: c.numerator * (e // c.denominator)
                           for k, c in vec.items() if c}) for ij, vec in items]
        g = math.gcd(d * e, *(c for _, vec in items for c in vec.values()))
        table = [{} for _ in range(dim)]
        for (i, j), vec in items:
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket pair ({i}, {j}) is not i < j < {dim}")
            if vec:
                table[i][j] = vec if g == 1 else {k: c // g
                                                  for k, c in vec.items()}
                table[j][i] = {k: -c for k, c in table[i][j].items()}
        self.int_ad_table = (d * e // g, table)

    def int_brackets(self):
        """(i, j, d [x_i, x_j] as {k: int}) over the pairs i < j with a
        nonzero bracket: one shared list, never written."""
        return self._brackets

    @functools.cached_property
    def _brackets(self):
        return [(i, j, vec) for i, row in enumerate(self.int_ad_table[1])
                for j, vec in row.items() if i < j]

    @functools.cached_property
    def _content(self):
        """The gcd of every structure constant in the table."""
        return math.gcd(*(x for *_, vec in self._brackets
                          for x in vec.values()))

    @functools.cached_property
    def _bracket_arrays(self):
        """(positions i n + j, indices k, constants x / c) over the brackets
        d [x_i, x_j] = sum x x_k, i < j, c the content: an int64 array of
        constants when every |x / c| < 2^47, so that a product with a
        residue below 2^16 fits in int64, and a list of ints otherwise."""
        n, c, brackets = self.dim, self._content, self._brackets
        pos = [i * n + j for i, j, vec in brackets for _ in vec]
        k = [k for *_, vec in brackets for k in vec]
        x = [x // c for *_, vec in brackets for x in vec.values()]
        if max(map(abs, x), default=0) < 2 ** 47:
            x = np.array(x, np.int64)
        return np.array(pos, np.int64), np.array(k, np.int64), x

    @functools.cached_property
    def killing_rank(self):
        """The rank of the Killing form."""
        return rank(killing_matrix(self))

    @functools.cached_property
    def derived_dim(self):
        """dim [L, L]: the rank of the rows of the integer table."""
        return rank(IntRows(self.dim, [vec for *_, vec in self._brackets]))

    def bracket_basis(self, i, j):
        """[x_i, x_j] as {k: rational}."""
        d, table = self.int_ad_table
        return {k: QQ(c, d) for k, c in table[i].get(j, {}).items()}

    def bracket(self, u, v):
        """[u, v] for coefficient vectors u, v.

        Walks supp u x supp v through the integer table, u and v cleared of
        their denominators: the cost grows with the supports of u and v, not
        with the size of the table.
        """
        d, table = self.int_ad_table
        (du, (su,)), (dv, (sv,)) = (
            _common_denominator([[(i, a) for i, a in enumerate(w) if a]])
            for w in (u, v))
        out = {}
        for i, a in su:
            row = table[i]
            for j, b in sv:
                for k, c in row.get(j, {}).items():
                    out[k] = out.get(k, 0) + a * b * c
        q = d * du * dv
        res = [Q0] * self.dim
        for k, c in out.items():
            if c:
                res[k] = QQ(c, q)
        return res

    def kirillov_form(self, gamma, p=None):
        """The antisymmetric matrix B_gamma(x_i, x_j) = gamma([x_i, x_j]),
        summed in integers from int_ad_table.

        Over Q: the IntRows of q B_gamma, q = d D, with gamma cleared of its
        denominators to D gamma.  Given a prime p and gamma in F_p^n: the
        ModMatrix of (d/c) B_gamma mod p, c the content of the table, so
        that brackets all divisible by p do not vanish mod p; its upper
        triangle is one scatter-add of (x/c) gamma_k mod p over
        `_bracket_arrays`, and the form is that minus its transpose.
        """
        n = self.dim
        if p is not None:
            pos, k, x = self._bracket_arrays
            if not isinstance(x, np.ndarray):
                x = np.array([c % p for c in x], np.int64)
            b = np.zeros(n * n, np.int64)
            np.add.at(b, pos, x * (np.array(gamma, np.int64) % p)[k] % p)
            b = b.reshape(n, n)
            b -= b.T    # in place: numpy copies an overlapping operand first
            b %= p
            return ModMatrix(b, p)
        _, (g,) = _common_denominator([[(k, x) for k, x in enumerate(gamma)
                                        if x]])
        g = _dense(dict(g), n)
        a = [[0] * n for _ in range(n)]
        for i, j, vec in self.int_brackets():
            s = sum(x * g[k] for k, x in vec.items())
            a[i][j], a[j][i] = s, -s
        return IntRows(n, [{j: x for j, x in enumerate(r) if x} for r in a])

    def check_jacobi(self, max_dim=200):
        """Exhaustive Jacobi check on the integer table (d^2 times each
        Jacobi sum); raises VerificationError with a witness triple.
        Returns True when the check ran, False when dim > max_dim skipped
        it."""
        if self.dim > max_dim:
            return False
        n = self.dim
        table = self.int_ad_table[1]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, x in table[a].get(b, {}).items():
                            for mth, y in table[l].get(c, {}).items():
                                acc[mth] = acc.get(mth, 0) + x * y
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


def matrix_algebra(n, mats, labels, metadata):
    """The Lie algebra spanned by independent n x n matrices, in their basis.

    The matrices are sparse, {(i, j): nonzero Fraction}.  The only builder
    of an algebra from matrices: metadata gains "matrices", "matrix_size"
    and "expand" (make_expander on mats).  The commutators are taken in
    integers, of the matrices times D, the lcm of their denominators, by
    one join (`_commutators`), and the expander writes each D^2 [A, B] in
    the basis, in (a, b) order: the table is built with d = D^2.  Raises
    VerificationError when a commutator leaves the span.
    """
    expand = make_expander(mats)
    metadata = dict(metadata, matrices=mats, expand=expand, matrix_size=n)
    D = math.lcm(1, *(v.denominator for m in mats for v in m.values()))
    cleared = [{pos: v.numerator * (D // v.denominator) for pos, v in m.items()}
               for m in mats]
    brackets = {ab: expand(comm) for ab, comm in _commutators(cleared).items()}
    return LieAlgebraData(len(mats), labels, brackets, metadata, d=D * D)


def _commutators(mats):
    """{(a, b): [A_a, A_b]}, in (a, b) order, over the pairs a < b with a
    nonzero commutator of sparse {(i, j): v} matrices, by one join: the
    entries are indexed by row once, and each nonzero product A_a[i, k]
    A_b[k, j] is formed once, added to [A_a, A_b] when a < b and subtracted
    from [A_b, A_a] when a > b; pairs that never meet are never visited."""
    by_row = {}
    for b, m in enumerate(mats):
        for (k, j), v in m.items():
            by_row.setdefault(k, []).append((b, j, v))
    comms = {}
    for a, m in enumerate(mats):
        for (i, k), va in m.items():
            for b, j, vb in by_row.get(k, ()):
                if b != a:
                    x = va * vb
                    acc = comms.setdefault((a, b) if a < b else (b, a), {})
                    acc[i, j] = acc.get((i, j), 0) + (x if a < b else -x)
    return {ab: comm for ab in sorted(comms)
            if (comm := {pos: v for pos, v in comms[ab].items() if v})}


def _quotient(a, b):
    """a / b exactly; an int when it is integral."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _integral(QQ(a) / b)


def _integral(x):
    """The rational x, as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def make_expander(mats):
    """Return a function writing a sparse matrix in the span of mats.

    mats may be any independent family of sparse square matrices.  A
    position owned by a single matrix fixes that matrix's coefficient
    exactly, and is peeled off (all off-diagonal positions of the classical
    bases); whatever remains is solved on the positions with several owners,
    in the matrices that own no position alone.  Raises VerificationError
    outside the span.  Integral entries are kept as ints, so an integer
    target over a basis of integer matrices is peeled in integers, and every
    integral coefficient is returned as an int.
    """
    dim = len(mats)
    owners = {}
    sparse = [{pos: v.numerator if v.denominator == 1 else v
               for pos, v in m.items()} for m in mats]
    for b, entries in enumerate(sparse):
        for pos in entries:
            owners.setdefault(pos, []).append(b)
    single = {pos: bs[0] for pos, bs in owners.items() if len(bs) == 1}
    multi_idx = [b for b in range(dim) if not any(p in single for p in sparse[b])]
    multi_pos = sorted({pos for pos, bs in owners.items() if len(bs) > 1})
    multi = Basis([[sparse[b].get(pos, 0) for pos in multi_pos]
                   for b in multi_idx])

    def expand(target):
        """target: sparse {(i,j): value}; returns {basis_idx: coeff}."""
        work = dict(target)
        coeffs = {}
        for pos in list(work):
            b = single.get(pos)
            if b is None or not work.get(pos):
                continue
            f = _quotient(work[pos], sparse[b][pos])
            coeffs[b] = coeffs.get(b, 0) + f
            for p2, v2 in sparse[b].items():
                r = work.get(p2, 0) - f * v2
                if r == 0:
                    work.pop(p2, None)
                else:
                    work[p2] = r
        residue = {p for p, v in work.items() if v != 0}
        if residue:
            rhs = [work.get(pos, 0) for pos in multi_pos]
            sol = multi.coords(rhs) if residue <= set(multi_pos) else None
            if sol is None:
                raise VerificationError(f"matrix not in span: {residue}")
            for b_local, c in enumerate(sol):
                if c != 0:
                    b = multi_idx[b_local]
                    coeffs[b] = coeffs.get(b, 0) + _integral(c)
        return coeffs

    return expand


def gl_algebra(n):
    mats, labels = [], []
    for i in range(n):
        for j in range(n):
            mats.append({(i, j): Q1})
            labels.append(f"E{i + 1}{j + 1}")
    md = {"name": f"gl{n}", "family": "gl", "size": n,
          "cartan": list(range(0, n * n, n + 1))}
    return matrix_algebra(n, mats, labels, md)


def sl_algebra(n):
    mats = [{(i, i): Q1, (i + 1, i + 1): -Q1} for i in range(n - 1)]
    labels = [f"H{i + 1}" for i in range(n - 1)]
    for i in range(n):
        for j in range(n):
            if i != j:
                mats.append({(i, j): Q1})
                labels.append(f"E{i + 1}{j + 1}")
    md = {"name": f"sl{n}", "family": "sl", "size": n, "cartan": list(range(n - 1))}
    return matrix_algebra(n, mats, labels, md)


def so_algebra(n):
    """so_n for the split symmetric form with ones on the antidiagonal."""
    bar = lambda i: n - 1 - i
    mats, labels, seen = [], [], set()
    cartan = []
    for i in range(n):
        for j in range(n):
            # E_ij - E_{bar j, bar i}, zero when j = bar(i)
            if (i, j) in seen or (bar(j), bar(i)) in seen or j == bar(i):
                continue
            seen.add((i, j))
            if i == j:
                cartan.append(len(mats))
            mats.append({(i, j): Q1, (bar(j), bar(i)): -Q1})
            labels.append(f"F{i + 1}{j + 1}")
    md = {"name": f"so{n}", "family": "so", "size": n, "cartan": cartan}
    return matrix_algebra(n, mats, labels, md)


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
            m = {(i, j): Q1}
            if partner != (i, j):
                m[partner] = QQ(-sign(i) * sign(j))
            seen.add((i, j))
            if i == j:
                cartan.append(len(mats))
            mats.append(m)
            labels.append(f"S{i + 1}{j + 1}")
    md = {"name": f"sp{n}", "family": "sp", "size": n, "cartan": cartan}
    alg = matrix_algebra(n, mats, labels, md)
    if alg.dim != m0 * (2 * m0 + 1):
        raise VerificationError(f"sp{n} has dimension {alg.dim}, "
                                f"not {m0 * (2 * m0 + 1)}")
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
    return LieAlgebraData(2 * n + 1, labels,
                          {(i, n + i): {2 * n: 1} for i in range(n)},
                          {"name": f"heis{n}"})


def direct_sum(a: LieAlgebraData, b: LieAlgebraData) -> LieAlgebraData:
    labels = [f"L.{s}" for s in a.basis_labels] + [f"R.{s}" for s in b.basis_labels]
    brackets = {(off + i, off + j): {off + k: QQ(c, alg.int_ad_table[0])
                                     for k, c in vec.items()}
                for off, alg in ((0, a), (a.dim, b))
                for i, j, vec in alg.int_brackets()}
    return LieAlgebraData(a.dim + b.dim, labels, brackets,
                          {"name": f"{a.metadata.get('name')}+{b.metadata.get('name')}"})


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
    if (int(ind) + L.dim) % 2:
        raise VerificationError(f"ind q = {int(ind)} and dim q = {L.dim} "
                                f"differ in parity")
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
        if any(ds[i] < ds[i + 1] for i in range(len(ds) - 1)):
            raise VerificationError(f"derived series {list(ds)} increases")
        if (self.index - self.dim) % 2:
            raise VerificationError(f"ind = {self.index} and dim = {self.dim} "
                                    f"differ in parity")

    def __str__(self):
        return (f"(dim={self.dim}, ind={self.index}, "
                f"derived={list(self.derived_series_dims)}, "
                f"killing={self.killing_rank}, center={self.center_dim})")


def killing_matrix(L: LieAlgebraData) -> IntRows:
    """d^2 tr(ad x_i ad x_j), as IntRows: tr(ad x_i ad x_j) = sum over a, b
    of [x_i, x_a]_b [x_j, x_b]_a, one outer product per pair (a, b) of the
    vectors i -> [x_i, x_a]_b and j -> [x_j, x_b]_a, summed in integers on
    int_ad_table."""
    n = L.dim
    by_pair = {}
    for i, row in enumerate(L.int_ad_table[1]):
        for a, vec in row.items():
            for b, c in vec.items():
                by_pair.setdefault((a, b), []).append((i, c))
    acc = [[0] * n for _ in range(n)]
    for (a, b), col in by_pair.items():
        for j, e in by_pair.get((b, a), ()):
            for i, c in col:
                acc[i][j] += c * e
    return IntRows(n, [{j: x for j, x in enumerate(row) if x} for row in acc])


def derived_series_dims(L: LieAlgebraData):
    """Dims of L, [L, L], [[L,L],[L,L]], ... until stable or zero."""
    dims = [L.dim, L.derived_dim]
    if 0 < dims[1] < L.dim:
        basis = Basis([_dense(vec, L.dim) for *_, vec in L.int_brackets()])
    while 0 < dims[-1] < dims[-2]:
        current = basis.rows
        basis = Basis([v for a, u in enumerate(current) for w in current[a + 1:]
                       if any(v := L.bracket(u, w))])
        dims.append(len(basis))
    return tuple(dims)


def center_dim(L: LieAlgebraData) -> int:
    """dim of the center = common kernel of all ad maps.

    Exact rank of the integer matrix whose row j lists the coefficient of
    x_k in d [x_i, x_j], one column per (i, k) pair present in the table.
    """
    pos = {}
    rows = [{} for _ in range(L.dim)]
    for i, j, vec in L.int_brackets():
        for k, c in vec.items():
            rows[j][pos.setdefault((i, k), len(pos))] = c
            rows[i][pos.setdefault((j, k), len(pos))] = -c
    return L.dim - rank(IntRows(len(pos), rows))


def fingerprint(L: LieAlgebraData, cfg: SampleConfig = SampleConfig()
                ) -> Fingerprint:
    """The fingerprint of L."""
    ind = index(L, cfg)
    return Fingerprint(
        dim=L.dim,
        index=ind,    # an IndexResult: how the index was sampled
        derived_series_dims=derived_series_dims(L),
        killing_rank=L.killing_rank,
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
    """Structure constants of a bracket-closed span, in the echelonised basis
    (whose pivots are its unit columns, see algebra_on_basis).

    span: list of coefficient vectors in the basis of L.  Raises
    NotClosedError with a witness pair if a bracket leaves the span.
    """
    echelon = Basis(span)
    return algebra_on_basis(L, echelon.rows, echelon.pivots)


def algebra_on_basis(L: LieAlgebraData, basis, units=None) -> LieAlgebraData:
    """Structure constants of L on the independent vectors `basis`, in exactly
    those coordinates, built in integers.  Raises NotClosedError with a
    witness pair if a bracket leaves their span.

    The vectors are cleared to U = E basis (E the lcm of their
    denominators).  ad(U_i) is built once, as sparse columns
    {t: d [U_i, x_t]}, and w = d [U_i, U_j] = d E^2 [u_i, u_j] is read off
    it along supp U_j; the table is built with d E^2 from the coordinates of
    w: read at units, when given, the unit columns of the basis
    (`UnitBasis`), and checked exactly; otherwise Basis.coords.
    """
    k = len(basis)
    if units is None:
        span = Basis(basis)
        E, rows = _common_denominator([[(t, a) for t, a in enumerate(u) if a]
                                       for u in basis])

        def coords(w):
            c = span.coords(_dense(w, L.dim))
            return None if c is None else dict(enumerate(c))
    else:
        span = UnitBasis(basis, units)
        E, rows, coords = span.E, span.rows, span.coords
    table = L.int_ad_table[1]
    brackets = {}
    for i, ui in enumerate(rows):
        ad_u = {}
        for s, a in ui:
            for t, vec in table[s].items():
                col = ad_u.setdefault(t, {})
                for r, c in vec.items():
                    col[r] = col.get(r, 0) + a * c
        for j in range(i + 1, k):
            w = {}
            for t, b in rows[j]:
                for r, c in ad_u.get(t, {}).items():
                    w[r] = w.get(r, 0) + b * c
            coeffs = coords(w)
            if coeffs is None:
                raise NotClosedError(i, j)
            brackets[(i, j)] = coeffs
    return LieAlgebraData(k, [f"y{i + 1}" for i in range(k)], brackets,
                          {"name": "subalgebra", "embedding": basis},
                          d=L.int_ad_table[0] * E * E)
