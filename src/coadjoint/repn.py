"""Construction of the g-modules appearing in the verification tables.

A module is stored in integers, like the table of `LieAlgebraData` and in
its one sparse form: the columns of d times its action matrices as
{row: int} dicts of their nonzero entries, one list of columns per basis
element of the algebra and one d, together with per-summand block
bookkeeping.  No weights are stored: where the Cartan acts diagonally they
are the integer diagonal of its action, read off the table of the product by
`SemiDirectProduct.weight_data`.
Every constructor writes the int columns once, with its own d: the defining
module and `from_matrices` clear their rational matrices once, powers and
duals keep the d of their module, direct sums rescale to the lcm of theirs.
Submodules, stabilisers, semi-direct products and `check_representation`
read the ints as they are.  The dense `action` matrices are the rational
view for the tests, built on request, and `RepresentationData.from_matrices`
makes a module of arbitrary dense matrices, for checking.  The commutator
compatibility check `check_representation` is the ground truth every
constructor is tested against.

A bilinear form is sparse with integer entries, {(i, j): int}, and
`preserves_form` is the one test of X^T F + F X = 0.  The primitive parts of
exterior powers are kernels of contraction with such a form, one `IntRows`
system over all of Lambda^k.  A submodule basis, like a stabiliser's, is 1
at its own unit column and 0 at the others' (`UnitBasis`): each image is
summed in integers and its coordinates are read at those columns.

The spin representations use the fermionic Fock model: so_n in the split form
acts through the Clifford algebra on the exterior algebra of a maximal
isotropic subspace, which keeps all matrix entries in 1/2 Z: int columns
over d = 2.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .liealg import LieAlgebraData, classical_algebra
from .qlinalg import (IntRows, QMatrix, QQ, UnitBasis, VerificationError,
                      _common_denominator, _nonzero, kernel_basis)


class RepresentationData:
    """A module V of a Lie algebra g, as the sparse int columns of its action.

    columns[i][v] = {w: c} holds the nonzero entries of column v of d times
    the matrix of x_i on V, as ints: the same form as the rows of
    `LieAlgebraData.int_ad_table`, d a common denominator of the action (not
    necessarily the least).  Each constructor writes the columns once;
    they are never modified after construction.  blocks lists
    (label, offset, size) covering [0, dim_V).
    """

    def __init__(self, algebra: LieAlgebraData, columns, dim_V, label="",
                 blocks=None, d=1):
        if len(columns) != algebra.dim or any(len(c) != dim_V for c in columns):
            raise ValueError(f"a module of {algebra!r} needs {algebra.dim} "
                             f"lists of {dim_V} columns")
        self.algebra = algebra
        self.columns = columns
        self.dim_V = dim_V
        self.label = label
        self.blocks = blocks or [(label or "V", 0, dim_V)]
        self.d = d

    @classmethod
    def from_matrices(cls, algebra: LieAlgebraData, mats, label):
        """The module whose action matrices are `mats` (square, one per
        basis element of the algebra)."""
        n = mats[0].rows if mats else 0
        if any(m.rows != n or m.cols != n for m in mats):
            raise ValueError(f"action matrices must all be {n} x {n}")
        return _cleared(algebra, [[{w: row[v] for w, row in enumerate(m.data)
                                    if row[v]} for v in range(n)]
                                  for m in mats], n, label)

    @property
    def action(self):
        """The dense rational action matrices, built from the columns on
        each access: a view for the tests, which no program path builds."""
        out = []
        for cols in self.columns:
            m = QMatrix.zero(self.dim_V, self.dim_V)
            for v, col in enumerate(cols):
                for w, c in col.items():
                    m.data[w][v] = QQ(c, self.d)
            out.append(m)
        return out

    def __repr__(self):
        return f"<module {self.label!r} of {self.algebra!r}, dim {self.dim_V}>"


def _cleared(algebra, columns, dim_V, label):
    """The module of the rational columns {w: c}, cleared once by the lcm of
    their denominators."""
    d, flat = _common_denominator([col for cols in columns for col in cols])
    return RepresentationData(algebra, [flat[i:i + dim_V] for i in
                                        range(0, len(flat), dim_V)],
                              dim_V, label, d=d)


def check_representation(R: RepresentationData, max_cost=10 ** 7):
    """Exhaustive commutator compatibility, cost-capped.

    [rho(x_i), rho(x_j)] must equal rho([x_i, x_j]) = sum_k c_k rho(x_k) for
    all basis pairs.  With M_i = D rho(x_i) the int columns of the module
    (D = R.d) and d c_k read off the integer table of the algebra, that is
    d [M_i, M_j] = sum_k (d c_k D) M_k, checked exactly on integer matrices:
    int64 when a bound on every entry fits, Python integers otherwise.
    Returns True when the check ran, False when dim g * (dim V)^2 > max_cost
    skipped it.
    """
    import numpy as np

    L = R.algebra
    n = R.dim_V
    if L.dim * n ** 2 > max_cost:
        return False
    amax = max((abs(c) for cols in R.columns for col in cols
                for c in col.values()), default=0)
    d, table = L.int_ad_table
    pairs = [(i, j, {k: c * R.d for k, c in table[i].get(j, {}).items()})
             for i in range(L.dim) for j in range(i + 1, L.dim)]
    bound = max((2 * n * amax * amax * d
                 + (amax + 1) * sum(map(abs, b.values()))
                 for _, _, b in pairs), default=0)
    dtype = np.int64 if bound < 2 ** 62 else object
    M = [np.zeros((n, n), dtype=dtype) for _ in R.columns]
    for m, cols in zip(M, R.columns):
        for v, col in enumerate(cols):
            for w, c in col.items():
                m[w, v] = c
    for i, j, b in pairs:
        expect = np.zeros((n, n), dtype=dtype)
        for k, c in b.items():
            expect = expect + M[k] * c
        if not np.array_equal((M[i] @ M[j] - M[j] @ M[i]) * d, expect):
            raise VerificationError(
                f"representation property fails at pair ({i},{j})")
    return True


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def standard_rep(L: LieAlgebraData) -> RepresentationData:
    """The defining module k^n of a matrix-constructed algebra."""
    mats = L.metadata.get("matrices")
    if mats is None:
        raise ValueError("standard_rep requires a matrix-constructed algebra")
    n = L.metadata["matrix_size"]
    return _cleared(L, [[{w: c for (w, u), c in m.items() if u == v}
                         for v in range(n)] for m in mats], n, "phi1")


def trivial_rep(L: LieAlgebraData, dim=1) -> RepresentationData:
    return RepresentationData(
        L, [[{} for _ in range(dim)] for _ in range(L.dim)], dim,
        label="trivial")


def dual_rep(R: RepresentationData) -> RepresentationData:
    """Dual module: action matrices are negated transposes, written column
    by column from the columns of R."""
    columns = []
    for cols in R.columns:
        dual = [{} for _ in range(R.dim_V)]
        for v, col in enumerate(cols):
            for w, c in col.items():
                dual[w][v] = -c
        columns.append(dual)
    return RepresentationData(R.algebra, columns, R.dim_V, f"({R.label})*",
                              d=R.d)


def direct_sum_rep(*reps, labels=None) -> RepresentationData:
    """The direct sum, its columns rescaled to the lcm of the summands' d."""
    alg = reps[0].algebra
    if any(r.algebra is not alg for r in reps):
        raise ValueError("a direct sum needs modules of one algebra")
    offsets = list(itertools.accumulate((r.dim_V for r in reps[:-1]), initial=0))
    d = math.lcm(*(r.d for r in reps))
    columns = [[{off + w: c * (d // r.d) for w, c in col.items()}
                for r, off in zip(reps, offsets) for col in r.columns[i]]
               for i in range(alg.dim)]
    blocks = [(labels[idx] if labels else f"{r.label}#{idx}", off, r.dim_V)
              for idx, (r, off) in enumerate(zip(reps, offsets))]
    return RepresentationData(alg, columns, sum(r.dim_V for r in reps),
                              label="+".join(r.label for r in reps),
                              blocks=blocks, d=d)


def _power(R: RepresentationData, basis, label, derive):
    """The module on `basis` (tuples of basis indices of R) in which x_i
    sends basis vector b to the sum of c * nb over (nb, c) in
    derive(b, R.columns[i]), over the d of R."""
    idx = {b: t for t, b in enumerate(basis)}
    action = []
    for columns in R.columns:
        cols = []
        for b in basis:
            acc = {}
            for nb, c in derive(b, columns):
                acc[idx[nb]] = acc.get(idx[nb], 0) + c
            cols.append(_nonzero(acc))
        action.append(cols)
    out = RepresentationData(R.algebra, action, len(basis), label=label,
                             d=R.d)
    out.basis_tags = basis
    return out


def exterior_power(R: RepresentationData, k: int) -> RepresentationData:
    """Lambda^k of a module, derivation action on the wedge basis."""
    if k > R.dim_V:
        raise ValueError("k exceeds the module dimension")

    def derive(b, columns):
        # slot pos turns v into w, which then moves to its sorted place t
        # past |t - pos| other factors
        for pos, v in enumerate(b):
            rest = b[:pos] + b[pos + 1:]
            for w, c in columns[v].items():
                if w not in rest:
                    t = bisect.bisect(rest, w)
                    yield rest[:t] + (w,) + rest[t:], -c if (t - pos) % 2 else c

    return _power(R, list(itertools.combinations(range(R.dim_V), k)),
                  f"L{k}({R.label})", derive)


def symmetric_power(R: RepresentationData, k: int) -> RepresentationData:
    """S^k of a module, derivation action on the monomial basis."""
    def derive(b, columns):
        # equal slots act once, times their multiplicity
        for pos, v in enumerate(b):
            if pos == 0 or v != b[pos - 1]:
                rest = b[:pos] + b[pos + 1:]
                for w, c in columns[v].items():
                    yield tuple(sorted(rest + (w,))), c * b.count(v)

    return _power(R, list(itertools.combinations_with_replacement(
        range(R.dim_V), k)), f"S{k}({R.label})", derive)


class FormNotInvariantError(ValueError, VerificationError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"form not invariant: witness basis index {witness}")


def preserves_form(X, form) -> bool:
    """X^T F + F X = 0 for sparse {(i, j): value} matrices X and F = form:
    X lies in the Lie algebra of the form."""
    rows, cols = {}, {}
    for (i, j), f in form.items():
        rows.setdefault(i, {})[j] = f
        cols.setdefault(j, {})[i] = f
    acc = {}
    for (k, l), x in X.items():
        for j, f in rows.get(k, {}).items():
            acc[l, j] = acc.get((l, j), 0) + x * f
        for i, f in cols.get(k, {}).items():
            acc[i, l] = acc.get((i, l), 0) + f * x
    return not any(acc.values())


def check_form_invariant(R: RepresentationData, form):
    """form(Xu, v) + form(u, Xv) = 0 for every basis action X, read off the
    sparse columns of R."""
    for i, cols in enumerate(R.columns):
        X = {(w, v): c for v, col in enumerate(cols) for w, c in col.items()}
        if not preserves_form(X, form):
            raise FormNotInvariantError(i)


def contraction_kernel(R: RepresentationData, form, k: int
                       ) -> RepresentationData:
    """Primitive part of Lambda^k: kernel of contraction with the integer
    form {(i, j): int}.

    The contraction sends v_1 ^ ... ^ v_k to
    sum_{a<b} (-1)^{a+b-1} form(v_a, v_b) v_1 ^ ... (drop a, b) ... ^ v_k;
    its kernel is a submodule because the form is invariant (verified).  The
    map is one `IntRows` over Lambda^k, its rows keyed by the basis tuple of
    Lambda^{k-2}; its kernel, in the normal form of `kernel_basis`, is read
    at its free columns.  The map commutes with a diagonal Cartan, so the
    system splits over the weight classes, disjoint column sets, and by
    uniqueness the normal form is the union of theirs: a weight basis.
    """
    check_form_invariant(R, form)
    ext = exterior_power(R, k)
    if k < 2:
        return ext
    rows = {}
    for col, b in enumerate(ext.basis_tags):
        for a in range(k):
            for c in range(a + 1, k):
                f = form.get((b[a], b[c]))
                if f:
                    rest = b[:a] + b[a + 1:c] + b[c + 1:]
                    rows.setdefault(rest, {})[col] = f if (a + c) % 2 else -f
    ker = kernel_basis(IntRows(ext.dim_V, list(rows.values())))
    return _submodule(ext, ker, f"L{k}0({R.label})",
                      [max(t for t, a in enumerate(v) if a) for v in ker])


def _submodule(R: RepresentationData, vectors, label, units):
    """Restrict the action to the span of `vectors`, a `UnitBasis` on units
    (not necessarily of weight vectors).  Each image R.d rho(x_i) (E v) is
    summed in integers from the columns of R and read at the units: the
    submodule's columns over R.d E.  Raises VerificationError if the span
    is not invariant."""
    span = UnitBasis(vectors, units)
    action = []
    for columns in R.columns:
        cols = []
        for U in span.rows:
            w = {}
            for u, a in U.items():
                for r, c in columns[u].items():
                    w[r] = w.get(r, 0) + a * c
            coeffs = span.coords(w)
            if coeffs is None:
                raise VerificationError("span is not invariant under the action")
            cols.append(coeffs)
        action.append(cols)
    return RepresentationData(R.algebra, action, len(vectors), label=label,
                              d=R.d * span.E)


# ---------------------------------------------------------------------------
# spin representations
# ---------------------------------------------------------------------------


def _clifford_generators(n):
    """Gamma maps for the split form on k^n, acting on Lambda(U).

    U = span(e_1 .. e_m) is maximal isotropic, the pairing is with
    e_bar(i) = e_{n+1-i}; convention gamma(v) gamma(w) + gamma(w) gamma(v)
    = 2 B(v, w).  Odd n has a middle vector acting as the parity involution.
    Each gamma is stored sparsely as {col: (row, int)} (at most one entry
    per column), so products compose in O(dim).
    """
    m = n // 2
    basis = [s for r in range(m + 1) for s in itertools.combinations(range(m), r)]
    idx = {s: i for i, s in enumerate(basis)}

    def creation(i):
        g = {}
        for s, col in idx.items():
            if i in s:
                continue
            new = tuple(sorted(s + (i,)))
            sign = (-1) ** sum(1 for x in s if x < i)
            g[col] = (idx[new], sign)
        return g

    def annihilation(i):
        g = {}
        for s, col in idx.items():
            if i not in s:
                continue
            new = tuple(x for x in s if x != i)
            sign = (-1) ** sum(1 for x in s if x < i)
            g[col] = (idx[new], 2 * sign)
        return g

    gammas = [None] * n
    for i in range(m):
        gammas[i] = creation(i)
        gammas[n - 1 - i] = annihilation(i)
    if n % 2 == 1:
        gammas[m] = {col: (col, (-1) ** len(s)) for s, col in idx.items()}
    return gammas, basis


def spin_rep(n: int, half: str | None = None, L=None) -> RepresentationData:
    """Spin (n odd) or half-spin (n even) representation of so_n.

    half: 'even' or 'odd' selects the chirality for even n (the parity of the
    Fock degree); must be None for odd n.  A half is built alone, on the
    Fock columns of its parity in order: so_n acts by 1/4 [gamma(v),
    gamma(w)], and each Clifford generator moves the Fock degree by one
    (Chevalley, The algebraic theory of spinors, 1954), so the half is a
    submodule; an image outside it raises VerificationError.
    """
    if n < 3:
        raise ValueError("spin_rep requires n >= 3")
    if n % 2 == 1 and half is not None:
        raise ValueError("chirality only exists for even n")
    if n % 2 == 0 and half not in ("even", "odd"):
        raise ValueError("even n requires half='even' or half='odd'")
    if L is None:
        L = classical_algebra("so", n)
    elif L.metadata.get("family") != "so" or L.metadata.get("size") != n:
        raise ValueError(f"spin_rep({n}) needs L = so_{n}")
    gammas, basis = _clifford_generators(n)
    keep = [col for col, s in enumerate(basis)
            if half is None or len(s) % 2 == (half == "odd")]
    at = {col: t for t, col in enumerate(keep)}
    action = []
    for bm in L.metadata["matrices"]:
        # bm = E_pq - E_{bar q, bar p} = R_{e_p, e_bar(q)}, and
        # sigma(R_{v,w}) = 1/4 [gamma(v), gamma(w)]; walk each antisymmetric
        # entry pair once.  By the Clifford relation [gamma_p, gamma_r] =
        # 2 gamma_p gamma_r - 2 B(e_p, e_r), and B(e_p, e_bar(q)) = 1 exactly
        # when q = p.  The entries of bm are +-1, so 2 sigma(bm) is written
        # in ints: d = 2
        acc = [{} for _ in at]
        seenpairs = set()
        for (p, q), x in bm.items():
            if (n - 1 - q, n - 1 - p) in seenpairs:
                continue
            seenpairs.add((p, q))
            gp, c = gammas[p], int(x)
            for col, (mid, c1) in gammas[n - 1 - q].items():
                if col in at and mid in gp:
                    row, c2 = gp[mid]
                    if row not in at:
                        raise VerificationError(f"column {row} leaves the half")
                    a = acc[at[col]]
                    a[at[row]] = a.get(at[row], 0) + c * c1 * c2
            if p == q:
                for t, a in enumerate(acc):
                    a[t] = a.get(t, 0) - c
        action.append([_nonzero(a) for a in acc])
    label = f"spin({n})" if half is None else f"spin({n},{half})"
    return RepresentationData(L, action, len(at), label=label, d=2)


# ---------------------------------------------------------------------------
# module specs (table column V)
# ---------------------------------------------------------------------------


def adjoint_rep(L: LieAlgebraData) -> RepresentationData:
    """The adjoint module, its columns d [x_i, x_j] read straight off the
    integer table of L."""
    d, table = L.int_ad_table
    return RepresentationData(
        L, [[row.get(j, {}) for j in range(L.dim)] for row in table], L.dim,
        label="adjoint", d=d)


def symplectic_form(n: int) -> dict:
    """J = [[0, I], [-I, 0]] on k^n, n even, as {(i, j): +-1}."""
    if n % 2:
        raise ValueError(f"a symplectic form needs an even size, not {n}")
    m0 = n // 2
    return {**{(i, m0 + i): 1 for i in range(m0)},
            **{(m0 + i, i): -1 for i in range(m0)}}


def weight_module(family: str, n: int, label: str, L=None) -> RepresentationData:
    """Resolve one fundamental-weight label for the given family and size.

    Implements exactly the constructors the tables need: phi1 everywhere,
    spin/half-spin weights for so, primitive exterior powers for sp.
    """
    L = L or classical_algebra(family, n)
    if label == "trivial":
        return trivial_rep(L)
    if not label.startswith("phi"):
        raise ValueError(f"unknown weight label {label!r}")
    k = int(label[3:])
    if k == 1:
        # phi1 is always the defining module in the tables, also for the tiny
        # ranks where the fundamental-weight label would collide with a spin
        return standard_rep(L)
    if family == "so":
        rank_ = n // 2
        if n % 2 == 1:
            if k == rank_:
                return spin_rep(n, L=L)
            if k < rank_:
                return exterior_power(standard_rep(L), k)
        else:
            if k == rank_:
                return spin_rep(n, "odd", L=L)
            if k == rank_ - 1:
                return spin_rep(n, "even", L=L)
            if k < rank_ - 1:
                return exterior_power(standard_rep(L), k)
    elif family == "sp":
        return contraction_kernel(standard_rep(L), symplectic_form(n), k)
    elif family in ("sl", "gl"):
        return exterior_power(standard_rep(L), k)
    raise ValueError(f"unsupported weight label {label} for {family}{n}")


def build_module(family: str, n: int, summands, L=None) -> RepresentationData:
    """Direct sum with multiplicities; summands: list of (label, multiplicity)."""
    L = L or classical_algebra(family, n)
    reps = []
    labels = []
    cache = {}
    for label, mult in summands:
        if mult < 1:
            raise ValueError(f"summand {label} has multiplicity {mult}; "
                             f"it must be at least 1")
        if label not in cache:
            cache[label] = weight_module(family, n, label, L=L)
        for c in range(mult):
            reps.append(cache[label])
            labels.append(f"{label}.{c}" if mult > 1 else label)
    return direct_sum_rep(*reps, labels=labels)
