"""Explicit invariant constructions.

Principal-minor sums Delta_k and Pfaffians (of numeric matrices, the
references, and symbolic expansions on ints over the lcm of the entry
denominators), the two nilpotent-centraliser matrix layouts for sp together
with the extraction of the highest graded components of Delta_k restricted
to them, the restriction homomorphism psi_x, Z2-contractions with their
highest-component generators, Takiff algebras, and the lift of
quadratic-in-g invariants through the copy of g inside S^2 of the standard
symplectic module, as the polarisation H = 1/2 sum_a q_a dh/dx_a.

A contraction is read off its involution theta of the ambient algebra in
one pass: theta^2 = 1 is checked on every basis matrix, so the +1 and -1
eigenspaces g_0 and g_1 are the images of 1 + theta and 1 - theta, and their
reduced echelon bases are the embedding of g_0 and the basis of g_1.

Every matrix that spans an algebra or a layout is sparse, {(i, j): nonzero
Fraction}; the ambient symplectic form of a layout is an integer form, and
its generators are checked against it with `repn.preserves_form`.  Matrix
realisations identify g with g* through the trace form <X, Y> = tr XY; on a
layout the coordinates are read in the dual basis of the drawn basis of the
centraliser, and the scalar t scaling the constant f-block tracks the
f-degree, so the coefficient of t^d is the highest f-component when d is
the top power.

One expansion of det(lambda I + X), truncated at lambda-degree N - k, carries
Delta_k' for every k' >= k: the ambient invariants of a contraction take all
their degrees from one expansion, and a layout keeps its expansion for every
Delta_k it serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .invariants import (
    MultiPoly,
    _bounded,
    _int_terms,
    _int_value,
    _killed,
    _mul_into,
    _nonzero,
    _over,
    _pack,
    _scaled,
    _unpack,
    _width,
    is_invariant,
)
from .liealg import (
    LieAlgebraData,
    _commutator_sparse,
    algebra_on_basis,
    classical_algebra,
    matrix_algebra,
)
from .qlinalg import (
    Q0,
    Q1,
    QQ,
    Basis,
    QMatrix,
    SampleConfig,
    VerificationError,
    as_q,
    inverse,
    kernel_basis,
    sample_vector,
    solve_right,
)
from .repn import (
    RepresentationData,
    _column,
    _submodule,
    adjoint_rep,
    direct_sum_rep,
    preserves_form,
    standard_rep,
    symplectic_form,
)
from .semidirect import SemiDirectProduct, semidirect, stabiliser_in_V


# ---------------------------------------------------------------------------
# principal minors and Pfaffians of numeric matrices
# ---------------------------------------------------------------------------


def principal_minor_sums(M: QMatrix):
    """[E_0 .. E_N]: E_k = sum of principal k x k minors, exact.

    Faddeev-LeVerrier on the characteristic polynomial:
    det(lambda I - M) = sum lambda^{N-k} (-1)^k E_k.
    """
    n = M.rows
    if n != M.cols:
        raise ValueError(f"a {n} x {M.cols} matrix has no principal minors")
    coeffs = [Q1]  # char poly coefficients a_0 = 1, a_k
    Mk = QMatrix.identity(n)
    for k in range(1, n + 1):
        Mk = M * Mk
        tr = sum((Mk.data[i][i] for i in range(n)), Q0)
        ak = -tr / QQ(k)
        coeffs.append(ak)
        if k < n:
            for i in range(n):
                Mk.data[i][i] += ak
    return [coeffs[k] * (-1) ** k for k in range(n + 1)]


def delta_k_matrix(M: QMatrix, k: int):
    """Sum of the principal k-minors of M.

    Sign convention: for the characteristic polynomial
    det(lambda I - M) = lambda^N - c_1 lambda^{N-1} + c_2 lambda^{N-2} - ...,
    Delta_k(M) = c_k.
    """
    if k > M.rows:
        raise ValueError("k exceeds the matrix size")
    return principal_minor_sums(M)[k]


def pfaffian(M: QMatrix):
    """Pfaffian of an antisymmetric matrix of even size, exact."""
    n = M.rows
    if n != M.cols or n % 2 != 0:
        raise ValueError("pfaffian requires an antisymmetric matrix of even size")
    if not M.is_antisymmetric():
        raise ValueError("matrix is not antisymmetric")
    memo = {}

    def pf(idx):
        if not idx:
            return Q1
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        total = Q0
        for pos in range(1, len(idx)):
            c = M.data[i0][idx[pos]]
            if c != 0:
                rest = idx[1:pos] + idx[pos + 1:]
                total += c * pf(rest) * (-1) ** (pos - 1)
        memo[idx] = total
        return total

    return pf(tuple(range(n)))


# ---------------------------------------------------------------------------
# matrix realisations (layouts)
# ---------------------------------------------------------------------------


@dataclass
class LayoutCoord:
    kind: str             # "C" (top grade), "A" (so_m part), "v", "sp"
    label: str
    generator: dict       # centraliser basis element the coordinate is dual to
    eval_matrix: dict     # trace-dual inside the opposite centraliser
    target: int | None    # variable index in the target semi-direct product


@dataclass
class MatrixRealisation:
    """Coordinates of a centraliser dual drawn inside an N x N matrix space.

    The point at coordinates c and scalar t is t * const + sum c_i *
    eval_matrix_i.  The eval matrices are trace-dual to the generator basis
    (they live in the opposite centraliser), so the point represents the
    functional <matrix, .> on the centraliser whose value on generator i is
    c_i, and t reads the complementary sl2-direction: the t-degree of a
    restricted invariant is its f-degree.
    """

    N: int
    const: dict
    coords: list
    target: SemiDirectProduct
    meta: dict
    # the memo of `symbolic_minor_sum` for the matrix of `e_delta_restricted`
    minor_sums: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_coords(self):
        return len(self.coords)


# ---------------------------------------------------------------------------
# symbolic minors
# ---------------------------------------------------------------------------


def _integral_entries(entries):
    """(D, the term dicts of D entries[i][j] as ints), D the lcm of every
    coefficient denominator."""
    D = math.lcm(1, *(c.denominator for row in entries for P in row
                      for c in P.terms.values()))
    return D, [[_scaled(P.terms, D) for P in row] for row in entries]


def _packed_entries(entries, nvars):
    """(w, the entries on packed keys of width w): w bounds the sum over rows
    of the largest entry degree, so every product of one entry per row, and
    so every term of a determinant or Pfaffian, fits."""
    w = _width(sum(max((sum(m) for a in row for m in a), default=0)
                   for row in entries))
    return w, [[_pack(a, nvars, w) for a in row] for row in entries]


def _det_int(entries, nvars, bounds):
    """(w, terms of the determinant of a matrix of term dicts on packed keys
    of width w), by column-subset expansion: each state maps the set of
    columns used by the rows so far to the signed sum of their products."""
    N = len(entries)
    w, entries = _packed_entries(entries, nvars)
    states = {(): _pack({(0,) * nvars: 1}, nvars, w)}
    for i in range(N):
        row = [(j, a) for j, a in enumerate(entries[i]) if a]
        new = {}
        for cols, val in states.items():
            for j, a in row:
                if j in cols:
                    continue
                sign = -1 if sum(1 for c in cols if c > j) % 2 else 1
                key = tuple(sorted(cols + (j,)))
                _mul_into(new.setdefault(key, {}), val, a, sign)
        states = {}
        for key, acc in new.items():
            terms = _bounded(acc, bounds, w)
            if terms:
                states[key] = terms
        if not states:
            return w, {}
    return w, states.get(tuple(range(N)), {})


def symbolic_minor_sum(entries, nvars, k, bounds=(), memo=None):
    """E_k of a symbolic matrix: det(lambda I + X) via one extra variable.

    Runs on ints: det(lambda I + D X) carries E_k'(D X) = D^k' E_k'(X) at
    lambda^(N-k') for every k', D the lcm of the entry denominators.  One
    expansion, truncated at lambda-degree N - k (a partial product with a
    higher power of lambda reaches no E_k' with k' >= k), gives every E_k'
    with k' >= k; k = N takes the determinant without lambda.

    bounds: degree bounds (variables, cap) on the original variables, each
    keeping only the terms of degree at most cap in those variables.
    Entries have no negative exponents, so a partial product over the rows
    so far that breaks a bound cannot contribute, and the bounds are applied
    after every row: the result is E_k with the terms that break a bound
    left out.

    memo: a dict that the caller keeps for this one matrix and these bounds.
    An expansion stores every E_k' it carries there, so a later call for
    any of them reads it instead of expanding again, and a call for a
    smaller k expands afresh.  The order of the calls changes no result.
    """
    D, w, terms = _minor_sum_int(entries, nvars, k, bounds, memo)
    return _over(nvars, _unpack(terms, nvars, w), D ** k)


def _minor_sum_int(entries, nvars, k, bounds, memo):
    """(D, w, the nonzero terms of E_k(D X) on packed keys of width w), as
    `symbolic_minor_sum` reads them from memo or expands them into it."""
    memo = {} if memo is None else memo
    if k not in memo:
        memo.update(_minor_sums_int(entries, nvars, k, bounds))
    return memo[k]


def _minor_sums_int(entries, nvars, k, bounds):
    """{k': (D, w, the terms of E_k'(D X) on packed keys of width w)} for
    k <= k' <= N, from one expansion of det(lambda I + D X): lambda is the
    last variable, so the top digit of a packed key is its power N - k'."""
    N = len(entries)
    D, ints = _integral_entries(entries)
    if k == N:
        return {N: (D, *_det_int(ints, nvars, bounds))}
    unit = (0,) * nvars + (1,)
    ext = []
    for i in range(N):
        row = []
        for j in range(N):
            p = {m + (0,): c for m, c in ints[i][j].items()}
            if i == j:
                p[unit] = 1
            row.append(p)
        ext.append(row)
    w, det = _det_int(ext, nvars + 1, [*bounds, ([nvars], N - k)])
    shift = 8 * w * nvars
    low = (1 << shift) - 1
    out = {kk: (D, w, {}) for kk in range(k, N + 1)}
    for m, c in det.items():
        out[N - (m >> shift)][2][m & low] = c
    return out


def symbolic_pfaffian(entries, nvars):
    """Pfaffian of an antisymmetric matrix of MultiPolys.

    Runs on ints: Pf(D X) / D^(n/2), D the lcm of the entry denominators.
    """
    n = len(entries)
    if n % 2:
        raise ValueError(f"a {n} x {n} matrix has no Pfaffian")
    D, ints = _integral_entries(entries)
    w, ints = _packed_entries(ints, nvars)
    memo = {(): _pack({(0,) * nvars: 1}, nvars, w)}

    def pf(idx):
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        acc = {}
        for pos in range(1, len(idx)):
            a = ints[i0][idx[pos]]
            if a:
                rest = idx[1:pos] + idx[pos + 1:]
                _mul_into(acc, a, pf(rest), -1 if (pos - 1) % 2 else 1)
        memo[idx] = total = _nonzero(acc)
        return total

    return _over(nvars, _unpack(pf(tuple(range(n))), nvars, w), D ** (n // 2))


# ---------------------------------------------------------------------------
# highest graded components
# ---------------------------------------------------------------------------


def highest_component(P, S: SemiDirectProduct, block: int):
    """(top component, degree) of P in the chosen grading direction.

    P: MultiPoly on S.total; block: an index into S.blocks.  The top
    component is the multi-homogeneous part of highest degree in the block's
    variables.
    """
    if P.is_zero():
        raise ValueError("zero polynomial has no highest component")
    off, sz = S.blocks[block][1:]
    best = max(sum(m[off:off + sz]) for m in P.terms)
    return P.coefficient_of_block_degree(off, sz, best), best


# ---------------------------------------------------------------------------
# centraliser layouts (Figures: minimal nilpotent, and partition (2^m, 1^{2n}))
# ---------------------------------------------------------------------------


def _ambient_sp_form(m, q):
    """Omega for coordinates (1..m | m+1..2m | 2m+1..2m+2q):
    group1/group2 dual isotropic, group3 standard symplectic."""
    pairs = [(a, m + a) for a in range(m)] + [
        (2 * m + r, 2 * m + q + r) for r in range(q)]
    return {**{p: 1 for p in pairs}, **{(j, i): -1 for i, j in pairs}}


def centraliser_layout(m: int, q: int) -> MatrixRealisation:
    """Layout of f + g_e inside sp_{2m+2q} for e of partition (2^m, 1^{2q}).

    g_e = (so_m + sp_{2q}) |x (k^m x k^{2q} (+) S^2 k^m); the coordinates are
    ordered C (grade 2), A (so_m), v (m copies of the standard sp_{2q}-module,
    matched on the nose to the target semi-direct product), sp block.
    m = 1 is the minimal nilpotent case of the first figure.
    """
    if m < 1 or q < 1:
        raise ValueError(f"a centraliser layout needs m, q >= 1, not {m}, {q}")
    N = 2 * m + 2 * q
    Om = _ambient_sp_form(m, q)
    sp_small = classical_algebra("sp", 2 * q)
    target = semidirect(
        sp_small,
        direct_sum_rep(*[standard_rep(sp_small) for _ in range(m)],
                       labels=[f"V{a + 1}" for a in range(m)])
        if m > 1 else standard_rep(sp_small),
    )
    e_mat = {(a, m + a): Q1 for a in range(m)}
    f_mat = {(m + a, a): Q1 for a in range(m)}
    if not (preserves_form(e_mat, Om) and preserves_form(f_mat, Om)):
        raise VerificationError("e or f is not in sp(Omega)")
    gens = []
    vmats = {}  # w_{a,r} at (a, r), for the bracket match
    # C: S^2 k^m at block (group1, group2), grade 2; contains e on the
    # diagonal (one entry when a == b)
    for a in range(m):
        for b in range(a, m):
            gens.append(("C", f"C{a + 1}{b + 1}",
                         {(a, m + b): Q1, (b, m + a): Q1}, None))
    # A: so_m, diagonally in blocks (1,1) and (2,2)
    for a in range(m):
        for b in range(a + 1, m):
            mat = {(a, b): Q1, (b, a): -Q1,
                   (m + a, m + b): Q1, (m + b, m + a): -Q1}
            gens.append(("A", f"A{a + 1}{b + 1}", mat, None))
    # v: for copy a and standard index r: w_{a,r} = sgn(pair(r)) u_{a, pair(r)}
    # with u_{a,t} = E_{a, 2m+t} - sgn(t) E_{2m+pair(t), m+a}, that is
    # w_{a,r} = sgn(pair(r)) E_{a, 2m+pair(r)} - E_{2m+r, m+a}; this choice
    # makes the bracket with the sp block the standard action on each copy.
    for a in range(m):
        for r in range(2 * q):
            pr = r + q if r < q else r - q
            mat = {(a, 2 * m + pr): Q1 if pr < q else -Q1,
                   (2 * m + r, m + a): -Q1}
            vmats[a, r] = mat
            gens.append(("v", f"v{a + 1},{r + 1}", mat,
                         target.dim_g + a * 2 * q + r))
    # sp block: the classical sp_{2q} basis embedded at group3
    for bi, small in enumerate(sp_small.metadata["matrices"]):
        mat = {(2 * m + i, 2 * m + j): c for (i, j), c in small.items()}
        gens.append(("sp", sp_small.basis_labels[bi], mat, bi))
    # sanity: every generator is in sp(Om) and commutes with e
    for kind, label, mat, tgt in gens:
        if not preserves_form(mat, Om):
            raise VerificationError(f"{label} is not in sp(Omega)")
        if _commutator_sparse(e_mat, mat):
            raise VerificationError(f"{label} does not centralise e")
    # bracket match: [sp, v] realises the standard action on each copy
    spmats = [mat for kind, label, mat, tgt in gens if kind == "sp"]
    for bi, zemb in enumerate(spmats):
        zmat = sp_small.metadata["matrices"][bi]
        for a in range(m):
            copy = [vmats[(a, s)] for s in range(2 * q)]
            for r in range(2 * q):
                comm = _commutator_sparse(zemb, copy[r])
                expect = _combination([zmat.get((s, r), 0)
                                       for s in range(2 * q)], copy)
                if comm != expect:
                    raise VerificationError(f"layout/semidirect bracket "
                                            f"mismatch at sp#{bi}, v{a},{r}")
    # evaluation matrices: trace-duals of the generators inside the opposite
    # centraliser g_f = sigma(g_e), sigma the swap within every omega-pair
    # (an antisymplectic involution, so conjugation preserves sp(Om))
    perm = list(range(N))
    for a in range(m):
        perm[a], perm[m + a] = perm[m + a], perm[a]
    for r in range(q):
        perm[2 * m + r], perm[2 * m + q + r] = perm[2 * m + q + r], perm[2 * m + r]

    def mirror(X):
        return {(perm[i], perm[j]): x for (i, j), x in X.items()}

    if mirror(e_mat) != f_mat:
        raise VerificationError("the mirror of e is not f")
    zs = [g[2] for g in gens]
    ms = [mirror(z) for z in zs]
    for x in ms:
        if not preserves_form(x, Om) or _commutator_sparse(f_mat, x):
            raise VerificationError("a mirrored generator leaves sp(Omega)_f")
    duals = _trace_duals(zs, ms)
    coords = [LayoutCoord(kind, label, zmat, dual, tgt)
              for (kind, label, zmat, tgt), dual in zip(gens, duals)]
    return MatrixRealisation(N, e_mat, coords, target,
                             {"m": m, "q": q, "e": e_mat, "f": f_mat,
                              "omega": Om})


def _combination(coeffs, mats):
    """sum_i coeffs[i] mats[i] of sparse matrices, zeros dropped."""
    out = {}
    for c, mat in zip(coeffs, mats):
        if c:
            for pos, a in mat.items():
                out[pos] = out.get(pos, 0) + c * a
    return {pos: a for pos, a in out.items() if a}


def _trace_duals(gens, partners):
    """The matrices D_j in the span of partners with tr(D_j gens[i]) =
    delta_ij; the trace form must pair the two spans perfectly."""
    k = len(gens)
    gram = QMatrix(k, k, [[_trace_pair(p, g) for g in gens] for p in partners])
    return [_combination(row, partners) for row in inverse(gram).data]


def _trace_pair(A, B):
    """tr AB of sparse matrices."""
    return sum((a * B[j, i] for (i, j), a in A.items() if (j, i) in B), Q0)


def minimal_nilpotent_centraliser_layout(n: int) -> MatrixRealisation:
    """Figure layout for the minimal nilpotent e in sp_{2n} (n >= 2):
    g_e = sp_{2n-2} |x heis_{n-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    return centraliser_layout(1, n - 1)


def two_block_centraliser_layout(m: int, n: int) -> MatrixRealisation:
    """Figure layout for e of partition (2^m, 1^{2n}) in sp_{2m+2n}."""
    return centraliser_layout(m, n)


def centraliser_dim(layout: MatrixRealisation) -> int:
    """dim g_e computed independently as the kernel of ad(e) on sp(Omega)."""
    N = layout.N
    # basis of sp(Omega): solve X^T Om + Om X = 0 on the full matrix space,
    # one row per entry (t, l) of X^T Om and (k, t) of Om X, X_kt at k N + t
    rows = [[Q0] * (N * N) for _ in range(N * N)]
    for (k, l), o in layout.meta["omega"].items():
        for t in range(N):
            rows[t * N + l][k * N + t] += o
            rows[k * N + t][l * N + t] += o
    sp_basis = kernel_basis(QMatrix.from_rows(rows))
    # ad(e) on that basis: kernel dimension
    comms = [_commutator_sparse(layout.meta["e"],
                                {divmod(t, N): x for t, x in enumerate(v) if x})
             for v in sp_basis]
    return len(kernel_basis(QMatrix.from_rows(
        [[c.get(divmod(t, N), Q0) for c in comms] for t in range(N * N)])))


# ---------------------------------------------------------------------------
# restriction of Delta_k to the layouts (the lemma constructions)
# ---------------------------------------------------------------------------


class RestrictionEscapes(ValueError, VerificationError):
    def __init__(self, label):
        self.coordinate = label
        super().__init__(f"restriction escapes the target: coordinate {label}")


@dataclass
class EDeltaResult:
    layout: MatrixRealisation
    k: int
    H: MultiPoly                # invariant on the target semi-direct product
    f_degree: int
    delta_prime: MultiPoly | None   # m = 1 only: the e-coefficient, in S(sp)


def e_delta_restricted(layout: MatrixRealisation, k: int) -> EDeltaResult:
    """Restriction of the highest f-component of Delta_k to the annihilator of
    the S^2 k^m part, remapped onto the target semi-direct product.

    m = 1 (minimal nilpotent, ambient sp_{2n}): k = 2i+2 with 1 <= i <= n-1;
    the t-linear coefficient splits as e * Delta'_{2i} + H_i and both parts
    are returned.  m >= 3 odd: k = 3m + 2i - 1 with 1 <= i <= q - (m-1)/2;
    only H~_i exists.  The result is re-verified as an invariant of the target.

    The symbolic matrix is expanded once for every k it serves: the layout
    keeps the expansion (`MatrixRealisation.minor_sums`), which carries
    Delta_k' for every k' >= k, and a later call for such a k' reads it.
    Every call still checks the f-degree, the escapes and the invariance of
    its own H, and the order of the calls changes no result.
    """
    m, q = layout.meta["m"], layout.meta["q"]
    N = layout.N
    if k % 2 != 0 or k > N:
        raise ValueError("k must be even and at most the ambient size")
    if m == 1:
        if not (k >= 4 and (k - 2) // 2 <= q):
            raise ValueError(f"k = {k} out of range for the minimal layout")
    else:
        if m % 2 == 0:
            raise ValueError("the two-block extraction requires odd m")
        i = (k - 3 * m + 1) // 2
        if not (k == 3 * m + 2 * i - 1 and 1 <= i <= q - (m - 1) // 2):
            raise ValueError(f"k = {k} out of range for m = {m}, n = {q}")
    # symbolic variables: layout coords + t (last); C coords are kept for
    # m = 1 (they carry the centre e) and zeroed upfront otherwise
    keep = []
    for ci, c in enumerate(layout.coords):
        if c.kind == "C" and m > 1:
            continue
        keep.append(ci)
    nv = len(keep) + 1
    tvar = len(keep)
    entries = [[MultiPoly(nv) for _ in range(N)] for _ in range(N)]
    for (r, s), c in layout.const.items():
        entries[r][s] = entries[r][s] + MultiPoly.variable(nv, tvar, c)
    for vi, ci in enumerate(keep):
        for (r, s), c in layout.coords[ci].eval_matrix.items():
            entries[r][s] = entries[r][s] + MultiPoly.variable(nv, vi, c)

    cvars = [vi for vi, ci in enumerate(keep) if layout.coords[ci].kind == "C"]

    # the t-degree is at most m, and the centre degree at most 1 for m = 1
    bounds = [([tvar], m)] + ([(cvars, 1)] if cvars else [])
    D, wk, terms = _minor_sum_int(entries, nv, k, bounds, layout.minor_sums)
    # the expansion is selected on its packed keys, read digit by digit, and
    # only the terms kept are unpacked
    mask = (1 << 8 * wk) - 1

    def digit(mono, v):
        return (mono >> 8 * wk * v) & mask

    # top f-degree = degree in t; the lemmas give exactly m for even k >= 2m
    fdeg = max((digit(mono, tvar) for mono in terms), default=0)
    if fdeg != m:
        raise VerificationError(
            f"f-degree of Delta_{k} on the layout is {fdeg}, not {m}")
    # split off the centre coefficient (m = 1) and check escapes
    target = layout.target
    delta_prime = None
    h_terms = {}
    dp_terms = {}
    for mono, c in terms.items():
        if digit(mono, tvar) != m:
            continue
        cdeg = sum(digit(mono, cv) for cv in cvars)
        if cdeg == 0:
            h_terms[mono] = c
        elif cdeg == 1 and m == 1:
            dp_terms[mono] = c
        else:
            raise RestrictionEscapes("C block")
    # map layout variables onto target variables by one packed shift per
    # coordinate: 0 drops the centre variable on the hyperplane, None marks a
    # coordinate with no target; E_k has degree k, so width _width(k) fits
    w = _width(k)
    shifts = []
    for ci in keep:
        coord = layout.coords[ci]
        shifts.append(0 if coord.kind == "C" else
                      None if coord.target is None else
                      1 << 8 * w * coord.target)

    def remap(terms):
        out = {}
        for mono, c in _unpack(terms, nv, wk).items():
            key = 0
            for vi, (e, shift) in enumerate(zip(mono, shifts)):
                if e:
                    if shift is None:
                        raise RestrictionEscapes(layout.coords[keep[vi]].label)
                    key += e * shift
            out[key] = out.get(key, 0) + c
        return _over(target.dim, _unpack(out, target.dim, w), D ** k)

    H = remap(h_terms)
    if m == 1 and dp_terms:
        # drop the single centre power, keep the sp part
        delta_prime = remap(dp_terms)
        for mono in delta_prime.terms:
            if any(mono[i] for i in range(target.dim_g, target.dim)):
                raise RestrictionEscapes("Delta' involves module coordinates")
    if not is_invariant(target, H):
        raise VerificationError(
            f"extracted H for Delta_{k} is not an invariant of the target")
    return EDeltaResult(layout=layout, k=k, H=H, f_degree=fdeg,
                        delta_prime=delta_prime)


# ---------------------------------------------------------------------------
# psi_x: restriction to q* + x
# ---------------------------------------------------------------------------


def restrict_psi(S: SemiDirectProduct, H: MultiPoly, x, adapted_basis=None):
    """psi_x(H): substitute the V*-coordinates of x, express in a basis adapted
    to q_x, and check the result lies in S(q_x).

    Returns (polynomial in the q_x coordinates, q_x as a LieAlgebraData whose
    structure constants are w.r.t. exactly those coordinates, the basis).
    Raises RestrictionEscapes when a complement coordinate survives, which
    signals a non-generic x or a non-invariant H.
    """
    if not is_invariant(S, H):
        raise VerificationError("psi_x requires an s-invariant")
    x = [as_q(c) for c in x]
    # substitute: g variables stay, V variables become the numbers x_j
    images = []
    for i in range(S.dim_g):
        images.append(MultiPoly.variable(S.dim_g, i))
    for j in range(S.dim_V):
        images.append(MultiPoly.constant(S.dim_g, x[j]))
    P = H.substitute_linear(images)
    st = stabiliser_in_V(S, x)
    basis = adapted_basis if adapted_basis is not None else st.basis
    kdim = len(basis)
    # complement: unit vectors at coordinates off the span's echelon pivots
    rows = [list(map(as_q, b)) for b in basis]
    span = Basis(rows)
    if len(span) != kdim:
        raise VerificationError("adapted basis is dependent")
    comp = span.complement() if kdim else range(S.dim_g)
    units = [[Q1 if c == i else Q0 for c in range(S.dim_g)] for i in comp]
    Q = P.substitute_linear(_old_in_new(QMatrix.from_rows(rows + units)))
    for mono in Q.terms:
        for a in range(kdim, S.dim_g):
            if mono[a]:
                raise RestrictionEscapes(f"complement coordinate y{a + 1}")
    out = MultiPoly(kdim, {mono[:kdim]: c for mono, c in Q.terms.items()})
    # q_x is built on st.basis itself; an adapted basis needs its own table
    sub = st.algebra if adapted_basis is None else algebra_on_basis(S.algebra, rows)
    if not _killed(sub, out, range(sub.dim)):
        raise VerificationError("psi_x image is not a q_x-invariant")
    return out, sub, basis


def _old_in_new(B: QMatrix):
    """For new variables y = B x: each old variable x_i = sum_a (B^-1)_ia y_a,
    as a linear MultiPoly in the y."""
    n = B.rows
    return [MultiPoly(n, {tuple(int(t == a) for t in range(n)): c
                          for a, c in enumerate(row) if c})
            for row in inverse(B).data]


# ---------------------------------------------------------------------------
# Takiff algebras and Z2-contractions
# ---------------------------------------------------------------------------


def takiff(L: LieAlgebraData) -> SemiDirectProduct:
    """g |x g^ab: the adjoint module made into an abelian ideal."""
    name = L.metadata.get("name", "g")
    return semidirect(L, adjoint_rep(L), name=f"takiff({name})")


# the supported pair kinds, with the number of parameters of each
SUPPORTED_PAIRS = {"so-so": 2, "sp-sp": 2, "sl-sp": 1, "so-gl": 1}


@dataclass(frozen=True)
class ContractionSpec:
    """One of the supported symmetric pairs.

    kind 'so-so': (so_{n+m}, so_n + so_m), params (n, m);
    kind 'sp-sp': (sp_{2n+m}, sp_{2n} + sp_m), params (2n, m), m even;
    kind 'sl-sp': (sl_{2n}, sp_{2n}), params (2n,);
    kind 'so-gl': (so_{2n}, gl_n), params (n,).
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in SUPPORTED_PAIRS:
            raise ValueError(f"unsupported pair kind {self.kind!r}")
        if len(self.params) != SUPPORTED_PAIRS[self.kind]:
            raise ValueError(f"a {self.kind} pair takes "
                             f"{SUPPORTED_PAIRS[self.kind]} parameter(s), "
                             f"not {len(self.params)}")
        if min(self.params) < 1:
            raise ValueError(f"{self.kind} parameters must be positive")
        if self.kind == "sp-sp" and self.params[1] % 2 != 0:
            raise ValueError("sp-sp contraction requires even m")
        if self.kind == "sl-sp" and self.params[0] % 2 != 0:
            raise ValueError("sl-sp contraction requires an even size")


def _conjugation(perm, signs):
    """X -> P X P^-1 on sparse matrices, P e_j = signs[j] e_perm[j] a signed
    permutation matrix (signs +-1): (P X P^-1)_(perm k, perm l) =
    signs[k] signs[l] X_kl."""
    return lambda X: {(perm[k], perm[l]): signs[k] * signs[l] * x
                      for (k, l), x in X.items()}


def _ambient_matrix(n, mats):
    """The symbolic n x n matrix sum y_a D_a, {D_a} the trace-dual basis of
    the basis matrices mats, as MultiPolys in the y."""
    nv = len(mats)
    entries = [[MultiPoly(nv) for _ in range(n)] for _ in range(n)]
    for a, dual in enumerate(_trace_duals(mats, mats)):
        for (i, j), c in dual.items():
            entries[i][j] = entries[i][j] + MultiPoly.variable(nv, a, c)
    return entries


def _ambient_invariants(fam, n, mats):
    """Basic symmetric invariants of the simple algebra of n x n matrices of
    family fam, as MultiPolys in the coordinates of its basis mats.

    A functional with coordinates y_a = <X, mats[a]> is represented through
    the trace form by the matrix X = sum y_a D_a with {D_a} the trace-dual
    basis, whatever the basis; evaluating conjugation-invariant matrix
    functions there gives honest coadjoint invariants in the y variables.
    The E_k all come from one expansion, at the smallest k.
    """
    entries = _ambient_matrix(n, mats)
    # the even-degree E_k of so_n stop below n; for even n the Pfaffian
    # replaces E_n
    degrees = {"sl": range(2, n + 1), "sp": range(2, n + 1, 2),
               "so": range(2, n, 2)}[fam]
    memo = {}
    out = [(k, symbolic_minor_sum(entries, len(mats), k, memo=memo))
           for k in degrees]
    if fam == "so" and n % 2 == 0:
        # X B with B the antidiagonal form: (X B)_ij = X_i,n-1-j
        out.append((n // 2, symbolic_pfaffian([row[::-1] for row in entries],
                                              len(mats))))
    return out


def z2_contraction(spec: ContractionSpec):
    """The contraction g_0 |x g_1^ab and the highest g_1-components of the
    ambient basic invariants (after the corrections that keep them
    algebraically independent, i.e. for well-chosen ambient generators)."""
    if spec.kind == "so-so":
        n, m = spec.params
        N = n + m
        if m > N // 2:
            raise ValueError("so-so contraction needs m <= (n+m)/2")
        L = classical_algebra("so", N)
        # sigma = reflection in the span of w_i = e_i + e_{bar i}, i < m:
        # an orthogonal involution with eigenspace dims (n, m), valid for
        # every parity (a -1-diagonal needs a bar-stable index window); it
        # sends e_i to -e_{bar i} and e_{bar i} to -e_i
        perm = [N - 1 - i if min(i, N - 1 - i) < m else i for i in range(N)]
        theta = _conjugation(perm, [-1 if p != i else 1
                                    for i, p in enumerate(perm)])
    elif spec.kind == "sp-sp":
        two_n, m = spec.params
        N = two_n + m
        L = classical_algebra("sp", N)
        # -1 on the last m/2 symplectic pairs of the standard form
        half = N // 2
        theta = _conjugation(range(N), [-1 if half - m // 2 <= i % half
                                        else 1 for i in range(N)])
    elif spec.kind == "sl-sp":
        (N,) = spec.params
        L = classical_algebra("sl", N)
        # X -> -J X^T J^-1, J = [[0, I], [-I, 0]] sending e_j to -e_{j+N/2}
        # for j < N/2 and e_j to e_{j-N/2} otherwise
        half = N // 2
        conj = _conjugation([(i + half) % N for i in range(N)],
                            [-1 if i < half else 1 for i in range(N)])

        def theta(X):
            return conj({(j, i): -x for (i, j), x in X.items()})
    elif spec.kind == "so-gl":
        (nhalf,) = spec.params
        N = 2 * nhalf
        L = classical_algebra("so", N)
        theta = _conjugation(range(N), [1 if i < nhalf else -1
                                        for i in range(N)])
    else:  # pragma: no cover
        raise ValueError(spec.kind)

    # emb and g1: the reduced echelon bases of the images of 1 + theta and
    # 1 - theta, once theta^2 = 1 holds; g0 is built from the matrices of emb
    mats = L.metadata["matrices"]
    plus, minus = [], []
    for j, M in enumerate(mats):
        image = theta(M)
        if theta(image) != M:
            raise VerificationError(
                f"theta is not an involution at {L.basis_labels[j]}")
        t = L.metadata["expand"](image)
        plus.append([(i == j) + t.get(i, 0) for i in range(L.dim)])
        minus.append([(i == j) - t.get(i, 0) for i in range(L.dim)])
    emb, g1 = Basis(plus).rows, Basis(minus)
    # the matrices of the contraction's basis: g0's, then g1's
    s_mats = [_combination(row, mats) for row in emb + g1.rows]
    g0 = matrix_algebra(N, s_mats[:len(emb)],
                        [f"y{i + 1}" for i in range(len(emb))],
                        {"name": f"fix({L.metadata['name']})",
                         "embedding": emb})
    # g1 as a g0-module: the adjoint columns of L along the embedding of
    # g0, restricted to g1 and read at its pivots
    d, ad = L.int_ad_table
    columns = []
    for b0 in emb:
        cols = [{} for _ in range(L.dim)]
        for i, a in enumerate(b0):
            if a:
                for v, vec in ad[i].items():
                    for w, c in vec.items():
                        cols[v][w] = cols[v].get(w, 0) + a * c
        columns.append([_column({w: x / d for w, x in c.items()})
                        for c in cols])
    rep = _submodule(RepresentationData(g0, columns, L.dim, label="ad"),
                     g1.rows, "g1", g1.pivots)
    S = semidirect(g0, rep, name=f"contraction({L.metadata['name']})")
    # the ambient invariants, expanded in the contraction coordinates
    tops = []
    accepted_ambient = []
    for k, P in _ambient_invariants(L.metadata["family"], N, s_mats):
        for _ in range(40):
            top = highest_component(P, S, 1)[0]
            combo = _decompose_in_products(top, tops, S)
            if combo is None:
                break
            # subtract the matching product of ambient counterparts
            corr = MultiPoly(S.dim)
            for coeff, idxs in combo:
                prod = MultiPoly.constant(S.dim, coeff)
                for t in idxs:
                    prod = prod * accepted_ambient[t]
                corr = corr + prod
            P = P - corr
            if P.is_zero():
                raise VerificationError(
                    f"ambient invariant of degree {k} fully decomposed")
        else:
            raise VerificationError(f"the top of the ambient invariant of "
                                    f"degree {k} still decomposes after 40 "
                                    f"corrections")
        tops.append(top)
        accepted_ambient.append(P)
    return S, tops


def _decompose_in_products(top, accepted, S):
    """top as sum of coefficient * products of accepted polys, or None.

    Products are filtered to the multidegree of `top`; returns a list of
    (coefficient, indices) with indices into `accepted`.
    """
    if not accepted:
        return None
    md = top.multidegree(S.blocks)
    if md is None:
        return None
    degs = [P.multidegree(S.blocks) for P in accepted]
    prods = []

    def rec(start, remaining, chosen):
        if all(x == 0 for x in remaining):
            if chosen:
                prods.append(list(chosen))
            return
        for t in range(start, len(accepted)):
            d = degs[t]
            if d is None:
                continue
            if all(r >= x for r, x in zip(remaining, d)) and sum(d) > 0:
                chosen.append(t)
                rec(t, tuple(r - x for r, x in zip(remaining, d)), chosen)
                chosen.pop()

    rec(0, md, [])
    if not prods:
        return None
    polys = []
    for idxs in prods:
        P = MultiPoly.constant(S.dim, 1)
        for t in idxs:
            P = P * accepted[t]
        polys.append(P)
    monos = sorted({mth for P in polys + [top] for mth in P.terms}, reverse=True)
    mat = QMatrix(len(monos), len(polys),
                  [[P.terms.get(mth, Q0) for P in polys] for mth in monos])
    rhs = [top.terms.get(mth, Q0) for mth in monos]
    sol = solve_right(mat, rhs)
    if sol is None:
        return None
    return [(c, prods[i]) for i, c in enumerate(sol) if c != 0]


# ---------------------------------------------------------------------------
# the lift through the copy of g in S^2(V_1)   (symplectic item 3)
# ---------------------------------------------------------------------------


@dataclass
class Item3Result:
    S: SemiDirectProduct          # sp_{2n} |x (k^{2n} (+) Lambda^2_0-model)
    S2: SemiDirectProduct         # sp_{2n} |x Lambda^2_0-model
    lifted: list                  # H_i on S
    quadratic: list               # h_i on S2 (degree 2 in g)
    B_quadrics: list              # q_b(xi): coordinates of B(xi) in the g basis


def item3_lift(n: int) -> Item3Result:
    """Lift the deg_g = 2 contraction invariants h_i of sp_{2n} |x g_1 to
    invariants H_i of sp_{2n} |x (k^{2n} (+) g_1) through the copy of g inside
    S^2(k^{2n}); deg H_i = deg h_i + 1 and H_i(A + xi + v) = h_i(A, B(xi), v)
    with B(xi) the image of xi^2 under S^2(k^{2n}) ~ g.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    S2, tops = z2_contraction(ContractionSpec("sl-sp", (2 * n,)))
    g0 = S2.algebra
    hs = []
    for P in tops:
        md = P.multidegree(S2.blocks)
        if md is not None and md[0] == 2:
            hs.append(P)
    if len(hs) != n:
        raise VerificationError(
            f"expected {n} quadratic-in-g generators, got {len(hs)}")
    # target: V1 = standard 2n-dim module of g0 (embedded matrices), V2 = g1
    S = semidirect(g0, direct_sum_rep(standard_rep(g0), S2.rep,
                                      labels=["V1", "V2"]),
                   name=f"sp{2 * n}|x(k{2 * n}+L20)")
    # B(xi) for xi in V1* written in dual coordinates: the self-duality of the
    # standard module twists xi through J, giving the equivariant quadric map
    # B(xi) = 2 J xi xi^T (a matrix in sp(J)); expand in the g0 basis
    J = symplectic_form(2 * n)
    N = 2 * n
    expand = g0.metadata["expand"]
    xs = [MultiPoly.variable(N, t) for t in range(N)]
    q_polys = [MultiPoly(N) for _ in range(g0.dim)]  # polynomials in xi coords
    for r in range(N):
        for s in range(r, N):
            # coefficient matrix of xi_r xi_s in 2 J xi xi^T, as a sparse dict
            M = {}
            for (irow, col), c in J.items():
                if col == r:
                    M[irow, s] = M.get((irow, s), 0) + 2 * c
                if col == s and r != s:
                    M[irow, r] = M.get((irow, r), 0) + 2 * c
            for b, c in expand(M).items():
                if c != 0:
                    q_polys[b] = q_polys[b] + xs[r] * xs[s] * c
    # lower the free index through the trace form on g0: the coordinates of
    # B(xi) transform contragradiently to the g variables, and the invariant
    # contraction in the lift pairs them through g ~ g* (trace form)
    gm = g0.metadata["matrices"]
    q_low = []
    for b in range(g0.dim):
        acc = MultiPoly(N)
        for c in range(g0.dim):
            w = _trace_pair(gm[b], gm[c])
            if w != 0:
                acc = acc + q_polys[c] * w
        q_low.append(acc)
    q_polys = q_low
    # into the variables of S: the quadrics on the V1 block, h with its g
    # variables kept and its module variables on the V2 block
    var = [MultiPoly.variable(S.dim, t) for t in range(S.dim)]
    q_in_S = [qp.substitute_linear(var[S.dim_g:S.dim_g + N]) for qp in q_polys]
    h_vars = var[:S.dim_g] + var[S.dim_g + N:]
    # the lift polarises the quadratic g-part of h with one slot sent to the
    # quadrics: H = 1/2 sum_a q_a dh/dx_a
    lifted = []
    for h in hs:
        hS = h.substitute_linear(h_vars)
        H = MultiPoly(S.dim)
        for a in range(S.dim_g):
            d = hS.partial(a)
            if not d.is_zero():
                H = H + q_in_S[a] * d
        lifted.append(H * QQ(1, 2))
    return Item3Result(S=S, S2=S2, lifted=lifted, quadratic=hs,
                       B_quadrics=q_polys)


def item3_evaluation_identity(res: Item3Result, trials=20, seed=77):
    """Check H_i(A + xi + v) = h_i(A, B(xi), v) at random split points.

    The right side polarises the quadratic g-part of h_i: monomial x_a x_b
    evaluates to (A_a B_b + A_b B_a)/2.  Runs on ints: H_i, h_i and the
    quadrics (over one common denominator Dq) are cleared once, before the
    trials, and the sampled points are integers.  The integer sides
    DH H_i(pt) and 2 Dh Dq h_i(A, B(xi), v) are compared after
    cross-multiplying by each other's denominator.
    """
    S, S2 = res.S, res.S2
    N = S.blocks[1][2]
    gd = S2.dim_g
    Dq = math.lcm(1, *(c.denominator for qp in res.B_quadrics
                       for c in qp.terms.values()))
    quadrics = [_int_terms(qp.terms, Dq)[1] for qp in res.B_quadrics]
    pairs = []
    for H, h in zip(res.lifted, res.quadratic):
        DH, H_terms = _int_terms(H.terms)
        Dh, h_terms = _int_terms(h.terms)
        # each term of h as (c, its g-part, its v-part on the indices of v)
        split = [(c, [(i, e) for i, e in supp if i < gd],
                  [(i - gd, e) for i, e in supp if i >= gd])
                 for c, supp in h_terms]
        pairs.append((DH, H_terms, 2 * Dh * Dq, split))
    for t in range(trials):
        cfg = SampleConfig(seed + t, 7, 1)
        # sample_vector draws integers
        A, xi, v = ([int(x) for x in sample_vector(cfg, dim, 0, tag)]
                    for dim, tag in ((S.dim_g, "A"), (N, "xi"),
                                     (S2.dim_V, "v")))
        # Dq B(xi) via the quadrics
        B = [_int_value(qp, xi) for qp in quadrics]
        for DH, H_terms, scale, split in pairs:
            rhs = 0   # scale h(A, B(xi), v)
            for c, gpart, vpart in split:
                for j, e in vpart:
                    c *= v[j] ** e
                if len(gpart) == 1:
                    a = gpart[0][0]
                    c *= 2 * A[a] * B[a]
                else:
                    (a, _), (b, _) = gpart
                    c *= A[a] * B[b] + A[b] * B[a]
                rhs += c
            if _int_value(H_terms, A + xi + v) * scale != rhs * DH:
                return False
    return True
