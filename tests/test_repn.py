import ast
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coadjoint.liealg import classical_algebra, fingerprint
from coadjoint.qlinalg import (Basis, QMatrix, QQ, SampleConfig, inverse,
                               kernel_basis)
from coadjoint.repn import (
    FormNotInvariantError,
    RepresentationData,
    adjoint_rep,
    build_module,
    check_representation,
    contraction_kernel,
    direct_sum_rep,
    dual_rep,
    exterior_power,
    spin_rep,
    standard_rep,
    symmetric_power,
    symplectic_form,
    trivial_rep,
    weight_module,
    _clifford_generators,
    _column,
    _submodule,
)

CFG = SampleConfig(seed=13, height=5, rounds=8)


def test_standard_dims():
    assert standard_rep(classical_algebra("sp", 4)).dim_V == 4
    assert standard_rep(classical_algebra("so", 7)).dim_V == 7
    assert standard_rep(classical_algebra("sl", 3)).dim_V == 3


def test_standard_requires_matrix_algebra():
    from coadjoint.liealg import abelian_algebra

    with pytest.raises(ValueError):
        standard_rep(abelian_algebra(3))


def test_exterior_dims():
    R4 = standard_rep(classical_algebra("sl", 4))
    assert exterior_power(R4, 2).dim_V == 6
    R6 = standard_rep(classical_algebra("sl", 6))
    assert exterior_power(R6, 2).dim_V == 15
    assert exterior_power(R6, 3).dim_V == 20


def test_symmetric_dims():
    R3 = standard_rep(classical_algebra("sl", 3))
    assert symmetric_power(R3, 2).dim_V == 6
    R2 = standard_rep(classical_algebra("sl", 2))
    assert symmetric_power(R2, 4).dim_V == 5


def test_s2_of_k2_is_adjoint():
    L = classical_algebra("sl", 2)
    S2 = symmetric_power(standard_rep(L), 2)
    check_representation(S2)
    # the image algebra of sl2 on S^2(k^2) is again sl2: compare fingerprints
    # of the abstract algebra acting faithfully (structure is unchanged)
    from coadjoint.semidirect import semidirect
    from coadjoint.liealg import index

    s_ad = semidirect(L, adjoint_rep(L))
    s_s2 = semidirect(L, S2)
    assert fingerprint(s_ad.total, CFG) == fingerprint(s_s2.total, CFG)


@pytest.mark.parametrize("family,n,k", [
    ("sl", 4, 2), ("sl", 6, 3), ("sl", 2, 4), ("sp", 4, 2), ("so", 7, 2),
])
def test_power_representation_property(family, n, k):
    R = standard_rep(classical_algebra(family, n))
    P = exterior_power(R, min(k, n)) if k <= n else symmetric_power(R, k)
    check_representation(P)
    S = symmetric_power(R, 2)
    check_representation(S)


def test_dual_examples():
    L = classical_algebra("sl", 3)
    T = trivial_rep(L, 2)
    D = dual_rep(T)
    assert all(m.is_zero() for m in D.action)
    R = standard_rep(L)
    DD = dual_rep(dual_rep(R))
    assert all((a - b).is_zero() for a, b in zip(DD.action, R.action))


def test_sp_standard_self_dual_via_J():
    L = classical_algebra("sp", 6)
    R = standard_rep(L)
    D = dual_rep(R)
    J = QMatrix(6, 6, [[QQ(symplectic_form(6).get((i, j), 0))
                        for j in range(6)] for i in range(6)])
    assert all((J * R.action[i] - D.action[i] * J).is_zero()
               for i in range(L.dim))


def test_contraction_kernel_dims():
    L4 = classical_algebra("sp", 4)
    P = contraction_kernel(standard_rep(L4), symplectic_form(4), 2)
    assert P.dim_V == 5     # 2 n^2 - n - 1 at n = 2
    check_representation(P)
    L6 = classical_algebra("sp", 6)
    P3 = contraction_kernel(standard_rep(L6), symplectic_form(6), 3)
    assert P3.dim_V == 14
    check_representation(P3)
    P2 = contraction_kernel(standard_rep(L6), symplectic_form(6), 2)
    assert P2.dim_V == 14


def test_contraction_kernel_rejects_noninvariant_form():
    L4 = classical_algebra("sp", 4)
    bad = {(i, i): 1 for i in range(4)}
    with pytest.raises(FormNotInvariantError) as err:
        contraction_kernel(standard_rep(L4), bad, 2)
    assert isinstance(err.value.witness, int)


@pytest.mark.parametrize("n,half,dim", [
    (7, None, 8), (9, None, 16), (11, None, 32), (13, None, 64),
    (8, "even", 8), (8, "odd", 8), (10, "odd", 16), (12, "even", 32),
    (14, "odd", 64),
])
def test_spin_dimensions_and_property(n, half, dim):
    S = spin_rep(n, half)
    assert S.dim_V == dim
    check_representation(S)


def test_spin_chirality_errors():
    with pytest.raises(ValueError):
        spin_rep(7, "even")
    with pytest.raises(ValueError):
        spin_rep(8)


def _fock_half_by_submodule(n, half):
    """The half-spin module of so_n as it was built before a half was built
    alone: the action on all 2^(n/2) Fock columns, then `_submodule` on the
    unit vectors of the chosen parity."""
    L = classical_algebra("so", n)
    gammas, basis = _clifford_generators(n)
    N = len(basis)
    action = []
    for bm in L.metadata["matrices"]:
        acc = [{} for _ in range(N)]
        seen = set()
        for (p, q), x in bm.items():
            if (n - 1 - q, n - 1 - p) in seen:
                continue
            seen.add((p, q))
            gp, c = gammas[p], int(x)
            for col, (mid, c1) in gammas[n - 1 - q].items():
                if mid in gp:
                    row, c2 = gp[mid]
                    acc[col][row] = acc[col].get(row, 0) + c * c1 * c2
            if p == q:
                for col in range(N):
                    acc[col][col] = acc[col].get(col, 0) - c
        action.append([_column(a) for a in acc])
    keep = [i for i, s in enumerate(basis) if len(s) % 2 == (half == "odd")]
    return L, _submodule(RepresentationData(L, action, N, d=2),
                         [[int(i == c) for i in range(N)] for c in keep],
                         f"spin({n},{half})", keep)


@pytest.mark.parametrize("half", ["even", "odd"])
@pytest.mark.parametrize("n", range(4, 15, 2))
def test_half_spin_built_alone_is_the_submodule_of_the_fock_module(n, half):
    L, ref = _fock_half_by_submodule(n, half)
    R = spin_rep(n, half, L=L)
    assert (R.d, R.dim_V, R.label, R.blocks, R.columns) == \
        (ref.d, ref.dim_V, ref.label, ref.blocks, ref.columns)
    assert check_representation(R)


def test_half_spin_refuses_an_image_outside_its_half(monkeypatch):
    # a gamma that keeps the Fock degree sends a half into the other one
    from coadjoint import repn
    from coadjoint.qlinalg import VerificationError

    clifford = repn._clifford_generators

    def leaky(n):
        gammas, basis = clifford(n)
        gammas[0] = {col: (col, 1) for col in range(len(basis))}
        return gammas, basis

    monkeypatch.setattr(repn, "_clifford_generators", leaky)
    for half in ("even", "odd"):
        with pytest.raises(VerificationError, match="leaves the half"):
            spin_rep(8, half)


def test_spin7_invariant_bilinear_form():
    # the image of so_7 on the 8-dim spinor space preserves a symmetric form
    S = spin_rep(7)
    N = S.dim_V
    rows = []
    for m in S.action:
        for a in range(N):
            for b in range(N):
                row = [0] * (N * N)
                for c in range(N):
                    row[c * N + b] += m.data[c][a]
                    row[a * N + c] += m.data[c][b]
                rows.append(row)
    ker = kernel_basis(QMatrix.from_rows(rows))
    assert len(ker) == 1
    F = ker[0]
    assert all(F[a * N + b] == F[b * N + a] for a in range(N) for b in range(N))


def test_build_module_dims():
    assert build_module("so", 9, [("phi1", 2), ("phi4", 1)]).dim_V == 34
    assert build_module("so", 10, [("phi1", 1), ("phi4", 1)]).dim_V == 26
    assert build_module("sp", 6, [("phi1", 1), ("phi2", 1)]).dim_V == 20
    assert build_module("so", 14, [("phi6", 1)]).dim_V == 64
    assert build_module("so", 3, [("phi1", 2)]).dim_V == 6


def test_build_module_unknown_label():
    with pytest.raises(ValueError):
        build_module("sp", 4, [("phi9", 1)])


def test_multiplicity_blocks_are_independent():
    M = build_module("sp", 4, [("phi1", 2)])
    assert M.dim_V == 8
    assert [b[2] for b in M.blocks] == [4, 4]
    check_representation(M)


def test_submodule_images_match_dense_matvec():
    # the primitive part of Lambda^2 k^4 under sp4: the kernel of contraction
    # with J, here a single row
    L = classical_algebra("sp", 4)
    ext = exterior_power(standard_rep(L), 2)
    J = symplectic_form(4)
    C = QMatrix(1, ext.dim_V,
                [[QQ(J.get((a, b), 0)) for a, b in ext.basis_tags]])
    vectors = kernel_basis(C)
    units = [max(t for t, a in enumerate(v) if a) for v in vectors]
    sub = _submodule(ext, vectors, "L20", units)
    assert sub.dim_V == 5
    for m, ms in zip(ext.action, sub.action):
        for c, v in enumerate(vectors):
            combo = [sum((ms[r, c] * vectors[r][t] for r in range(len(vectors))),
                         QQ(0)) for t in range(ext.dim_V)]
            assert combo == m.matvec(v)


def test_submodule_on_a_basis_that_is_not_a_weight_basis():
    # so3's standard module on e1 + e2, e2, e3: the Cartan acts on it, but
    # not diagonally, so the product has no weights and the ledger takes the
    # direct path, with the same generator degrees as on e1, e2, e3
    from coadjoint.invariants import generator_ledger
    from coadjoint.semidirect import semidirect

    L = classical_algebra("so", 3)
    P = QMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    sub = RepresentationData.from_matrices(
        L, [inverse(P) * m * P for m in standard_rep(L).action], "k3'")
    assert check_representation(sub)
    S = semidirect(L, sub)
    assert S.weight_data[0] is None
    assert generator_ledger(S, 3).generator_degrees() == [2, 2]


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_contraction_kernel_is_a_weight_basis(n, k):
    # one kernel over all of Lambda^k, in its normal form, still splits
    # over the weight classes: the Cartan acts diagonally on it
    from coadjoint.semidirect import semidirect

    L = classical_algebra("sp", n)
    R = contraction_kernel(standard_rep(L), symplectic_form(n), k)
    assert R.dim_V == math.comb(n, k) - math.comb(n, k - 2)
    assert check_representation(R)
    assert semidirect(L, R).weight_data[0] is not None


def test_submodule_refuses_a_basis_without_unit_columns():
    from coadjoint.qlinalg import VerificationError

    R = standard_rep(classical_algebra("sl", 3))
    for vectors, units in (([[1, 1, 0], [0, 1, 0]], [0, 1]),   # 1 at the other unit
                           ([[2, 0, 0]], [0]),                  # 2 at its unit
                           ([[1, 0, 0], [0, 1, 0]], [0])):      # one unit short
        with pytest.raises(ValueError):
            _submodule(R, vectors, "no units", units)
    with pytest.raises(VerificationError):
        _submodule(R, [[1, 0, 0]], "not invariant", [0])
    sub = _submodule(R, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "k3", [0, 1, 2])
    assert [m.data for m in sub.action] == [m.data for m in R.action]


def test_representation_check_beyond_int64():
    # entries of 2^40 put the commutators past int64: the exact check must
    # still accept commuting matrices and reject non-commuting ones
    from coadjoint.liealg import abelian_algebra
    from coadjoint.qlinalg import VerificationError
    from coadjoint.repn import RepresentationData

    big = QQ(2 ** 40, 3)
    L = abelian_algebra(2)
    diag = [QMatrix.from_rows([[big, 0], [0, -big]]),
            QMatrix.from_rows([[1, 0], [0, big]])]
    check_representation(RepresentationData.from_matrices(L, diag, "diag"))
    skew = [diag[0], QMatrix.from_rows([[0, big], [0, 0]])]
    with pytest.raises(VerificationError):
        check_representation(RepresentationData.from_matrices(L, skew, "skew"))


def test_module_shape_is_checked_with_value_error():
    from coadjoint.repn import RepresentationData

    L = classical_algebra("sl", 2)
    with pytest.raises(ValueError):
        RepresentationData(L, [[[]]], 1)        # one action for dim g = 3
    with pytest.raises(ValueError):
        RepresentationData(L, [[[]], [[]], []], 1)
    with pytest.raises(ValueError):
        RepresentationData.from_matrices(L, [QMatrix.zero(2, 3)] * 3, "bad")


def test_sp8_phi3_module():
    R = weight_module("sp", 8, "phi3")
    assert R.dim_V == 48
    check_representation(R)


# -- every builder writes int columns over its d ------------------------------
#
# `action` is the rational view of the columns; each is compared with a
# reference built densely in Fractions by another route.


def _dense(mats, n):
    """Sparse {(i, j): Fraction} matrices as n x n QMatrix."""
    return [QMatrix(n, n, [[QQ(m.get((i, j), 0)) for j in range(n)]
                           for i in range(n)]) for m in mats]


def _restricted(M, keep):
    return QMatrix(len(keep), len(keep), [[M[r, c] for c in keep] for r in keep])


def _block_diagonal(*blocks):
    n = sum(b.rows for b in blocks)
    out = QMatrix.zero(n, n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            out.data[off + i][off:off + b.cols] = row
        off += b.rows
    return out


def _matrix_in(span, images):
    """The square matrix whose columns are the Basis.coords of the images."""
    cols = [span.coords(w) for w in images]
    return QMatrix(len(cols), len(cols), [[col[r] for col in cols]
                                          for r in range(len(cols))])


def _in_basis(mats, X):
    """The matrix of Y -> [X, Y] on the span of mats."""
    flat = [[x for row in m.data for x in row] for m in mats]
    return _matrix_in(Basis(flat), [[x for row in (X * Y - Y * X).data
                                     for x in row] for Y in mats])


def _spin_reference(n, parity=None):
    """so_n on the Fock space Lambda(k^m), m = n // 2, subsets ordered by
    size then lexicographically: gamma_i the wedge with e_i and gamma_{n-1-i}
    twice the contraction with it (i < m), the parity at the middle index of
    odd n; sigma(X) = 1/4 sum_ij X_ij gamma_i gamma_{n-1-j} made trace-free,
    restricted to the Fock degrees of the given parity."""
    L = classical_algebra("so", n)
    m = n // 2
    basis = [s for r in range(m + 1) for s in itertools.combinations(range(m), r)]
    at = {s: t for t, s in enumerate(basis)}
    N = len(basis)
    gammas = [QMatrix.zero(N, N) for _ in range(n)]
    for s in basis:
        for i in range(m):
            sign = (-1) ** sum(x < i for x in s)
            if i in s:
                gammas[n - 1 - i][at[tuple(x for x in s if x != i)], at[s]] = \
                    QQ(2 * sign)
            else:
                gammas[i][at[tuple(sorted(s + (i,)))], at[s]] = QQ(sign)
        if n % 2:
            gammas[m][at[s], at[s]] = QQ((-1) ** len(s))
    keep = [t for t, s in enumerate(basis)
            if parity is None or len(s) % 2 == parity]
    ref = []
    for X in L.metadata["matrices"]:
        sigma = QMatrix.zero(N, N)
        for (i, j), x in X.items():
            sigma = sigma + (gammas[i] * gammas[n - 1 - j]).scale(x / 4)
        trace = sum(sigma[t, t] for t in range(N)) / N
        ref.append(_restricted(sigma - QMatrix.identity(N).scale(trace), keep))
    return L, ref


def _det(rows):
    """The Leibniz expansion, for small minors, over its nonzero terms."""
    k = len(rows)
    total = QQ(0)
    for p in itertools.permutations(range(k)):
        entries = [rows[a][p[a]] for a in range(k)]
        if all(entries):
            total += (-1) ** sum(p[a] > p[b] for a, b in
                                 itertools.combinations(range(k), 2)) \
                * math.prod(entries)
    return total


def _exterior_reference(X, k):
    """Lambda^k of X on the sorted k-subsets: the entry at (c, b) is the
    derivative at t = 0 of the minor det((1 + tX)[c, b]), a sum over the
    columns of the minor (zero unless b and c share k - 1 indices)."""
    basis = list(itertools.combinations(range(X.rows), k))
    return QMatrix(len(basis), len(basis), [
        [sum((_det([[X[i, j] if t == pos else QQ(i == j)
                     for t, j in enumerate(b)] for i in c])
              for pos in range(k)), QQ(0))
         if len(set(b) - set(c)) < 2 else QQ(0) for b in basis]
        for c in basis])


def _symmetric_reference(X, k):
    """S^k of X on the sorted monomials: every slot of b, equal ones too,
    sent through X in turn."""
    basis = list(itertools.combinations_with_replacement(range(X.rows), k))
    at = {b: t for t, b in enumerate(basis)}
    M = QMatrix.zero(len(basis), len(basis))
    for s, b in enumerate(basis):
        for pos in range(k):
            for w in range(X.rows):
                t = at[tuple(sorted(b[:pos] + (w,) + b[pos + 1:]))]
                M[t, s] += X[w, b[pos]]
    return M


def _spin7():
    L, ref = _spin_reference(7)
    return spin_rep(7, L=L), ref


def _spin8_odd():
    L, ref = _spin_reference(8, parity=1)
    return spin_rep(8, "odd", L=L), ref


def _exterior_sl4():
    L = classical_algebra("sl", 4)
    return (exterior_power(standard_rep(L), 2),
            [_exterior_reference(X, 2) for X in _dense(L.metadata["matrices"], 4)])


def _symmetric_so3():
    L = classical_algebra("so", 3)
    return (symmetric_power(standard_rep(L), 3),
            [_symmetric_reference(X, 3) for X in _dense(L.metadata["matrices"], 3)])


def _contraction_kernel_sp6():
    # the kernel of the contraction Lambda^3 -> Lambda^1, written densely
    n, k = 6, 3
    L = classical_algebra("sp", n)
    J = symplectic_form(n)
    basis = list(itertools.combinations(range(n), k))
    C = QMatrix.zero(n, len(basis))
    for s, b in enumerate(basis):
        for a, c in itertools.combinations(range(k), 2):
            (rest,) = set(b) - {b[a], b[c]}
            C[rest, s] += (-1) ** (a + c - 1) * J.get((b[a], b[c]), 0)
    K = kernel_basis(C)
    span = Basis(K)
    ref = [_matrix_in(span, [A.matvec(v) for v in K])
           for A in (_exterior_reference(X, k)
                     for X in _dense(L.metadata["matrices"], n))]
    return contraction_kernel(standard_rep(L), J, k), ref


def _rescaled_sl2():
    # sl2 on the basis x_i / s_i: fractional structure constants, here
    # written by commutators of the rescaled matrices
    from coadjoint.liealg import algebra_on_basis

    scales = [2, 3, 5]
    sl2 = classical_algebra("sl", 2)
    L = algebra_on_basis(sl2, [[QQ(1, s) if t == r else 0 for t in range(3)]
                               for r, s in enumerate(scales)])
    mats = [X.scale(QQ(1, s))
            for X, s in zip(_dense(sl2.metadata["matrices"], 2), scales)]
    return L, mats


def _adjoint_rescaled():
    L, mats = _rescaled_sl2()
    R = adjoint_rep(L)
    assert R.d > 1
    return R, [_in_basis(mats, X) for X in mats]


def _dual_spin7():
    R, ref = _spin7()
    return dual_rep(R), [X.transpose().scale(-1) for X in ref]


def _conjugated(L, scale):
    """The defining module of L conjugated by diag(scale, 1, ..., 1)."""
    n = L.metadata["matrix_size"]
    P = QMatrix.identity(n)
    P[0, 0] = QQ(scale)
    return [inverse(P) * X * P for X in _dense(L.metadata["matrices"], n)]


def _from_thirds():
    L = classical_algebra("sl", 2)
    mats = _conjugated(L, 3)
    assert any(x.denominator == 3 for X in mats for row in X.data for x in row)
    return RepresentationData.from_matrices(L, mats, "k2'"), mats


def _sum_of_three_d():
    # d = 1, 2 and 3 in one sum
    L, spin = _spin_reference(7)
    thirds = _conjugated(L, 3)
    R = direct_sum_rep(standard_rep(L), spin_rep(7, L=L),
                       RepresentationData.from_matrices(L, thirds, "k7'"))
    assert R.d == 6
    return R, [_block_diagonal(X, Y, Z) for X, Y, Z in
               zip(_dense(L.metadata["matrices"], 7), spin, thirds)]


def _contraction_g1():
    # g1 is the trace-orthogonal complement of g0 in sl4, in its reduced
    # echelon basis in the coordinates of sl4, g0 acting by commutators
    from coadjoint.constructions import ContractionSpec, z2_contraction

    S, _ = z2_contraction(ContractionSpec("sl-sp", (4,)))
    sl4 = _dense(classical_algebra("sl", 4).metadata["matrices"], 4)
    g0 = _dense(S.algebra.metadata["matrices"], 4)

    def trace(M):
        return sum(M[t, t] for t in range(M.rows))

    C = QMatrix(len(g0), len(sl4), [[trace(X * Y) for Y in sl4] for X in g0])
    g1 = [sum((Y.scale(a) for a, Y in zip(row, sl4)), QMatrix.zero(4, 4))
          for row in Basis(kernel_basis(C)).rows]
    return S.rep, [_in_basis(g1, X) for X in g0]


def _submodule_halves():
    # the graph of v -> v/2 in k^2 + k^2, a copy of k^2 with E = 2
    L = classical_algebra("sl", 2)
    R = standard_rep(L)
    sub = _submodule(direct_sum_rep(R, R),
                     [[1, 0, QQ(1, 2), 0], [0, 1, 0, QQ(1, 2)]], "k2", [0, 1])
    assert sub.d == 2
    return sub, _dense(L.metadata["matrices"], 2)


_BUILDERS = {"spin_rep(7)": _spin7, "spin_rep(8, odd)": _spin8_odd,
             "exterior_power": _exterior_sl4,
             "symmetric_power": _symmetric_so3,
             "contraction_kernel sp6": _contraction_kernel_sp6,
             "adjoint_rep rescaled sl2": _adjoint_rescaled,
             "dual_rep": _dual_spin7, "from_matrices": _from_thirds,
             "direct_sum_rep": _sum_of_three_d,
             "_submodule": _submodule_halves, "contraction g1": _contraction_g1}


@pytest.mark.parametrize("name", list(_BUILDERS))
def test_builders_write_int_columns_viewed_as_the_reference(name):
    R, ref = _BUILDERS[name]()
    assert type(R.d) is int and R.d >= 1
    for cols in R.columns:
        for col in cols:
            assert all(type(c) is int and c for _, c in col)
            assert [w for w, _ in col] == sorted({w for w, _ in col})
    assert [X.data for X in R.action] == [X.data for X in ref]
    assert check_representation(R)


_CHECKS_UNDER_O = """
import sys
from coadjoint.liealg import classical_algebra
from coadjoint.qlinalg import QQ, VerificationError
from coadjoint.repn import (RepresentationData, _submodule,
                            check_representation, standard_rep)

try:
    assert False
except AssertionError:
    sys.exit(3)  # not running under -O
R = standard_rep(classical_algebra("sl", 3))
try:
    _submodule(R, [[1, 0, 0]], "not invariant", [0])
except VerificationError:
    pass
else:
    sys.exit(4)
mats = R.action
mats[1].data[0][0] += QQ(1)
try:
    check_representation(RepresentationData.from_matrices(R.algebra, mats, "bad"))
except VerificationError:
    pass
else:
    sys.exit(5)
from coadjoint.constructions import restrict_psi
from coadjoint.invariants import MultiPoly
from coadjoint.liealg import matrix_algebra
from coadjoint.qlinalg import QMatrix
from coadjoint.semidirect import semidirect
sp4 = classical_algebra("sp", 4)
S = semidirect(sp4, standard_rep(sp4))
try:
    restrict_psi(S, MultiPoly.variable(S.dim, 0), [1, 0, 0, 0])
except VerificationError:
    pass
else:
    sys.exit(6)
try:
    restrict_psi(S, MultiPoly.constant(S.dim, 1), [1, 0, 0, 0],
                 adapted_basis=[[1] + [0] * 9, [2] + [0] * 9])
except VerificationError:
    pass
else:
    sys.exit(9)
from coadjoint.invariants import LedgerEntry
try:
    LedgerEntry((2,), 2, 1, 0)
except VerificationError:
    pass
else:
    sys.exit(10)
e = QMatrix.from_rows([[0, 1], [0, 0]])
try:
    matrix_algebra(2, [e.entries(), e.transpose().entries()], ["e", "f"], {})
except VerificationError:
    pass
else:
    sys.exit(7)
from coadjoint.liealg import LieAlgebraData
H = LieAlgebraData(3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
try:
    H.check_jacobi()
except VerificationError:
    pass
else:
    sys.exit(8)
from coadjoint.invariants import _pack
try:
    _pack({(255, 256): 1}, 2, 1)    # an exponent above a forced width of 1
except VerificationError:
    pass
else:
    sys.exit(11)
from coadjoint import liealg
for args in ((3, 2, (3, 3), 0, 0), (3, 1, (1, 3), 0, 0)):
    try:
        liealg.Fingerprint(*args)    # odd ind - dim; a growing derived series
    except VerificationError:
        pass
    else:
        sys.exit(12)
index = liealg.index
liealg.index = lambda L, cfg: liealg.IndexResult(L.dim + 1)
try:
    liealg.b_of(classical_algebra("sl", 2))
except VerificationError:
    pass
else:
    sys.exit(13)
liealg.index = index
matrix_algebra = liealg.matrix_algebra
liealg.matrix_algebra = lambda n, mats, labels, md: LieAlgebraData(1)
try:
    liealg.sp_algebra(4)
except VerificationError:
    pass
else:
    sys.exit(14)
liealg.matrix_algebra = matrix_algebra
from coadjoint.qlinalg import inverse
from coadjoint.repn import (direct_sum_rep, spin_rep, symplectic_form,
                            weight_module)
from coadjoint.constructions import (delta_k_matrix, principal_minor_sums,
                                     symbolic_minor_sum, symbolic_pfaffian)
from coadjoint.invariants import monomials_of_block_degrees
from coadjoint.qlinalg import SampleConfig, sample_vector
sl2 = classical_algebra("sl", 2)
sp2 = classical_algebra("sp", 2)
sp2_k2 = semidirect(sp2, standard_rep(sp2))
x, o = MultiPoly.variable(1, 0), MultiPoly(1)
for code, build in (
        (15, lambda: semidirect(classical_algebra("sl", 3),
                                standard_rep(sl2))),
        (16, lambda: direct_sum_rep(standard_rep(sl2), standard_rep(sp4))),
        (17, lambda: spin_rep(5, L=sp4)),
        (18, lambda: symplectic_form(3)),
        (19, lambda: MultiPoly.variable(2, 0) ** -1),
        (20, lambda: weight_module("sp", 4, "psi2")),
        (21, lambda: inverse(QMatrix.zero(2, 3))),
        (22, lambda: LieAlgebraData(3, ["a", "b"])),
        (23, lambda: MultiPoly.variable(2, 0).evaluate([3])),
        (24, lambda: _submodule(R, [[2, 0, 0]], "not a unit", [0])),
        (25, lambda: monomials_of_block_degrees(sp2_k2, (2,))),
        (26, lambda: MultiPoly.variable(2, 0).substitute_linear(
            [MultiPoly.variable(1, 0)])),
        (27, lambda: symbolic_pfaffian([[MultiPoly.constant(1, 1)] * 3] * 3,
                                       1)),
        (28, lambda: sample_vector(SampleConfig(), -1)),
        (29, lambda: principal_minor_sums(QMatrix.zero(2, 3))),
        (30, lambda: QMatrix(2, 2, [[1, 0]])),
        (31, lambda: QMatrix.zero(2, 3) * QMatrix.zero(2, 3)),
        (32, lambda: QMatrix.zero(2, 2) + QMatrix.zero(2, 3)),
        (33, lambda: QMatrix.zero(2, 2) - QMatrix.zero(3, 2)),
        (34, lambda: QMatrix.zero(2, 2).matvec([1])),
        (35, lambda: symbolic_minor_sum([[x, x], [x, x]], 1, 3)),
        (36, lambda: symbolic_minor_sum([[x, x], [x, x]], 1, -1)),
        (37, lambda: symbolic_minor_sum([[x, x]], 1, 1)),
        (38, lambda: delta_k_matrix(QMatrix.identity(2), -1)),
        (39, lambda: delta_k_matrix(QMatrix.identity(2), 3)),
        (40, lambda: delta_k_matrix(QMatrix.zero(2, 3), 1)),
        (41, lambda: symbolic_pfaffian([[o, x], [x, o]], 1)),
        (42, lambda: symbolic_pfaffian([[x, x], [-x, o]], 1)),
        (43, lambda: symbolic_pfaffian([[x, x]], 1))):
    try:
        build()
    except ValueError:
        pass
    else:
        sys.exit(code)
"""


def test_checks_survive_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", _CHECKS_UNDER_O],
                          env=env, timeout=120)
    assert done.returncode == 0


def test_no_bare_assert_in_src():
    """Every check of the program raises, so none is stripped by -O."""
    src = Path(__file__).resolve().parents[1] / "src" / "coadjoint"
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
