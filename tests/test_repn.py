import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coadjoint.liealg import classical_algebra, fingerprint
from coadjoint.qlinalg import QMatrix, QQ, SampleConfig, inverse, kernel_basis
from coadjoint.repn import (
    FormNotInvariantError,
    RepresentationData,
    adjoint_rep,
    build_module,
    check_representation,
    contraction_kernel,
    dual_rep,
    exterior_power,
    spin_rep,
    standard_rep,
    symmetric_power,
    symplectic_form,
    trivial_rep,
    weight_module,
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
    assert S.v_weights() is None
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
    assert semidirect(L, R).v_weights() is not None


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
from coadjoint.constructions import principal_minor_sums, symbolic_pfaffian
from coadjoint.invariants import monomials_of_block_degrees
from coadjoint.qlinalg import SampleConfig, sample_vector
sl2 = classical_algebra("sl", 2)
sp2 = classical_algebra("sp", 2)
sp2_k2 = semidirect(sp2, standard_rep(sp2))
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
        (34, lambda: QMatrix.zero(2, 2).matvec([1]))):
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
