from fractions import Fraction
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coadjoint.liealg import (
    LieAlgebraData,
    NotClosedError,
    _commutators,
    abelian_algebra,
    algebra_on_basis,
    b_of,
    classical_algebra,
    direct_sum,
    fingerprint,
    fingerprint_sum,
    heisenberg_algebra,
    index,
    killing_matrix,
    make_expander,
    matrix_algebra,
    subalgebra,
)
from coadjoint.qlinalg import (
    _PRIMES,
    Basis,
    QMatrix,
    SampleConfig,
    VerificationError,
    rank,
    sample_mod_p,
    sample_rounds,
)
from coadjoint.repn import standard_rep
from coadjoint.semidirect import semidirect

CFG = SampleConfig(seed=11, height=5, rounds=8)


def test_classical_dimensions():
    assert classical_algebra("sl", 2).dim == 3
    assert classical_algebra("so", 9).dim == 36
    assert classical_algebra("sp", 6).dim == 21
    assert classical_algebra("gl", 4).dim == 16


def test_sp_rejects_odd_size():
    with pytest.raises(ValueError):
        classical_algebra("sp", 5)


@pytest.mark.parametrize("family,n", [
    ("sl", 2), ("sl", 4), ("so", 5), ("so", 8), ("so", 9),
    ("sp", 4), ("sp", 6), ("gl", 3),
])
def test_jacobi_classical(family, n):
    classical_algebra(family, n).check_jacobi()


def test_jacobi_larger():
    classical_algebra("so", 14).check_jacobi()


def test_index_sl2():
    assert int(index(classical_algebra("sl", 2), CFG)) == 1


def test_index_abelian():
    for d in (1, 4, 7):
        assert int(index(abelian_algebra(d), CFG)) == d


@pytest.mark.parametrize("family,top,expected", [
    ("sl", 12, lambda n: n - 1),
    ("so", 20, lambda n: n // 2),
    ("sp", 20, lambda n: n // 2),
])
def test_reductive_index_is_rank(family, top, expected):
    lo = 2 if family != "so" else 3
    for n in range(lo, top + 1):
        if family == "sp" and n % 2:
            continue
        ind = index(classical_algebra(family, n), CFG)
        assert ind.stabilised
        assert int(ind) == expected(n), (family, n)


def test_reductive_index_large_sl():
    # the top of the <= 20 sweep for sl, exercised separately (heaviest ranks)
    for n in (16, 20):
        ind = index(classical_algebra("sl", n), CFG)
        assert ind.stabilised and int(ind) == n - 1


def _index_at_rational_samples(L, cfg):
    """The former rule, kept as the reference: dim L minus the maximal exact
    rank over Q of B_gamma at rational samples of doubling height, sampling
    until the maximum is seen twice."""
    best = -1
    for gamma in sample_rounds(cfg, L.dim, "index"):
        r = rank(L.kirillov_form(gamma))
        if r == best:
            break
        best = max(best, r)
    return L.dim - best


@pytest.mark.parametrize("family,sizes", [
    ("gl", range(1, 9)), ("sl", range(2, 9)), ("so", range(3, 9)),
    ("sp", (2, 4, 6, 8)),
])
def test_index_mod_p_is_the_rational_rule_on_classical(family, sizes):
    for n in sizes:
        L = classical_algebra(family, n)
        ind = index(L, CFG)
        assert int(ind) == _index_at_rational_samples(L, CFG), (family, n)
        assert ind.stabilised and ind.miss_bound <= (L.dim / _PRIMES[1]) ** 2
        assert ind.primes == tuple(_PRIMES[:len(ind.samples)])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 5))
def test_index_mod_p_is_the_rational_rule_on_random_subalgebras(seed, n):
    # a strict partial order and some diagonal units span a subalgebra of
    # gl_n; an invertible integer recombination of that basis gives it
    # fractional structure constants
    rng = random.Random(seed)
    less = {(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.5}
    for j in range(n):      # transitive closure, j the middle element
        for i in range(n):
            for k in range(n):
                if (i, j) in less and (j, k) in less:
                    less.add((i, k))
    units = sorted(less | {(i, i) for i in range(n) if rng.random() < 0.6})
    if not units:
        return
    m = len(units)
    while True:
        mix = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        if rank(QMatrix.from_rows(mix)) == m:
            break
    basis = [[Fraction(0)] * (n * n) for _ in range(m)]
    for row, out in zip(mix, basis):
        for c, (i, j) in zip(row, units):
            out[i * n + j] += c
    sub = algebra_on_basis(classical_algebra("gl", n), basis)
    assert int(index(sub, CFG)) == _index_at_rational_samples(sub, CFG)


def test_index_mod_p_is_the_rational_rule_on_stabilisers_of_products():
    from coadjoint.repn import build_module
    from coadjoint.semidirect import generic_stabiliser_in_V

    for family, n, summands in [("so", 5, [("phi1", 1)]),
                                ("sp", 4, [("phi1", 2)]),
                                ("sl", 3, [("phi1", 1)]),
                                ("so", 7, [("phi3", 1)])]:
        L = classical_algebra(family, n)
        S = semidirect(L, build_module(family, n, summands, L=L))
        for alg in (S.total, generic_stabiliser_in_V(S, CFG).algebra):
            assert int(index(alg, CFG)) == _index_at_rational_samples(alg,
                                                                      CFG)


def _kirillov_mod_p_by_pairs(L, gamma, p):
    """The former assembly, kept as the reference: (d/c) B_gamma mod p,
    summed pair by pair over the integer table in Python, c its content."""
    n, pairs = L.dim, L.int_brackets()
    c = math.gcd(*(x for *_, vec in pairs for x in vec.values()))
    a = [[0] * n for _ in range(n)]
    for i, j, vec in pairs:
        s = sum(x * gamma[k] for k, x in vec.items()) // c
        a[i][j], a[j][i] = s % p, -s % p
    return np.array(a, np.int64).reshape(n, n)


def _stabiliser_of_9b_m2():
    """q_x of table 1 row 9b at m = 2, whose table has constants, divided by
    their content, of up to 187 bits."""
    from coadjoint.atlas import load_atlas, row_expectations
    from coadjoint.repn import build_module
    from coadjoint.semidirect import generic_stabiliser_in_V

    cfg = SampleConfig()
    row = next(r for r in load_atlas(cfg=cfg)
               if (r.table, r.label) == (1, "9b"))
    exp = row_expectations(row, {"m": 2}, cfg)
    L = classical_algebra(row.family, exp["size"])
    R = build_module(row.family, exp["size"],
                     [(lbl, m) for m, lbl in exp["module"] if m > 0], L=L)
    return generic_stabiliser_in_V(semidirect(L, R), cfg).algebra


def _so5_on_k5():
    L = classical_algebra("so", 5)
    return semidirect(L, standard_rep(L)).total


KIRILLOV_CASES = {
    "so5": lambda: classical_algebra("so", 5),
    "sp4": lambda: classical_algebra("sp", 4),
    "so5|x k5": _so5_on_k5,
    "q_x of 1/9b m=2": _stabiliser_of_9b_m2,
}


@pytest.mark.parametrize("name", KIRILLOV_CASES)
def test_kirillov_form_mod_p_is_the_pairwise_sum(name):
    """The scatter-add assembly of B_gamma mod p equals the pair-by-pair sum,
    with the constants in int64 below 2^47 and reduced mod p above (only
    the stabiliser's table has constants that large)."""
    L, huge = KIRILLOV_CASES[name](), name.startswith("q_x")
    pairs = L.int_brackets()
    c = math.gcd(*(x for *_, vec in pairs for x in vec.values()))
    assert (max(abs(x) // c for *_, vec in pairs for x in vec.values())
            >= 2 ** 47) == huge
    for p, gamma in sample_mod_p(CFG, L.dim, "kirillov"):
        m = L.kirillov_form(gamma, p)
        assert m.p == p and m.a.dtype == np.int64
        assert (m.a == _kirillov_mod_p_by_pairs(L, gamma, p)).all()


@pytest.mark.parametrize("p", [None, _PRIMES[0]])
def test_kirillov_form_refuses_a_gamma_of_the_wrong_length(p):
    with pytest.raises(ValueError,
                       match="4 coordinates for an algebra of dim 3"):
        classical_algebra("sl", 2).kirillov_form([1, 0, 0, 7], p)


def test_index_divides_the_content_of_the_structure_table():
    # every bracket a multiple of both first primes: without dividing the
    # content out, B_gamma would vanish mod p at both and the index read 5
    L = LieAlgebraData(5, brackets={(i, 2 + i): {4: _PRIMES[0] * _PRIMES[1]}
                                    for i in range(2)})
    ind = index(L, CFG)
    assert int(ind) == 1 and ind.samples[:2] == (4, 4)


def test_index_parity():
    for L in (classical_algebra("sl", 3), classical_algebra("so", 7),
              heisenberg_algebra(2), abelian_algebra(5)):
        ind = index(L, CFG)
        assert (int(ind) - L.dim) % 2 == 0


def test_killing_rank_semisimple():
    for family, n in [("sl", 2), ("sl", 5), ("so", 5), ("so", 9),
                      ("sp", 4), ("sp", 8), ("so", 14)]:
        L = classical_algebra(family, n)
        assert rank(killing_matrix(L)) == L.dim, (family, n)


def test_b_of():
    assert int(b_of(classical_algebra("sl", 2), CFG)) == 2


def test_fingerprint_sl2():
    fp = fingerprint(classical_algebra("sl", 2), CFG)
    assert fp.dim == 3 and fp.index == 1
    assert fp.derived_series_dims[:2] == (3, 3)
    assert fp.killing_rank == 3 and fp.center_dim == 0


def test_fingerprint_heisenberg():
    fp = fingerprint(heisenberg_algebra(1), CFG)
    assert fp.dim == 3 and fp.index == 1
    assert fp.derived_series_dims == (3, 1, 0)
    assert fp.killing_rank == 0 and fp.center_dim == 1


def test_fingerprint_sum():
    a = fingerprint(classical_algebra("sl", 2), CFG)
    s = fingerprint_sum(a, a)
    b = fingerprint(direct_sum(classical_algebra("sl", 2),
                               classical_algebra("sl", 2)), CFG)
    assert s == b


def test_subalgebra_full_span():
    L = classical_algebra("sl", 2)
    sub = subalgebra(L, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert sub.dim == 3
    assert int(index(sub, CFG)) == 1


def test_subalgebra_cartan_and_nilpotent():
    L = classical_algebra("sl", 2)  # basis H, E12, E21
    cartan = subalgebra(L, [[1, 0, 0]])
    assert cartan.dim == 1 and not cartan.int_brackets()
    nil = subalgebra(L, [[0, 1, 0]])
    assert nil.dim == 1 and not nil.int_brackets()


def test_subalgebra_not_closed_witness():
    L = classical_algebra("sl", 2)
    with pytest.raises(NotClosedError) as err:
        subalgebra(L, [[0, 1, 0], [0, 0, 1]])  # e and f
    assert err.value.witness == (0, 1)


def test_takiff_fingerprints_agree_so3_sl2():
    # so_3 and sl_2 are isomorphic over the split forms
    from coadjoint.constructions import takiff

    f1 = fingerprint(takiff(classical_algebra("sl", 2)).total, CFG)
    f2 = fingerprint(takiff(classical_algebra("so", 3)).total, CFG)
    assert f1 == f2


def _dense_bracket(L, u, v):
    """The bilinear definition: sum over the table of (u_i v_j - u_j v_i) c."""
    out = [Fraction(0)] * L.dim
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coef = u[i] * v[j] - u[j] * v[i]
            for k, c in L.bracket_basis(i, j).items():
                out[k] += coef * c
    return out


def _sp4_on_k4():
    L = classical_algebra("sp", 4)
    return semidirect(L, standard_rep(L)).total


BRACKET_ALGEBRAS = {
    "sl3": lambda: classical_algebra("sl", 3),
    "so5": lambda: classical_algebra("so", 5),
    "sp4": lambda: classical_algebra("sp", 4),
    "heis2": lambda: heisenberg_algebra(2),
    "sp4|x k4": _sp4_on_k4,
}


@pytest.mark.parametrize("name", sorted(BRACKET_ALGEBRAS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), density=st.sampled_from([0.1, 0.4, 1.0]))
def test_bracket_by_support_is_the_bilinear_bracket(name, seed, density):
    L = BRACKET_ALGEBRAS[name]()
    rng = random.Random(seed)

    def vector():
        return [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                if rng.random() < density else 0 for _ in range(L.dim)]

    u, v = vector(), vector()
    assert L.bracket(u, v) == _dense_bracket(L, u, v)
    assert L.bracket(v, u) == [-c for c in _dense_bracket(L, u, v)]


def _ad(L, i):
    """The matrix of ad(x_i) in the basis, read off L.bracket_basis."""
    m = QMatrix.zero(L.dim, L.dim)
    for j in range(L.dim):
        for k, c in L.bracket_basis(i, j).items():
            m.data[k][j] = c
    return m


def test_builder_clears_and_reduces_the_integer_table():
    L = LieAlgebraData(3, brackets={(0, 1): {2: 1}})
    assert L.int_ad_table == (1, [{1: {2: 1}}, {0: {2: -1}}, {}])
    # rational constants are cleared to their least common denominator
    L = LieAlgebraData(3, brackets={(0, 1): {2: 3}, (0, 2): {1: Fraction(3, 2)}})
    assert L.int_ad_table == (2, [{1: {2: 6}, 2: {1: 3}}, {0: {2: -6}},
                                  {0: {1: -3}}])
    assert L.bracket([1, 0, 0], [0, 0, 1]) == [0, Fraction(3, 2), 0]
    # a given d is reduced against the entries; zero brackets are dropped
    L = LieAlgebraData(3, brackets={(0, 1): {2: 2, 0: 0}, (1, 2): {0: 0}}, d=4)
    assert L.int_ad_table == (2, [{1: {2: 1}}, {0: {2: -1}}, {}])
    assert L.bracket_basis(0, 1) == {2: Fraction(1, 2)}
    assert _ad(L, 2).is_zero()
    assert LieAlgebraData(2).int_ad_table == (1, [{}, {}])
    with pytest.raises(ValueError):
        LieAlgebraData(3, brackets={(1, 0): {2: 1}})


@pytest.mark.parametrize("name", sorted(BRACKET_ALGEBRAS))
def test_killing_matrix_is_trace_of_ad_products(name):
    # killing_matrix holds d^2 times the Killing form, in integers
    L = BRACKET_ALGEBRAS[name]()
    d = L.int_ad_table[0]
    K = killing_matrix(L)
    ads = [_ad(L, i) for i in range(L.dim)]
    for i in range(L.dim):
        for j in range(L.dim):
            prod = ads[i] * ads[j]
            assert K.data[i].get(j, 0) == d * d * sum(
                (prod[t, t] for t in range(L.dim)), Fraction(0))


@pytest.mark.parametrize("name", ["heis2", "sl3", "so5"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_algebra_on_rational_basis_reproduces_brackets(name, seed):
    # any basis of L spans a subalgebra; its structure constants, recombined,
    # must give back the brackets of the basis vectors
    L = BRACKET_ALGEBRAS[name]()
    rng = random.Random(seed)
    while True:
        basis = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                  for _ in range(L.dim)] for _ in range(L.dim)]
        if rank(QMatrix(L.dim, L.dim, basis)) == L.dim:
            break
    sub = algebra_on_basis(L, basis)
    for i in range(L.dim):
        for j in range(L.dim):
            combo = [sum((c * basis[t][r] for t, c in
                          sub.bracket_basis(i, j).items()), Fraction(0))
                     for r in range(L.dim)]
            assert combo == L.bracket(basis[i], basis[j])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 4),
       density=st.sampled_from([0.3, 0.7, 1.0]))
def test_expander_on_any_independent_family(seed, n, density):
    # random matrices with overlapping supports, not a classical basis
    rng = random.Random(seed)
    size = rng.randint(1, n * n)
    mats, flat = [], []
    while len(mats) < size:
        m = QMatrix(n, n, [[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                            if rng.random() < density else Fraction(0)
                            for _ in range(n)] for _ in range(n)])
        row = [x for r in m.data for x in r]
        if rank(QMatrix.from_rows(flat + [row])) == len(mats) + 1:
            mats.append(m)
            flat.append(row)
    expand = make_expander([m.entries() for m in mats])
    c = [Fraction(rng.randint(-3, 3), rng.choice((1, 3))) for _ in mats]
    target = QMatrix.zero(n, n)
    for a, m in zip(c, mats):
        target = target + m.scale(a)
    got = expand(target.entries())
    assert [got.get(b, 0) for b in range(size)] == c
    for t in range(n * n):
        unit = [int(k == t) for k in range(n * n)]
        if rank(QMatrix.from_rows(flat + [unit])) > size:
            with pytest.raises(VerificationError):
                expand({divmod(t, n): Fraction(1)})
            break


@pytest.mark.parametrize("family, sizes", [
    ("gl", range(2, 5)), ("sl", range(2, 7)), ("so", range(3, 9)),
    ("sp", (2, 4, 6))])
def test_classical_brackets_expand_to_ints(family, sizes):
    """Each cleared commutator of a classical basis is written in the basis
    with int coefficients only, and the table built from them equals the one
    that clearing Fractions gives."""
    for n in sizes:
        L = classical_algebra(family, n)
        mats = L.metadata["matrices"]
        D = math.lcm(1, *(v.denominator for m in mats for v in m.values()))
        cleared = [{pos: v.numerator * (D // v.denominator)
                    for pos, v in m.items()} for m in mats]
        brackets = {ab: L.metadata["expand"](comm)
                    for ab, comm in _commutators(cleared).items()}
        assert all(type(c) is int for vec in brackets.values()
                   for c in vec.values())
        as_fractions = {ab: {k: Fraction(c) for k, c in vec.items()}
                        for ab, vec in brackets.items()}
        assert LieAlgebraData(L.dim, L.basis_labels, as_fractions,
                              d=D * D).int_ad_table == L.int_ad_table


def test_matrix_algebra_rejects_matrices_not_closed_under_commutator():
    e = QMatrix.from_rows([[0, 1], [0, 0]])
    f = QMatrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(VerificationError):
        matrix_algebra(2, [e.entries(), f.entries()], ["e", "f"], {})
    h = e * f - f * e
    sl2 = matrix_algebra(2, [e.entries(), f.entries(), h.entries()],
                         ["e", "f", "h"], {})
    assert sl2.int_brackets() == [(0, 1, {2: 1}), (0, 2, {0: -2}),
                                  (1, 2, {1: 2})]


# ---------------------------------------------------------------------------
# the integer table against a Fraction reference builder
# ---------------------------------------------------------------------------


def _qmatrix(m, n):
    """The sparse matrix m, {(i, j): value}, as a dense n x n QMatrix."""
    return QMatrix(n, n, [[m.get((i, j), Fraction(0)) for j in range(n)]
                          for i in range(n)])


def _reference_matrix_table(L):
    """{(a, b): [x_a, x_b] as {k: Fraction}}, a < b, for the independent
    matrices of a matrix-built algebra L: each commutator a dense Fraction
    product, written in the matrices by Basis.coords."""
    mats = [_qmatrix(m, L.metadata["matrix_size"])
            for m in L.metadata["matrices"]]
    span = Basis([[x for row in m.data for x in row] for m in mats])
    out = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = mats[a] * mats[b] - mats[b] * mats[a]
            coords = span.coords([x for row in comm.data for x in row])
            out[(a, b)] = {k: c for k, c in enumerate(coords) if c}
    return out


def _reference_semidirect_table(S):
    """The reference table of the algebra, plus [x_i, v] = rho(x_i) v."""
    ref = _reference_matrix_table(S.algebra)
    g = S.dim_g
    for i, columns in enumerate(S.rep.columns):
        for v, col in enumerate(columns):
            if col:
                ref[(i, g + v)] = {g + w: Fraction(c, S.rep.d)
                                   for w, c in col.items()}
    return ref


def _reference_subalgebra_table(ref, dim, basis):
    """[u_a, u_b] summed bilinearly over the Fraction table ref of an algebra
    of dimension dim, written in the vectors u by Basis.coords."""
    span = Basis(basis)
    out = {}
    for a, u in enumerate(basis):
        for b in range(a + 1, len(basis)):
            v = basis[b]
            w = [Fraction(0)] * dim
            for (i, j), vec in ref.items():
                coef = u[i] * v[j] - u[j] * v[i]
                for k, c in vec.items():
                    w[k] += coef * c
            coords = span.coords(w)
            assert coords is not None
            out[(a, b)] = {k: c for k, c in enumerate(coords) if c}
    return out


def _assert_integer_table(L, ref):
    """L's table is d times ref, d the least common denominator of ref."""
    d, table = L.int_ad_table
    assert d == math.lcm(1, *(c.denominator for vec in ref.values()
                              for c in vec.values()))
    want = [{} for _ in range(L.dim)]
    for (i, j), vec in ref.items():
        if vec:
            want[i][j] = {k: d * c for k, c in vec.items()}
            want[j][i] = {k: -d * c for k, c in vec.items()}
    assert table == want
    assert all(type(c) is int for row in table for vec in row.values()
               for c in vec.values())


@pytest.mark.parametrize("family,sizes", [
    ("gl", range(1, 9)), ("sl", range(2, 9)), ("so", range(2, 9)),
    ("sp", (2, 4, 6, 8)),
])
def test_classical_integer_table_is_the_reference(family, sizes):
    for n in sizes:
        L = classical_algebra(family, n)
        _assert_integer_table(L, _reference_matrix_table(L))


def _rescaled(L, scales):
    """L on the basis x_i / scales[i]: fractional structure constants."""
    return algebra_on_basis(L, [[Fraction(1, s) if t == r else 0
                                 for t in range(L.dim)]
                                for r, s in enumerate(scales)])


def _semidirect_totals():
    from coadjoint.repn import adjoint_rep, build_module

    out = []
    for family, n, summands in [("sp", 4, [("phi1", 1)]),
                                ("sp", 4, [("phi1", 2)]),
                                ("so", 5, [("phi1", 1)]),
                                ("sl", 3, [("phi1", 1)]),
                                ("gl", 2, [("phi1", 1)]),
                                ("so", 7, [("phi3", 1)]),
                                ("sp", 6, [("phi2", 1)])]:
        L = classical_algebra(family, n)
        out.append(semidirect(L, build_module(family, n, summands, L=L)))
    L = classical_algebra("sl", 2)
    out.append(semidirect(L, adjoint_rep(L)))
    return out


def test_semidirect_integer_table_is_the_reference():
    for S in _semidirect_totals():
        _assert_integer_table(S.total, _reference_semidirect_table(S))
    # fractional constants in the algebra and in the module at once
    from coadjoint.repn import adjoint_rep

    L = _rescaled(classical_algebra("sl", 2), [2, 3, 5])
    S = semidirect(L, adjoint_rep(L))
    ref = {(i, j): L.bracket_basis(i, j) for i in range(3)
           for j in range(i + 1, 3)}
    ref.update({(i, 3 + v): {3 + w: Fraction(c, S.rep.d)
                             for w, c in col.items()}
                for i, columns in enumerate(S.rep.columns)
                for v, col in enumerate(columns) if col})
    assert S.total.int_ad_table[0] > 1
    _assert_integer_table(S.total, ref)


@pytest.mark.parametrize("name", ["sl3", "so5", "sp4|x k4"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), size=st.integers(1, 6))
def test_subalgebra_integer_table_is_the_reference(name, seed, size):
    # random independent vectors span a subalgebra of sl3, so5 or
    # sp4 |x k4 only by chance; the stabilisers at random points always
    # are one, and so is any basis of the whole algebra
    from coadjoint.semidirect import stabiliser_in_V

    rng = random.Random(seed)
    if name == "sp4|x k4":
        L = classical_algebra("sp", 4)
        S = semidirect(L, standard_rep(L))
        ref = _reference_semidirect_table(S)
        L = S.total
        # the stabiliser in s of a point of V* is q_x + V, spanned by the
        # kernel basis of q_x and V
        x = [rng.choice((0, 0, 1, -2, 3)) for _ in range(S.dim_V)]
        q_x = stabiliser_in_V(S, x).basis
        basis = ([list(u) + [0] * S.dim_V for u in q_x]
                 + [[int(t == S.dim_g + v) for t in range(S.dim)]
                    for v in range(S.dim_V)])
    else:
        L = BRACKET_ALGEBRAS[name]()
        ref = _reference_matrix_table(L)
        while True:
            basis = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                      for _ in range(L.dim)] for _ in range(L.dim)]
            if rank(QMatrix(L.dim, L.dim, basis)) == L.dim:
                break
    sub = algebra_on_basis(L, basis)
    _assert_integer_table(sub, _reference_subalgebra_table(ref, L.dim, basis))


# ---------------------------------------------------------------------------
# the commutator join and the integer builder against their former routes
# ---------------------------------------------------------------------------


def _commutator_pairwise(a, b):
    """[A, B] for sparse {(i, j): v} matrices, every entry of A against
    every entry of B: the former route of matrix_algebra."""
    out = {}
    for (i, k), va in a.items():
        for (k2, j), vb in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + va * vb
    for (i, k), vb in b.items():
        for (k2, j), va in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - vb * va
    return {p: v for p, v in out.items() if v != 0}


def _pairwise_matrix_algebra(L):
    """The table of the matrix-built L rebuilt as matrix_algebra did before
    the join: every pair a < b of cleared matrices commuted by
    _commutator_pairwise and written in the basis by L's expander."""
    mats, expand = L.metadata["matrices"], L.metadata["expand"]
    D = math.lcm(1, *(v.denominator for m in mats for v in m.values()))
    cleared = [{pos: v.numerator * (D // v.denominator)
                for pos, v in m.items()} for m in mats]
    brackets = {}
    for a, ma in enumerate(cleared):
        for b in range(a + 1, len(mats)):
            comm = _commutator_pairwise(ma, cleared[b])
            if comm:
                brackets[(a, b)] = expand(comm)
    return LieAlgebraData(len(mats), brackets=brackets, d=D * D).int_ad_table


def _layout_algebras():
    from coadjoint.constructions import (minimal_nilpotent_centraliser_layout,
                                         two_block_centraliser_layout)

    lays = [minimal_nilpotent_centraliser_layout(n) for n in (2, 3, 4)]
    lays += [two_block_centraliser_layout(m, n) for m, n in ((1, 1), (2, 1),
                                                             (3, 2))]
    return [matrix_algebra(lay.N, [c.generator for c in lay.coords],
                           [c.label for c in lay.coords], {}) for lay in lays]


def _contraction_g0s():
    from coadjoint.constructions import ContractionSpec, z2_contraction

    specs = (("so-so", (3, 1)), ("sp-sp", (4, 2)), ("sl-sp", (4,)),
             ("so-gl", (2,)), ("so-so", (5, 2)))
    return [z2_contraction(ContractionSpec(kind, params))[0].algebra
            for kind, params in specs]


@pytest.mark.parametrize("source", ["classical", "layouts", "contractions"])
def test_matrix_algebra_join_is_the_pairwise_table(source):
    # the join may order the keys inside a bracket differently; the dicts
    # compare by content
    if source == "classical":
        algebras = [classical_algebra(family, n)
                    for family, sizes in (("gl", range(1, 9)),
                                          ("sl", range(2, 9)),
                                          ("so", range(2, 9)),
                                          ("sp", (2, 4, 6, 8)))
                    for n in sizes]
    else:
        algebras = (_layout_algebras() if source == "layouts"
                    else _contraction_g0s())
    for L in algebras:
        assert L.int_ad_table == _pairwise_matrix_algebra(L), L


def test_matrix_algebra_join_keeps_signs_and_skips_commuting_pairs():
    # [E12, E21] = E11 - E22, [E21, E12] its negative; E11 and E22 commute
    mats = [{(0, 1): Fraction(1)}, {(1, 0): Fraction(1)},
            {(0, 0): Fraction(1)}, {(1, 1): Fraction(1)}]
    gl2 = matrix_algebra(2, mats, ["e", "f", "a", "b"], {})
    assert gl2.int_ad_table == _pairwise_matrix_algebra(gl2)
    table = gl2.int_ad_table[1]
    assert table[0][1] == {2: 1, 3: -1} and table[1][0] == {2: -1, 3: 1}
    assert 3 not in table[2] and 2 not in table[3]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), d=st.sampled_from([1, 2, 6]))
def test_builder_stores_integer_input_as_its_fraction_twin(seed, d):
    # int input is stored as given, and input with a Fraction (denominator
    # 1 here) is cleared: the same table either way
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    brackets = {(i, j): {k: rng.choice((0, 0, 2, -4, 6)) for k in range(n)
                         if rng.random() < 0.6}
                for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.7}
    ints = LieAlgebraData(n, brackets=brackets, d=d)
    assert LieAlgebraData(n, brackets={ij: {k: 2 * c for k, c in vec.items()}
                                       for ij, vec in brackets.items()},
                          d=2 * d).int_ad_table == ints.int_ad_table
    for twin in ({ij: {k: Fraction(c) for k, c in vec.items()}
                  for ij, vec in brackets.items()},
                 {ij: {k: Fraction(c) if k == min(vec) else c
                       for k, c in vec.items()}
                  for ij, vec in brackets.items()}):
        assert LieAlgebraData(n, brackets=twin, d=d).int_ad_table == \
            ints.int_ad_table
    table = ints.int_ad_table[1]
    assert all(type(c) is int and c for row in table for vec in row.values()
               for c in vec.values())


def test_builder_divides_out_a_common_factor_and_copies_its_input():
    brackets = {(0, 1): {2: 6, 0: 0}, (0, 2): {1: -4}, (1, 2): {0: 0}}
    L = LieAlgebraData(3, brackets=brackets, d=6)
    assert L.int_ad_table == (3, [{1: {2: 3}, 2: {1: -2}}, {0: {2: -3}},
                                  {0: {1: 2}}])
    # no common factor: stored as given, in the table's own dicts
    brackets = {(0, 1): {2: 6}, (0, 2): {1: -4}}
    L = LieAlgebraData(3, brackets=brackets)
    assert L.int_ad_table == (1, [{1: {2: 6}, 2: {1: -4}}, {0: {2: -6}},
                                  {0: {1: 4}}])
    brackets[(0, 1)][2] = 99
    brackets[(0, 2)][0] = 1
    assert L.int_ad_table == (1, [{1: {2: 6}, 2: {1: -4}}, {0: {2: -6}},
                                  {0: {1: 4}}])
