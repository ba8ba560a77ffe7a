import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from coadjoint.constructions import (
    ContractionSpec,
    EDeltaResult,
    RestrictionEscapes,
    _ambient_invariants,
    _ambient_matrix,
    _trace_pair,
    centraliser_dim,
    delta_k_matrix,
    e_delta_restricted,
    highest_component,
    item3_evaluation_identity,
    item3_lift,
    minimal_nilpotent_centraliser_layout,
    pfaffian,
    principal_minor_sums,
    restrict_psi,
    symbolic_minor_sum,
    symbolic_pfaffian,
    takiff,
    two_block_centraliser_layout,
    z2_contraction,
)
from coadjoint.invariants import (
    MultiPoly,
    _degrees,
    generator_ledger,
    invariant_space,
    is_invariant,
)
from coadjoint.liealg import classical_algebra, fingerprint, index, subalgebra
from coadjoint.qlinalg import (Q0, Q1, QMatrix, QQ, SampleConfig,
                               VerificationError, sample_vector)
from coadjoint.repn import preserves_form, standard_rep, symplectic_form
from coadjoint.semidirect import semidirect

CFG = SampleConfig(seed=21, height=5, rounds=8)


def _qmatrix(m, n):
    """The sparse matrix m, {(i, j): value}, as a dense n x n QMatrix."""
    return QMatrix(n, n, [[m.get((i, j), Q0) for j in range(n)]
                          for i in range(n)])


# -- principal minors and pfaffians ----------------------------------------


def brute_minor_sum(M, k):
    n = M.rows
    tot = QQ(0)
    for S_ in itertools.combinations(range(n), k):
        sub = [[M.data[i][j] for j in S_] for i in S_]
        d = QQ(0)
        for perm in itertools.permutations(range(k)):
            sign = 1
            for i in range(k):
                for j in range(i + 1, k):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = QQ(sign)
            for i in range(k):
                prod *= sub[i][perm[i]]
            d += prod
        tot += d
    return tot


def test_delta_trace_and_det():
    M = QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert delta_k_matrix(M, 1) == 16
    assert delta_k_matrix(M, 3) == brute_minor_sum(M, 3)


def test_delta_is_charpoly_coefficient():
    rng = random.Random(0)
    for _ in range(5):
        M = QMatrix.from_rows([[rng.randint(-5, 5) for _ in range(3)]
                               for _ in range(3)])
        # det(lambda I - M) = l^3 - c1 l^2 + c2 l - c3 with c_k = Delta_k
        for k in range(4):
            assert delta_k_matrix(M, k) == brute_minor_sum(M, k)


def test_pfaffian_small():
    assert pfaffian(QMatrix.from_rows([[0, 5], [-5, 0]])) == 5
    a, b, c, d, e, f = 2, 3, 5, 7, 11, 13
    M = QMatrix.from_rows([[0, a, b, c], [-a, 0, d, e],
                           [-b, -d, 0, f], [-c, -e, -f, 0]])
    assert pfaffian(M) == a * f - b * e + c * d


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(QMatrix.identity(3))
    with pytest.raises(ValueError):
        pfaffian(QMatrix.identity(2))


def test_symbolic_minor_sum_and_pfaffian_name_a_non_square_shape():
    x = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError, match="a 1 x 2 matrix has no Pfaffian"):
        symbolic_pfaffian([[x, x]], 1)
    with pytest.raises(ValueError, match="a 1 x 2 matrix has no principal"):
        symbolic_minor_sum([[x, x]], 1, 1)


def test_pf_squared_is_det_100_random():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.choice([2, 4, 6, 8, 10])
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-5, 5)
                A[i][j] = v
                A[j][i] = -v
        M = QMatrix.from_rows(A)
        assert pfaffian(M) ** 2 == principal_minor_sums(M)[n]


def test_symbolic_minor_sum_matches_numeric():
    rng = random.Random(3)
    n, nv = 4, 3
    entries = [[MultiPoly(nv) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for v in range(nv):
                c = rng.randint(-2, 2)
                if c:
                    entries[i][j] = entries[i][j] + MultiPoly.variable(nv, v, c)
    pt = [QQ(rng.randint(-3, 3)) for _ in range(nv)]
    M = QMatrix(n, n, [[entries[i][j].evaluate(pt) for j in range(n)]
                       for i in range(n)])
    for k in (2, 3, 4):
        sym = symbolic_minor_sum(entries, nv, k)
        assert sym.evaluate(pt) == brute_minor_sum(M, k)


# -- layouts ----------------------------------------------------------------


def test_layout_coordinate_counts():
    lay = minimal_nilpotent_centraliser_layout(2)
    assert lay.n_coords == 6
    assert centraliser_dim(lay) == 6          # independent kernel oracle
    lay3 = minimal_nilpotent_centraliser_layout(3)
    assert lay3.n_coords == 15                # dim sp4 + dim heis2 = 10 + 5
    assert two_block_centraliser_layout(1, 1).n_coords == 6   # 0 + 3 + 2 + 1
    assert two_block_centraliser_layout(3, 2).n_coords == 31  # 3 + 10 + 12 + 6


def test_layout_zero_point_is_constant():
    lay = minimal_nilpotent_centraliser_layout(2)
    assert lay.const == lay.meta["e"]
    assert lay.const
    # the shared form predicate: the generators lie in sp(Omega), the
    # identity and a lone diagonal unit do not
    om = lay.meta["omega"]
    assert all(preserves_form(c.generator, om) for c in lay.coords)
    assert not preserves_form({(i, i): 1 for i in range(lay.N)}, om)
    assert not preserves_form({(0, 0): 1}, om)


def test_e_delta_minimal_cases():
    lay = minimal_nilpotent_centraliser_layout(2)
    res = e_delta_restricted(lay, 4)
    assert res.f_degree == 1
    assert res.H.total_degree() == 3
    assert res.H.multidegree(lay.target.blocks) == (1, 2)
    # proportional to the unique bidegree-(1,2) invariant
    basis = invariant_space(lay.target, (1, 2))
    assert len(basis) == 1
    assert _proportional(res.H, basis[0]) is not None


def test_e_delta_sp4k4_degrees():
    lay = minimal_nilpotent_centraliser_layout(3)
    r1 = e_delta_restricted(lay, 4)
    r2 = e_delta_restricted(lay, 6)
    assert r1.H.total_degree() == 3 and r2.H.total_degree() == 5
    b1 = invariant_space(lay.target, (1, 2))
    b2 = invariant_space(lay.target, (3, 2))
    assert _proportional(r1.H, b1[0]) is not None
    assert _proportional(r2.H, b2[0]) is not None
    # Delta' parts stay inside S(sp)
    for r in (r1, r2):
        md = r.delta_prime.multidegree(lay.target.blocks)
        assert md is not None and all(x == 0 for x in md[1:])


def test_e_delta_f_degree_is_one_for_even_k():
    # minimal nilpotent: the f-degree of each even Delta_k is one
    lay = minimal_nilpotent_centraliser_layout(3)
    for k in (4, 6):
        assert e_delta_restricted(lay, k).f_degree == 1


def test_e_delta_two_block():
    lay = two_block_centraliser_layout(3, 2)
    res = e_delta_restricted(lay, 10)      # k = 3m + 2i - 1 at i = 1
    assert res.f_degree == 3
    assert res.H.total_degree() == 7
    assert is_invariant(lay.target, res.H)
    md = res.H.multidegree(lay.target.blocks)
    assert md == (1, 2, 2, 2)


@pytest.mark.parametrize("n, ks", [(2, (4,)), (3, (4, 6)), (4, (4, 6, 8))])
def test_e_delta_results_do_not_depend_on_the_order_of_the_ks(n, ks,
                                                             monkeypatch):
    """A layout keeps one expansion for every k it serves: ascending calls
    expand once, and the results equal those of descending calls and of one
    call per fresh layout."""
    import coadjoint.constructions as constructions

    expansions = []
    expand = constructions._minor_sums_int
    monkeypatch.setattr(constructions, "_minor_sums_int",
                        lambda *a: expansions.append(list(a[2])) or expand(*a))

    def parts(results):
        return [(r.k, _digest(r.H), r.delta_prime) for r in results]

    lay = minimal_nilpotent_centraliser_layout(n)
    ascending = parts([e_delta_restricted(lay, k) for k in ks])
    assert expansions == [list(range(ks[0], 2 * n + 1))]
    lay = minimal_nilpotent_centraliser_layout(n)
    descending = parts([e_delta_restricted(lay, k) for k in reversed(ks)])
    fresh = parts([e_delta_restricted(minimal_nilpotent_centraliser_layout(n),
                                      k) for k in ks])
    assert ascending == descending[::-1] == fresh


def _floorless(expand):
    """`_minor_sums_int` as it ran before floors: every term within the caps
    is expanded, and the terms below a floor are dropped only at the end."""
    def run(entries, nvars, ks, bounds, floors=()):
        return {kk: (D, w, {mono: c for mono, c in terms.items() if all(
            _degrees([mono], variables, w)[0] >= least
            for variables, least in floors)})
            for kk, (D, w, terms)
            in expand(entries, nvars, ks, bounds).items()}
    return run


def _e_delta_parts(res):
    return res.k, res.H, res.f_degree, res.delta_prime


@pytest.mark.parametrize("layout, args, k", [
    *((minimal_nilpotent_centraliser_layout, (n,), k)
      for n in (2, 3, 4) for k in range(4, 2 * n + 1, 2)),
    (two_block_centraliser_layout, (3, 2), 10)])
def test_e_delta_floor_gives_the_floorless_results(layout, args, k,
                                                   monkeypatch):
    """Expanding only toward t^m gives the H, f-degree and Delta' of the
    full expansion filtered at the end."""
    import coadjoint.constructions as constructions

    floored = _e_delta_parts(e_delta_restricted(layout(*args), k))
    monkeypatch.setattr(constructions, "_minor_sums_int",
                        _floorless(constructions._minor_sums_int))
    assert floored == _e_delta_parts(e_delta_restricted(layout(*args), k))


def test_e_delta_two_block_3_3_is_pinned():
    # the exact terms of H~_1 for sp6 |x 3 k^6, pinned
    res = e_delta_restricted(two_block_centraliser_layout(3, 3), 10)
    assert (res.f_degree, len(res.H.terms), _digest(res.H)) == (
        3, 2502, "8cbbfce73fa05206bcc9")


@pytest.mark.parametrize("layout, args, k", [
    (minimal_nilpotent_centraliser_layout, (2,), 4),
    (two_block_centraliser_layout, (3, 2), 10)])
def test_e_delta_refuses_a_layout_without_its_f_degree(layout, args, k):
    """With the constant f-block cleared, t never occurs, so no term of
    Delta_k reaches f-degree m and the verdict is a VerificationError."""
    lay = layout(*args)
    lay.const = {}
    with pytest.raises(VerificationError, match="f-degree") as err:
        e_delta_restricted(lay, k)
    assert f"Delta_{k} " in str(err.value)


def test_e_delta_range_validation():
    lay = two_block_centraliser_layout(3, 2)
    with pytest.raises(ValueError):
        e_delta_restricted(lay, 8)    # not of the form 3m + 2i - 1
    with pytest.raises(ValueError):
        e_delta_restricted(two_block_centraliser_layout(2, 2), 8)  # even m
    with pytest.raises(ValueError):
        e_delta_restricted(minimal_nilpotent_centraliser_layout(2), 6)
    for m, q in ((0, 2), (1, 0), (2, -1)):
        with pytest.raises(ValueError, match="m, q >= 1"):
            two_block_centraliser_layout(m, q)


def _proportional(P, Q):
    if P.terms.keys() != Q.terms.keys():
        return None
    r = {P.terms[m] / Q.terms[m] for m in P.terms}
    return r.pop() if len(r) == 1 else None


def _sl_route_top(q, m, k):
    """Independent derivation of the centraliser-layout invariants.

    Embed sp_2q |x m k^2q diagonally into sl_{2q+m} (columns carry the
    vectors, rows their symplectic duals) and take the top V-degree part of
    the principal k-minor sum there.  Shares no code path with the layouts.
    """
    from coadjoint.qlinalg import inverse
    from coadjoint.repn import symplectic_form

    sp = classical_algebra("sp", 2 * q)
    mats = [_qmatrix(m, 2 * q) for m in sp.metadata["matrices"]]
    d = sp.dim
    gram = QMatrix(d, d, [[sum(((mats[i] * mats[j]).data[t][t]
                                for t in range(2 * q)), Q0)
                           for j in range(d)] for i in range(d)])
    ginv = inverse(gram)
    duals = []
    for i in range(d):
        acc = QMatrix.zero(2 * q, 2 * q)
        for j in range(d):
            c = ginv.data[i][j]
            if c != 0:
                acc = acc + mats[j].scale(c)
        duals.append(acc)
    J = symplectic_form(2 * q)
    N = 2 * q + m
    nv = d + m * 2 * q
    ent = [[MultiPoly(nv) for _ in range(N)] for _ in range(N)]
    for i in range(d):
        for r in range(2 * q):
            for s in range(2 * q):
                c = duals[i].data[r][s]
                if c:
                    ent[r][s] = ent[r][s] + MultiPoly.variable(nv, i, c)
    for a in range(m):
        for r in range(2 * q):
            vi = d + a * 2 * q + r
            ent[r][2 * q + a] = ent[r][2 * q + a] + MultiPoly.variable(nv, vi)
            for s in range(2 * q):
                c = J.get((s, r))
                if c:
                    ent[2 * q + a][s] = (ent[2 * q + a][s]
                                         + MultiPoly.variable(nv, vi, c))
    P = symbolic_minor_sum(ent, nv, k)
    best = max(sum(mono[d:]) for mono in P.terms)
    top = MultiPoly(nv, {mono: c for mono, c in P.terms.items()
                         if sum(mono[d:]) == best})
    # undo the self-duality twist: v -> J v on every copy
    images = [MultiPoly.variable(nv, i) for i in range(d)]
    for a in range(m):
        for r in range(2 * q):
            img = MultiPoly(nv)
            for s in range(2 * q):
                c = J.get((r, s))
                if c:
                    img = img + MultiPoly.variable(nv, d + a * 2 * q + s, c)
            images.append(img)
    return top.substitute_linear(images), best


@pytest.mark.parametrize("q,m,k,build", [
    (1, 1, 3, lambda: e_delta_restricted(
        minimal_nilpotent_centraliser_layout(2), 4).H),
    (2, 1, 3, lambda: e_delta_restricted(
        minimal_nilpotent_centraliser_layout(3), 4).H),
    (2, 1, 5, lambda: e_delta_restricted(
        minimal_nilpotent_centraliser_layout(3), 6).H),
    (2, 3, 7, lambda: e_delta_restricted(
        two_block_centraliser_layout(3, 2), 10).H),
])
def test_sl_embedding_oracle(q, m, k, build):
    """The special-linear and the centraliser-layout routes agree up to a
    nonzero scalar (normalisations differ, the polynomial is pinned)."""
    H = build()
    top, vdeg = _sl_route_top(q, m, k)
    assert vdeg == 2 * m
    ratio = _proportional(top, H)
    assert ratio is not None and ratio != 0


# -- highest components ------------------------------------------------------


def test_highest_component_by_definition():
    L = classical_algebra("sp", 2)
    S = semidirect(L, standard_rep(L))
    # P = x^2 y + x y^2 with x a g-variable, y a module variable
    x = MultiPoly.variable(S.dim, 0)
    y = MultiPoly.variable(S.dim, 3)
    P = x * x * y + x * y * y
    top, d = highest_component(P, S, 1)
    assert d == 2 and (top - x * y * y).is_zero()


def test_two_block_centraliser_dim_oracle():
    lay = two_block_centraliser_layout(3, 2)
    assert centraliser_dim(lay) == 31


# -- psi_x -------------------------------------------------------------------


def test_psi_linear_in_V_gives_constant():
    L = classical_algebra("so", 5)
    S = semidirect(L, standard_rep(L))
    # the invariant quadratic form on V: split form antidiagonal
    n = S.dim
    gd = S.dim_g
    form = MultiPoly(n)
    for i in range(5):
        mono = [0] * n
        mono[gd + i] += 1
        mono[gd + 4 - i] += 1
        form = form + MultiPoly(n, {tuple(mono): QQ(1)})
    assert is_invariant(S, form)
    x = sample_vector(SampleConfig(31, 5, 1), 5, 0, "psi")
    out, sub, basis = restrict_psi(S, form, x)
    assert out.total_degree() == 0
    val = form.evaluate([0] * gd + list(x))
    assert out.terms.get((0,) * sub.dim, Q0) == val and val != 0


def test_psi_matryoshka_exact():
    lay3 = minimal_nilpotent_centraliser_layout(3)
    res = {k: e_delta_restricted(lay3, k) for k in (4, 6)}
    lhs, rhs, labels = matryoshka_sides(lay3, res)
    for k in (4, 6):
        assert (lhs[k] - rhs[k]).is_zero()
        for t in range(20):
            pt = sample_vector(SampleConfig(900 + t, 6, 1), len(labels), 0, "m")
            assert lhs[k].evaluate(pt) == rhs[k].evaluate(pt)


def matryoshka_sides(lay3, res):
    """psi_x(H_i) and ^e'Delta'_{2i} on the coordinates of the smaller layout.

    The distinguished covector is the J-image of the first basis vector,
    scaled to match the layout star normalisation.
    """
    from coadjoint.repn import symplectic_form

    S = lay3.target
    lay2 = minimal_nilpotent_centraliser_layout(2)
    # bridge the classical sp4 basis (standard J) and the layout ambient form
    N = 4
    sigma = [0, 2, 1, 3]
    P = QMatrix.zero(N, N)
    for j in range(N):
        P.data[sigma[j]][j] = Q1
    Pinv = P.transpose()
    sp4 = S.algebra
    expand = sp4.metadata["expand"]
    nlay = lay2.n_coords
    nv, tv = nlay + 1, nlay
    const = _qmatrix(lay2.const, 4)
    ent = [[MultiPoly(nv) for _ in range(4)] for _ in range(4)]
    for r in range(4):
        for s in range(4):
            if const.data[r][s] != 0:
                ent[r][s] = ent[r][s] + MultiPoly.variable(
                    nv, tv, const.data[r][s])
    for j, c in enumerate(lay2.coords):
        ev = _qmatrix(c.eval_matrix, 4)
        for r in range(4):
            for s in range(4):
                if ev.data[r][s] != 0:
                    ent[r][s] = ent[r][s] + MultiPoly.variable(
                        nv, j, ev.data[r][s])
    images = []
    for i in range(sp4.dim):
        zz = P * _qmatrix(sp4.metadata["matrices"][i], 4) * Pinv
        acc = MultiPoly(nv)
        for r in range(4):
            for s in range(4):
                if zz.data[s][r] != 0:
                    acc = acc + ent[r][s] * zz.data[s][r]
        images.append(acc)
    for j in range(S.dim_V):
        images.append(MultiPoly(nv))
    adapted = []
    for c in lay2.coords:
        zz = Pinv * _qmatrix(c.generator, 4) * P
        coeffs = expand({(i, j): zz.data[i][j] for i in range(4)
                         for j in range(4) if zz.data[i][j]})
        vec = [Q0] * sp4.dim
        for b, cc in coeffs.items():
            vec[b] = cc
        adapted.append(vec)
    x0 = [Q0, Q0, QQ(2), Q0]
    lhs, rhs = {}, {}
    for k, r in res.items():
        D_lay = r.delta_prime.substitute_linear(images)
        tdeg = max(m[tv] for m in D_lay.terms)
        assert tdeg == 1
        rhs[k] = MultiPoly(nlay, {m[:nlay]: c for m, c in D_lay.terms.items()
                                  if m[tv] == tdeg})
        lhs[k], _, _ = restrict_psi(S, r.H, x0, adapted_basis=adapted)
    return lhs, rhs, [c.label for c in lay2.coords]


def test_psi_escape_detection():
    # restricting a non-invariant leaves the stabiliser coordinates
    L = classical_algebra("sp", 2)
    S = semidirect(L, standard_rep(L))
    P = MultiPoly.variable(S.dim, 1)   # a lone root-vector coordinate
    x = [QQ(1), QQ(0)]
    with pytest.raises((RestrictionEscapes, AssertionError)):
        restrict_psi(S, P, x)


# -- takiff and contractions --------------------------------------------------


def test_takiff_sl2():
    S = takiff(classical_algebra("sl", 2))
    assert int(index(S.total, CFG)) == 2
    assert generator_ledger(S, 3).generator_degrees() == [2, 2]


def test_takiff_abelian():
    from coadjoint.liealg import abelian_algebra

    S = takiff(abelian_algebra(1))
    assert S.dim == 2 and int(index(S.total, CFG)) == 2


def test_contraction_sp6():
    S, tops = z2_contraction(ContractionSpec("sp-sp", (4, 2)))
    assert S.dim == 21
    assert len(tops) == 3                      # rk sp6
    assert all(is_invariant(S, P) for P in tops)
    assert sorted(P.total_degree() for P in tops) == [2, 4, 6]


def test_contraction_so4_so3():
    S, tops = z2_contraction(ContractionSpec("so-so", (3, 1)))
    assert S.dim == 6
    assert sorted(P.total_degree() for P in tops) == [2, 2]
    assert all(is_invariant(S, P) for P in tops)
    led = generator_ledger(S, 3)
    assert led.generator_degrees() == [2, 2]
    b = (S.dim + int(index(S.total, CFG))) // 2
    assert sum(P.total_degree() for P in tops) == 4 == b


def test_contraction_so4_gl2_sl_version():
    S, tops = z2_contraction(ContractionSpec("so-gl", (2,)))
    assert all(is_invariant(S, P) for P in tops)
    # Lambda^2 k^2 is the trivial SL2-module: sl-version is sl2 (+) k^2
    from coadjoint.qlinalg import Basis

    rows = []
    for *_, vec in S.algebra.int_brackets():
        row = [Q0] * S.algebra.dim
        for kk, cc in vec.items():
            row[kk] = QQ(cc)
        rows.append(row)
    der = Basis(rows).rows
    span = [list(b) + [Q0] * S.dim_V for b in der]
    for j in range(S.dim_V):
        v = [Q0] * S.dim
        v[S.dim_g + j] = Q1
        span.append(v)
    slv = subalgebra(S.total, span)
    assert slv.dim == 5
    assert int(index(slv, CFG)) == 3


def test_contraction_so5_odd_ambient():
    # odd ambient orthogonal algebra, reflection-based involution
    S, tops = z2_contraction(ContractionSpec("so-so", (3, 2)))
    assert S.dim == 10
    assert all(is_invariant(S, P) for P in tops)
    assert sorted(P.total_degree() for P in tops) == [2, 4]
    from coadjoint.invariants import freeness_checklist

    v = freeness_checklist(S, tops, CFG)
    assert v.passes and v.degree_sum == 6 == v.b_s


def test_contraction_sp4_even():
    S, tops = z2_contraction(ContractionSpec("sp-sp", (2, 2)))
    assert S.dim == 10
    assert all(is_invariant(S, P) for P in tops)


@pytest.mark.parametrize("kind,params,family,size", [
    ("so-so", (3, 2), "so", 5),
    ("sp-sp", (2, 2), "sp", 4),
    ("sl-sp", (4,), "sl", 4),
    ("so-gl", (2,), "so", 4),
])
def test_contraction_g0_is_the_fixed_subalgebra(kind, params, family, size):
    # g0 is built from its matrices; the subalgebra of the ambient algebra on
    # the same embedding is built from the ambient structure constants
    S, _ = z2_contraction(ContractionSpec(kind, params))
    g0 = S.algebra
    L = classical_algebra(family, size)
    emb = g0.metadata["embedding"]
    for row, mat in zip(emb, g0.metadata["matrices"]):
        expect = QMatrix.zero(size, size)
        for c, m in zip(row, L.metadata["matrices"]):
            expect = expect + _qmatrix(m, size).scale(c)
        assert _qmatrix(mat, size) == expect
    assert g0.int_ad_table == subalgebra(L, emb).int_ad_table


@pytest.mark.parametrize("family, size", [("so", 4), ("sp", 6), ("sl", 4),
                                          ("so", 4), ("so", 7)],
                         ids=["so-so(3,1)", "sp-sp(4,2)", "sl-sp(4)",
                              "so-gl(2)", "so-so(5,2)"])
def test_ambient_invariants_are_the_minor_sums_of_one_expansion(family, size):
    # the ambient algebras of the five benchmark contractions; each E_k from
    # the shared expansion equals a fresh expansion for that k alone, and
    # for so of even size the Pfaffian still comes last
    L = classical_algebra(family, size)
    out = _ambient_invariants(family, size, L.metadata["matrices"])
    entries = _ambient_matrix(size, L.metadata["matrices"])
    pf = family == "so" and size % 2 == 0
    sums = out[:-1] if pf else out
    assert sums == [(k, symbolic_minor_sum(entries, L.dim, k))
                    for k, _ in sums]
    assert [k for k, _ in out] == {
        "so": list(range(2, size, 2)) + ([size // 2] if pf else []),
        "sp": list(range(2, size + 1, 2)),
        "sl": list(range(2, size + 1))}[family]


def test_ambient_invariants_of_so2_are_its_pfaffian_alone():
    # so_2 has no even E_k below its size: the request for minor sums is
    # empty, and the Pfaffian is the one invariant
    L = classical_algebra("so", 2)
    out = _ambient_invariants("so", 2, L.metadata["matrices"])
    assert [k for k, _ in out] == [1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sp_heis_algebra_is_the_centraliser_in_sp(k):
    from coadjoint.atlas import sp_heis_algebra
    from coadjoint.liealg import algebra_on_basis

    N = 2 * k + 2
    sp = classical_algebra("sp", N)
    # the layout pairs coordinate 0 with 1 and 2 + r with 2 + k + r; the
    # standard form pairs i with i + k + 1
    perm = [0, k + 1] + list(range(1, k + 1)) + list(range(k + 2, N))
    expand = sp.metadata["expand"]
    rows = []
    for c in minimal_nilpotent_centraliser_layout(k + 1).coords:
        coeffs = expand({(perm[i], perm[j]): a
                         for (i, j), a in c.generator.items()})
        rows.append([coeffs.get(t, Q0) for t in range(sp.dim)])
    assert (sp_heis_algebra(k).int_ad_table
            == algebra_on_basis(sp, rows).int_ad_table)


def test_stored_matrices_are_their_nonzero_entries():
    # every matrix spanning a matrix-built algebra or a layout is a dict of
    # nonzero Fractions at positions inside the matrix size
    stored = []
    for family, sizes in (("gl", (1, 2, 3)), ("sl", (2, 3, 4)),
                          ("so", (3, 4, 5)), ("sp", (2, 4, 6))):
        for n in sizes:
            L = classical_algebra(family, n)
            assert L.metadata["matrix_size"] == n
            stored.append((n, L.metadata["matrices"]))
    for lay in (minimal_nilpotent_centraliser_layout(3),
                two_block_centraliser_layout(3, 2)):
        stored.append((lay.N, [lay.const, lay.meta["e"], lay.meta["f"]]
                       + [c.generator for c in lay.coords]
                       + [c.eval_matrix for c in lay.coords]))
        # the ambient form is an integer form, like repn.symplectic_form
        assert all(type(v) is int and v for v in lay.meta["omega"].values())
    for kind, params in (("so-so", (3, 2)), ("sp-sp", (2, 2)),
                         ("sl-sp", (4,)), ("so-gl", (2,))):
        g0 = z2_contraction(ContractionSpec(kind, params))[0].algebra
        stored.append((g0.metadata["matrix_size"], g0.metadata["matrices"]))
    for n, mats in stored:
        for m in mats:
            assert type(m) is dict and m
            for (i, j), v in m.items():
                assert 0 <= i < n and 0 <= j < n
                assert type(v) is Fraction and v != 0


def test_contraction_rejects_unknown_pair():
    with pytest.raises(ValueError):
        ContractionSpec("sp-so", (4, 2))
    with pytest.raises(ValueError):
        ContractionSpec("sp-sp", (4, 3))   # odd m
    with pytest.raises(ValueError, match="even size"):
        ContractionSpec("sl-sp", (3,))
    with pytest.raises(ValueError, match="positive"):
        ContractionSpec("so-so", (3, -1))
    for kind, params in (("so-so", (3,)), ("sp-sp", ()), ("sl-sp", (4, 2)),
                         ("so-gl", (2, 2))):
        with pytest.raises(ValueError, match="parameter"):
            ContractionSpec(kind, params)


def test_contraction_refuses_a_map_that_is_not_an_involution(monkeypatch):
    import coadjoint.constructions as constructions

    # theta(X) = 2X keeps the algebra but squares to 4
    monkeypatch.setattr(constructions, "_conjugation", lambda perm, signs: (
        lambda X: {pos: 2 * x for pos, x in X.items()}))
    with pytest.raises(VerificationError, match="not an involution"):
        z2_contraction(ContractionSpec("so-gl", (2,)))


def test_contraction_corrections_are_bounded(monkeypatch):
    import coadjoint.constructions as constructions

    # an empty decomposition corrects nothing, so the loop would never end
    monkeypatch.setattr(constructions, "_decompose_in_products",
                        lambda top, accepted, S: [])
    with pytest.raises(VerificationError, match="40 corrections"):
        z2_contraction(ContractionSpec("so-gl", (2,)))


# -- the S^2 lift --------------------------------------------------------------


def test_item3_lift_n2():
    res = item3_lift(2)
    assert res.S.dim == 19
    assert len(res.lifted) == 2
    for H, h in zip(res.lifted, res.quadratic):
        assert is_invariant(res.S, H)
        assert H.total_degree() == h.total_degree() + 1
    assert item3_evaluation_identity(res, trials=20)


def _digest(P):
    """sha256 of the sorted exact terms, as perfbench's poly_digest."""
    terms = sorted((list(m), str(c)) for m, c in P.terms.items())
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:20]


def test_item3_identity_refuses_a_perturbed_or_swapped_lift():
    res = item3_lift(2)
    H = res.lifted[0]
    mono, c = next(iter(H.terms.items()))
    bumped = MultiPoly(H.nvars, {**H.terms, mono: c + QQ(1, 3)})
    assert not item3_evaluation_identity(
        dataclasses.replace(res, lifted=[bumped, *res.lifted[1:]]))
    assert not item3_evaluation_identity(
        dataclasses.replace(res, lifted=res.lifted[::-1]))


def _quadrics_by_expansion(res, n):
    """The quadrics of item3_lift by expansion and lowering: each coefficient
    matrix of xi_r xi_s in 2 J xi xi^T written in the g0 basis, then the
    coordinates paired with the basis through the trace form."""
    g0 = res.S2.algebra
    N = 2 * n
    J = symplectic_form(N)
    expand = g0.metadata["expand"]
    xs = [MultiPoly.variable(N, t) for t in range(N)]
    upper = [MultiPoly(N) for _ in range(g0.dim)]
    for r in range(N):
        for s in range(r, N):
            M = {}
            for (irow, col), c in J.items():
                if col == r:
                    M[irow, s] = M.get((irow, s), 0) + 2 * c
                if col == s and r != s:
                    M[irow, r] = M.get((irow, r), 0) + 2 * c
            for b, c in expand(M).items():
                if c != 0:
                    upper[b] = upper[b] + xs[r] * xs[s] * c
    gm = g0.metadata["matrices"]
    return [sum((upper[c] * _trace_pair(gm[b], gm[c]) for c in range(g0.dim)),
                MultiPoly(N)) for b in range(g0.dim)]


@pytest.mark.parametrize("n", [2, 3])
def test_item3_quadrics_are_the_trace_pairing_of_the_expansion(n):
    # q_b(xi) = tr(X_b B(xi)): the same polynomials as expanding B(xi) in
    # the g0 basis and lowering through the trace form
    res = item3_lift(n)
    ref = _quadrics_by_expansion(res, n)
    assert [q.terms for q in res.B_quadrics] == [q.terms for q in ref]
    assert all(q.terms for q in ref)


def test_item3_lift_n3_is_pinned():
    # the exact terms of the three lifted invariants of sp6, pinned
    res = item3_lift(3)
    assert [_digest(H) for H in res.lifted] == [
        "02ea48efbecb3a612d35", "06bee5a8ba00d403e349", "4f3faec802cca3fee4ce"]
    assert item3_evaluation_identity(res)
