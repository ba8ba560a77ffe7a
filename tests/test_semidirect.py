import functools
import importlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as hst

from coadjoint.liealg import classical_algebra, fingerprint, index
from coadjoint.qlinalg import (
    Q0,
    Q1,
    QQ,
    SampleConfig,
    sample_rounds,
    sample_vector,
)
from coadjoint.repn import adjoint_rep, spin_rep, standard_rep, trivial_rep
from coadjoint.semidirect import (
    _genericity_key,
    _genericity_target,
    _sparse_candidate,
    _stab_candidates,
    direct_index,
    generic_stabiliser_in_V,
    rais_index,
    semidirect,
    split_stabiliser_dim,
    stabiliser_full,
    stabiliser_in_V,
)

CFG = SampleConfig(seed=3, height=5, rounds=8)
# the package attribute `coadjoint.semidirect` is the function, not the module
sd = importlib.import_module("coadjoint.semidirect")


def S_sp4k4():
    L = classical_algebra("sp", 4)
    return semidirect(L, standard_rep(L))


def test_semidirect_dims():
    L = classical_algebra("sl", 2)
    assert semidirect(L, adjoint_rep(L)).dim == 6      # Takiff sl2
    assert S_sp4k4().dim == 14
    L5 = classical_algebra("so", 5)
    from coadjoint.repn import build_module

    S = semidirect(L5, build_module("so", 5, [("phi1", 2)], L=L5))
    assert S.dim == 20


def test_semidirect_brackets_jacobi():
    S = S_sp4k4()
    S.total.check_jacobi()
    # [V, V] = 0
    for i in range(S.dim_g, S.dim):
        for j in range(i + 1, S.dim):
            assert not S.total.bracket_basis(i, j)


def test_stabiliser_at_zero_is_everything():
    S = S_sp4k4()
    st = stabiliser_in_V(S, [0, 0, 0, 0])
    assert st.dim == S.dim_g and st.dim_orbit == 0


def test_stabiliser_orbit_dimension_sum():
    S = S_sp4k4()
    for t in range(5):
        x = sample_vector(SampleConfig(50 + t, 6, 1), S.dim_V, 0, "x")
        st = stabiliser_in_V(S, x)
        assert st.dim + st.dim_orbit == S.dim_g


def test_generic_stabiliser_so5_k5():
    L = classical_algebra("so", 5)
    S = semidirect(L, standard_rep(L))
    st = generic_stabiliser_in_V(S, CFG)
    assert st.dim == 6
    assert fingerprint(st.algebra, CFG) == fingerprint(
        classical_algebra("so", 4), CFG)


def test_generic_stabiliser_sp4_k4():
    from coadjoint.atlas import sp_heis_algebra

    st = generic_stabiliser_in_V(S_sp4k4(), CFG)
    assert st.dim == 6
    assert fingerprint(st.algebra, CFG) == fingerprint(sp_heis_algebra(1), CFG)


@pytest.mark.parametrize("family,n,module", [
    ("so", 5, "phi1"), ("sp", 4, "phi1"), ("so", 7, "phi3")])
def test_genericity_target_is_never_below_an_exact_key(family, n, module):
    # key_p >= the generic key over Q at every prime and point: the target
    # is never more generic than the exact keys at rational points, and it
    # is reached by one of them
    from coadjoint.repn import build_module

    L = classical_algebra(family, n)
    S = semidirect(L, build_module(family, n, [(module, 1)], L=L))
    keys = [_genericity_key(stabiliser_in_V(
        S, sample_vector(SampleConfig(300 + t, 5, 1), S.dim_V, 0, "x")))
        for t in range(8)]
    for seed in range(8):
        target, primes = _genericity_target(S, SampleConfig(seed, 5, 8))
        assert target >= min(keys) and target in keys
        assert primes == (46337, 46327)
    st = generic_stabiliser_in_V(S, CFG)
    assert st.stabilised and _genericity_key(st) == st.target
    assert st.miss_bound == pytest.approx(L.dim ** 2 / (46337 * 46327))


def _dense_search(S, cfg):
    """The rounds-only search, kept as the reference: the exact q_x at the
    first round of `sample_rounds` whose exact key reaches the target, or
    the most generic round, not stabilised."""
    target, primes = _genericity_target(S, cfg)
    best = None
    for x in sample_rounds(cfg, S.dim_V, "stab"):
        st = stabiliser_in_V(S, x)
        st.key = _genericity_key(st)
        if best is None or st.key < best.key:
            best = st
        if st.key <= target:
            break
    best.stabilised = best.key <= target
    best.target, best.primes = target, primes
    best.miss_bound = math.prod(S.dim_g / p for p in primes)
    return best


@functools.lru_cache(maxsize=None)
def _small_table_products(max_dim=100):
    """(name, product) for every table instance with dim s <= max_dim."""
    from coadjoint.atlas import _family_dim, load_atlas, row_expectations
    from coadjoint.repn import build_module

    cfg, out = SampleConfig(), []
    for row in load_atlas(cfg=cfg):
        for env in row.instances():
            exp = row_expectations(row, env, cfg)
            if _family_dim(row.family, exp["size"]) + exp["dim_v"] > max_dim:
                continue
            L = classical_algebra(row.family, exp["size"])
            out.append((f"{row.table}/{row.label} {env}", semidirect(
                L, build_module(row.family, exp["size"],
                                [(lbl, m) for m, lbl in exp["module"] if m > 0],
                                L=L))))
    return tuple(out)


@pytest.mark.parametrize("seed", [41, 58, 99])
def test_sparse_first_search_equals_the_dense_search(seed):
    # the sparse candidate changes which point q_x is computed at, never
    # the certified result: dimension, key, target, miss bound and the
    # fingerprint of q_x are those of the rounds-only search
    cfg = SampleConfig(seed, 5, 8)
    products = _small_table_products()
    assert len(products) >= 50
    for name, S in products:
        st, ref = generic_stabiliser_in_V(S, cfg), _dense_search(S, cfg)
        assert st.stabilised and ref.stabilised, name
        assert ((st.dim, st.key, st.target, st.primes, st.miss_bound)
                == (ref.dim, ref.key, ref.target, ref.primes,
                    ref.miss_bound)), name
        assert (str(fingerprint(st.algebra, cfg))
                == str(fingerprint(ref.algebra, cfg))), name
        # a rejected sparse candidate leaves the rounds' point itself
        assert st.accepted == "sparse" or st.point == ref.point, name


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 23])
@pytest.mark.parametrize("seed", [0, 35, 2024])
def test_sparse_candidate_keeps_half_of_round_0(n, seed):
    cfg = SampleConfig(seed, 5, 8)
    x0 = next(sample_rounds(cfg, n, "stab"))
    # which coordinates are kept depends on the seed, height and dim V
    # alone: read it off an all-ones point
    kept = [bool(c) for c in _sparse_candidate(cfg, [Q1] * n)]
    assert sum(kept) == (n + 1) // 2
    sparse = _sparse_candidate(cfg, x0)
    assert sparse == _sparse_candidate(cfg, list(x0))
    assert sparse == [c if k else Q0 for c, k in zip(x0, kept)]
    candidates = list(_stab_candidates(cfg, n))
    assert candidates[-cfg.rounds:] == list(enumerate(
        sample_rounds(cfg, n, "stab")))
    if sparse == x0:
        assert len(candidates) == cfg.rounds
    else:
        assert candidates[0] == ("sparse", sparse)
        assert len(candidates) == cfg.rounds + 1


def test_sparse_candidates_differ_between_seeds():
    masks = {tuple(bool(c) for c in _sparse_candidate(
        SampleConfig(seed, 5, 8), [Q1] * 8)) for seed in range(20)}
    assert len(masks) > 5


# seeds at which the sparse candidate of so7 |x spin8 lies on the null cone
# of the invariant quadric
NULL_CONE_SEEDS = [1, 15, 26]


@pytest.mark.parametrize("seed", NULL_CONE_SEEDS)
def test_a_sparse_candidate_on_the_null_cone_falls_back(seed, monkeypatch):
    from coadjoint.atlas import G2_FINGERPRINT

    L = classical_algebra("so", 7)
    S = semidirect(L, spin_rep(7, L=L))
    cfg = SampleConfig(seed, 5, 8)
    x0 = next(sample_rounds(cfg, S.dim_V, "stab"))
    sparse = _sparse_candidate(cfg, x0)
    target, _ = _genericity_target(S, cfg)
    assert target == (14, -14, -14)
    assert _genericity_key(stabiliser_in_V(S, sparse)) == (14, -14, -8)
    points = []

    def counted(S, x):
        points.append(list(x))
        return stabiliser_in_V(S, x)

    monkeypatch.setattr(sd, "stabiliser_in_V", counted)
    st = generic_stabiliser_in_V(S, cfg)
    assert points == [sparse, x0]
    assert (st.accepted, st.tried, st.point) == (0, 2, x0)
    ref = _dense_search(S, cfg)
    assert st.stabilised and (st.key, st.basis) == (ref.key, ref.basis)
    assert st.algebra.int_ad_table == ref.algebra.int_ad_table
    assert fingerprint(st.algebra, cfg) == G2_FINGERPRINT


@pytest.mark.parametrize("dim_V", [0, 1])
def test_no_point_is_computed_twice_when_dim_V_is_at_most_1(dim_V,
                                                           monkeypatch):
    L = classical_algebra("sp", 4)
    S = semidirect(L, trivial_rep(L, dim_V))
    points = []

    def counted(S, x):
        points.append(list(x))
        return stabiliser_in_V(S, x)

    monkeypatch.setattr(sd, "stabiliser_in_V", counted)
    for seed in range(6):
        cfg = SampleConfig(seed, 5, 8)
        points.clear()
        st = generic_stabiliser_in_V(S, cfg)
        assert points == [next(sample_rounds(cfg, dim_V, "stab"))]
        assert (st.accepted, st.tried, st.dim) == (0, 1, L.dim)


def test_rais_examples():
    L5 = classical_algebra("so", 5)
    S5 = semidirect(L5, standard_rep(L5))
    assert int(rais_index(S5, CFG)) == 3
    assert int(direct_index(S5, CFG)) == 3
    assert int(rais_index(S_sp4k4(), CFG)) == 2


def test_rais_zero_module():
    L = classical_algebra("sp", 6)
    S = semidirect(L, trivial_rep(L, 0))
    assert S.dim == L.dim
    assert int(rais_index(S, CFG)) == int(index(L, CFG)) == 3


def test_stabiliser_full_zero():
    S = S_sp4k4()
    st = stabiliser_full(S, [0] * S.dim)
    assert st.dim == S.dim


def test_stabiliser_full_generic_sp2k2():
    L = classical_algebra("sp", 2)
    S = semidirect(L, standard_rep(L))
    xi = sample_vector(SampleConfig(8, 7, 1), S.dim, 0, "xi")
    assert stabiliser_full(S, xi).dim == 1


def test_split_stabiliser_formula():
    S = S_sp4k4()
    for t in range(20):
        gamma = sample_vector(SampleConfig(100 + t, 7, 1), S.dim_g, 0, "g")
        y = sample_vector(SampleConfig(200 + t, 7, 1), S.dim_V, 0, "y")
        lhs = stabiliser_full(S, gamma + y).dim
        assert lhs == split_stabiliser_dim(S, gamma, y)


def test_split_stabiliser_formula_at_a_special_point():
    # at y = [2, 0, 0, 2] the kernel basis of q_y is not in echelon form, so
    # gamma must be paired with the basis the structure constants are on
    S = S_sp4k4()
    gamma, y = [1, 0, 1, 0, 0, 0, 0, 0, -1, 1], [2, 0, 0, 2]
    assert stabiliser_full(S, gamma + y).dim == 2
    assert split_stabiliser_dim(S, gamma, y) == 2


@pytest.mark.parametrize("family,n", [("sp", 4), ("so", 5), ("sp", 2),
                                      ("so", 4)])
def test_split_stabiliser_formula_at_sparse_points(family, n):
    L = classical_algebra(family, n)
    S = semidirect(L, standard_rep(L))
    rng = random.Random(f"split {family}{n}")
    for _ in range(60):
        gamma = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(S.dim_g)]
        y = [rng.choice((0, 0, 1, -1, 2)) for _ in range(S.dim_V)]
        lhs = stabiliser_full(S, gamma + y).dim
        assert lhs == split_stabiliser_dim(S, gamma, y), (gamma, y)


@functools.lru_cache(maxsize=None)
def _product(family, n, module):
    from coadjoint.repn import build_module

    L = classical_algebra(family, n)
    return semidirect(L, build_module(family, n, [(module, 1)], L=L))


@pytest.mark.parametrize("family,n,module", [
    ("so", 5, "phi1"), ("sp", 4, "phi1"), ("so", 7, "phi3")])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=hst.data())
def test_stabiliser_structure_constants_hold_on_its_basis(family, n, module,
                                                          data):
    # [u_i, u_j] = sum_k c_ij^k u_k exactly, over the kernel vectors st.basis
    # the structure constants of q_x are read on; sparse points included
    S = _product(family, n, module)
    x = data.draw(hst.lists(hst.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                            min_size=S.dim_V, max_size=S.dim_V))
    st = stabiliser_in_V(S, x)
    u = st.basis
    assert st.algebra.metadata["embedding"] is u
    assert st.dim == len(u) and st.dim + st.dim_orbit == S.dim_g
    for i in range(st.dim):
        for j in range(i + 1, st.dim):
            combo = [sum((c * u[k][r] for k, c in
                          st.algebra.bracket_basis(i, j).items()), Q0)
                     for r in range(S.dim_g)]
            assert combo == S.algebra.bracket(u[i], u[j])


def _roots(L):
    """The weight of each basis matrix X of L under the Cartan matrices H:
    [H, X] = (H_ii - H_jj) X, read at any entry (i, j) of X."""
    mats = L.metadata["matrices"]
    hs = [mats[c] for c in L.metadata["cartan"]]
    out = []
    for m in mats:
        i, j = next(iter(m))
        out.append(tuple(h.get((i, i), Q0) - h.get((j, j), Q0) for h in hs))
    return out


@pytest.mark.parametrize("family,n", [("so", 5), ("sp", 4), ("sl", 3),
                                      ("so", 7)])
def test_weights_of_the_g_block_are_the_roots(family, n):
    L = classical_algebra(family, n)
    assert semidirect(L, standard_rep(L)).weight_data[0][:L.dim] == _roots(L)


def test_weights_of_the_standard_and_spin_modules():
    L = classical_algebra("so", 5)
    w = semidirect(L, standard_rep(L)).weight_data[0]
    assert w[L.dim:] == [(1, 0), (0, 1), (0, 0), (0, -1), (-1, 0)]
    L = classical_algebra("so", 7)
    w = semidirect(L, spin_rep(7, L=L)).weight_data[0]
    # the spin weights (+-1/2, +-1/2, +-1/2), scaled to integers with the
    # roots, which become (+-2, ...)
    assert sorted(w[L.dim:]) == sorted(itertools.product((-1, 1), repeat=3))
    assert w[:L.dim] == [tuple(2 * x for x in r) for r in _roots(L)]


def _weights_by_fractions(S):
    """The former route, kept as the reference: the diagonal of each Cartan
    element as Fraction weights QQ(row[j][j], d), cleared again by the lcm
    of their denominators; None when the Cartan does not act diagonally."""
    cartan = S.algebra.metadata.get("cartan")
    if cartan is None:
        return None
    d, table = S.total.int_ad_table
    rows = [table[c] for c in cartan]
    if any(k != j for row in rows for j, vec in row.items() for k in vec):
        return None
    w = [tuple(QQ(row[j][j], d) if j in row else Q0 for row in rows)
         for j in range(S.dim)]
    lcm = math.lcm(1, *(x.denominator for wi in w for x in wi))
    return [tuple(int(x * lcm) for x in wi) for wi in w]


def _table_products():
    from coadjoint.atlas import load_atlas, row_expectations
    from coadjoint.repn import build_module

    cfg = SampleConfig()
    for row in load_atlas(cfg=cfg):
        for env in row.instances():
            exp = row_expectations(row, env, cfg)
            L = classical_algebra(row.family, exp["size"])
            yield semidirect(L, build_module(
                row.family, exp["size"],
                [(lbl, m) for m, lbl in exp["module"] if m > 0], L=L))


def _ledger_products():
    from coadjoint.constructions import ContractionSpec, takiff, z2_contraction

    for family, n, module in [("sp", 2, standard_rep), ("sl", 2, adjoint_rep),
                              ("so", 3, standard_rep), ("sp", 4, standard_rep),
                              ("so", 5, standard_rep), ("sl", 3, adjoint_rep)]:
        L = classical_algebra(family, n)
        yield semidirect(L, module(L))
    yield takiff(classical_algebra("sl", 3))
    for kind, params in [("so-so", (3, 1)), ("so-gl", (2,)), ("sl-sp", (4,))]:
        yield z2_contraction(ContractionSpec(kind, params))[0]


def test_integer_weights_are_the_cleared_fraction_weights():
    """On every table instance and the ten ledger products, the weights read
    off the integer diagonal are the former cleared Fraction weights; where
    there are none, the Cartan does not act diagonally or some non-Cartan
    element of q has weight zero."""
    products = list(_table_products())
    assert len(products) == 77
    products += list(_ledger_products())
    for S in products:
        w, _ = S.weight_data
        ref = _weights_by_fractions(S)
        if w is None:
            cartan = S.algebra.metadata.get("cartan") or []
            assert ref is None or any(not any(ref[i]) for i in range(S.dim_g)
                                      if i not in cartan), S
        else:
            assert w == ref, S
    assert sum(S.weight_data[0] is not None for S in products) == 84
