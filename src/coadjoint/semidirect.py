"""Semi-direct products g x| V with V an abelian ideal.

Builds the structure constants from a representation, computes stabilisers of
points of V* and of s*, the index by the direct route and by the Rais formula
  ind s = dim V - (dim q - dim q_x) + ind q_x   (x in V* generic),
and the split-point stabiliser formula.

The generic stabiliser q_x (generic_stabiliser_in_V) is certified by a key,
not by the randomness of x: a target key is sampled mod p, and q_x is
computed exactly at candidates until one reaches it.  The first candidate is
sparse, round 0 of `sample_rounds` with a seeded half of its coordinates set
to 0, so the kernel of M(x) and the structure constants on it carry much
smaller integers; the rounds follow when it misses.

Points of duals are always written in the coordinates dual to the chosen
basis, so a point of V* is just a rational vector of length dim V.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .liealg import (
    IndexResult,
    LieAlgebraData,
    algebra_on_basis,
    index as algebra_index,
)
from .qlinalg import (
    Q0,
    IntRows,
    ModMatrix,
    SampleConfig,
    _common_denominator,
    _mod_echelon,
    as_q,
    kernel_basis,
    rank,
    sample_mod_p,
    sample_rounds,
)
from .repn import RepresentationData


class SemiDirectProduct:
    """s = q (+) V with [x, v] = rho(x) v and [V, V] = 0.

    total: the assembled LieAlgebraData; the first dim_q coordinates are the
    q-block, followed by one block per V-summand of the representation.
    """

    def __init__(self, algebra: LieAlgebraData, rep: RepresentationData,
                 name=None):
        if rep.algebra is not algebra:
            raise ValueError(f"the module {rep.label} is not one of the "
                             f"algebra {algebra.metadata.get('name', 'q')}")
        self.algebra = algebra
        self.rep = rep
        self.dim_g = algebra.dim
        self.dim_V = rep.dim_V
        dim = self.dim_g + self.dim_V
        labels = list(algebra.basis_labels) + [
            f"v{i + 1}" for i in range(self.dim_V)
        ]
        # one integer table: the algebra's and the module's int columns,
        # both scaled to the lcm of their d
        d, _ = algebra.int_ad_table
        D = math.lcm(d, rep.d)
        brackets = {(i, j): {k: c * (D // d) for k, c in vec.items()}
                    for i, j, vec in algebra.int_brackets()}
        g, s = self.dim_g, D // rep.d
        for i, columns in enumerate(rep.columns):
            for v, col in enumerate(columns):
                if col:
                    brackets[(i, g + v)] = {g + w: c * s for w, c in col}
        gname = algebra.metadata.get("name", "q")
        self.total = LieAlgebraData(
            dim, labels, brackets,
            {"name": name or f"{gname}|x {rep.label}"}, d=D)
        # grading blocks: the q block, then one block per V summand
        self.blocks = [("g", 0, self.dim_g)] + [
            (lbl, self.dim_g + off, sz) for (lbl, off, sz) in rep.blocks
        ]

    @property
    def dim(self):
        return self.total.dim

    @functools.cached_property
    def weight_data(self):
        """(integer weights per variable or None, the derivations to impose),
        computed once per product.

        The weights of the basis of s, q-block then V, are read off the
        integer table of s: table[c][j] = {j: d w_c(x_j)} for each Cartan
        index c of q, that diagonal divided by its gcd with d.  They are
        None when q records no Cartan or some Cartan element does not act
        diagonally.  For a reductive q-block acting completely reducibly,
        zero weight and being killed by the positive root vectors (q-basis
        elements whose first nonzero weight coordinate is positive)
        characterise q-invariance; the V-derivations are imposed as well.
        Otherwise every derivation is.
        """
        direct = None, range(self.dim)
        cartan = self.algebra.metadata.get("cartan")
        if cartan is None:
            return direct
        d, table = self.total.int_ad_table
        rows = [table[c] for c in cartan]
        if any(k != j for row in rows for j, vec in row.items() for k in vec):
            return direct
        w = [tuple(row[j][j] if j in row else 0 for row in rows)
             for j in range(self.dim)]
        g = math.gcd(d, *(x for wi in w for x in wi))
        w = [tuple(x // g for x in wi) for wi in w]
        positive = []
        for i in range(self.dim_g):
            nz = next((x for x in w[i] if x != 0), None)
            if nz is None:
                if i not in cartan:
                    # a zero-weight non-Cartan element: no fast path
                    return direct
            elif nz > 0:
                positive.append(i)
        return w, positive + list(range(self.dim_g, self.dim))

    @functools.cached_property
    def faithful(self):
        """Whether rho: q -> gl(V) is injective, computed once per product:
        one exact rank of the dim q x (dim V)^2 integer rows read off the
        integer table of s, row i being d rho(x_i) flattened.

        When it holds, no s-invariant of degree a >= 1 lies in S^a(q).  For F
        in S^a(q) and v in V, v . F = -sum_i dF/dx_i rho(x_i) v, so if every
        v kills F then rho(dF_xi) = 0 at every xi in q*; rho faithful forces
        dF = 0, so F is constant.  No weight, reductivity or Cartan
        hypothesis is used.
        """
        g, n = self.dim_g, self.dim_V
        table = self.total.int_ad_table[1]
        rows = [{(v - g) * n + w - g: c for v, vec in table[i].items()
                 if v >= g for w, c in vec.items()} for i in range(g)]
        return rank(IntRows(n * n, rows)) == g

    def __repr__(self):
        return f"<semidirect {self.total.metadata['name']}, dim {self.dim}>"


def semidirect(L: LieAlgebraData, R: RepresentationData, name=None
               ) -> SemiDirectProduct:
    return SemiDirectProduct(L, R, name=name)


@dataclass
class StabiliserResult:
    """q_x at the point x, exact, with `basis` the kernel vectors its
    structure constants are on; a generic one (generic_stabiliser_in_V)
    records its exact genericity key, its target, primes and miss bound,
    whether x reached the target, the candidate that reached it ("sparse",
    a round, or None) and how many candidates were tried."""

    point: list
    algebra: LieAlgebraData
    dim_orbit: int
    basis: list = field(default_factory=list, repr=False)
    stabilised: bool = True
    key: tuple = None
    target: tuple = None
    primes: tuple = ()
    miss_bound: float = 0.0
    accepted: object = None
    tried: int = 0

    @property
    def dim(self):
        return self.algebra.dim


def stabiliser_in_V(S: SemiDirectProduct, x) -> StabiliserResult:
    """q_x = { xi in q : xi . x = 0 } for x in V*, with its structure constants
    on the kernel basis (_stabiliser).

    The coadjoint action on V* is the negative transpose of the module action,
    so q_x is the kernel of the rows x^T rho(x_i).  They are written as
    IntRows: x cleared of its denominators, and rho(x_i) read off the integer
    table of s, where the module columns are cleared once.
    """
    x = [as_q(c) for c in x]
    _, (xs,) = _common_denominator([[(w, c) for w, c in enumerate(x) if c]])
    xs = dict(xs)
    g, table = S.dim_g, S.total.int_ad_table[1]
    # condition sum_i xi_i (rho_i^T x)_v = 0, one row per v
    rows = [{i: s for i in range(g)
             if (s := sum(c * xs.get(w - g, 0)
                          for w, c in table[i].get(g + v, {}).items()))}
            for v in range(S.dim_V)]
    return _stabiliser(S.algebra, x, kernel_basis(IntRows(g, rows)))


def _stabiliser(L: LieAlgebraData, point, ker) -> StabiliserResult:
    """The stabiliser in L of point, on the kernel basis ker itself: in the
    normal form of kernel_basis, each u_m is 1 at its free column, its last
    nonzero entry, and 0 at the others, the unit columns of
    algebra_on_basis."""
    free = [max(t for t, a in enumerate(u) if a) for u in ker]
    return StabiliserResult(point=point, algebra=algebra_on_basis(L, ker, free),
                            dim_orbit=L.dim - len(ker), basis=ker)


def _genericity_key(st: StabiliserResult):
    """Smaller is more generic: (dim q_x, -dim [q_x, q_x], -Killing rank).

    dim q_x is upper semicontinuous in x; over the points where it is minimal,
    dim [q_x, q_x] and the rank of the Killing form of q_x are lower
    semicontinuous, so a generic x minimises the whole key, at K; taken mod p
    at x in F_p^{dim V}, it is never below K either (_genericity_target).
    Both ranks are of IntRows read off the integer table of q_x.
    """
    h = st.algebra
    return (h.dim, -h.derived_dim, -h.killing_rank)


def _genericity_target(S: SemiDirectProduct, cfg: SampleConfig):
    """(the least _genericity_key mod p at a uniform x in F_p^{dim V}, over
    two primes p; those primes).

    The target holds for every candidate of generic_stabiliser_in_V, sparse
    ones included: it is sampled at uniform points of F_p^{dim V}, and no
    exact key at a rational x is below K either (_genericity_key).

    key_p is never below the generic key K over Q: the rank of M(x), rows
    x^T rho(x_i) in integers, mod p is at most its generic rank; where they
    are equal, a minor nonzero at x writes a kernel basis, its brackets and
    Killing form as integer polynomials in x (Cramer), whose ranks mod p are
    again at most generic.  key_p = K unless a minor of degree <= dim g
    vanishes at x: probability <= dim g / p.  The kernel basis u is in the
    normal form of `_mod_echelon`, so coordinates in q_x are the entries at
    the free columns; [u_a, u_b] is summed entry by entry of int_ad_table.
    """
    n, dim_V = S.dim_g, S.dim_V
    # the module columns, cleared in the integer table of s
    at, w, coef = np.array([(i * dim_V + t - n, u - n, c)
                            for i, row in enumerate(S.total.int_ad_table[1][:n])
                            for t, col in row.items() if t >= n
                            for u, c in col.items()],
                           np.int64).reshape(-1, 3).T
    s, t, r, val = np.array([(s, t, r, x) for s, t, vec in S.algebra.int_brackets()
                             for r, x in vec.items()],
                            np.int64).reshape(-1, 4).T
    keys, primes = [], []
    for _, (p, x) in zip(range(2), sample_mod_p(cfg, dim_V, "stab")):
        M = np.zeros(n * dim_V, np.int64)    # M[v, i] at i * dim V + v
        np.add.at(M, at, coef * np.array(x, np.int64)[w])
        pivots, _, red = _mod_echelon((M % p).reshape(n, dim_V).T, p)
        free = sorted(set(range(n)) - set(pivots))
        k = len(free)
        U = np.zeros((k, n), np.int64)
        U[range(k), free] = 1
        U[:, pivots] = -red[:len(pivots), free].T % p
        C = np.zeros((k, k, k), np.int64)    # [u_a, u_b] = C[a, b] . u
        for f, col in enumerate(free):
            e = r == col
            B = U[:, s[e]] @ (U[:, t[e]] * val[e] % p).T
            C[:, :, f] = (B - B.T) % p
        killing = (C.reshape(k, k * k)
                   @ C.transpose(0, 2, 1).reshape(k, k * k).T)
        keys.append((k, -rank(ModMatrix(C[np.triu_indices(k, 1)], p)),
                     -rank(ModMatrix(killing % p, p))))
        primes.append(p)
    return min(keys), tuple(primes)


def _sparse_candidate(cfg: SampleConfig, x0):
    """x0 with a seeded floor(len(x0) / 2) of its coordinates set to 0."""
    n = len(x0)
    rng = random.Random(f"{cfg.seed}|{cfg.height}|{n}|sparse|stab")
    zero = set(rng.sample(range(n), n // 2))
    return [Q0 if i in zero else c for i, c in enumerate(x0)]


def _stab_candidates(cfg: SampleConfig, dim_V):
    """(label, x) for each point a generic search tries, in order: the sparse
    candidate from round 0 (skipped when it is round 0's point itself), then
    round r of `sample_rounds` for r = 0, 1, ..."""
    rounds = enumerate(sample_rounds(cfg, dim_V, "stab"))
    _, x0 = next(rounds)
    sparse = _sparse_candidate(cfg, x0)
    if sparse != x0:
        yield "sparse", sparse
    yield 0, x0
    yield from rounds


def generic_stabiliser_in_V(S: SemiDirectProduct, cfg: SampleConfig
                            ) -> StabiliserResult:
    """The exact q_x at the first candidate x of `_stab_candidates` whose
    exact _genericity_key reaches the target T of _genericity_target.

    The candidates are round 0 of `sample_rounds` with half its coordinates
    set to 0, then the rounds themselves.  T and the exact key at any
    rational x, sparse or not, are at least the generic key K, so x has key
    K unless both primes of T missed: its dimension is generic up to
    miss_bound = prod dim g / p.  The certificate uses no randomness of x;
    a sparse x only makes the kernel of M(x) and its denominators smaller,
    and a special one (the null cone of so7 on spin8, key (14, -14, -8)) misses T
    and falls back to the rounds.  If no candidate reaches T, the most
    generic one is returned, not stabilised.
    """
    target, primes = _genericity_target(S, cfg)
    best = None
    for tried, (label, x) in enumerate(_stab_candidates(cfg, S.dim_V), 1):
        st = stabiliser_in_V(S, x)
        st.key = _genericity_key(st)
        if best is None or st.key < best.key:
            best = st
        if st.key <= target:
            best.accepted = label
            break
    best.stabilised = best.key <= target
    best.target, best.primes, best.tried = target, primes, tried
    best.miss_bound = math.prod(S.dim_g / p for p in primes)
    return best


def rais_index(S: SemiDirectProduct, cfg: SampleConfig = SampleConfig()
               ) -> IndexResult:
    """ind s = dim V - (dim q - dim q_x) + ind q_x at sampled generic x."""
    return rais_index_at(S, generic_stabiliser_in_V(S, cfg), cfg)


def rais_index_at(S: SemiDirectProduct, st: StabiliserResult,
                  cfg: SampleConfig = SampleConfig(), sub_ind=None
                  ) -> IndexResult:
    """The Rais formula at a generic stabiliser st = q_x (from
    generic_stabiliser_in_V); stabilised only if both samplings were.
    sub_ind, when the caller has it already (the fingerprint of q_x at the
    same cfg), is the index of q_x; otherwise it is sampled here."""
    if sub_ind is None:
        sub_ind = algebra_index(st.algebra, cfg)
    val = S.dim_V - st.dim_orbit + int(sub_ind)
    return IndexResult(val, st.stabilised and sub_ind.stabilised,
                       sub_ind.samples, st.primes + sub_ind.primes,
                       st.miss_bound + sub_ind.miss_bound)


def direct_index(S: SemiDirectProduct, cfg: SampleConfig = SampleConfig()
                 ) -> IndexResult:
    return algebra_index(S.total, cfg)


def stabiliser_full(S: SemiDirectProduct, xi) -> StabiliserResult:
    """s_xi = kernel of B_xi on all of s, for xi in s*."""
    xi = [as_q(c) for c in xi]
    return _stabiliser(S.total, xi, kernel_basis(S.total.kirillov_form(xi)))


def split_stabiliser_dim(S: SemiDirectProduct, gamma, y) -> int:
    """dim(g_y)_{gamma restricted} + (dim V - dim G.y), the split formula."""
    st = stabiliser_in_V(S, y)
    gamma_bar = [sum((g * b for g, b in zip(gamma, vec)), Q0) for vec in st.basis]
    B = st.algebra.kirillov_form(gamma_bar)
    dim_stab_bar = st.dim - rank(B)
    return dim_stab_bar + (S.dim_V - st.dim_orbit)
