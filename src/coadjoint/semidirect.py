"""Semi-direct products g x| V with V an abelian ideal.

Builds the structure constants from a representation, computes stabilisers of
points of V* and of s*, the index by the direct route and by the Rais formula
  ind s = dim V - (dim q - dim q_x) + ind q_x   (x in V* generic),
and collects codim-2 evidence at supplied divisor points.

Points of duals are always written in the coordinates dual to the chosen
basis, so a point of V* is just a rational vector of length dim V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .liealg import (
    IndexResult,
    LieAlgebraData,
    index as algebra_index,
    killing_matrix,
    subalgebra,
)
from .qlinalg import (
    Q0,
    QMatrix,
    SampleConfig,
    as_q,
    kernel_basis,
    rank,
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
        assert rep.algebra is algebra
        self.algebra = algebra
        self.rep = rep
        self.dim_g = algebra.dim
        self.dim_V = rep.dim_V
        dim = self.dim_g + self.dim_V
        labels = list(algebra.basis_labels) + [
            f"v{i + 1}" for i in range(self.dim_V)
        ]
        total = LieAlgebraData(dim, labels)
        for (i, j), vec in algebra.brackets.items():
            total.set_bracket(i, j, dict(vec))
        for i, columns in enumerate(rep.columns):
            for v, col in enumerate(columns):
                if col:
                    total.set_bracket(i, self.dim_g + v,
                                      {self.dim_g + w: c for w, c in col})
        gname = algebra.metadata.get("name", "q")
        total.metadata["name"] = name or f"{gname}|x {rep.label}"
        total.metadata["semidirect"] = self
        self.total = total
        # grading blocks: the q block, then one block per V summand
        self.blocks = [("g", 0, self.dim_g)] + [
            (lbl, self.dim_g + off, sz) for (lbl, off, sz) in rep.blocks
        ]

    @property
    def dim(self):
        return self.total.dim

    def split_point(self, gamma, y):
        """Assemble a point of s* from a q*-part and a V*-part."""
        assert len(gamma) == self.dim_g and len(y) == self.dim_V
        return [as_q(c) for c in gamma] + [as_q(c) for c in y]

    def v_weights(self):
        """Weights of (adjoint q-basis, module V-basis) when diagonal; else None."""
        cartan = self.algebra.metadata.get("cartan")
        if cartan is None or self.rep.weights is None:
            return None
        ad_w = []
        for j in range(self.dim_g):
            w = []
            for ci in cartan:
                b = self.algebra.bracket_basis(ci, j)
                diag = b.get(j, Q0)
                if any(k != j for k in b):
                    return None
                w.append(diag)
            ad_w.append(tuple(w))
        return ad_w + list(self.rep.weights)

    def __repr__(self):
        return f"<semidirect {self.total.metadata['name']}, dim {self.dim}>"


def semidirect(L: LieAlgebraData, R: RepresentationData, name=None
               ) -> SemiDirectProduct:
    return SemiDirectProduct(L, R, name=name)


@dataclass
class StabiliserResult:
    point: list
    algebra: LieAlgebraData
    dim_orbit: int
    basis: list = field(default_factory=list, repr=False)

    @property
    def dim(self):
        return self.algebra.dim


def stabiliser_in_V(S: SemiDirectProduct, x) -> StabiliserResult:
    """q_x = { xi in q : xi . x = 0 } for x in V*, with its structure constants.

    The coadjoint action on V* is the negative transpose of the module action,
    so q_x is the kernel of the rows x^T rho(x_i).
    """
    x = [as_q(c) for c in x]
    # condition sum_i xi_i (rho_i^T x)_v = 0, one row per v
    rows = [[sum((c * x[w] for w, c in columns[v] if x[w]), Q0)
             for columns in S.rep.columns] for v in range(S.dim_V)]
    ker = kernel_basis(QMatrix(S.dim_V, S.dim_g, rows))
    sub = subalgebra(S.algebra, ker) if ker else _zero_algebra()
    return StabiliserResult(point=x, algebra=sub,
                            dim_orbit=S.dim_g - len(ker), basis=ker)


def _zero_algebra():
    return LieAlgebraData(0, [], metadata={"name": "0"})


def _genericity_key(st: StabiliserResult):
    """Smaller is more generic: (dim q_x, -dim [q_x, q_x], -Killing rank).

    dim q_x is upper semicontinuous in x; over the points where it is minimal,
    dim [q_x, q_x] and the rank of the Killing form of q_x are lower
    semicontinuous, so a generic x minimises the whole key.
    """
    h = st.algebra
    rows = [[vec.get(k, Q0) for k in range(h.dim)] for vec in h.brackets.values()]
    derived = rank(QMatrix(len(rows), h.dim, rows))
    return (h.dim, -derived, -rank(killing_matrix(h)))


def generic_stabiliser_in_V(S: SemiDirectProduct, cfg: SampleConfig
                            ) -> StabiliserResult:
    """Stabiliser at a sampled generic x: the best sample by _genericity_key.

    Sampling stops when a round agrees with the best sample on the whole key;
    `stabilised` records whether that happened within cfg.rounds.
    """
    best = best_key = None
    agreed = False
    for x in sample_rounds(cfg, S.dim_V, "stab"):
        st = stabiliser_in_V(S, x)
        key = _genericity_key(st)
        if best is not None and key == best_key:
            agreed = True
            best = st
            break
        if best is None or key < best_key:
            best, best_key = st, key
    best.stabilised = agreed
    return best


def rais_index(S: SemiDirectProduct, cfg: SampleConfig = SampleConfig()
               ) -> IndexResult:
    """ind s = dim V - (dim q - dim q_x) + ind q_x at sampled generic x."""
    return rais_index_at(S, generic_stabiliser_in_V(S, cfg), cfg)


def rais_index_at(S: SemiDirectProduct, st: StabiliserResult,
                  cfg: SampleConfig = SampleConfig()) -> IndexResult:
    """The Rais formula at a generic stabiliser st = q_x (from
    generic_stabiliser_in_V); stabilised only if both samplings were."""
    sub_ind = algebra_index(st.algebra, cfg)
    val = S.dim_V - st.dim_orbit + int(sub_ind)
    return IndexResult(val, stabilised=st.stabilised and sub_ind.stabilised)


def direct_index(S: SemiDirectProduct, cfg: SampleConfig = SampleConfig()
                 ) -> IndexResult:
    return algebra_index(S.total, cfg)


def stabiliser_full(S: SemiDirectProduct, xi) -> StabiliserResult:
    """s_xi = kernel of B_xi on all of s, for xi in s*."""
    xi = [as_q(c) for c in xi]
    B = S.total.kirillov_form(xi)
    ker = kernel_basis(B)
    sub = subalgebra(S.total, ker) if ker else _zero_algebra()
    return StabiliserResult(point=xi, algebra=sub,
                            dim_orbit=S.dim - len(ker), basis=ker)


def split_stabiliser_dim(S: SemiDirectProduct, gamma, y) -> int:
    """dim(g_y)_{gamma restricted} + (dim V - dim G.y), the split formula."""
    st = stabiliser_in_V(S, y)
    gamma_bar = [sum((g * b for g, b in zip(gamma, vec)), Q0) for vec in st.basis]
    B = st.algebra.kirillov_form(gamma_bar)
    dim_stab_bar = st.dim - rank(B)
    return dim_stab_bar + (S.dim_V - st.dim_orbit)


@dataclass
class Codim2Report:
    """Evidence for the codim-2 property; a report, not a proof."""

    ind_s: int
    generic_point: list
    generic_stab_fingerprint_reductive: bool
    divisor_verdicts: list  # (point, lhs, rhs, holds)
    partial: bool

    @property
    def all_hold(self):
        return all(v[3] for v in self.divisor_verdicts)


def codim2_evidence(S: SemiDirectProduct, divisor_points, cfg: SampleConfig
                    ) -> Codim2Report:
    """Criterion (ii) at each supplied divisor point y:

        ind g_y + (dim V - dim G.y) = ind s,

    plus a criterion (i) surrogate at a sampled generic x: whether the generic
    stabiliser is recognisably reductive (Killing form of the derived part
    nondegenerate and g_x = [g_x, g_x] + centre), which implies the codim-2
    property for g_x.  Reports evidence only; a single point per divisor never
    proves the open-subset statement.
    """
    from .liealg import center_dim, derived_series_dims, killing_matrix

    ind_s = direct_index(S, cfg)
    st = generic_stabiliser_in_V(S, cfg)
    ga = st.algebra
    if ga.dim == 0:
        reductive = True
    else:
        ds = derived_series_dims(ga)
        kr = rank(killing_matrix(ga))
        zd = center_dim(ga)
        derived = ds[1] if len(ds) > 1 else 0
        reductive = (kr == derived) and (derived + zd == ga.dim)
    verdicts = []
    for y in divisor_points:
        sty = stabiliser_in_V(S, y)
        ind_gy = algebra_index(sty.algebra, cfg)
        lhs = int(ind_gy) + (S.dim_V - sty.dim_orbit)
        verdicts.append((list(y), lhs, int(ind_s), lhs == int(ind_s)))
    return Codim2Report(
        ind_s=int(ind_s),
        generic_point=st.point,
        generic_stab_fingerprint_reductive=reductive,
        divisor_verdicts=verdicts,
        partial=not divisor_points,
    )
