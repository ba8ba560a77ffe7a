import hashlib
import json

import pytest

from coadjoint.constructions import ContractionSpec, z2_contraction
from coadjoint.invariants import (
    ComponentTooLarge,
    MultiPoly,
    freeness_checklist,
    generator_ledger,
    invariant_space,
    is_invariant,
    jacobian_independent,
    lie_derivative,
)
from coadjoint.liealg import classical_algebra
from coadjoint.qlinalg import QQ, SampleConfig, VerificationError
from coadjoint.repn import adjoint_rep, standard_rep, trivial_rep
from coadjoint.semidirect import semidirect

CFG = SampleConfig(seed=5, height=5, rounds=8)


def S_sp2k2():
    L = classical_algebra("sp", 2)
    return semidirect(L, standard_rep(L))


def S_sp4k4():
    L = classical_algebra("sp", 4)
    return semidirect(L, standard_rep(L))


def _standard(family, n):
    L = classical_algebra(family, n)
    return semidirect(L, standard_rep(L))


def S_takiff_sl2():
    L = classical_algebra("sl", 2)
    return semidirect(L, adjoint_rep(L))


def test_derivative_of_constant():
    S = S_sp2k2()
    P = MultiPoly.constant(S.dim, QQ(7))
    assert all(lie_derivative(S, i, P).is_zero() for i in range(S.dim))


def test_sl2_casimir_annihilated():
    L = classical_algebra("sl", 2)  # basis H, E12, E21: [E12,E21] = H
    S = semidirect(L, trivial_rep(L, 1))
    n = S.dim
    C = MultiPoly(n, {(2, 0, 0, 0): QQ(1, 4), (0, 1, 1, 0): QQ(1)})
    assert all(lie_derivative(S, i, C).is_zero() for i in range(3))


def test_product_rule():
    S = S_sp2k2()
    n = S.dim
    P = MultiPoly(n, {(1, 0, 1, 0, 0): QQ(2), (0, 0, 0, 2, 0): QQ(1, 3)})
    Q = MultiPoly(n, {(0, 1, 0, 0, 1): QQ(5), (1, 1, 0, 0, 0): QQ(-1)})
    for i in range(n):
        lhs = lie_derivative(S, i, P * Q)
        rhs = lie_derivative(S, i, P) * Q + P * lie_derivative(S, i, Q)
        assert (lhs - rhs).is_zero()


def test_invariant_space_sp2k2():
    S = S_sp2k2()
    assert len(invariant_space(S, (1, 2))) == 1
    # total degrees 1 and 2: zero in every multidegree
    for md in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert invariant_space(S, md) == []


def test_no_linear_invariants_when_Vg_zero():
    S = S_sp4k4()
    assert invariant_space(S, (0, 1)) == []


def test_invariant_space_reverified():
    S = S_sp2k2()
    for P in invariant_space(S, (1, 2)):
        assert is_invariant(S, P)


def test_component_cap():
    S = S_sp4k4()
    with pytest.raises(ComponentTooLarge):
        invariant_space(S, (3, 2), cap=100)


def test_ledger_records_skipped_components():
    from coadjoint.invariants import generator_ledger

    S = S_sp4k4()
    # the cap counts zero-weight monomials: 16 at (3, 0), 12 at (1, 2)
    led = generator_ledger(S, 3, component_cap=15)
    skipped = led.skipped_entries()
    assert skipped and all(e.skipped for e in skipped)
    assert (3, 0) in {e.multidegree for e in skipped}
    # components under the cap still contribute: the degree-3 generator
    assert 3 in led.generator_degrees()


def test_component_cap_counts_the_zero_weight_monomials():
    """so5 on spin(5) takes the zero-weight path: a component over the cap
    is refused only when its zero-weight monomials are, and one without any
    is computed (empty), not skipped."""
    from coadjoint.repn import spin_rep

    L = classical_algebra("so", 5)
    S = semidirect(L, spin_rep(5, L=L))
    led = generator_ledger(S, 4, component_cap=20)
    assert {e.multidegree for e in led.skipped_entries()} == {(2, 2), (4, 0)}
    computed = {e.multidegree: e.dim_invariant for e in led.entries
                if not e.skipped}
    for mdeg in ((1, 1), (2, 1), (3, 1), (1, 3), (0, 4)):
        assert computed[mdeg] == 0
    assert led.generator_degrees() == [3]
    with pytest.raises(ComponentTooLarge) as err:
        invariant_space(S, (2, 2), cap=20)
    assert err.value.count == 42


def test_ledger_sp2k2():
    led = generator_ledger(S_sp2k2(), 4)
    assert led.generator_degrees() == [3]


@pytest.mark.parametrize("cap", [0, -1])
def test_ledger_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap >= 1"):
        generator_ledger(S_sp2k2(), cap)


def test_ledger_takiff_sl2():
    led = generator_ledger(S_takiff_sl2(), 3)
    assert led.generator_degrees() == [2, 2]


def test_ledger_sp4k4():
    led = generator_ledger(S_sp4k4(), 5)
    assert led.generator_degrees() == [3, 5]


def test_ledger_sp6k6_to_cap_6():
    # a paper-size ledger: dim s = 27, zero-weight systems up to 36291 x 2266
    L = classical_algebra("sp", 6)
    led = generator_ledger(semidirect(L, standard_rep(L)), 6)
    assert led.generator_degrees() == [3, 5]


def test_ledger_so3k3():
    L = classical_algebra("so", 3)
    led = generator_ledger(semidirect(L, standard_rep(L)), 3)
    assert led.generator_degrees() == [2, 2]


def test_ledger_reductive_chevalley_degrees():
    # g alone (zero module): generator degrees match the Chevalley degrees
    for family, n, cap, want in [("sl", 2, 4, [2]), ("sp", 4, 4, [2, 4]),
                                 ("so", 5, 4, [2, 4])]:
        L = classical_algebra(family, n)
        S = semidirect(L, trivial_rep(L, 0))
        led = generator_ledger(S, cap)
        assert led.generator_degrees() == want, (family, n)


def test_ledger_counts_basis_independent():
    # permuting the module basis must not change the ledger counts
    from coadjoint.qlinalg import QMatrix
    from coadjoint.repn import RepresentationData

    L = classical_algebra("sp", 2)
    R = standard_rep(L)
    perm = [1, 0]
    action = []
    for m in R.action:
        action.append(QMatrix(2, 2, [[m.data[perm[i]][perm[j]]
                                      for j in range(2)] for i in range(2)]))
    Rp = RepresentationData.from_matrices(L, action, "phi1'")
    led1 = generator_ledger(semidirect(L, R), 4)
    led2 = generator_ledger(semidirect(L, Rp), 4)
    assert led1.generator_degrees() == led2.generator_degrees()
    assert [e.dim_invariant for e in led1.entries] == \
        [e.dim_invariant for e in led2.entries]


def _digest(P):
    """sha256 of the sorted exact terms, as perfbench's poly_digest."""
    terms = sorted((list(m), str(c)) for m, c in P.terms.items())
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:20]


@pytest.mark.parametrize("build,cap,digests", [
    (lambda: _standard("so", 5), 4,
     ["6d797eded76ae1b5ba6e", "97a5ef9cd471bdc0c971", "1e9ec2d4fd8dec58044d"]),
    (S_sp4k4, 5, ["49abc14d15ebe8e100c0", "2aa0acdc9a1be66fb095"]),
    (lambda: z2_contraction(ContractionSpec("sl-sp", (4,)))[0], 3,
     ["6ee60d75712047fe694b", "09020cb0ac5d5f2f42b4"]),
], ids=["so5|x k5", "sp4|x k4", "sl-sp(4)"])
def test_ledger_generators_are_pinned(build, cap, digests):
    # the exact generators: the basis vectors each entry accepts after its
    # decomposable products, in entry order
    led = generator_ledger(build(), cap)
    assert [_digest(P) for P in led.generators()] == digests


def test_ledger_refuses_a_product_outside_the_invariants(monkeypatch):
    import coadjoint.invariants as invariants

    S = S_sp2k2()
    # a coordinate is no invariant, so it lies outside every invariant space
    monkeypatch.setattr(invariants, "_decomposable_products",
                        lambda S, mdeg, bases: [MultiPoly.variable(S.dim, 0)])
    with pytest.raises(VerificationError, match="leaves the invariant space"):
        generator_ledger(S, 2)


def test_jacobian_examples():
    S = S_sp2k2()
    P = generator_ledger(S, 3).generators()[0]
    assert not jacobian_independent([P, P * P], S, CFG)
    xs = [MultiPoly.variable(S.dim, 0), MultiPoly.variable(S.dim, 1)]
    assert jacobian_independent(xs, S, CFG)
    assert jacobian_independent([], S, CFG)


def test_freeness_checklists():
    S = S_sp2k2()
    v = freeness_checklist(S, generator_ledger(S, 4).generators(), CFG)
    assert v.passes and v.degree_sum == 3 and v.b_s == 3

    S4 = S_sp4k4()
    v4 = freeness_checklist(S4, generator_ledger(S4, 5).generators(), CFG)
    assert v4.passes and v4.degree_sum == 8 and v4.b_s == 8

    ST = S_takiff_sl2()
    vt = freeness_checklist(ST, generator_ledger(ST, 3).generators(), CFG)
    assert vt.passes and vt.degree_sum == 4 and vt.b_s == 4


def test_freeness_count_matches_index_consistency():
    S = S_sp2k2()
    v = freeness_checklist(S, generator_ledger(S, 4).generators(), CFG)
    assert v.count == v.index_s
