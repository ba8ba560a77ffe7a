import hashlib
import json

import pytest

from coadjoint.constructions import ContractionSpec, takiff, z2_contraction
from coadjoint.invariants import (
    FAITHFUL_PROOF,
    PEEL_PROOF,
    ComponentTooLarge,
    MultiPoly,
    freeness_checklist,
    generator_ledger,
    invariant_space,
    is_invariant,
    jacobian_independent,
    lie_derivative,
    monomials_of_block_degrees,
)
from coadjoint.liealg import classical_algebra
from coadjoint.qlinalg import QQ, SampleConfig, VerificationError, _kernel_exact_small
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


@pytest.mark.parametrize("nvars", [7, 3])
def test_a_polynomial_on_another_ring_is_refused(nvars):
    """A polynomial in more or fewer variables than dim s is not a function
    on s*: the invariance check and the derivation refuse it, naming both
    counts, instead of deriving whichever variables happen to line up."""
    S = S_sp2k2()
    assert S.dim == 5
    P = MultiPoly.variable(nvars, nvars - 2)
    with pytest.raises(ValueError, match=f"{nvars} variables.* 5"):
        is_invariant(S, P)
    with pytest.raises(ValueError, match=f"{nvars} variables.* 5"):
        lie_derivative(S, 0, P)


def _x(nvars, i=0):
    return MultiPoly.variable(nvars, i)


@pytest.mark.parametrize("build, match", [
    (lambda: _x(3) + _x(5), "3 and 5 variables"),
    (lambda: _x(5) - _x(3), "5 and 3 variables"),
    (lambda: _x(3) * _x(5), "3 and 5 variables"),
    (lambda: _x(5) * _x(3, 2), "5 and 3 variables"),
    (lambda: _x(2).substitute_linear([_x(3), _x(4, 1)]), "3 and 4 variables"),
    (lambda: MultiPoly.variable(3, 3), "variable 3 among 3"),
    (lambda: MultiPoly.variable(3, -1), "variable -1 among 3"),
    (lambda: _x(3, 2).partial(3), "variable 3 among 3"),
    (lambda: _x(3, 2).partial(-1), "variable -1 among 3"),
], ids=["add", "sub", "mul", "mul-fewer", "substitute", "index", "negative",
        "partial-index", "partial-negative"])
def test_a_polynomial_in_another_number_of_variables_is_refused(build, match):
    """Sums, products and substitutions on two rings, and a variable outside
    the ring (made or differentiated), raise ValueError naming both counts
    or the index, instead of mixing exponent tuples of two lengths, reading
    a negative index from the end or failing a packing check."""
    with pytest.raises(ValueError, match=match):
        build()


def test_polynomials_of_two_rings_are_unequal():
    # the zero polynomials too, though their term dicts are both empty
    assert MultiPoly(3) != MultiPoly(5)
    assert MultiPoly(3) == MultiPoly(3)
    assert _x(3, 0) != _x(5, 0) and _x(3, 0) == _x(3, 0)
    assert _x(3, 2).partial(2) == MultiPoly.constant(3, 1)


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
    # the cap counts zero-weight monomials: 12 at (1, 2), 16 at (3, 0); the
    # g-only (3, 0) is proved zero (V faithful) before the cap is read
    led = generator_ledger(S, 3, component_cap=11)
    skipped = led.skipped_entries()
    assert all(e.skipped for e in skipped)
    assert {e.multidegree for e in skipped} == {(1, 2)}
    assert led.proofs()[FAITHFUL_PROOF] == [(1, 0), (2, 0), (3, 0)]
    # the degree-3 generator lives at (1, 2): found once the cap admits it
    assert led.generator_degrees() == []
    assert generator_ledger(S, 3, component_cap=12).generator_degrees() == [3]


def test_component_cap_counts_the_zero_weight_monomials():
    """so5 on spin(5) takes the zero-weight path: a component over the cap
    is refused only when its zero-weight monomials are, and one without any
    is computed (empty), not skipped.  The g-only (4, 0) is over the cap but
    proved zero, not skipped."""
    from coadjoint.repn import spin_rep

    L = classical_algebra("so", 5)
    S = semidirect(L, spin_rep(5, L=L))
    led = generator_ledger(S, 4, component_cap=20)
    assert {e.multidegree for e in led.skipped_entries()} == {(2, 2)}
    assert (4, 0) in led.proofs()[FAITHFUL_PROOF]
    computed = {e.multidegree: e.dim_invariant for e in led.entries
                if not e.skipped}
    for mdeg in ((1, 1), (2, 1), (3, 1), (1, 3), (0, 4), (4, 0)):
        assert computed[mdeg] == 0
    assert led.generator_degrees() == [3]
    with pytest.raises(ComponentTooLarge) as err:
        invariant_space(S, (2, 2), cap=20)
    assert err.value.count == 42
    with pytest.raises(ComponentTooLarge):
        invariant_space(S, (4, 0), cap=20)


def _contraction(kind, params):
    return z2_contraction(ContractionSpec(kind, params))[0]


# (constructor, degree cap): reductive products on the zero-weight path,
# and takiff and two Z2-contractions on the direct path
FAITHFUL_PRODUCTS = {
    "sp2|x k2": (S_sp2k2, 4),
    "so3|x k3": (lambda: _standard("so", 3), 3),
    "sl2|x ad": (S_takiff_sl2, 3),
    "sp4|x k4": (S_sp4k4, 5),
    "takiff(sl2)": (lambda: takiff(classical_algebra("sl", 2)), 3),
    "so-so(3,1)": (lambda: _contraction("so-so", (3, 1)), 4),
    "sl-sp(4)": (lambda: _contraction("sl-sp", (4,)), 3),
}


@pytest.mark.parametrize("name", FAITHFUL_PRODUCTS)
def test_faithful_proof_equals_the_solver(name):
    """On a faithful module the solver finds no g-only invariant, and the
    ledger records each such entry as proved, not solved."""
    build, cap = FAITHFUL_PRODUCTS[name]
    S = build()
    assert S.faithful
    zeros = (0,) * (len(S.blocks) - 1)
    led = generator_ledger(S, cap)
    entries = {e.multidegree: e for e in led.entries}
    for a in range(1, cap + 1):
        mdeg = (a,) + zeros
        assert invariant_space(S, mdeg) == []
        e = entries[mdeg]
        assert (e.dim_invariant, e.dim_decomposable, e.new_generators,
                e.skipped, e.proof) == (0, 0, 0, False, FAITHFUL_PROOF)
    assert led.proofs()[FAITHFUL_PROOF] == [(a,) + zeros
                                            for a in range(1, cap + 1)]


def test_unfaithful_modules_are_solved():
    """sl2 in gl2 acts trivially on the module of so-gl(2), and a trivial
    module is not faithful: their g-only components are solved, and so-gl(2)
    has invariants at (2, 0) and (4, 0)."""
    L = classical_algebra("sl", 2)
    assert not semidirect(L, trivial_rep(L)).faithful
    S = _contraction("so-gl", (2,))
    assert not S.faithful
    led = generator_ledger(S, 4)
    assert FAITHFUL_PROOF not in led.proofs()
    entries = {e.multidegree: e for e in led.entries}
    for mdeg in ((2, 0), (4, 0)):
        assert entries[mdeg].dim_invariant == 1
        assert entries[mdeg].proof is None


def _unpeeled_kernel(S, mdeg):
    """The kernel of every condition row of the component, with no peeling:
    one row per (derivation, image monomial), built from `lie_derivative`
    of each monomial, solved by exact elimination."""
    weights, derivs = S.weight_data
    monos = monomials_of_block_degrees(S, mdeg, weights)
    rows = {}
    for col, m in enumerate(monos):
        for i in derivs:
            for m2, c in lie_derivative(S, i, MultiPoly(S.dim, {m: QQ(1)})
                                        ).terms.items():
                rows.setdefault((i, m2), {})[col] = c
    return _kernel_exact_small(list(rows.values()), len(monos))


PEEL_PRODUCTS = {
    "sp4|x k4": (S_sp4k4, 5),
    "so5|x k5": (lambda: _standard("so", 5), 4),
    "so-so(3,1)": (lambda: _contraction("so-so", (3, 1)), 4),
}


@pytest.mark.parametrize("name", PEEL_PRODUCTS)
def test_peel_proof_equals_the_solver(name):
    """Every component that the V-derivations peel to nothing is zero for
    the unpeeled solver too, a component with an invariant is never marked
    proved, and every solved component has the unpeeled solver's dimension.
    so5 |x k5 peels (3, 1) and so-so(3,1) peels (2, 1) and (3, 1); sp4 |x k4
    has no such component."""
    build, cap = PEEL_PRODUCTS[name]
    S = build()
    led = generator_ledger(S, cap)
    peeled = led.proofs().get(PEEL_PROOF, [])
    assert bool(peeled) == (name != "sp4|x k4")
    for e in led.entries:
        if e.proof == PEEL_PROOF:
            assert (e.dim_invariant, e.dim_decomposable, e.new_generators,
                    e.skipped) == (0, 0, 0, False)
            assert _unpeeled_kernel(S, e.multidegree) == []
            assert invariant_space(S, e.multidegree) == []
        if e.dim_invariant > 0:
            assert e.proof is None
        if e.proof is None and not e.skipped:
            assert len(_unpeeled_kernel(S, e.multidegree)) == e.dim_invariant
    assert peeled == [e.multidegree for e in led.entries
                      if e.proof == PEEL_PROOF]


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


def test_cli_names_the_proved_entries(capsys):
    from coadjoint.cli import main

    assert main(["invariants", "--family", "sp", "--size", "2",
                 "--module", "phi1", "--cap", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("  (1, 0), (2, 0), (3, 0), (4, 0): zero, proved "
            f"({FAITHFUL_PROOF})") in lines
    assert "  (1, 2): invariants 1, decomposable 0, new 1" in lines
    # a trivial module is not faithful: its Casimir at (2, 0) is solved
    assert main(["invariants", "--family", "sl", "--size", "2",
                 "--module", "trivial", "--cap", "2"]) == 0
    out = capsys.readouterr().out
    assert "proved" not in out
    assert "  (2, 0): invariants 1, decomposable 0, new 1" in out.splitlines()


def test_cli_names_the_cap_and_the_peeled_entries(capsys):
    """so5 |x k5's (3, 1), peeled to nothing by the V-derivations, prints
    like the faithful proof's entries; sp4 |x k4 to degree 3 finds one
    generator for ind s = 2, a count unchecked within that cap."""
    from coadjoint.cli import main

    assert main(["invariants", "--family", "so", "--size", "5",
                 "--module", "phi1", "--cap", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"  (3, 1): zero, proved ({PEEL_PROOF})" in lines
    assert main(["invariants", "--family", "sp", "--size", "4",
                 "--module", "phi1", "--cap", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "count = 1, ind s = 2: unchecked within cap 3" in lines
