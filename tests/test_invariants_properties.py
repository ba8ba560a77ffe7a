"""Property tests of the integer polynomial kernels.

The symbolic minors, `substitute_linear`, the evaluations, the Jacobian rows
and the derivations clear their denominators once, run on ints and divide
once at the end.  Each test here compares one of them with a plain rational
computation on inputs with mixed denominators, so a wrong power of the
common denominator, a dropped degree weight or an integer table without its
scale shows up as a wrong value.  The
zero-weight monomial generator is compared with enumerate-and-filter.

The kernels key monomials by packed ints (exponents as fixed-width digits),
so the packed products, powers, degree bounds, degree floors and
derivations are compared with tuple-keyed references kept here, including
at the width boundary where a carry would merge two monomials.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coadjoint.constructions import (
    ContractionSpec,
    _minor_sums_int,
    pfaffian,
    principal_minor_sums,
    symbolic_minor_sum,
    symbolic_pfaffian,
    z2_contraction,
)
from coadjoint.invariants import (
    MultiPoly,
    _cleared_point,
    _compositions,
    _int_gradient,
    _int_terms,
    _killed,
    _killed_by,
    _over,
    _pack,
    _unpack,
    _width,
    component_size,
    generator_ledger,
    invariant_space,
    is_invariant,
    lie_derivative,
    lie_derivative_in,
    monomials_of_block_degrees,
)
from coadjoint.liealg import (
    LieAlgebraData,
    algebra_on_basis,
    classical_algebra,
    heisenberg_algebra,
)
from coadjoint.qlinalg import QQ, Basis, QMatrix, VerificationError, kernel_basis
from coadjoint.repn import build_module, standard_rep, trivial_rep
from coadjoint.semidirect import semidirect

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
DENS = (1, 2, 3, 5, 7)


def _q(rng):
    return Fraction(rng.randint(-4, 4), rng.choice(DENS))


def _linear_form(rng, nvars, constant=True):
    """A random affine form with mixed denominators."""
    P = MultiPoly.constant(nvars, _q(rng)) if constant else MultiPoly(nvars)
    for v in range(nvars):
        if rng.random() < 0.7:
            P = P + MultiPoly.variable(nvars, v, _q(rng))
    return P


def _random_poly(rng, nvars, degree, terms):
    """A random polynomial, not homogeneous, with mixed denominators."""
    out = {}
    for _ in range(terms):
        mono = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(nvars)] += 1
        out[tuple(mono)] = _q(rng)
    return MultiPoly(nvars, {m: c for m, c in out.items() if c})


def _point(rng, nvars):
    return [Fraction(rng.randint(-5, 5), rng.choice(DENS)) for _ in range(nvars)]


def _at(entries, pt):
    n = len(entries)
    return QMatrix(n, n, [[entries[i][j].evaluate(pt) for j in range(n)]
                          for i in range(n)])


def _all_fractions(P):
    return all(type(c) is Fraction for c in P.terms.values())


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3))
def test_symbolic_minor_sums_commute_with_evaluation(seed, n, nvars):
    rng = random.Random(seed)
    entries = [[_linear_form(rng, nvars) for _ in range(n)] for _ in range(n)]
    syms = [symbolic_minor_sum(entries, nvars, k) for k in range(n + 1)]
    det = symbolic_minor_sum(entries, nvars, n)    # without lambda
    assert det == syms[n]
    assert all(map(_all_fractions, syms + [det]))
    for _ in range(3):
        pt = _point(rng, nvars)
        numeric = principal_minor_sums(_at(entries, pt))
        assert [P.evaluate(pt) for P in syms] == numeric


@SETTINGS
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 4, 6]), st.integers(1, 3))
def test_symbolic_pfaffian_commutes_with_evaluation(seed, n, nvars):
    rng = random.Random(seed)
    entries = [[MultiPoly(nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = _linear_form(rng, nvars)
            entries[j][i] = -entries[i][j]
    pf = symbolic_pfaffian(entries, nvars)
    assert _all_fractions(pf)
    for _ in range(3):
        pt = _point(rng, nvars)
        assert pf.evaluate(pt) == pfaffian(_at(entries, pt))


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 4))
def test_substitute_linear_commutes_with_evaluation(seed, nvars, tgt, degree):
    rng = random.Random(seed)
    P = _random_poly(rng, nvars, degree, terms=6)
    # affine images, some of them constants, over unrelated denominators
    images = [_linear_form(rng, tgt, constant=rng.random() < 0.5)
              for _ in range(nvars)]
    out = P.substitute_linear(images)
    assert _all_fractions(out)
    for _ in range(3):
        pt = _point(rng, tgt)
        assert out.evaluate(pt) == P.evaluate([Q.evaluate(pt) for Q in images])


def _rational_value(P, pt):
    """P(pt) term by term in Fractions: the reference for the evaluations
    on ints."""
    total = Fraction(0)
    for m, c in P.terms.items():
        v = Fraction(c)
        for x, e in zip(pt, m):
            v *= Fraction(x) ** e
        total += v
    return total


def _int_or_rational_point(rng, nvars, integral):
    return ([rng.randint(-5, 5) for _ in range(nvars)] if integral
            else _point(rng, nvars))


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(0, 4),
       st.booleans())
def test_evaluate_matches_a_rational_evaluation(seed, nvars, degree, integral):
    """MultiPoly.evaluate clears P and the point once; a dropped degree
    weight or a wrong power of d shows on a non-homogeneous P at a point
    with mixed denominators.  Integer coefficients take the same path."""
    rng = random.Random(seed)
    P = _random_poly(rng, nvars, degree, terms=6)
    P_int = MultiPoly(nvars, {m: c.numerator for m, c in P.terms.items()})
    for _ in range(3):
        pt = _int_or_rational_point(rng, nvars, integral)
        assert P.evaluate(pt) == _rational_value(P, pt)
        assert P_int.evaluate(pt) == _rational_value(P_int, pt)


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(0, 4),
       st.booleans())
def test_integer_jacobian_rows_match_the_rational_rows(seed, nvars, degree,
                                                       integral):
    """The row of `jacobian_independent`, one pass over P's cleared terms, is
    D d^(M - 1) times the gradient from `partial` and `evaluate`."""
    rng = random.Random(seed)
    P = _random_poly(rng, nvars, degree, terms=6)
    D, terms = _int_terms(P.terms)
    M = P.total_degree()
    for _ in range(3):
        pt = _int_or_rational_point(rng, nvars, integral)
        d, X = _cleared_point(pt)
        row = _int_gradient(terms, X, d, M)
        assert 0 not in row.values()
        scale = D * d ** max(M - 1, 0)
        assert [Fraction(row.get(i, 0), scale) for i in range(nvars)] == [
            P.partial(i).evaluate(pt) for i in range(nvars)]


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3))
def test_one_expansion_serves_every_minor_sum_in_any_order(seed, n, nvars):
    """A request for any set of degrees, under degree bounds and floors,
    gives each E_k of a fresh request for that k alone."""
    rng = random.Random(seed)
    entries = [[_random_poly(rng, nvars, 2, terms=3) for _ in range(n)]
               for _ in range(n)]
    bounds = [(rng.sample(range(nvars), rng.randint(1, nvars)),
               rng.randint(0, 3))] if rng.random() < 0.5 else []
    floors = [(rng.sample(range(nvars), rng.randint(1, nvars)),
               rng.randint(1, n))] if rng.random() < 0.5 else []
    ks = rng.sample(range(n + 1), rng.randint(1, n + 1))
    assert _minor_sums(entries, nvars, ks, bounds, floors) == {
        k: _minor_sums(entries, nvars, [k], bounds, floors)[k] for k in ks}


@pytest.mark.parametrize("k", range(5))
def test_a_request_for_one_degree_returns_only_that_degree(k):
    rng = random.Random(k)
    entries = [[_random_poly(rng, 2, 2, terms=3) for _ in range(4)]
               for _ in range(4)]
    assert list(_minor_sums_int(entries, 2, [k], ())) == [k]


def _filtered(P, bounds):
    return MultiPoly(P.nvars, {m: c for m, c in P.terms.items() if all(
        sum(m[v] for v in variables) <= cap for variables, cap in bounds)})


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3))
def test_degree_bounds_only_drop_terms(seed, n, nvars):
    """A bounded expansion is the unbounded one with the terms that break a
    bound dropped afterwards.  Entries have degree up to 2 and constant
    terms, so partial products meet a bound that their completions break,
    and a bound is on one variable or on several."""
    rng = random.Random(seed)
    entries = [[_random_poly(rng, nvars, 2, terms=3) for _ in range(n)]
               for _ in range(n)]
    bounds = [(rng.sample(range(nvars), rng.randint(1, nvars)),
               rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
    for k in range(n + 1):
        assert symbolic_minor_sum(entries, nvars, k, bounds) == _filtered(
            symbolic_minor_sum(entries, nvars, k), bounds)


def _minor_sums(entries, nvars, ks, bounds, floors=()):
    """{k: E_k} for k in ks from one expansion, as MultiPolys."""
    return {k: _over(nvars, _unpack(terms, nvars, w), D ** k)
            for k, (D, w, terms) in _minor_sums_int(
                entries, nvars, ks, bounds, floors).items()}


def _at_or_above(P, floors):
    return MultiPoly(P.nvars, {m: c for m, c in P.terms.items() if all(
        sum(m[v] for v in variables) >= least for variables, least in floors)})


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3))
def test_degree_floors_only_drop_terms(seed, n, nvars):
    """A floored expansion is the capped one with the terms below a floor
    dropped afterwards.  Entries have degree up to 2 and constant terms, so
    a partial product can fall short of a floor that a later row lifts it
    to; a floor is on one variable or on several, with or without a cap,
    and a floor above the degree of every product leaves nothing."""
    rng = random.Random(seed)
    entries = [[_random_poly(rng, nvars, 2, terms=3) for _ in range(n)]
               for _ in range(n)]
    bounds = [(rng.sample(range(nvars), rng.randint(1, nvars)),
               rng.randint(0, 3))] if rng.random() < 0.5 else []
    floors = [(rng.sample(range(nvars), rng.randint(1, nvars)),
               rng.randint(1, 2 * n)) for _ in range(rng.randint(1, 2))]
    for k in range(n + 1):
        ks = range(k, n + 1)
        capped = _minor_sums(entries, nvars, ks, bounds)
        assert _minor_sums(entries, nvars, ks, bounds, floors) == {
            kk: _at_or_above(P, floors) for kk, P in capped.items()}
        unreached = [(range(nvars), 2 * n + 1)]
        assert all(P.is_zero() for P in _minor_sums(
            entries, nvars, ks, bounds, unreached).values())


@SETTINGS
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4, 8]),
       st.integers(0, 6))
def test_pack_round_trip_at_every_width(seed, w, nvars):
    rng = random.Random(seed)
    top = 256 ** w - 1
    terms = {tuple(rng.choice((0, 1, top, rng.randint(0, top)))
                   for _ in range(nvars)): rng.randint(-9, 9)
             for _ in range(5)}
    packed = _pack(terms, nvars, w)
    assert len(packed) == len(terms)
    assert _unpack(packed, nvars, w) == terms
    # one more than the widest digit does not fit, and is refused
    if nvars:
        with pytest.raises(VerificationError):
            _pack({(0,) * (nvars - 1) + (top + 1,): 1}, nvars, w)
    # keys add as exponent tuples do, while no digit carries
    halves = [tuple(e // 2 for e in m) for m in terms]
    for m, h in zip(terms, halves):
        (a,), (b,) = _pack({h: 1}, nvars, w), _pack({m: 1}, nvars, w)
        (c,) = _pack({tuple(x - y for x, y in zip(m, h)): 1}, nvars, w)
        assert a + c == b


def _tuple_product(P, Q):
    """P Q on exponent tuples, the product the packed keys replace."""
    out = {}
    for m1, c1 in P.terms.items():
        for m2, c2 in Q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return MultiPoly(P.nvars, {m: c for m, c in out.items() if c})


def _tuple_power(P, k):
    out = MultiPoly.constant(P.nvars, 1)
    for _ in range(k):
        out = _tuple_product(out, P)
    return out


@pytest.mark.parametrize("top", [255, 256])
def test_packed_width_boundary(top):
    """Results whose largest exponent is 255 fit one byte per exponent and
    256 needs two: products, powers and substitutions on both sides of that
    boundary agree with tuple-keyed multiplication."""
    assert _width(top) == (1 if top == 255 else 2)
    P = MultiPoly.variable(2, 0, QQ(1, 2)) + MultiPoly.variable(2, 1, 3)
    assert P ** top == _tuple_power(P, top)
    mono = MultiPoly.variable(2, 0) ** (top - 1)
    assert mono * P == _tuple_product(mono, P)
    # x0^(top-1) x1 under x0 -> y0 + y1/2, x1 -> 3 y0 - y1: total degree
    # top, and y0 reaches the exponent top
    images = [MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1, QQ(1, 2)),
              MultiPoly.variable(2, 0, 3) - MultiPoly.variable(2, 1)]
    Q = mono * MultiPoly.variable(2, 1, QQ(2, 3))
    want = _tuple_product(_tuple_power(images[0], top - 1), images[1])
    assert Q.substitute_linear(images) == want * QQ(2, 3)
    assert max(m[0] for m in want.terms) == top


def _reference_killed(L, P):
    """Whether every basis element of L kills P, by the tuple-keyed
    rational derivation below on the table read off `int_ad_table`."""
    d, table = L.int_ad_table
    rational = {(i, j): {k: QQ(c, d) for k, c in vec.items()}
                for i, row in enumerate(table) for j, vec in row.items()}
    return all(_reference_derivative(rational, i, P).is_zero()
               for i in range(L.dim))


@functools.lru_cache(maxsize=None)
def _invariants_of(name):
    """(S, some s-invariants of S): ledger bases of the standard products
    and the tops of a contraction."""
    if name == "so-so(3,1)":
        return z2_contraction(ContractionSpec("so-so", (3, 1)))
    family, n = name
    L = classical_algebra(family, n)
    S = semidirect(L, standard_rep(L))
    led = generator_ledger(S, 4)
    return S, [P for basis in led.bases.values() for P in basis]


@SETTINGS
@given(st.integers(0, 10 ** 6),
       st.sampled_from([("so", 5), ("sp", 4), "so-so(3,1)"]))
def test_killed_matches_a_tuple_keyed_derivation(seed, name):
    """`_killed` accepts invariants (a product of two among them) and
    rejects the same polynomial with one coefficient changed, as the
    reference does."""
    rng = random.Random(seed)
    S, invariants = _invariants_of(name)
    assert invariants
    P = rng.choice(invariants) * rng.choice(invariants) * (_q(rng) or 1)
    assert _killed(S.total, P, range(S.dim))
    assert _reference_killed(S.total, P)
    m = rng.choice(sorted(P.terms))
    bad = P + MultiPoly(S.dim, {m: _q(rng) or QQ(1, 3)})
    assert not _killed(S.total, bad, range(S.dim))
    assert not _reference_killed(S.total, bad)


def _sp2k2():
    L = classical_algebra("sp", 2)
    return semidirect(L, standard_rep(L))


@SETTINGS
@given(st.integers(0, 10 ** 6))
def test_is_invariant_over_z(seed):
    rng = random.Random(seed)
    S = _sp2k2()
    (inv,) = invariant_space(S, (1, 2))
    H = inv * QQ(1, 7) * QQ(rng.randint(1, 9), rng.choice(DENS))
    assert is_invariant(S, H)
    # plus a fractional monomial that is not invariant (sp2 has no nonzero
    # invariant of degree (0, 1) or (1, 0))
    mono = [0] * S.dim
    mono[rng.randrange(S.dim)] = 1
    extra = MultiPoly(S.dim, {tuple(mono): _q(rng) or QQ(1, 3)})
    assert not is_invariant(S, H + extra)


def _reference_derivative(table, i, P):
    """x_i . P summed over Q, straight from a rational table
    {(i, j): [x_i, x_j]} of every ordered pair."""
    out = {}
    for m, c in P.terms.items():
        for j, e in enumerate(m):
            for k, coef in table.get((i, j), {}).items() if e else ():
                m2 = list(m)
                m2[j] -= 1
                m2[k] += 1
                m2 = tuple(m2)
                out[m2] = out.get(m2, Fraction(0)) + c * e * coef
    return MultiPoly(P.nvars, {m: c for m, c in out.items() if c})


# [H, E] = 2E, [H, F] = -2F, [E, F] = H in the basis (H, E, F) of sl2
_SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}


def _rescaled_sl2(rng):
    """sl2 on the basis H/a, E/b, F/c: fractional structure constants; with
    its rational table, every ordered pair, computed from _SL2."""
    scale = [Fraction(rng.randint(1, 5), rng.choice(DENS)) for _ in range(3)]
    L = algebra_on_basis(classical_algebra("sl", 2),
                         [[s if t == r else 0 for t in range(3)]
                          for r, s in enumerate(scale)])
    # [s_i x_i, s_j x_j] = sum_k s_i s_j c_k / s_k (s_k x_k)
    table = {}
    for (i, j), vec in _SL2.items():
        table[(i, j)] = {k: scale[i] * scale[j] * c / scale[k]
                         for k, c in vec.items()}
        table[(j, i)] = {k: -c for k, c in table[(i, j)].items()}
    return L, table


@SETTINGS
@given(st.integers(0, 10 ** 6))
def test_integer_table_matches_the_rational_table(seed):
    rng = random.Random(seed)
    L, rational = _rescaled_sl2(rng)
    d, table = L.int_ad_table
    assert d > 0
    for i, row in enumerate(table):
        assert set(row) == {j for a, j in rational if a == i}
        for j, vec in row.items():
            assert {k: QQ(c, d) for k, c in vec.items()} == rational[(i, j)]
    P = _random_poly(rng, L.dim, 3, terms=5)
    for i in range(L.dim):
        got = lie_derivative_in(L, i, P)
        assert got == _reference_derivative(rational, i, P)
        assert _all_fractions(got)
    gamma = _point(rng, L.dim)
    B = L.kirillov_form(gamma)    # q B_gamma, q = d D, D gamma integral
    q = d * math.lcm(*(x.denominator for x in gamma))
    for i in range(L.dim):
        for j in range(L.dim):
            want = sum((c * gamma[k] for k, c in
                        rational.get((i, j), {}).items()), Fraction(0))
            assert B.data[i].get(j, 0) == q * want


@SETTINGS
@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(2, 4))
def test_lie_derivative_matches_the_reference_on_random_polynomials(
        seed, central, degree):
    """The rescaled sl2 beside `central` central variables, which no row
    moves and whose derivations move nothing, so that some derivations touch
    none of P's variables; P has exponents up to `degree`, and may lie in
    the central variables alone."""
    rng = random.Random(seed)
    _, sl2 = _rescaled_sl2(rng)
    n = 3 + central
    L = LieAlgebraData(n, brackets={ij: vec for ij, vec in sl2.items()
                                    if ij[0] < ij[1]})
    rational = {(i, j): {k: QQ(c, L.int_ad_table[0]) for k, c in vec.items()}
                for i, row in enumerate(L.int_ad_table[1])
                for j, vec in row.items()}
    assert rational == sl2
    variables = rng.sample(range(n), rng.randint(1, n))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = [0] * n
        for v in variables:
            mono[v] = rng.randint(0, degree)
        terms[tuple(mono)] = _q(rng) or QQ(1, 3)
    P = MultiPoly(n, terms)
    for i in range(n):
        assert lie_derivative_in(L, i, P) == _reference_derivative(sl2, i, P)


@SETTINGS
@given(st.integers(0, 10 ** 6))
def test_is_invariant_on_fractional_constants(seed):
    rng = random.Random(seed)
    L, _ = _rescaled_sl2(rng)
    S = semidirect(L, trivial_rep(L, 0))
    # the Casimir of sl2 in the rescaled coordinates: the kernel of every
    # derivation in degree 2, one-dimensional
    (C,) = invariant_space(S, (2, 0))
    assert is_invariant(S, C * QQ(1, 7))
    assert not is_invariant(S, C + MultiPoly.variable(S.dim, 0, QQ(2, 3)))


def test_builder_writes_the_integer_table_of_heisenberg():
    assert heisenberg_algebra(1).int_ad_table == (1, [{1: {2: 1}},
                                                      {0: {2: -1}}, {}])
    # the same brackets plus a fractional one: d is their lcm
    L = LieAlgebraData(3, brackets={(0, 1): {2: 1}, (0, 2): {1: QQ(3, 2)}})
    d, table = L.int_ad_table
    assert d == 2
    assert table[0] == {1: {2: 2}, 2: {1: 3}}
    assert table[2] == {0: {1: -3}}
    assert L.bracket_basis(0, 2) == {1: QQ(3, 2)}
    P = MultiPoly.variable(3, 2)
    assert lie_derivative_in(L, 0, P) == MultiPoly.variable(3, 1, QQ(3, 2))


def _zero_weight_by_filter(S, mdeg, weights):
    """Every monomial of the component, as the product of the blocks'
    monomials, kept when its weight is zero, then sorted: the
    enumerate-and-filter that the zero-weight generator replaces."""
    per_block = []
    for (_, off, sz), d in zip(S.blocks, mdeg):
        per_block.append([tuple(comb.count(c) for c in range(sz)) for comb in
                          itertools.combinations_with_replacement(range(sz), d)])
    out = []
    for pieces in itertools.product(*per_block):
        m = sum(pieces, ())
        weight = [sum(e * w[t] for e, w in zip(m, weights))
                  for t in range(len(weights[0]) if weights else 0)]
        if not any(weight):
            out.append(m)
    out.sort(reverse=True)
    return out


@pytest.mark.parametrize("family, n, module, cap", [
    ("sp", 4, [("phi1", 1)], 4), ("so", 5, [("phi1", 1)], 4),
    ("so", 7, [("phi3", 1)], 3), ("so", 7, [("phi1", 1), ("phi3", 1)], 2)])
def test_zero_weight_monomials_match_the_filter(family, n, module, cap):
    L = classical_algebra(family, n)
    S = semidirect(L, build_module(family, n, module, L=L))
    weights, _ = S.weight_data
    for total in range(1, cap + 1):
        for mdeg in _compositions(total, len(S.blocks)):
            got = monomials_of_block_degrees(S, mdeg, weights)
            assert got == _zero_weight_by_filter(S, mdeg, weights), mdeg
            everything = monomials_of_block_degrees(S, mdeg)
            assert len(everything) == component_size(S, mdeg)
            assert everything == _zero_weight_by_filter(
                S, mdeg, [(0,)] * S.dim)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), sizes=st.lists(st.integers(0, 4),
       min_size=1, max_size=3), rank_=st.integers(1, 2), high=st.integers(1, 3))
def test_zero_weight_monomials_for_any_integer_weights(seed, sizes, rank_,
                                                       high):
    """Weights that are not closed under negation, and extreme weights that
    a too small packing base would carry from one coordinate into the
    next."""
    rng = random.Random(seed)
    offsets = [sum(sizes[:b]) for b in range(len(sizes))]
    S = SimpleNamespace(blocks=[(str(b), off, sz) for b, (off, sz)
                                in enumerate(zip(offsets, sizes))],
                        dim=sum(sizes))
    weights = [tuple(rng.choice((-high, 0, high, rng.randint(-high, high)))
                     for _ in range(rank_)) for _ in range(S.dim)]
    mdeg = tuple(rng.randint(0, 4) if sz else 0 for sz in sizes)
    assert monomials_of_block_degrees(S, mdeg, weights) == \
        _zero_weight_by_filter(S, mdeg, weights)


@functools.lru_cache(maxsize=None)
def _killed_product(name):
    if name == "so-gl(2)":
        return z2_contraction(ContractionSpec("so-gl", (2,)))[0]
    family, n, module = name
    L = classical_algebra(family, n)
    return semidirect(L, build_module(family, n, module, L=L))


@SETTINGS
@given(seed=st.integers(0, 2 ** 32), total=st.integers(1, 3),
       name=st.sampled_from([("sp", 2, (("phi1", 2),)),
                             ("so", 3, (("phi1", 1),)),
                             ("sp", 4, (("phi1", 1),)), "so-gl(2)"]))
def test_killed_by_is_the_reduced_echelon_basis(seed, total, name):
    """_killed_by reads the kernel of one system in its normal form; it must
    be Basis(kernel).rows in the order of the monomials it was given, for
    any order, subset of monomials and set of derivations."""
    rng = random.Random(seed)
    S = _killed_product(name)
    mdeg = rng.choice(list(_compositions(total, len(S.blocks))))
    monos = monomials_of_block_degrees(S, mdeg)
    monos = rng.sample(monos, rng.randint(1, len(monos)))
    derivs = sorted(rng.sample(range(S.dim), rng.randint(1, S.dim)))
    rows = {}
    for col, m in enumerate(monos):
        for i in derivs:
            image = lie_derivative(S, i, MultiPoly(S.dim, {m: 1}))
            for m2, c in image.terms.items():
                rows.setdefault((i, m2), [0] * len(monos))[col] = c
    kernel = (kernel_basis(QMatrix.from_rows(list(rows.values()))) if rows
              else [[int(t == j) for t in range(len(monos))]
                    for j in range(len(monos))])
    want = Basis(kernel).rows if kernel else []
    got = _killed_by(S, derivs, monos)
    assert [[P.terms.get(m, 0) for m in monos] for P in got] == want
