"""Multigraded polynomial invariants on the dual of a semi-direct product.

MultiPoly is a sparse exact polynomial in coordinates dual to the basis of s
(the coordinate functions are the basis elements themselves, so S(s) is the
polynomial ring on the basis labels).  Invariant spaces are kernels of the
basis derivations

    D_i x_j = [x_i, x_j] = sum_k c_{ij}^k x_k,

computed one multidegree block at a time, as the kernel of one sparse
integer row per (derivation, image monomial), read off the integer table
below.  For a reductive g-block whose Cartan acts diagonally on s, with
integer weights read off the diagonal of the integer table of s
(`SemiDirectProduct.weight_data`), the kernel is taken inside the
zero-weight monomials, generated directly (each block's monomials grouped by
weight, blocks combined only through classes that can sum to zero), with
raising-operator conditions only; the resulting basis is re-verified
against every derivation afterwards.

A generator ledger runs one echelon per multidegree, over the products of
lower invariants and then the invariant basis: the accepted products span
the decomposable part, and the accepted basis vectors are the new generators.
A component in the g-variables alone is not solved when V is faithful: it is
recorded as proved zero (`SemiDirectProduct.faithful` holds the proof).  The
condition rows are peeled before any elimination (`qlinalg.peel`): a row with
one live monomial forces its coefficient to 0.  A component that the rows of
the V-derivations peel to nothing is recorded as proved zero as well, and
otherwise only the rows left on the live monomials are eliminated.

The polynomial kernels run on Python ints.  The ring operations keep the
coefficient type of their inputs, so integer polynomials stay integral.
Derivations read the cached integer table (d, d ad) of the Lie algebra
(`LieAlgebraData.int_ad_table`): a polynomial is cleared to D P once, every
derivation is applied in integers, and d D (x_i . P) = 0 exactly when
x_i . P = 0.  Its terms are indexed once by the variables that divide them
(`_supported`), so a derivation visits only the terms it changes: those
divisible by a variable that its row moves.  `substitute_linear` and the
symbolic minors of `constructions` clear their denominators the same way and
divide once at the end, so every polynomial they return has `Fraction`
coefficients.  Evaluations do too: one
helper clears a polynomial once into (D, [(int coefficient, support)])
(`_int_terms`), and `MultiPoly.evaluate`, the Jacobian rows of
`jacobian_independent` and the item-3 identity of `constructions` run on it.

A MultiPoly keys its terms by exponent tuples.  Inside the kernels (products,
powers, linear substitution, derivations and the symbolic minors) a monomial
is keyed by one int instead: its exponents packed little-endian, w bytes
each, w in {1, 2, 4, 8} (`_pack`, `_unpack`).  Packing is additive, so a
product of monomials is one int addition and a derivation step x_j -> x_k
adds 256^(w k) - 256^(w j).  That holds only while no exponent reaches
256^w, since a carry would silently turn one monomial into another; so each
kernel takes w from a proven bound on the exponents of its result (`_width`):
deg P + deg Q for a product, k deg P for a power, M times the largest image
degree for a substitution of a polynomial of degree M, deg P for a
derivation (derivations keep the degree), and the sum over rows of the
largest entry degree for a determinant or Pfaffian.  An input exponent that
does not fit the width raises VerificationError.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

from .liealg import LieAlgebraData, index as algebra_index
from .qlinalg import (
    Q0,
    QQ,
    Basis,
    IntRows,
    SampleConfig,
    VerificationError,
    as_q,
    kernel_basis,
    peel,
    rank,
    sample_rounds,
)
from .semidirect import SemiDirectProduct


class ComponentTooLarge(ValueError):
    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(f"graded component has {count} monomials (cap {cap})")


class MultiPoly:
    """Sparse polynomial over Q; monomials are exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = terms or {}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(nvars, c):
        c = as_q(c)
        return MultiPoly(nvars, {(0,) * nvars: c} if c != 0 else {})

    @staticmethod
    def variable(nvars, i, c=1):
        if not 0 <= i < nvars:
            raise ValueError(f"no variable {i} among {nvars}")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(nvars, {mono: as_q(c)})

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        _same_ring(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly)
                       else MultiPoly.constant(self.nvars, -as_q(other)))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = as_q(other)
            if c == 0:
                return MultiPoly(self.nvars)
            return MultiPoly(self.nvars, {m: v * c for m, v in self.terms.items()})
        _same_ring(self, other)
        n = self.nvars
        w = _width(self.total_degree() + other.total_degree())
        return MultiPoly(n, _unpack(_product(_pack(self.terms, n, w),
                                             _pack(other.terms, n, w)), n, w))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"a polynomial has no power {k} < 0")
        if k == 0:
            return MultiPoly.constant(self.nvars, 1)
        n = self.nvars
        w = _width(k * self.total_degree())
        return MultiPoly(n, _unpack(_power(_pack(self.terms, n, w), k), n, w))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------------
    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def multidegree(self, blocks):
        """Per-block degree when multi-homogeneous, else None.

        blocks: list of (label, offset, size).
        """
        seen = None
        for m in self.terms:
            d = tuple(sum(m[off:off + sz]) for (_, off, sz) in blocks)
            if seen is None:
                seen = d
            elif seen != d:
                return None
        return seen

    def evaluate(self, point):
        """P(point), exact and on ints: P is cleared to D P and the point to
        X / d once, a term of total degree |m| is weighted by d^(M - |m|) as
        in `substitute_linear`, M = deg P, and the sum is divided by D d^M
        once."""
        if len(point) != self.nvars:
            raise ValueError(f"{len(point)} coordinates for {self.nvars} variables")
        D, terms = _int_terms(self.terms)
        d, X = _cleared_point(point)
        M = self.total_degree()
        return QQ(_int_value(terms, X, d, M), D * d ** M)

    def partial(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable {i} among {self.nvars}")
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                m2 = m[:i] + (e - 1,) + m[i + 1:]
                out[m2] = out.get(m2, 0) + c * e
        return MultiPoly(self.nvars, _nonzero(out))

    def substitute_linear(self, images):
        """Substitute x_i -> images[i], a MultiPoly in the target variables.

        Runs on ints: the images are scaled to D images over one common
        denominator D and P to Dp P.  A term of total degree |m| then comes
        out D^|m| times too large, so it is weighted by D^(M - |m|), M the
        total degree of P, and the sum is divided by Dp D^M once.  Products
        and powers run on packed keys of width M times the largest image
        degree.
        """
        if len(images) != self.nvars:
            raise ValueError(f"{len(images)} images of {self.nvars} vars")
        tgt = images[0].nvars if images else 0
        for P in images:
            _same_ring(images[0], P)
        D = math.lcm(1, *(c.denominator for P in images
                          for c in P.terms.values()))
        M = self.total_degree()
        w = _width(M * max((P.total_degree() for P in images), default=0))
        imgs = [_pack(_scaled(P.terms, D), tgt, w) for P in images]
        Dp, ints = _cleared(self.terms)
        out = {}
        powers = {}
        for m, c in ints.items():
            term = {0: c * D ** (M - sum(m))}
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    if key not in powers:
                        powers[key] = _power(imgs[i], e)
                    acc = {}
                    _mul_into(acc, term, powers[key])
                    term = acc
            for mono, x in term.items():
                out[mono] = out.get(mono, 0) + x
        return _over(tgt, _unpack(out, tgt, w), Dp * D ** M)

    def coefficient_of_block_degree(self, offset, size, degree):
        """The part of exact degree `degree` in the block's variables."""
        out = {m: c for m, c in self.terms.items()
               if sum(m[offset:offset + size]) == degree}
        return MultiPoly(self.nvars, out)

    def render(self, labels):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [f"{labels[i]}^{e}" if e > 1 else labels[i]
                       for i, e in enumerate(m) if e]
            mono = "*".join(factors) if factors else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        n = len(self.terms)
        return f"<MultiPoly {self.nvars} vars, {n} terms, deg {self.total_degree()}>"


_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(bound):
    """The packed width w, in bytes per exponent, for exponents up to
    `bound`: the least w in (1, 2, 4, 8) with bound < 256^w."""
    for w in _FORMATS:
        if bound < 1 << 8 * w:
            return w
    raise VerificationError(f"exponent bound {bound} exceeds 64 bits")


def _pack(terms, nvars, w):
    """Term dict with exponent-tuple keys -> the same terms keyed by packed
    ints of width w; an exponent that does not fit raises."""
    pack = struct.Struct(f"<{nvars}{_FORMATS[w]}").pack
    try:
        return {int.from_bytes(pack(*m), "little"): c
                for m, c in terms.items()}
    except struct.error:
        raise VerificationError(
            f"an exponent does not fit the packed width {w}") from None


def _unpack(terms, nvars, w):
    """Packed term dict of width w -> exponent-tuple keys."""
    unpack = struct.Struct(f"<{nvars}{_FORMATS[w]}").unpack
    size = nvars * w
    return {unpack(m.to_bytes(size, "little")): c for m, c in terms.items()}


def _unit(v, w):
    """The packed key of width w of the monomial x_v: 256^(w v)."""
    return 1 << 8 * w * v


def _degrees(keys, variables, w):
    """The degree in variables of each packed key of width w, in order."""
    mask = (1 << 8 * w) - 1
    shifts = [8 * w * v for v in variables]
    if len(shifts) == 1:
        s, = shifts
        return [(m >> s) & mask for m in keys]
    return [sum((m >> s) & mask for s in shifts) for m in keys]


def _bounded(terms, bounds, w):
    """The nonzero packed terms whose degree in the variables of each
    (variables, cap) of bounds is at most cap, kept in one pass."""
    within = [[d <= cap for d in _degrees(terms, variables, w)]
              for variables, cap in bounds]
    return dict(itertools.compress(terms.items(),
                                   map(all, zip(terms.values(), *within))))


def _mul_into(acc, p, q, sign=1):
    """acc += sign p q for packed term dicts, in place; sums that cancel stay
    in acc as zeros for the caller to drop."""
    get = acc.get
    for m1, c1 in p.items():
        if sign < 0:
            c1 = -c1
        for m2, c2 in q.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def _product(p, q):
    acc = {}
    _mul_into(acc, p, q)
    return _nonzero(acc)


def _power(p, k):
    """p^k for a packed term dict p, one factor at a time: for the linear
    images of `substitute_linear` this is cheaper than squaring."""
    out = {0: 1}
    for _ in range(k):
        out = _product(out, p)
    return out


def _nonzero(terms):
    return {m: c for m, c in terms.items() if c}


def _cleared(terms):
    """(D, the terms times D as ints), D the lcm of the coefficient
    denominators."""
    D = math.lcm(1, *(c.denominator for c in terms.values()))
    return D, _scaled(terms, D)


def _scaled(terms, D):
    """The terms times D, as ints; D must be a common denominator."""
    return {m: c.numerator * (D // c.denominator) for m, c in terms.items()}


def _int_terms(terms, D=None):
    """(D, [(D c, support)]) of a term dict, the support of a monomial being
    its (variable, exponent) pairs with a nonzero exponent: the coefficients
    cleared once, so that evaluations run on ints.  D defaults to the lcm of
    the coefficient denominators; a given D must be a common denominator."""
    if D is None:
        D = math.lcm(1, *(c.denominator for c in terms.values()))
    return D, [(c, tuple((i, e) for i, e in enumerate(m) if e))
               for m, c in _scaled(terms, D).items()]


def _cleared_point(point):
    """(d, the point times d as ints), d the lcm of the denominators."""
    point = [as_q(x) for x in point]
    d = math.lcm(1, *(x.denominator for x in point))
    return d, [x.numerator * (d // x.denominator) for x in point]


def _int_value(terms, X, d=1, M=0):
    """sum c X^m d^(M - |m|) over the terms (c, support) of `_int_terms`:
    d^M D P(X / d) for P of total degree at most M."""
    total = 0
    for c, supp in terms:
        for i, e in supp:
            c *= X[i] ** e
        if d != 1:
            c *= d ** (M - sum(e for _, e in supp))
        total += c
    return total


def _int_gradient(terms, X, d=1, M=0):
    """{i: nonzero int}: d^(M - 1) D dP/dx_i (X / d) for P of total degree
    at most M given by its terms from `_int_terms`, in one pass over them:
    the derivative of c x^m in x_i is c e_i x^(m - e_i), of degree |m| - 1,
    so each term is weighted by d^(M - |m|)."""
    row = {}
    for c, supp in terms:
        if d != 1:
            c *= d ** (M - sum(e for _, e in supp))
        powers = [X[i] ** e for i, e in supp]
        for t, (i, e) in enumerate(supp):
            row[i] = row.get(i, 0) + c * e * X[i] ** (e - 1) * math.prod(
                powers[:t] + powers[t + 1:])
    return _nonzero(row)


def _over(nvars, terms, q):
    """The MultiPoly terms / q, with Fraction coefficients, zeros dropped."""
    return MultiPoly(nvars, {m: QQ(c, q) for m, c in terms.items() if c})


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def lie_derivative(S: SemiDirectProduct, xi_index: int, P: MultiPoly) -> MultiPoly:
    """Derivation of P by the basis element x_{xi_index} of s."""
    return lie_derivative_in(S.total, xi_index, P)


def lie_derivative_in(L: LieAlgebraData, xi_index: int, P: MultiPoly
                      ) -> MultiPoly:
    """Derivation of P, a polynomial in the coordinates of L, by the basis
    element x_{xi_index} of L: d D (x_i . P) in integers, divided once."""
    _check_ring(L, P)
    d, table = L.int_ad_table
    D, ints = _cleared(P.terms)
    n, w = P.nvars, _width(P.total_degree())
    index = _supported(ints, _pack(ints, n, w), n)
    out = _derive(_shifts(table[xi_index], _units(n, w), index), index)
    return _over(n, _unpack(out, n, w), d * D)


def _same_ring(P, Q):
    """Raise ValueError unless the polynomials P and Q have one ring."""
    if P.nvars != Q.nvars:
        raise ValueError(f"polynomials in {P.nvars} and {Q.nvars} variables")


def _check_ring(L, P):
    """Raise ValueError unless P is a polynomial on the dual of L."""
    if P.nvars != L.dim:
        raise ValueError(f"a polynomial in {P.nvars} variables on a Lie "
                         f"algebra of dimension {L.dim}")


def _supported(terms, keys, nvars):
    """{j: [(key, c e_j)]} over the terms c x^e of a dict with exponent-tuple
    keys in nvars variables, for each variable j: the terms that x_j divides,
    each under its key from keys (in the order of terms): a packed key, the
    input form of `_derive`, or a (packed key, column) pair, that of
    `_image_rows`.  Built in one pass."""
    rows = [[] for _ in range(nvars)]
    variables = range(nvars)
    for key, (m, c) in zip(keys, terms.items()):
        for j in itertools.compress(variables, m):
            rows[j].append((key, c * m[j]))
    return {j: row for j, row in enumerate(rows) if row}


def _units(nvars, w):
    """The packed keys of width w of the variables x_0, ..., x_{nvars-1}."""
    return [_unit(v, w) for v in range(nvars)]


def _shifts(row, units, used):
    """The derivation sending x_j to row[j] = {k: coeff}, for the j in used,
    as {j: [(units[k] - units[j], coeff)]}, units the packed keys of the
    variables (`_units`): adding a shift to the packed key of a monomial
    divisible by x_j trades one x_j for x_k."""
    return {j: [(units[k] - units[j], c) for k, c in vec.items()]
            for j, vec in row.items() if j in used}


def _derive(shifts, index):
    """A derivation in the form of `_shifts` applied to terms in the form of
    `_supported`: x_j -> sum_k coeff x_k moves only the terms that x_j
    divides, so each variable j the derivation moves walks its own terms and
    no other, and every step is an update of the result.  Sums that cancel
    stay in the result as zeros."""
    out = {}
    get = out.get
    for j, row in shifts.items():
        terms = index.get(j, ())
        for delta, coef in row:
            for m, base in terms:
                m2 = m + delta
                out[m2] = get(m2, 0) + base * coef
    return out


def _image_rows(shifts, index):
    """A derivation in the form of `_shifts` applied to each monomial of an
    index in the form of `_supported` keyed by (packed key, column): the
    rows {column: nonzero coefficient} of its images, one per image
    monomial, each written as it is met; sums that cancel are dropped, and a
    row may be left empty."""
    rows = {}
    get = rows.get
    for j, row in shifts.items():
        terms = index.get(j, ())
        for delta, coef in row:
            for (m, col), base in terms:
                image = get(m + delta)
                if image is None:
                    rows[m + delta] = {col: base * coef}
                else:
                    image[col] = image.get(col, 0) + base * coef
    return [r if all(r.values()) else _nonzero(r) for r in rows.values()]


def _killed(L: LieAlgebraData, P: MultiPoly, derivs) -> bool:
    """Whether x_i kills P for every i in derivs, checked on D P with the
    integer table d ad of L: each check runs on ints and is exact.  P's
    terms are indexed by variable once (`_supported`), and each derivation
    walks only the variables of P that it moves; one that moves none costs
    nothing.  Raises ValueError unless P is a polynomial on L."""
    _check_ring(L, P)
    table = L.int_ad_table[1]
    n, w = P.nvars, _width(P.total_degree())
    ints = _cleared(P.terms)[1]
    index = _supported(ints, _pack(ints, n, w), n)
    units = _units(n, w)
    images = (_derive(_shifts(table[i], units, index), index) for i in derivs)
    return not any(any(image.values()) for image in images)


def is_invariant(S: SemiDirectProduct, P: MultiPoly) -> bool:
    """Whether every basis element of s kills P, checked over Z."""
    return _killed(S.total, P, range(S.dim))


# ---------------------------------------------------------------------------
# graded components and invariant spaces
# ---------------------------------------------------------------------------


def monomials_of_block_degrees(S: SemiDirectProduct, mdeg, weights=None):
    """The exponent tuples with the given per-block degrees, reverse
    graded-lex sorted; given integer weights per variable, those of weight
    zero only.  Each block's monomials are grouped by weight, and blocks
    combine only through classes from which the later blocks can reach a
    zero sum.  A weight is packed as sum_t w_t B^t, B above any coordinate
    of a monomial's weight: additive, and 0 for a monomial only at weight 0.
    """
    if len(mdeg) != len(S.blocks):
        raise ValueError(f"multidegree {tuple(mdeg)} for {len(S.blocks)} "
                         f"blocks")
    packed = _packed_weights(weights or [()] * S.dim, mdeg)
    classes = []    # per block: its variables, and its monomials by weight
    for (_, off, sz), d in zip(S.blocks, mdeg):
        by_weight = {}
        for comb in itertools.combinations_with_replacement(range(sz), d):
            by_weight.setdefault(sum(packed[off + c] for c in comb),
                                 []).append(comb)
        classes.append((range(sz), by_weight))
    reach = [{0}]   # reach[b]: the weights of blocks b, b + 1, ...
    for _, by_weight in reversed(classes):
        reach.insert(0, {w + x for w in by_weight for x in reach[0]})
    partial = {0: [()]}
    for b, (cols, by_weight) in enumerate(classes):
        nxt = {}
        for w, heads in partial.items():
            for w2, tails in by_weight.items():
                if -(w + w2) in reach[b + 1]:
                    tails = [tuple(map(t.count, cols)) for t in tails]
                    nxt.setdefault(w + w2, []).extend(
                        h + t for h in heads for t in tails)
        partial = nxt
    out = partial.get(0, [])
    out.sort(reverse=True)
    return out


def _packed_weights(weights, mdeg):
    """Each variable's weight packed as sum_t w_t B^t, B above any coordinate
    of the weight of a monomial of multidegree mdeg."""
    B = sum(mdeg) * max((abs(x) for w in weights for x in w), default=0) + 1
    return [sum(x * B ** t for t, x in enumerate(w)) for w in weights]


def _weighted_size(S: SemiDirectProduct, mdeg, weights):
    """The number of monomials of weight zero with the given per-block
    degrees, counted by weight class without listing them: block by block,
    one variable at a time, the last block's classes matched to the rest."""
    packed = _packed_weights(weights, mdeg)
    blocks = [(off, sz, d) for (_, off, sz), d in zip(S.blocks, mdeg)]

    def times_block(counts, off, sz, d):
        counts = [counts] + [{} for _ in range(d)]   # by degree, then weight
        for x in packed[off:off + sz]:
            for e in range(1, d + 1):
                for w, n in counts[e - 1].items():
                    counts[e][w + x] = counts[e].get(w + x, 0) + n
        return counts[d]

    total = {0: 1}
    for block in blocks[:-1]:
        total = times_block(total, *block)
    last = times_block({0: 1}, *blocks[-1])
    return sum(n * total.get(-w, 0) for w, n in last.items())


def component_size(S: SemiDirectProduct, mdeg):
    """The number of monomials with the given per-block degrees."""
    return _weighted_size(S, mdeg, [()] * S.dim)


DEFAULT_COMPONENT_CAP = 5 * 10 ** 6


def invariant_space(S: SemiDirectProduct, mdeg, cap=DEFAULT_COMPONENT_CAP):
    """Basis of s-invariants of the given multidegree, reduced echelon form.

    mdeg is one degree per block of the splitting (g first, then each
    V-summand).  Raises ComponentTooLarge when more than cap monomials are
    solved over (on the zero-weight path, those of weight zero); the cap is
    read before any row is built.  A component that the V-derivations' rows
    peel to nothing comes back as `ProvedZero(PEEL_PROOF)` (`_killed_by`)."""
    weights, derivs = S.weight_data
    count = _weighted_size(S, mdeg, weights or [()] * S.dim)
    if count > cap:
        raise ComponentTooLarge(count, cap)
    if not count:
        return []
    basis = _killed_by(S, derivs, monomials_of_block_degrees(S, mdeg, weights))
    for P in basis:
        if not _killed(S.total, P, range(S.dim)):
            raise VerificationError(
                "invariant space vector fails re-verification")
    return basis


def _killed_by(S, derivs, monos):
    """Reduced echelon basis, in the order of `monos`, of the polynomials in
    span(monos) killed by every derivation in derivs: the kernel of one
    sparse integer row per (derivation, image monomial) pair that occurs,
    read off the integer table d ad (every row times d, the same kernel).
    The columns run over `monos` in reverse, so each vector of kernel_basis's
    normal form, 1 at its free column, 0 at the others and otherwise on later
    monomials, is a row of that (unique) reduced echelon form.  The monomials
    are indexed by variable once (`_supported`), each under its packed key
    and its column, and every derivation walks only the variables it moves,
    writing each image straight into its row (`_image_rows`).

    The rows are built and peeled in two stages on one dead-column mask
    (`peel`): a row whose only live column is x_m forces the coefficient of
    x_m to 0.  First the V-derivations' rows: when they peel every column,
    the component is zero and `ProvedZero(PEEL_PROOF)` says so, with no
    kernel run.  Otherwise the other derivations' rows are built on the live
    monomials only and peeled with the first stage's survivors; then the
    live columns are renumbered once, each survivor popped as it is copied
    into the core for `kernel_basis`.  The peeled rows form a nonsingular
    triangular block on the dead columns and are zero on the live ones, so
    the kernel is the core's with 0 at every dead monomial; no free column
    of the reduced echelon form is dead, so the core's normal form,
    embedded, is the whole system's."""
    table = S.total.int_ad_table[1]
    w = _width(max(map(sum, monos)))
    terms = dict.fromkeys(monos[::-1], 1)
    rev = list(terms)
    index = _supported(terms, ((key, col) for col, key in
                               enumerate(_pack(terms, S.dim, w))), S.dim)
    dead = bytearray(len(rev))
    units = _units(S.dim, w)

    def rows_of(stage, index):
        return itertools.chain.from_iterable(
            _image_rows(_shifts(table[i], units, index), index) for i in stage)

    rows = peel(rows_of([i for i in derivs if i >= S.dim_g], index), dead)
    if all(dead):
        return ProvedZero(PEEL_PROOF)
    if any(dead):
        index = {j: [p for p in pairs if not dead[p[0][1]]]
                 for j, pairs in index.items()}
    rows = peel(itertools.chain(rows, rows_of(
        [i for i in derivs if i < S.dim_g], index)), dead)
    live = [c for c in range(len(rev)) if not dead[c]]
    at = dict(zip(live, range(len(live))))
    rows.reverse()
    core = [{at[c]: x for c, x in rows.pop().items()}
            for _ in range(len(rows))]
    ker = kernel_basis(IntRows(len(live), core))
    return [MultiPoly(S.dim, {rev[c]: x for c, x in zip(live, v) if x != 0})
            for v in reversed(ker)]


# ---------------------------------------------------------------------------
# generator ledger
# ---------------------------------------------------------------------------


FAITHFUL_PROOF = "V faithful: no g-only invariant"
PEEL_PROOF = "peeled: the V-derivations force every coefficient to 0"


class ProvedZero(list):
    """An empty invariant basis that a proof decided, with no kernel run;
    `proof` names it."""

    def __init__(self, proof):
        super().__init__()
        self.proof = proof


@dataclass
class LedgerEntry:
    """One multidegree of a ledger: solved, skipped over the component
    cap, or decided by the proof that `proof` names."""

    multidegree: tuple
    dim_invariant: int
    dim_decomposable: int
    new_generators: int
    skipped: bool = False
    proof: str | None = None

    def __post_init__(self):
        if self.skipped:
            return
        if self.new_generators != self.dim_invariant - self.dim_decomposable:
            raise VerificationError(
                f"ledger entry {self.multidegree}: {self.new_generators} new "
                f"generators, but {self.dim_invariant} invariants and "
                f"{self.dim_decomposable} decomposable")


@dataclass
class GeneratorLedger:
    entries: list
    bases: dict = field(repr=False, default_factory=dict)  # mdeg: invariants
    new: dict = field(repr=False, default_factory=dict)    # mdeg: generators

    def generator_degrees(self):
        out = []
        for e in self.entries:
            if not e.skipped:
                out.extend([sum(e.multidegree)] * e.new_generators)
        return sorted(out)

    def generators(self):
        return [P for e in self.entries if not e.skipped
                for P in self.new[e.multidegree]]

    def skipped_entries(self):
        return [e for e in self.entries if e.skipped]

    def proofs(self):
        """{proof: the multidegrees it decided}, in ledger order."""
        out = {}
        for e in self.entries:
            if e.proof:
                out.setdefault(e.proof, []).append(e.multidegree)
        return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def generator_ledger(S: SemiDirectProduct, cap: int,
                     component_cap=DEFAULT_COMPONENT_CAP) -> GeneratorLedger:
    """Invariant dimensions, decomposable parts, and new-generator counts
    for every multidegree of total degree <= cap, one echelon per entry.

    A product of invariants outside the invariant space raises
    VerificationError.  When V is faithful, a component in the g-variables
    alone is recorded as proved zero (`FAITHFUL_PROOF`), whatever its size;
    other components over the monomial cap are recorded as skipped entries
    instead of being attempted.  A component that the V-derivations peel to
    nothing is recorded as proved zero too (`PEEL_PROOF`).
    """
    if cap < 1:
        raise ValueError(f"a generator ledger needs a degree cap >= 1, "
                         f"not {cap}")
    nblocks = len(S.blocks)
    led = GeneratorLedger(entries=[])
    for total in range(1, cap + 1):
        for mdeg in sorted(_compositions(total, nblocks), reverse=True):
            if not any(mdeg[1:]) and S.faithful:
                led.bases[mdeg], led.new[mdeg] = [], []
                led.entries.append(LedgerEntry(mdeg, 0, 0, 0,
                                               proof=FAITHFUL_PROOF))
                continue
            try:
                basis = invariant_space(S, mdeg, cap=component_cap)
            except ComponentTooLarge:
                led.entries.append(LedgerEntry(mdeg, -1, -1, -1, skipped=True))
                continue
            proof = basis.proof if isinstance(basis, ProvedZero) else None
            dec = _decomposable_products(S, mdeg, led.bases)
            polys = dec + basis
            monos = sorted({m for P in polys for m in P.terms}, reverse=True)
            span = Basis([[P.terms.get(m, Q0) for m in monos] for P in polys])
            if len(span) != len(basis):
                raise VerificationError(f"ledger entry {mdeg}: a product of "
                                        f"invariants leaves the invariant space")
            new = [polys[t] for t in span.accepted if t >= len(dec)]
            led.bases[mdeg], led.new[mdeg] = basis, new
            led.entries.append(LedgerEntry(mdeg, len(basis),
                                           len(basis) - len(new), len(new),
                                           proof=proof))
    return led


def _decomposable_products(S, mdeg, bases):
    """Products of lower-degree invariant bases with multidegrees summing to mdeg."""
    out = []
    for d1 in bases:
        d2 = tuple(a - b for a, b in zip(mdeg, d1))
        if any(x < 0 for x in d2):
            continue
        if d2 not in bases or sum(d2) == 0:
            continue
        if d2 < d1:
            continue  # unordered pairs once
        for P in bases[d1]:
            for Q in bases[d2]:
                out.append(P * Q)
    return out


# ---------------------------------------------------------------------------
# independence and the freeness checklist
# ---------------------------------------------------------------------------


def jacobian_independent(polys, S: SemiDirectProduct,
                         cfg: SampleConfig = SampleConfig()) -> bool:
    """True iff the differentials at some sampled point have full rank.

    Full rank at any single point is sufficient for algebraic independence.
    Each polynomial P is cleared to D_P P once; at each point the row of P
    is D_P grad P(pt), up to a positive power of the point's denominator, as
    `IntRows` written in one pass over P's terms.  Scaling a row keeps the
    rank.
    """
    if not polys:
        return True
    n = S.dim
    cleared = [(_int_terms(P.terms)[1], P.total_degree()) for P in polys]
    for pt in sample_rounds(cfg, n, "jacobian"):
        d, X = _cleared_point(pt)
        rows = [_int_gradient(terms, X, d, M) for terms, M in cleared]
        if rank(IntRows(n, rows)) == len(polys):
            return True
    return False


@dataclass
class FreenessVerdict:
    """Checklist for the sum-of-degrees freeness criterion."""

    all_invariant: bool
    independent: bool
    count: int
    index_s: int
    count_matches_index: bool
    degree_sum: int
    b_s: int
    degrees: list
    degree_sum_matches_b: bool

    @property
    def passes(self):
        return (self.all_invariant and self.independent
                and self.count_matches_index and self.degree_sum_matches_b)

    def summary(self, cap):
        """Only invariance can fail: a sampled Jacobian of full rank proves
        independence but a lower one does not refute it, and a count or a
        degree sum off the criterion, over a ledger to degree cap, leaves
        freeness undecided within that cap."""
        unchecked = f"unchecked within cap {cap}"
        lines = [
            f"invariance: {'ok' if self.all_invariant else 'FAIL'}",
            "independence: "
            f"{'ok' if self.independent else 'not established'}",
            f"count = {self.count}, ind s = {self.index_s}: "
            f"{'ok' if self.count_matches_index else unchecked}",
            f"sum deg = {'+'.join(map(str, self.degrees))} = {self.degree_sum}, "
            f"b(s) = {self.b_s}: "
            f"{'ok' if self.degree_sum_matches_b else unchecked}",
        ]
        return "\n".join(lines)


def freeness_checklist(S: SemiDirectProduct, candidates, cfg: SampleConfig
                       ) -> FreenessVerdict:
    """Check the hypotheses of the sum-of-degrees criterion for `candidates`.

    Verifies each candidate is an s-invariant, samples a Jacobian for
    independence, counts against ind s, and compares the degree sum with
    b(s) = (dim s + ind s)/2.
    """
    inv = all(is_invariant(S, P) for P in candidates)
    indep = jacobian_independent(candidates, S, cfg)
    ind_s = algebra_index(S.total, cfg)
    degrees = sorted(P.total_degree() for P in candidates)
    dsum = sum(degrees)
    b_s = (S.dim + int(ind_s)) // 2
    return FreenessVerdict(
        all_invariant=inv,
        independent=indep,
        count=len(candidates),
        index_s=int(ind_s),
        count_matches_index=len(candidates) == int(ind_s),
        degree_sum=dsum,
        b_s=b_s,
        degrees=degrees,
        degree_sum_matches_b=dsum == b_s,
    )
