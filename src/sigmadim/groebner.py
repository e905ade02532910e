"""Buchberger's algorithm over the fixed shift-compatible lex order.

The only monomial order used anywhere is lex with the variable ranking
s^i(y_j) ordered by (i, j), lowest first:

    y1 < y2 < ... < yn < s(y1) < ... < s(yn) < s^2(y1) < ...

This order is a multiplicative well-order, is compatible with the shift
(m1 <= m2 implies shift(m1) <= shift(m2)) and respects polynomial order
(ord(m1) < ord(m2) implies m1 < m2), which is what makes leading-monomial
ideals of shift-stable ideals shift-stable again.  Elimination uses the
variant ranking the eliminated variables above all kept ones.

`buchberger` ranks the ring's variables once and packs every monomial
into one int: the exponent of each variable gets a field of `bits` bits
with a guard bit above it, the highest-ranked variable the most
significant field (Monagan & Pearce 2007, *Polynomial division using
dynamic arrays, heaps, and packed exponent vectors*).  Lex comparison is
int comparison, a product is an addition, and divisibility, lcm and
coprimality take a subtraction and a mask over the guard bits.  Every
product is checked for a field that overflowed into its guard bit; an
overflow restarts the run with twice the bits, so exponents are unbounded.
Coefficients are ints.

The basis is built by a signature-based Buchberger (Faugere 2002, *A new
efficient algorithm for computing Groebner bases without reduction to
zero (F5)*; the criteria as surveyed by Eder & Faugere 2017, *A survey on
signature-based algorithms for computing Groebner bases*).  The inputs
are indexed in increasing order of their leading monomials and join one
at a time.  An element computed while input i joins has the signature
(i, t), position over term: t * f_i plus an element of the earlier
inputs' ideal reduces to it, and t is packed like a monomial, so a
product that overflows restarts the run too.  S-pairs are popped in
increasing signature order and reduced only by reducers q * g of smaller
signature, so a result keeps its pair's signature.  A pair is dropped
when a syzygy signature divides its signature (the F5 criterion: a
leading monomial of the earlier inputs' basis; or the signature of an
earlier zero reduction), when its leading monomials are coprime (Koszul),
when its two multiplied signatures are equal, or when its signature
repeats the one just reduced; a result that some q * g matches in
leading monomial and signature is discarded.  Faugere's theorem (no
zero reduction on a homogeneous regular sequence) does not cover these
affine lex inputs, but on the coupled system's truncation windows 0-6
no S-pair reduces to zero; where the inputs are not regular, some do.

An element joins after top reduction only: its tail is never reduced
in the passes.  Leading monomials, signatures and the criteria do not
depend on the tails, so tail reduction is optional (Eder & Faugere
2017), and the dimensions read none of them.  The elements form a
Groebner basis; the ones with minimal leading monomials are kept as the
run's minimal basis.  Only when the basis is read (`GroebnerBasis.packed`,
so its generators too) is that minimal basis interreduced into the
reduced basis, which is unique for the order, so the output is the same
as from any other Buchberger; only that basis is made monic.  Dimensions
unpack leading monomials alone.

After each pass the elements with minimal leading monomials form a
Groebner basis of the inputs joined so far, and their packed leading
monomials are kept (`GroebnerBasis.passes`): one run answers the
dimension of every prefix of the inputs in join order
(`prefix_dimension`).
"""

from __future__ import annotations

import bisect
import heapq
from fractions import Fraction
from math import gcd, lcm as int_lcm
from typing import Callable, Iterable, Iterator, Sequence

from .families import EMPTY, EmptyDimension
from .polynomials import DifferencePolynomial, SigmaMonomial, SigmaVariable
from .transversal import minimum_hitting_mask


class MonomialOrder:
    """Lex order determined by a variable ranking function.

    `rank` maps a SigmaVariable to a sortable key; larger key = larger
    variable.  The default ranking is the identity (shift, index)."""

    def __init__(self, rank: Callable[[SigmaVariable], tuple] | None = None):
        self._rank = rank or (lambda v: v)

    def key(self, m: SigmaMonomial):
        """Sort key: exponents listed from the highest-ranked variable down.

        Comparing these tuples lexicographically is the lex comparison of
        sparse exponent vectors."""
        return tuple(sorted(((self._rank(v), e) for v, e in m.exps), reverse=True))

    def leading(self, f: DifferencePolynomial) -> tuple[SigmaMonomial, Fraction]:
        if f.is_zero:
            raise ValueError("zero polynomial has no leading term")
        m = max(f.terms, key=self.key)
        return m, f.terms[m]

    def sorted_terms(self, f: DifferencePolynomial) -> list[tuple[SigmaMonomial, Fraction]]:
        return sorted(f.terms.items(), key=lambda t: self.key(t[0]), reverse=True)


LEX = MonomialOrder()


def elimination_order(eliminate_vars: Iterable[SigmaVariable]) -> MonomialOrder:
    """Lex order ranking the given variables above every other variable."""
    elim = frozenset(SigmaVariable(*v) for v in eliminate_vars)
    return MonomialOrder(rank=lambda v: (1 if v in elim else 0, v.shift, v.index))


class GroebnerBasis:
    """Groebner basis of (F) from one `buchberger` run.

    Held as the run leaves it: `minimal` is a minimal Groebner basis, one
    primitive (lm, lc, int tail) triple per element, sorted by leading
    monomial, with tails as the signature passes left them (not reduced);
    each monomial is an int packed with `bits`-bit fields over `ring`, the
    ring's variables from the highest-ranked down.  `passes[k - 1]` holds
    the packed leading monomials of a minimal Groebner basis of the first
    k inputs in join order (increasing leading monomial); the list ends
    with [0] at the first pass that yields the unit ideal.

    `packed` is the reduced basis (monic generators, no leading monomial
    divides another, every tail reduced) as (lm, den, int tail) triples,
    the generator being lm + tail/den.  It is interreduced from `minimal`
    on its first read; if that overflows, the run is made again with
    twice the bits.  The DifferencePolynomials are built on the first read
    of `generators`.  `is_unit_ideal`, `len`, `leading_supports`,
    `basis_dimension`, `prefix_dimension` and `leading_monomial_ideal` read
    leading monomials only, so they build neither."""

    __slots__ = ("minimal", "passes", "ring", "bits", "num_vars", "_run", "_packed", "_generators")

    def __init__(
        self,
        minimal: list[tuple[int, int, dict]],
        passes: list[list[int]],
        ring: list[SigmaVariable],
        bits: int,
        num_vars: int,
        run: Callable[[int], tuple[list[tuple[int, int, dict]], list[list[int]]]],
    ):
        self.minimal = minimal
        self.passes = passes
        self.ring = ring
        self.bits = bits
        self.num_vars = num_vars
        self._run = run
        self._packed = None
        self._generators = None

    @property
    def packed(self) -> list[tuple[int, int, dict]]:
        while self._packed is None:
            try:
                self._packed = _interreduce(self.minimal, _layout(self.ring, self.bits)[1])
            except _Overflow:
                (self.minimal, self.passes), self.bits = _widening(self._run, 2 * self.bits)
        return self._packed

    @property
    def generators(self) -> tuple[DifferencePolynomial, ...]:
        if self._generators is None:
            self._generators = tuple(
                _unpack(
                    {lm: 1} | {m: Fraction(c, den) for m, c in tail.items()},
                    self.ring,
                    self.bits,
                    self.num_vars,
                )
                for lm, den, tail in self.packed
            )
        return self._generators

    def leading_supports(self) -> list[list[SigmaVariable]]:
        """The variables of each minimal element's leading monomial."""
        ring = self.ring
        return [[ring[k] for k, _ in _fields(lm, ring, self.bits)] for lm, _, _ in self.minimal]

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.minimal) == 1 and not self.minimal[0][0]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.minimal)

    def __repr__(self) -> str:
        return f"GroebnerBasis({[str(g) for g in self.generators]})"


# -- int-packed monomials, integer coefficients --------------------------------
#
# Inside `reduce` and `buchberger` a monomial is one int.  The ring's
# variables are ranked from the highest down, and field k holds the
# exponent of the k-th of them in `bits` bits with one guard bit above
# them; the highest-ranked variable has the most significant field.  With
# `guard` the mask of the guard bits, and every guard bit clear:
#
#   lex order       a < b as ints, so `max` of a term dict is the leading
#                   monomial and a heap keyed by -m pops it first
#   product         a + b (a field that overflows sets its guard bit)
#   quotient        b - a, when a divides b
#   a divides b     ((b | guard) - a) & guard == guard: field k borrows
#                   from its guard bit exactly when a_k > b_k
#   lcm             with M = ((a | guard) - b) & guard, M -= M >> bits the
#                   mask of the fields where a_k >= b_k: (a & M) | (b & ~M)
#   coprime         lcm(a, b) == a + b
#
# Every product the kernel forms is checked once with `& guard`, and every
# input exponent when it is encoded; on an overflow the whole run starts
# again with twice the bits, so no exponent bound is assumed.
#
# A polynomial is a dict from packed monomials to ints: the denominators of
# the input are cleared once, on entry, and reduction never divides (it
# scales the polynomial under reduction instead), so no rational appears
# until the final basis is made monic.  A basis element is kept primitive
# as (leading monomial, leading coefficient > 0, tail).

_FIRST_BITS = 8


class _Overflow(Exception):
    """A packed exponent outgrew its field."""


def _widening(run: Callable[[int], object], bits: int = _FIRST_BITS) -> tuple[object, int]:
    """(run(bits), bits) for the first field width, doubling from `bits`,
    on which run does not overflow."""
    while True:
        try:
            return run(bits), bits
        except _Overflow:
            bits *= 2


def _ring(variables: Iterable[SigmaVariable], order: MonomialOrder) -> list[SigmaVariable]:
    """The ring's variables from the highest-ranked down."""
    return sorted(variables, key=order._rank, reverse=True)


def _layout(ring: list[SigmaVariable], bits: int) -> tuple[dict[SigmaVariable, int], int]:
    """(the low bit of each variable's field, the guard mask)."""
    width = bits + 1
    last = len(ring) - 1
    offset = {v: (last - k) * width for k, v in enumerate(ring)}
    guard = sum(1 << (o + bits) for o in offset.values())
    return offset, guard


def _pack(f: DifferencePolynomial, offset: dict[SigmaVariable, int], bits: int) -> tuple[dict, int]:
    """(den * f as an int polynomial, den), den the lcm of f's denominators."""
    den = int_lcm(*(c.denominator for c in f.terms.values()))
    out = {}
    for m, c in f.terms.items():
        e = 0
        for v, x in m.exps:
            if x >> bits:
                raise _Overflow
            e |= x << offset[v]
        out[e] = c.numerator * (den // c.denominator)
    return out, den


def _fields(m: int, ring: list[SigmaVariable], bits: int) -> Iterator[tuple[int, int]]:
    """(k, exponent) for every nonzero field of m, k indexing `ring`."""
    mask = (1 << bits) - 1
    width = bits + 1
    k = len(ring)
    while m:
        k -= 1
        if m & mask:
            yield k, m & mask
        m >>= width


def _monomial(m: int, ring: list[SigmaVariable], bits: int) -> SigmaMonomial:
    return SigmaMonomial((ring[k], x) for k, x in _fields(m, ring, bits))


def _unpack(p: dict, ring: list[SigmaVariable], bits: int, num_vars: int) -> DifferencePolynomial:
    return DifferencePolynomial({_monomial(m, ring, bits): c for m, c in p.items()}, num_vars)


def _divides(a: int, b: int, guard: int) -> bool:
    """a divides b."""
    return ((b | guard) - a) & guard == guard


def _lcm(a: int, b: int, guard: int, bits: int) -> int:
    mask = ((a | guard) - b) & guard
    mask -= mask >> bits
    return (a & mask) | (b & ~mask)


def _primitive(p: dict) -> tuple[int, int, dict]:
    """(leading monomial, leading coefficient, tail) of the nonzero int
    polynomial p (consumed) divided by its content, signed so that the
    leading coefficient is positive."""
    lm = max(p)
    g = gcd(*p.values())
    if p[lm] < 0:
        g = -g
    if g != 1:
        p = {m: c // g for m, c in p.items()}
    return lm, p.pop(lm), p


def _normal_form(
    p: dict,
    divisors: Sequence[tuple[int, int, dict]],
    guard: int,
    signed: Sequence[tuple[int, int, dict, int]] = (),
    sig: int = 0,
    top: bool = False,
) -> tuple[dict, int]:
    """Full normal form of the int polynomial p (consumed) modulo the
    primitive divisors (lm, lc, tail), without division: (r, scale) with
    scale > 0 and scale * p congruent to r.

    The leading term c*m is reduced by the first divisor whose leading
    monomial divides it: with g = gcd(c, lc), the live polynomial and the
    remainder are scaled by lc/g and (c/g) * q * tail is subtracted, where
    q = m/lm; otherwise it moves to the remainder.  Scaling keeps the set
    of monomials present, so every step picks the divisor the rational
    reduction by monic divisors would pick.  The terms of p wait in a
    heap keyed by -m, so the leading term is a pop; an entry whose term
    has cancelled since is skipped.  Raises _Overflow when a product
    outgrows its fields.

    `signed` holds further divisors (lm, lc, tail, t) of p's signature
    index, t the term of their signature, tried after `divisors` and only
    where q * t < sig: a regular reduction, which keeps the signature of
    p.  q * t is compared unchecked: each field of q and of t is below
    2^bits, so each field of the sum fits its field and guard bit, and
    the comparison of the ints stays the lex comparison.  With `top` the
    reduction stops at the first term no divisor reduces: the remainder
    is that term and the unreduced rest."""
    remainder = {}
    scale = 1
    heap = [-m for m in p]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = p.pop(m, None)
        if c is None:
            continue
        mg = m | guard
        for lm, lc, tail in divisors:
            if (mg - lm) & guard == guard:  # _divides(lm, m, guard), inlined
                break
        else:
            for lm, lc, tail, t in signed:
                if (mg - lm) & guard == guard and m - lm + t < sig:
                    break
            else:
                remainder[m] = c
                if top:
                    remainder.update(p)
                    break
                continue
        if lc != 1:
            g = gcd(c, lc)
            if g != lc:
                a = lc // g
                scale *= a
                p = {t: v * a for t, v in p.items()}
                remainder = {t: v * a for t, v in remainder.items()}
            c //= g
        q = m - lm
        for t, ct in tail.items():
            mt = q + t
            if mt & guard:
                raise _Overflow
            v = p.get(mt)
            if v is None:
                heapq.heappush(heap, -mt)
                p[mt] = -c * ct
            else:
                v -= c * ct
                if v:
                    p[mt] = v
                else:
                    del p[mt]
    return remainder, scale


def reduce(
    f: DifferencePolynomial,
    G: Sequence[DifferencePolynomial],
    order: MonomialOrder = LEX,
) -> DifferencePolynomial:
    """Full normal form of f modulo G: no monomial of the remainder is
    divisible by any leading monomial of G, and f - remainder lies in (G).
    Each leading term is reduced by the first g in G that can."""
    G = [g for g in G if not g.is_zero]
    ring = _ring(f.support_vars().union(*(g.support_vars() for g in G)), order)

    def run(bits: int) -> tuple[dict, int]:
        offset, guard = _layout(ring, bits)
        divisors = [_primitive(_pack(g, offset, bits)[0]) for g in G]
        p, den = _pack(f, offset, bits)
        r, scale = _normal_form(p, divisors, guard)
        return r, den * scale

    (r, den), bits = _widening(run)
    return _unpack({m: Fraction(c, den) for m, c in r.items()}, ring, bits, f.num_vars)


def _s_polynomial(a: tuple, b: tuple, lcm: int, guard: int) -> dict:
    """S(a, b) = (lc_b/g) * qa * tail_a - (lc_a/g) * qb * tail_b for the
    primitive elements a and b (lm, lc, tail, ...), g = gcd(lc_a, lc_b)
    and q = lcm/lm on each side: the leading terms cancel."""
    lm_a, lc_a, tail_a = a[:3]
    lm_b, lc_b, tail_b = b[:3]
    g = gcd(lc_a, lc_b)
    fa, fb = lc_b // g, lc_a // g
    qa = lcm - lm_a
    qb = lcm - lm_b
    s = {}
    for t, c in tail_a.items():
        mt = qa + t
        if mt & guard:
            raise _Overflow
        s[mt] = fa * c
    for t, c in tail_b.items():
        mt = qb + t
        if mt & guard:
            raise _Overflow
        v = s.get(mt, 0) - fb * c
        if v:
            s[mt] = v
        else:
            del s[mt]
    return s


def _extend(
    lower: list[tuple[int, int, dict]],
    reducers: list[tuple[int, int, dict]],
    f: dict,
    guard: int,
    bits: int,
) -> list[tuple[int, int, dict, int]] | None:
    """The elements one signature-based pass adds to the earlier inputs'
    elements so that, with them, they form a Groebner basis of the ideal
    with the input f; None if a constant turns up (unit ideal).  `lower`
    is a Groebner basis of the earlier inputs and `reducers` holds it and
    any further elements of their ideal.

    A new element is (lm, lc, tail, t): its signature is the term t, for
    t * f plus an element of the earlier ideal reduces to it; f's index
    lies above every earlier input's, so a lower element's signature is
    below every new one and every reducer qualifies.  Pairs are popped in
    increasing signature order, a pair's signature being the larger of
    its two multiplied signatures.  A pair is dropped when
      - a syzygy signature divides its signature: the leading monomial of
        a lower element (the F5 criterion), or the signature of an earlier
        zero reduction;
      - its leading monomials are coprime: its signature is then that of
        the Koszul syzygy of its two elements;
      - its two multiplied signatures are equal;
      - its signature is the one just reduced: with every smaller
        signature done, regular reductions of two polynomials of equal
        signature reach the same leading monomial (their difference
        reduces to zero), so a repeat reduces to zero or to a singular
        top-reducible result.
    An S-polynomial is top-reduced regularly (`_normal_form` with signed
    divisors).  A zero result records a syzygy signature; a result that
    some q * g matches in both leading monomial and signature (singular
    top-reducible) is discarded; the rest join as they are, made
    primitive, their tails unreduced.
    Reducers are tried earlier ones first, each group shortest tail
    first."""
    syzygies = [lm for lm, _, _ in lower]
    reducers = sorted(reducers, key=lambda g: len(g[2]))
    new: list[tuple[int, int, dict, int]] = []  # in signature order
    signed: list[tuple[int, int, dict, int]] = []  # new, shortest tail first
    pairs: list[tuple[int, int, int]] = []  # (signature, owner, other): ~j is lower[j]
    p, sig = f, 0
    while True:
        r = _normal_form(p, reducers, guard, signed, sig, top=True)[0]
        lm = max(r, default=None)
        if lm is None:
            syzygies.append(sig)
        elif not any(_divides(hlm, lm, guard) and lm - hlm + ht == sig for hlm, _, _, ht in new):
            lm, lc, tail = _primitive(r)
            if not lm:
                return None
            k = len(new)
            fresh = []
            for j, (glm, _, _) in enumerate(lower):
                lcm = _lcm(lm, glm, guard, bits)
                if lcm != lm + glm:
                    fresh.append((lcm - lm + sig, k, ~j))
            for j, (hlm, _, _, ht) in enumerate(new):
                lcm = _lcm(lm, hlm, guard, bits)
                mine, theirs = lcm - lm + sig, lcm - hlm + ht
                if mine != theirs and lcm != lm + hlm:
                    fresh.append((mine, k, j) if mine > theirs else (theirs, j, k))
            for pair in fresh:
                if pair[0] & guard:
                    raise _Overflow
                if not _divisible(pair[0], syzygies, guard):
                    heapq.heappush(pairs, pair)
            new.append((lm, lc, tail, sig))
            bisect.insort(signed, new[-1], key=lambda g: len(g[2]))
        done = sig
        while pairs:
            sig, a, b = heapq.heappop(pairs)
            if sig != done and not _divisible(sig, syzygies, guard):
                break
        else:
            return new
        owner, other = new[a], (lower[~b] if b < 0 else new[b])
        p = _s_polynomial(owner, other, _lcm(owner[0], other[0], guard, bits), guard)


def _divisible(m: int, divisors: list[int], guard: int) -> bool:
    """Some monomial of `divisors` divides m."""
    mg = m | guard
    return any((mg - d) & guard == guard for d in divisors)


def _minimal_basis(
    polys: list[dict], guard: int, bits: int
) -> tuple[list[tuple[int, int, dict]], list[list[int]]]:
    """(minimal Groebner basis, passes) of int polynomials: the basis as
    primitive (lm, lc, tail) triples sorted by leading monomial, tails
    not reduced, [(0, 1, {})] for the unit ideal; passes as in
    `GroebnerBasis`.  Raises _Overflow when a product outgrows its fields.

    The inputs join in increasing order of their leading monomials, one
    signature-based pass (`_extend`) each.  No two elements share a
    leading monomial: the one of smaller signature would have reduced the
    other.  After a pass the elements whose leading monomial no other
    divides form a Groebner basis of the inputs so far, which the next
    pass pairs with; every element stays a reducer."""
    elements: list[tuple[int, int, dict]] = []
    basis: list[tuple[int, int, dict]] = []
    passes: list[list[int]] = []
    for f in sorted(polys, key=max):
        new = _extend(basis, elements, f, guard, bits)
        if new is None:
            passes.append([0])
            return [(0, 1, {})], passes
        new = [(lm, lc, tail) for lm, lc, tail, _ in new]
        elements += new
        # a new leading monomial is divisible by no lower one
        basis = [
            g
            for g in basis + new
            if not any(h is not g and _divides(h[0], g[0], guard) for h in new)
        ]
        passes.append([g[0] for g in basis])
    return sorted(basis, key=lambda g: g[0]), passes


def _interreduce(minimal: list[tuple[int, int, dict]], guard: int) -> list[tuple[int, int, dict]]:
    """The reduced basis of the minimal Groebner basis `minimal` (sorted
    by leading monomial) as (lm, den, tail) triples, the monic element
    being lm + tail/den: each tail in normal form modulo the other
    elements.  No monomial below lm(g) is divisible by lm(g), so that is
    the normal form modulo the whole basis, which is unique.
    Raises _Overflow when a product outgrows its fields."""
    out = []
    for g in minimal:
        others = [h for h in minimal if h is not g]
        tail, scale = _normal_form(dict(g[2]), others, guard)
        out.append((g[0], g[1] * scale, tail))
    return out


def buchberger(
    F: Sequence[DifferencePolynomial],
    variables: Iterable[SigmaVariable] | None = None,
    order: MonomialOrder = LEX,
) -> GroebnerBasis:
    """Groebner basis of (F), read as its reduced basis.

    The ring's variables are ranked once by the order, every monomial is
    packed into an int and every coefficient is an int: the input's
    denominators are cleared on entry and basis elements are kept
    primitive.  A run whose exponents outgrow their fields starts again
    with wider ones.  The run yields a minimal basis; it is interreduced
    into the reduced basis, monic over the rationals, on the first read
    of `packed` or of the generators.  The unit ideal yields the basis
    [1]; the zero ideal yields []."""
    polys = [f for f in F if not f.is_zero]
    if variables is not None:
        variables = frozenset(SigmaVariable(*v) for v in variables)
        for f in polys:
            extra = f.support_vars() - variables
            if extra:
                raise ValueError(f"polynomial uses variables outside the ring: {sorted(extra)}")
    else:
        variables = frozenset().union(*(f.support_vars() for f in polys)) if polys else frozenset()

    num_vars = F[0].num_vars if F else 0
    ring = _ring(variables, order)

    def run(bits: int) -> tuple[list[tuple[int, int, dict]], list[list[int]]]:
        offset, guard = _layout(ring, bits)
        return _minimal_basis([_pack(f, offset, bits)[0] for f in polys], guard, bits)

    (minimal, passes), bits = _widening(run)
    return GroebnerBasis(minimal, passes, ring, bits, num_vars, run)


def leading_monomial_ideal(G: GroebnerBasis) -> list[SigmaMonomial]:
    """Leading monomials of the minimal basis, which are those of the
    reduced basis: the minimal generators of lm((G)) over the ambient
    variable set."""
    return [_monomial(lm, G.ring, G.bits) for lm, _, _ in G.minimal]


def basis_dimension(basis: GroebnerBasis) -> int | EmptyDimension:
    """Krull dimension of k[basis.ring]/(basis), via the leading-monomial
    ideal: the number of variables minus a minimum hitting set of the
    squarefree lm supports.  EMPTY for the unit ideal (zero ring)."""
    return prefix_dimension(basis, len(basis.passes), len(basis.ring))


def prefix_dimension(basis: GroebnerBasis, k: int, num_vars: int) -> int | EmptyDimension:
    """Krull dimension of k[V]/(the first k inputs of `basis`'s run in join
    order), V the num_vars lowest-ranked variables of the ring, which
    must hold those inputs: num_vars minus a minimum hitting set of the
    leading-monomial supports after pass k, each support the mask of the
    guard bits above its nonzero fields.  The leading monomials of a
    Groebner basis of polynomials in V lie in V, so the hitting set is
    the one over V.  num_vars for k = 0; EMPTY once a pass up to k has
    yielded the unit ideal (its entry [0] has the empty support)."""
    k = min(k, len(basis.passes))
    if k == 0:
        return num_vars
    guard = _layout(basis.ring, basis.bits)[1]
    ones = guard >> basis.bits
    # a field is nonzero exactly when subtracting its low bit leaves its guard bit set
    hitting = minimum_hitting_mask(((lm | guard) - ones) & guard for lm in basis.passes[k - 1])
    return EMPTY if hitting is None else num_vars - hitting.bit_count()


def eliminate(
    F: Sequence[DifferencePolynomial],
    variables: Iterable[SigmaVariable],
    keep: Iterable[SigmaVariable],
) -> list[DifferencePolynomial]:
    """Generators of (F) intersected with the subring on `keep`, computed
    from a Groebner basis for the lex order ranking the complement of
    `keep` above `keep`.  Raises ValueError for a kept cell outside
    N x {1..n}, or outside the ambient variables."""
    variables = frozenset(SigmaVariable(*v) for v in variables)
    keep = frozenset(SigmaVariable(*v) for v in keep)
    n = F[0].num_vars if F else None
    if any(v.shift < 0 or v.index < 1 or (n is not None and v.index > n) for v in keep):
        raise ValueError("keep must lie in N x {1..n}")
    if not keep <= variables:
        raise ValueError("keep must be a subset of the ambient variables")
    order = elimination_order(variables - keep)
    basis = buchberger(F, variables, order)
    kept = [g for g in basis if g.support_vars() <= keep]
    kept.sort(key=lambda g: LEX.key(LEX.leading(g)[0]) if not g.is_zero else ())
    return kept
