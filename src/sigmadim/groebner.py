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
Coefficients are ints, S-pairs wait in a heap ordered by lcm, and the
Gebauer-Moeller criteria prune them (Gebauer & Moeller 1988, *On an
installation of Buchberger's algorithm*).  Only the final reduced basis is
made monic; its leading monomials are unpacked for dimensions, and its
tails only on the first read of its generators.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, lcm as int_lcm
from typing import Callable, Iterable, Iterator, Sequence

from .families import EMPTY, EmptyDimension, monomial_krull_dim
from .polynomials import DifferencePolynomial, SigmaMonomial, SigmaVariable


class MonomialOrder:
    """Lex order determined by a variable ranking function.

    `rank` maps a SigmaVariable to a sortable key; larger key = larger
    variable.  The default ranking is the identity (shift, index)."""

    def __init__(self, rank: Callable[[SigmaVariable], tuple] | None = None, name: str = "lex"):
        self._rank = rank or (lambda v: v)
        self.name = name

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
    return MonomialOrder(
        rank=lambda v: (1 if v in elim else 0, v.shift, v.index),
        name="lex-eliminating",
    )


class GroebnerBasis:
    """Reduced Groebner basis: monic generators, no leading monomial
    divides another, every tail reduced.

    Held as `buchberger` leaves it: one (lm, den, int tail) triple per
    generator lm + tail/den, each monomial an int packed with `bits`-bit
    fields over `ring`, the ring's variables from the highest-ranked down.
    The DifferencePolynomials are built on the first read of `generators`;
    `basis_dimension` and `leading_monomial_ideal` unpack only the leading
    monomials."""

    __slots__ = ("packed", "ring", "bits", "num_vars", "variables", "order", "_generators")

    def __init__(
        self,
        packed: list[tuple[int, int, dict]],
        ring: list[SigmaVariable],
        bits: int,
        num_vars: int,
        order: MonomialOrder,
    ):
        self.packed = packed
        self.ring = ring
        self.bits = bits
        self.num_vars = num_vars
        self.variables = frozenset(ring)
        self.order = order
        self._generators = None

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

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.packed) == 1 and not self.packed[0][0]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.packed)

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


def _widening(run: Callable[[int], object]) -> tuple[object, int]:
    """(run(bits), bits) for the first field width, doubling from
    _FIRST_BITS, on which run does not overflow."""
    bits = _FIRST_BITS
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


def _normal_form(p: dict, divisors: Sequence[tuple[int, int, dict]], guard: int) -> tuple[dict, int]:
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
    outgrows its fields."""
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
                break
        else:
            remainder[m] = c
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


def _reduced_basis(polys: list[dict], guard: int, bits: int) -> list[tuple[int, int, dict]] | None:
    """Reduced Groebner basis of int polynomials as (lm, den, tail)
    triples sorted by leading monomial, the monic element being
    lm + tail/den; None for the unit ideal.  Raises _Overflow when a
    product outgrows its fields.

    Pairs wait in a heap keyed by the lcm of their leading monomials (the
    normal strategy); the Gebauer-Moeller update applies the product and
    chain criteria when a polynomial joins, so no pair is rescanned."""
    lms: list[int] = []
    lcs: list[int] = []
    tails: list[dict] = []
    active: list[int] = []  # indices whose lm no later lm divides
    heap: list[tuple[int, int, int]] = []

    def join(p: dict) -> bool:
        """Add a nonzero normal form; False if it is a constant."""
        lm, lc, tail = _primitive(p)
        if not lm:
            return False
        k = len(lms)
        lms.append(lm)
        lcs.append(lc)
        tails.append(tail)
        # new pairs: keep one pair per minimal lcm, then drop coprime ones
        # (lcm == lm + other exactly when the two are coprime)
        fresh = [(_lcm(lm, lms[g], guard, bits), g) for g in active]
        kept = []
        while fresh:
            lcm, g = fresh.pop()
            if lcm == lm + lms[g] or not any(
                _divides(other, lcm, guard) for other, _ in chain(fresh, kept)
            ):
                kept.append((lcm, g))
        # drop old pairs (a, b) the new lm makes redundant: it divides their
        # lcm, and lcm(a, new) and lcm(b, new) both differ from that lcm
        old = [
            (lcm, a, b)
            for lcm, a, b in heap
            if not (
                _divides(lm, lcm, guard)
                and _lcm(lms[a], lm, guard, bits) != lcm
                and _lcm(lms[b], lm, guard, bits) != lcm
            )
        ]
        if len(old) < len(heap):
            heap[:] = old
            heapq.heapify(heap)
        for lcm, g in kept:
            if lcm != lm + lms[g]:
                heapq.heappush(heap, (lcm, g, k))
        active[:] = [g for g in active if not _divides(lm, lms[g], guard)] + [k]
        return True

    def divisors():
        return [(lms[g], lcs[g], tails[g]) for g in active]

    for p in sorted(polys, key=max):
        r = _normal_form(p, divisors(), guard)[0]
        if r and not join(r):
            return None
    while heap:
        lcm, a, b = heapq.heappop(heap)
        # S(a, b) = (lc_b/g) * qa * tail_a - (lc_a/g) * qb * tail_b
        g = gcd(lcs[a], lcs[b])
        fa, fb = lcs[b] // g, lcs[a] // g
        qa = lcm - lms[a]
        qb = lcm - lms[b]
        s = {}
        for t, c in tails[a].items():
            mt = qa + t
            if mt & guard:
                raise _Overflow
            s[mt] = fa * c
        for t, c in tails[b].items():
            mt = qb + t
            if mt & guard:
                raise _Overflow
            v = s.get(mt, 0) - fb * c
            if v:
                s[mt] = v
            else:
                del s[mt]
        r = _normal_form(s, divisors(), guard)[0]
        if r and not join(r):
            return None
    basis = []
    for g in sorted(active, key=lms.__getitem__):
        others = [(lms[h], lcs[h], tails[h]) for h in active if h != g]
        tail, scale = _normal_form(dict(tails[g]), others, guard)
        basis.append((lms[g], lcs[g] * scale, tail))
    return basis


def buchberger(
    F: Sequence[DifferencePolynomial],
    variables: Iterable[SigmaVariable] | None = None,
    order: MonomialOrder = LEX,
) -> GroebnerBasis:
    """Reduced Groebner basis of (F).

    The ring's variables are ranked once by the order, every monomial is
    packed into an int and every coefficient is an int: the input's
    denominators are cleared on entry and basis elements are kept
    primitive.  A run whose exponents outgrow their fields starts again
    with wider ones.  The result is monic over the rationals; its
    generators are built on first read.  The unit ideal yields the basis
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

    def run(bits: int) -> list[tuple[int, int, dict]] | None:
        offset, guard = _layout(ring, bits)
        return _reduced_basis([_pack(f, offset, bits)[0] for f in polys], guard, bits)

    basis, bits = _widening(run)
    if basis is None:
        basis = [(0, 1, {})]
    return GroebnerBasis(basis, ring, bits, num_vars, order)


def leading_monomial_ideal(G: GroebnerBasis) -> list[SigmaMonomial]:
    """Leading monomials of the reduced basis: the minimal generators of
    lm((G)) over the ambient variable set."""
    return [_monomial(lm, G.ring, G.bits) for lm, _, _ in G.packed]


def basis_dimension(basis: GroebnerBasis) -> int | EmptyDimension:
    """Krull dimension of k[basis.variables]/(basis), via the leading-monomial
    ideal: the number of variables minus a minimum hitting set of the
    squarefree lm supports.  EMPTY for the unit ideal (zero ring)."""
    if basis.is_unit_ideal:
        return EMPTY
    supports = [[k for k, _ in _fields(lm, basis.ring, basis.bits)] for lm, _, _ in basis.packed]
    return monomial_krull_dim(supports, len(basis.ring))


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
