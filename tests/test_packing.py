"""Int-packed monomials inside the Groebner kernel.

The packing is checked field by field against plain exponent tuples, and
the kernel against the SigmaMonomial oracles on systems whose exponents
outgrow the first field width, on input or in the middle of a run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadim import (
    LEX,
    DifferencePolynomial,
    SigmaMonomial,
    SigmaVariable,
    buchberger,
    elimination_order,
    leading_monomial_ideal,
    monomial_krull_dim,
    reduce,
)
from sigmadim.groebner import (
    _FIRST_BITS,
    _Overflow,
    _divides,
    _fields,
    _layout,
    _lcm,
    _monomial,
    _normal_form,
    _pack,
    _primitive,
    _ring,
    basis_dimension,
)
from conftest import oracle_buchberger, oracle_reduce, poly

# s^5(y1), s^4(y1), ..., y1: the ranking of the kernel, highest first
RING = _ring([SigmaVariable(a, 1) for a in range(6)], LEX)


def packed(exps, bits):
    """(the kernel's int for the exponent tuple exps over the first
    len(exps) variables of RING, the guard mask of that layout)."""
    ring = RING[: len(exps)]
    offset, guard = _layout(ring, bits)
    m = SigmaMonomial(zip(ring, exps))
    (e,) = _pack(DifferencePolynomial({m: 1}, 1), offset, bits)[0]
    return e, guard


def unpacked(e, n, bits):
    exps = [0] * n
    for k, x in _fields(e, RING[:n], bits):
        exps[k] = x
    return tuple(exps)


@st.composite
def exponent_pairs(draw):
    """(bits, a, b): two exponent tuples of one length whose entries fit
    `bits` bits; hypothesis favours the ends 0 and 2^bits - 1."""
    bits = draw(st.sampled_from([1, 2, 3, _FIRST_BITS]))
    n = draw(st.integers(1, len(RING)))
    fields = st.lists(st.integers(0, (1 << bits) - 1), min_size=n, max_size=n)
    return bits, tuple(draw(fields)), tuple(draw(fields))


class TestPackedMonomials:
    @settings(max_examples=300, deadline=None)
    @given(exponent_pairs())
    def test_round_trip(self, case):
        bits, a, _ = case
        e, guard = packed(a, bits)
        assert not e & guard
        assert unpacked(e, len(a), bits) == a
        assert _monomial(e, RING[: len(a)], bits) == SigmaMonomial(zip(RING, a))

    @settings(max_examples=300, deadline=None)
    @given(exponent_pairs())
    def test_int_order_is_lex(self, case):
        bits, a, b = case
        (ea, _), (eb, _) = packed(a, bits), packed(b, bits)
        assert (ea < eb) == (a < b)
        assert (ea == eb) == (a == b)

    @settings(max_examples=300, deadline=None)
    @given(exponent_pairs())
    def test_divisibility_and_quotient(self, case):
        bits, a, b = case
        (ea, guard), (eb, _) = packed(a, bits), packed(b, bits)
        divides = all(x <= y for x, y in zip(a, b))
        assert _divides(ea, eb, guard) == divides
        if divides:
            assert eb - ea == packed(tuple(y - x for x, y in zip(a, b)), bits)[0]

    @settings(max_examples=300, deadline=None)
    @given(exponent_pairs())
    def test_lcm_and_coprimality(self, case):
        bits, a, b = case
        (ea, guard), (eb, _) = packed(a, bits), packed(b, bits)
        m = _lcm(ea, eb, guard, bits)
        assert m == packed(tuple(map(max, a, b)), bits)[0]
        assert (m == ea + eb) == (not any(map(min, a, b)))

    @settings(max_examples=300, deadline=None)
    @given(exponent_pairs())
    def test_product_and_overflow(self, case):
        bits, a, b = case
        (ea, guard), (eb, _) = packed(a, bits), packed(b, bits)
        total = tuple(x + y for x, y in zip(a, b))
        overflow = any(t >> bits for t in total)
        assert bool((ea + eb) & guard) == overflow
        if not overflow:
            assert ea + eb == packed(total, bits)[0]

    @pytest.mark.parametrize("bits", [1, 3, _FIRST_BITS])
    def test_extreme_fields(self, bits):
        top = (1 << bits) - 1
        full, guard = packed((top,) * len(RING), bits)
        zero = packed((0,) * len(RING), bits)[0]
        alternate = packed((top, 0) * (len(RING) // 2), bits)[0]
        assert unpacked(full, len(RING), bits) == (top,) * len(RING)
        assert full | guard == (1 << (len(RING) * (bits + 1))) - 1
        assert zero == 0 and not list(_fields(zero, RING, bits))
        assert _divides(zero, full, guard) and _divides(alternate, full, guard)
        assert not _divides(full, alternate, guard)
        # complementary supports: coprime, so the lcm is the product
        assert _lcm(alternate, full - alternate, guard, bits) == full == alternate + (full - alternate)
        assert (full + packed((0,) * (len(RING) - 1) + (1,), bits)[0]) & guard

    @pytest.mark.parametrize("bits", [1, 3, _FIRST_BITS])
    def test_encoding_checks_every_exponent(self, bits):
        packed(((1 << bits) - 1,), bits)
        with pytest.raises(_Overflow):
            packed((0, 1 << bits), bits)


# -- the kernel past the first field width --------------------------------------

# every input exponent fits the first width; products in the run do not
MID_RUN = [
    (["y1^200*y2 - 1", "y2^2 - y1^150"], 2),
    (["y1^255*y2 - y1", "y2^2 - y1^2"], 2),
    (["2*y1^139*y2^2 + 1", "y2^2 + 2*y1^111*y2"], 2),
]
# some input exponent is past the first width
ON_INPUT = [
    (["y1^300*y2 - 1", "y2^2 - y1"], 2),
    (["y1^600*y2 - 1", "y2^2 - y1"], 2),
    (["s(y1)^256 - y1", "s(y1) - y1^2"], 1),
]


def _system(texts, n):
    return [poly(t, n) for t in texts]


def _max_exponent(F):
    return max(e for f in F for m in f.terms for _, e in m.exps)


@pytest.mark.parametrize("texts,n", MID_RUN + ON_INPUT)
def test_wide_systems_match_oracle(texts, n):
    F = _system(texts, n)
    basis = buchberger(F)
    assert basis.bits > _FIRST_BITS
    assert list(basis.generators) == oracle_buchberger(F)


@pytest.mark.parametrize("texts,n", MID_RUN)
def test_widening_in_the_middle_of_a_run(texts, n):
    F = _system(texts, n)
    assert _max_exponent(F) < 1 << _FIRST_BITS
    assert buchberger(F).bits > _FIRST_BITS


@pytest.mark.parametrize("texts,n", MID_RUN + ON_INPUT)
def test_wide_systems_match_oracle_elimination_order(texts, n):
    F = _system(texts, n)
    variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
    order = elimination_order(variables[:1])
    assert list(buchberger(F, variables, order).generators) == oracle_buchberger(F, order)


@pytest.mark.parametrize("texts,n", MID_RUN + ON_INPUT)
def test_wide_bases_read_their_leading_monomials(texts, n):
    F = _system(texts, n)
    variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
    basis = buchberger(F, variables)
    lms = leading_monomial_ideal(basis)
    dim = basis_dimension(basis)
    assert basis._generators is None, "the packed readers built the generators"
    assert basis._packed is None, "the leading-monomial readers interreduced the basis"
    read = [LEX.leading(g)[0] for g in basis.generators]
    assert lms == read
    assert dim == monomial_krull_dim([m.support() for m in read], len(variables))


def test_reduce_widens_in_the_middle_of_a_run():
    # y2^3 -> y1^200*y2^2 -> y1^400*y2 -> y1^600: the first width fits the
    # input but not the products
    f, G = poly("y2^3 + y1*y2", 2), [poly("y2 - y1^200", 2)]
    ring = _ring(f.support_vars() | G[0].support_vars(), LEX)
    offset, guard = _layout(ring, _FIRST_BITS)
    divisors = [_primitive(_pack(G[0], offset, _FIRST_BITS)[0])]
    with pytest.raises(_Overflow):
        _normal_form(_pack(f, offset, _FIRST_BITS)[0], divisors, guard)
    assert reduce(f, G) == oracle_reduce(f, G) == poly("y1^600 + y1^201", 2)


def test_reduce_widens_on_input():
    f, G = poly("y1^300*y2^2 - 3", 2), [poly("2*y2 - y1", 2), poly("y1^2 - y2", 2)]
    assert reduce(f, G) == oracle_reduce(f, G)
