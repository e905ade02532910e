"""Ring arithmetic and the shift action."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmadim import DifferencePolynomial, SigmaMonomial
from conftest import poly


class TestArithmetic:
    def test_additive_inverse(self):
        f = poly("y1", 1)
        assert (f + (-f)).is_zero

    def test_difference_of_squares(self):
        assert poly("y1 + 1", 1) * poly("y1 - 1", 1) == poly("y1^2 - 1", 1)

    def test_exponent_addition(self):
        assert poly("y1*s(y1)", 1) * poly("s(y1)", 1) == poly("y1*s(y1)^2", 1)

    def test_mismatched_rings_rejected(self):
        with pytest.raises(ValueError):
            poly("y1", 1) + poly("y1", 2)

    def test_coefficients_exact(self):
        f = poly("1/3*y1", 1)
        assert (f + f + f) == poly("y1", 1)

    def test_zero_knows_its_ring(self):
        assert DifferencePolynomial.zero(3).num_vars == 3


class TestShift:
    def test_basic(self):
        assert poly("y1*s(y1)", 1).shifted(1) == poly("s(y1)*s^2(y1)", 1)

    def test_identity(self):
        f = poly("y1*y2 - 3", 2)
        assert f.shifted(0) == f

    def test_constants_fixed(self):
        assert poly("y1*y2 - 1", 2).shifted(2) == poly("s^2(y1)*s^2(y2) - 1", 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            poly("y1", 1).shifted(-1)


# -- property tests ---------------------------------------------------------

variables = st.tuples(st.integers(0, 3), st.integers(1, 2))
monomials = st.dictionaries(variables, st.integers(1, 3), max_size=3).map(SigmaMonomial)
coeffs = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, allow_zero=True):
    terms = draw(st.dictionaries(monomials, coeffs, min_size=0 if allow_zero else 1, max_size=4))
    return DifferencePolynomial(terms, 2)


@given(polynomials(), st.integers(0, 3), st.integers(0, 3))
def test_shift_composes(f, a, b):
    assert f.shifted(a).shifted(b) == f.shifted(a + b)


@given(polynomials(), polynomials(), st.integers(0, 3))
def test_shift_is_ring_morphism(f, g, ell):
    assert (f * g).shifted(ell) == f.shifted(ell) * g.shifted(ell)
    assert (f + g).shifted(ell) == f.shifted(ell) + g.shifted(ell)


@given(polynomials(), st.integers(1, 3))
def test_shift_raises_order(f, ell):
    if f.order() is not None:
        assert f.shifted(ell).order() == f.order() + ell
