"""Groebner engine: division, Buchberger, dimensions, elimination.

Random systems are cross-checked against sympy's groebner (an independent
implementation) after normalizing both bases to monic form.
"""

import random
from fractions import Fraction

import pytest
import sympy

from sigmadim import (
    EMPTY,
    LEX,
    DifferencePolynomial,
    SigmaMonomial,
    buchberger,
    eliminate,
    elimination_order,
    leading_monomial_ideal,
    monomial_krull_dim,
    reduce,
)
from sigmadim import groebner
from sigmadim.engine import truncation_generators
from sigmadim.groebner import basis_dimension
from conftest import mono, oracle_buchberger, oracle_reduce, oracle_s_polynomial, poly, random_system


class TestOrder:
    def test_ranking(self):
        # y1 < y2 < s(y1): the order variable ranking of the lex order
        assert LEX.key(mono("y2", 2)) > LEX.key(mono("y1", 2))
        assert LEX.key(mono("s(y1)", 2)) > LEX.key(mono("y2", 2))
        assert LEX.key(mono("y1*y2", 2)) > LEX.key(mono("y2", 2))

    def test_shift_compatible(self):
        a, b = mono("y1*y2^2", 2), mono("y2*s(y1)", 2)
        assert LEX.key(b) > LEX.key(a)
        assert LEX.key(b.shifted(3)) > LEX.key(a.shifted(3))

    def test_order_respecting(self):
        assert LEX.key(mono("s^2(y1)", 1)) > LEX.key(mono("y1^5*s(y1)^5", 1))


class TestReduce:
    def test_divisible(self):
        assert reduce(poly("y1^2", 1), [poly("y1", 1)]).is_zero

    def test_substitution(self):
        assert reduce(poly("y1*y2 + y2", 2), [poly("y1 - 1", 2)]) == poly("2*y2", 2)

    def test_no_reduction(self):
        assert reduce(poly("y2", 2), [poly("y1", 2)]) == poly("y2", 2)

    def test_idempotent(self):
        G = [poly("y1*y2 - 1", 2), poly("y2^2 - y1", 2)]
        f = poly("y1^3*y2^2 - y1*y2 + y2", 2)
        once = reduce(f, G)
        assert reduce(once, G) == once


class TestBuchberger:
    def test_monomials_already_basis(self):
        basis = buchberger([poly("y1", 2), poly("y2", 2)])
        assert set(basis.generators) == {poly("y1", 2), poly("y2", 2)}

    def test_hyperbola_line(self):
        # reduced basis eliminates y2 (the lex-largest variable); y2^2 - 1
        # is in the ideal but not a reduced-basis generator
        basis = buchberger([poly("y1*y2 - 1", 2), poly("y1 - y2", 2)])
        assert set(basis.generators) == {poly("y1^2 - 1", 2), poly("y2 - y1", 2)}
        assert reduce(poly("y2^2 - 1", 2), list(basis)).is_zero

    def test_unit_ideal(self):
        basis = buchberger([poly("y1", 1), poly("y1 - 1", 1)])
        assert basis.is_unit_ideal
        assert [str(g) for g in basis] == ["1"]

    def test_generators_reduce_to_zero(self):
        F = [poly("y1^2*y2 - 1", 2), poly("y1*y2^2 - y1", 2), poly("s(y1) - y1^2", 2)]
        basis = buchberger(F)
        for f in F:
            assert reduce(f, list(basis)).is_zero

    def test_spolys_reduce_to_zero(self):
        F = [poly("y1*y2 - y2", 2), poly("y2^2 - y1", 2)]
        basis = list(buchberger(F))
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert reduce(oracle_s_polynomial(basis[i], basis[j], LEX), basis).is_zero


class TestLeadingMonomials:
    def test_single(self):
        basis = buchberger([poly("y1*y2 - 1", 2)])
        assert leading_monomial_ideal(basis) == [mono("y1*y2", 2)]

    def test_unit(self):
        basis = buchberger([poly("y1", 1), poly("y1 - 1", 1)])
        assert leading_monomial_ideal(basis) == [SigmaMonomial()]

    def test_truncated_shift_system(self):
        gens = truncation_generators(
            [poly("s(y1) - y1 - 1", 2), poly("y1*y2 - 1", 2)], 1
        )
        lms = set(leading_monomial_ideal(buchberger(gens)))
        assert mono("s(y1)", 2) in lms
        assert mono("y1*y2", 2) in lms


class TestIdealDimension:
    # Krull dimension of k[variables]/(F), read off the reduced basis

    def test_hyperbola(self):
        assert basis_dimension(buchberger([poly("y1*y2 - 1", 2)], [(0, 1), (0, 2)])) == 1

    def test_zero_ideal(self):
        assert basis_dimension(buchberger([], [(0, 1), (0, 2), (1, 1)])) == 3

    def test_unit_ideal(self):
        assert basis_dimension(buchberger([poly("y1", 1), poly("y1 - 1", 1)], [(0, 1)])) is EMPTY

    def test_matches_lm_generators(self):
        F = [poly("y1*y2 - 1", 2), poly("y2^2 - y1", 2), poly("s(y1) - y1*y2", 2)]
        variables = [(0, 1), (0, 2), (1, 1), (1, 2)]
        basis = buchberger(F, variables)
        lm_polys = [DifferencePolynomial({m: 1}, 2) for m in leading_monomial_ideal(basis)]
        assert basis_dimension(basis) == basis_dimension(buchberger(lm_polys, variables))

    def test_principal_monomial_matches_krull(self):
        m = mono("y1*s(y2)^2", 2)
        variables = [(0, 1), (0, 2), (1, 1), (1, 2)]
        f = DifferencePolynomial({m: 1}, 2)
        assert basis_dimension(buchberger([f], variables)) == monomial_krull_dim(
            [m.support()], len(variables)
        )


class TestEliminate:
    def test_no_relation(self):
        assert eliminate([poly("y1 - y2", 2)], [(0, 1), (0, 2)], [(0, 2)]) == []

    def test_hyperbola_projection(self):
        got = eliminate(
            [poly("y1*y2 - 1", 2), poly("y1 - y2", 2)], [(0, 1), (0, 2)], [(0, 2)]
        )
        assert got == [poly("y2^2 - 1", 2)]

    def test_already_inside(self):
        f = poly("s(y1) - y1 - 1", 1)
        assert eliminate([f], [(0, 1), (1, 1)], [(0, 1), (1, 1)]) == [f]

    def test_keep_outside_vars_rejected(self):
        with pytest.raises(ValueError):
            eliminate([poly("y1", 1)], [(0, 1)], [(5, 1)])

    def test_eliminated_generators_lie_in_ideal(self):
        rng = random.Random(5)
        F = [poly("y1*y2 - 1", 2), poly("s(y2) - y1^2", 2)]
        variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
        keep = [(0, 2), (1, 2)]
        got = eliminate(F, variables, keep)
        assert got, "projection of a curve to two coordinates has a relation"
        basis = list(buchberger(F))
        for g in got:
            assert g.support_vars() <= set(keep)
            assert reduce(g, basis).is_zero
        # random elements of the eliminated ideal lie in (F)
        for _ in range(5):
            combo = DifferencePolynomial.zero(2)
            for g in got:
                factor = DifferencePolynomial(
                    {SigmaMonomial({(0, 2): rng.randint(0, 2)}): Fraction(rng.randint(-2, 2))},
                    2,
                )
                combo = combo + factor * g
            assert reduce(combo, basis).is_zero


# -- cross-check against sympy ----------------------------------------------


def _to_sympy(polys):
    variables = sorted({v for f in polys for v in f.support_vars()})
    syms = {v: sympy.Symbol(f"x_{v.shift}_{v.index}") for v in variables}
    gens = [syms[v] for v in sorted(variables, reverse=True)]
    exprs = []
    for f in polys:
        expr = sympy.Integer(0)
        for m, c in f.terms.items():
            t = sympy.Rational(c.numerator, c.denominator)
            for v, e in m.exps:
                t *= syms[v] ** e
            expr += t
        exprs.append(expr)
    return exprs, gens


def _monic_strings(exprs, gens):
    out = []
    for e in exprs:
        p = sympy.Poly(e, *gens)
        out.append(str(sympy.expand((p / p.LC("lex")).as_expr())))
    return sorted(out)


def _random_system(rng):
    n = rng.choice([1, 2])
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = {}
            for _ in range(rng.randint(0, 3)):
                var = (rng.randint(0, 2), rng.randint(1, n))
                m[var] = m.get(var, 0) + rng.randint(1, 2)
            monomial = SigmaMonomial(m)
            terms[monomial] = terms.get(monomial, Fraction(0)) + Fraction(rng.randint(-3, 3))
        f = DifferencePolynomial(terms, n)
        if not f.is_zero and not f.is_constant():
            polys.append(f)
    return polys


def test_matches_sympy_on_random_systems():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        polys = _random_system(rng)
        if not polys:
            continue
        exprs, gens = _to_sympy(polys)
        expected = _monic_strings(list(sympy.groebner(exprs, *gens, order="lex").exprs), gens)
        ours_exprs, _ = _to_sympy(list(buchberger(polys)))
        assert _monic_strings(ours_exprs, gens) == expected
        checked += 1


def test_matches_sympy_f5b_on_coupled_window_5():
    # 25 generators, deeper than any basis the oracle loop reaches
    F = [poly("s(y1)*y2 - y1 - 1", 2), poly("s(y2) - y1*y2", 2)]
    gens_list = truncation_generators(F, 5)
    exprs, gens = _to_sympy(gens_list)
    expected = sympy.groebner(exprs, *gens, order="lex", method="f5b").exprs
    ours_exprs, _ = _to_sympy(list(buchberger(gens_list)))
    assert _monic_strings(ours_exprs, gens) == _monic_strings(list(expected), gens)


def test_matches_sympy_on_intro_truncation():
    F = [poly("y1*s(y1)", 2), poly("y1*y2 - y2*s(y2)", 2)]
    gens_list = truncation_generators(F, 4)
    exprs, gens = _to_sympy(gens_list)
    expected = _monic_strings(list(sympy.groebner(exprs, *gens, order="lex").exprs), gens)
    ours_exprs, _ = _to_sympy(list(buchberger(gens_list)))
    assert _monic_strings(ours_exprs, gens) == expected


# -- cross-check against the plain Buchberger loop ----------------------------


def _integer_coefficient(rng):
    return Fraction(rng.randint(-3, 3))


def _rational_coefficient(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _non_unit_coefficient(rng):
    return Fraction(rng.choice((-6, -4, -3, -2, 2, 3, 4, 6)), rng.choice((1, 1, 5)))


def _degree_two_system(rng, coefficient=_integer_coefficient):
    """One to three polynomials in n <= 2 variables, order <= 2, total
    degree <= 2, with one to four terms and coefficients drawn by
    `coefficient` (default: integers in -3..3) before like terms merge."""
    n = rng.choice([1, 2])
    cells = [(a, j) for a in range(3) for j in range(1, n + 1)]
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = {}
            for _ in range(rng.randint(0, 2)):
                var = rng.choice(cells)
                m[var] = m.get(var, 0) + 1
            monomial = SigmaMonomial(m)
            terms[monomial] = terms.get(monomial, Fraction(0)) + coefficient(rng)
        polys.append(DifferencePolynomial(terms, n))
    return polys


def test_matches_oracle_on_random_systems_lex():
    rng = random.Random(11)
    for _ in range(120):
        F = _degree_two_system(rng)
        assert list(buchberger(F).generators) == oracle_buchberger(F), F


def test_matches_oracle_on_random_system_draws():
    # two draws per system (two to four generators of degree <= 3): enough
    # S-pairs per pass that a reduction by an element of equal or larger
    # signature, or an add-order rewrite criterion, loses a generator
    rng = random.Random(32)
    for _ in range(500):
        n, order = rng.randint(1, 3), rng.randint(0, 2)
        F = random_system(rng, n, order, 3) + random_system(rng, n, order, 3)
        assert list(buchberger(F).generators) == oracle_buchberger(F), F
        variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
        if len(variables) > 1:
            elim = elimination_order(rng.sample(variables, rng.randint(1, len(variables) - 1)))
            assert list(buchberger(F, variables, elim).generators) == oracle_buchberger(F, elim), F


def test_matches_oracle_on_random_systems_elimination_order():
    rng = random.Random(12)
    checked = 0
    while checked < 80:
        F = _degree_two_system(rng)
        variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
        if len(variables) < 2:
            continue
        order = elimination_order(rng.sample(variables, rng.randint(1, len(variables) - 1)))
        assert list(buchberger(F, variables, order).generators) == oracle_buchberger(F, order), F
        checked += 1


def test_reduce_matches_oracle_on_non_bases():
    # G is not a Groebner basis, so the remainder depends on which divisor
    # reduces each term: both pick the first one in G order
    rng = random.Random(13)
    for _ in range(60):
        F = [f for f in _degree_two_system(rng) if not f.is_zero]
        if len(F) < 2:
            continue
        f = F[0] * F[-1] + F[0]
        for order in (LEX, elimination_order([(0, 1)])):
            assert reduce(f, F[1:], order) == oracle_reduce(f, F[1:], order)
            assert reduce(f, F[::-1], order) == oracle_reduce(f, F[::-1], order)


# the integer kernel clears denominators on entry and scales instead of
# dividing; these inputs have rational coefficients and leading
# coefficients other than +-1, so every scaling step is exercised


@pytest.mark.parametrize("coefficient", [_rational_coefficient, _non_unit_coefficient])
def test_matches_oracle_on_rational_systems_lex(coefficient):
    rng = random.Random(14)
    for _ in range(80):
        F = _degree_two_system(rng, coefficient)
        assert list(buchberger(F).generators) == oracle_buchberger(F), F


@pytest.mark.parametrize("coefficient", [_rational_coefficient, _non_unit_coefficient])
def test_matches_oracle_on_rational_systems_elimination_order(coefficient):
    rng = random.Random(15)
    checked = 0
    while checked < 60:
        F = _degree_two_system(rng, coefficient)
        variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
        if len(variables) < 2:
            continue
        order = elimination_order(rng.sample(variables, rng.randint(1, len(variables) - 1)))
        assert list(buchberger(F, variables, order).generators) == oracle_buchberger(F, order), F
        checked += 1


@pytest.mark.parametrize("coefficient", [_rational_coefficient, _non_unit_coefficient])
def test_reduce_matches_oracle_on_rational_non_bases(coefficient):
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        F = [f for f in _degree_two_system(rng, coefficient) if not f.is_zero]
        if len(F) < 2:
            continue
        # s^3(y1) ranks above every variable of F: it joins the remainder
        # first, before any scaling
        f = F[0] * F[-1] + F[0].scale(Fraction(1, 3)) + poly("s^3(y1)", F[0].num_vars)
        for order in (LEX, elimination_order([(0, 1)])):
            assert reduce(f, F[1:], order) == oracle_reduce(f, F[1:], order)
            assert reduce(f, F[::-1], order) == oracle_reduce(f, F[::-1], order)
        checked += 1


def test_non_unit_leading_coefficients():
    # leading coefficients 2 and 3 with coprime tails: reducing by one
    # scales the polynomial under reduction by the other
    F = [poly("2*y1*y2 - 3*y1 + 1", 2), poly("3*y2^2 - 2*y1 - 5", 2)]
    expected = oracle_buchberger(F)
    assert list(buchberger(F).generators) == expected
    f = poly("s(y1) + 5*y1*y2^2 + 7*y2 - 1", 2)
    assert reduce(f, F) == oracle_reduce(f, F)
    assert reduce(f.scale(Fraction(2, 7)), F[::-1]) == oracle_reduce(f.scale(Fraction(2, 7)), F[::-1])


# the truncation systems of the benchmark, one coefficient draw each, with
# the window depth it uses
TRUNCATION_SYSTEMS = [
    (["2*s(y1)*y2 - y1 - 3", "s(y2) - 2*y1*y2"], 4),
    (["y1*s(y1)", "y1*y2 - 2*y2*s(y2)"], 6),
    (["s(y1)*y1 + 2*s(y1) - 3*y1 + 1"], 5),
    (["s^2(y1)*y1 - 2*s(y1)^2 - 3"], 5),
    (["s(y1) - 2*y1*y2", "s(y2)^2 - 3*y1 - 1"], 5),
    (["y1^2 - 2*y2", "y1*y2 - 3"], 5),
    (["s^2(y1) - 2*s(y1) - 3*y1"], 8),
]


@pytest.mark.parametrize("texts,depth", TRUNCATION_SYSTEMS)
def test_matches_oracle_on_every_truncation_window(texts, depth):
    n = 2 if any("y2" in t for t in texts) else 1
    F = [poly(t, n) for t in texts]
    for i in range(depth + 1):
        gens = truncation_generators(F, i)
        variables = [(a, j) for a in range(i + 1) for j in range(1, n + 1)]
        assert list(buchberger(gens, variables).generators) == oracle_buchberger(gens), i


@pytest.mark.parametrize("texts,depth", TRUNCATION_SYSTEMS)
def test_packed_dimension_matches_generators(texts, depth):
    # basis_dimension and leading_monomial_ideal read the packed leading
    # monomials without building the generators; reading the generators
    # must give the same answers
    n = 2 if any("y2" in t for t in texts) else 1
    F = [poly(t, n) for t in texts]
    for i in range(depth + 1):
        variables = [(a, j) for a in range(i + 1) for j in range(1, n + 1)]
        basis = buchberger(truncation_generators(F, i), variables)
        packed = basis_dimension(basis)
        lms = leading_monomial_ideal(basis)
        assert basis._generators is None, "the packed readers built the generators"
        assert basis._packed is None, "the leading-monomial readers interreduced the basis"
        read = [LEX.leading(g)[0] for g in basis.generators]
        assert lms == read, i
        assert packed == monomial_krull_dim([m.support() for m in read], len(variables)), i


def test_matches_oracle_where_gebauer_moeller_strictness_matters():
    # under the Gebauer-Moeller update the kernel used before, dropping
    # every old pair whose lcm the new leading monomial divides, without
    # requiring both new lcms to differ from it, lost a generator here
    F = [
        poly("-2*s^2(y1)*s^2(y2) + 2*s(y1)*s^2(y2) - 3*s^2(y1)", 2),
        poly("2*s^2(y1)*s^2(y2) - s(y2)^2 + 2*y1*s(y2) + 2", 2),
        poly("3*y2*s^2(y2) + 2*y1*s(y2) + 3*s(y1)", 2),
    ]
    assert list(buchberger(F).generators) == oracle_buchberger(F)


def test_no_zero_reductions_on_coupled_windows(monkeypatch):
    # the truncation generators of the coupled system form a regular
    # sequence, on which the signature criteria leave no S-pair that
    # reduces to zero; every pair and input is top-reduced (top=True) first
    reductions = []
    normal_form = groebner._normal_form

    def counted(*args, **kwargs):
        out = normal_form(*args, **kwargs)
        if kwargs.get("top"):
            reductions.append(bool(out[0]))
        return out

    monkeypatch.setattr(groebner, "_normal_form", counted)
    texts, _ = TRUNCATION_SYSTEMS[0]
    F = [poly(t, 2) for t in texts]
    for i in range(6):
        reductions.clear()
        gens = truncation_generators(F, i)
        buchberger(gens, [(a, j) for a in range(i + 1) for j in (1, 2)])
        assert all(reductions), (i, reductions.count(False), len(reductions))
    assert len(reductions) > 2 * len(gens)  # window 5 reduces pairs, not only inputs
