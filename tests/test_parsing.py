"""Grammar round trips and error reporting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigmadim import DifferencePolynomial, ParseError, SigmaMonomial, parse_polynomial, polynomial_text
from sigmadim.parsing import family_text, family_from_json, family_to_json, parse_cells, parse_family_text
from sigmadim.families import SigmaFamily
from conftest import oracle_parse_polynomial, poly


class TestParse:
    def test_product_minus_one(self):
        f = parse_polynomial("y1*s(y1) - 1", 1)
        assert f == DifferencePolynomial(
            {SigmaMonomial({(0, 1): 1, (1, 1): 1}): Fraction(1), SigmaMonomial(): Fraction(-1)},
            1,
        )

    def test_power_of_shift(self):
        f = parse_polynomial("s^2(y3)^5", 3)
        assert f == DifferencePolynomial({SigmaMonomial({(2, 3): 5}): Fraction(1)}, 3)

    def test_intro_equation(self):
        f = parse_polynomial("y1*y2 - y2*s(y2)", 2)
        assert f == DifferencePolynomial(
            {
                SigmaMonomial({(0, 1): 1, (0, 2): 1}): Fraction(1),
                SigmaMonomial({(0, 2): 1, (1, 2): 1}): Fraction(-1),
            },
            2,
        )

    def test_rational_literal(self):
        assert parse_polynomial("3/4*y1", 1) == poly("y1", 1).scale(Fraction(3, 4))

    def test_parenthesized_shift(self):
        assert parse_polynomial("s(y1 + 1)", 1) == poly("s(y1) + 1", 1)

    def test_unary_minus(self):
        assert parse_polynomial("-y1 + 2", 1) == poly("2 - y1", 1)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("y1 + *", 1)
        assert err.value.position == 5

    def test_index_beyond_ring(self):
        with pytest.raises(ParseError):
            parse_polynomial("y3", 2)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("y1 y1", 1)


variables = st.tuples(st.integers(0, 3), st.integers(1, 3))
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=3).map(SigmaMonomial)
coeffs = st.fractions(min_value=-9, max_value=9).filter(lambda c: c != 0)
polynomials = st.dictionaries(monomials, coeffs, max_size=4).map(
    lambda terms: DifferencePolynomial(terms, 3)
)


@given(polynomials)
def test_print_parse_round_trip(f):
    assert parse_polynomial(polynomial_text(f), 3) == f


class TestFamilyFormats:
    def test_cells(self):
        assert parse_cells("{(0,1),(1,2)}") == [(0, 1), (1, 2)]
        assert parse_cells("(3,1)") == [(3, 1)]

    def test_text_round_trip(self):
        fam = SigmaFamily(2, [[(0, 1), (1, 1)], [(0, 2)]])
        assert parse_family_text(family_text(fam), 2) == fam

    def test_json_round_trip(self):
        fam = SigmaFamily(2, [[(0, 1), (1, 1)], [(0, 2)]])
        assert family_from_json(family_to_json(fam)) == fam

    def test_infers_n(self):
        fam = parse_family_text("{(0,1),(0,3)}")
        assert fam.n == 3


# -- the term-dict parser against the DifferencePolynomial-arithmetic oracle --


def _random_text(rng, depth: int = 0) -> str:
    """A random expression of the grammar: signs, nested s^k(...), powers,
    rationals, parentheses, and whitespace between tokens."""
    ws = lambda: rng.choice(["", "", " ", "  ", "\t"])

    def atom(d):
        kind = rng.choice(["nat", "rat", "var", "var", "shift", "paren"] if d < 2 else ["nat", "rat", "var"])
        if kind == "nat":
            return str(rng.randint(0, 12))
        if kind == "rat":
            return f"{rng.randint(0, 9)}{ws()}/{ws()}{rng.randint(1, 9)}"
        if kind == "var":
            return f"y{rng.randint(1, 3)}"
        inner = expr(d + 1)
        if kind == "shift":
            power = rng.choice(["", f"^{ws()}{rng.randint(0, 3)}"])
            return f"s{ws()}{power}{ws()}({ws()}{inner}{ws()})"
        return f"({ws()}{inner}{ws()})"

    def factor(d):
        base = atom(d)
        return base + (f"{ws()}^{ws()}{rng.randint(0, 3)}" if rng.random() < 0.25 else "")

    def term(d):
        return f"{ws()}*{ws()}".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        out = rng.choice(["", "", "-", "+"]) + ws() + term(d)
        for _ in range(rng.randint(0, 3 if d < 2 else 1)):
            out += f"{ws()}{rng.choice('+-')}{ws()}{term(d)}"
        return out

    return ws() + expr(depth) + ws()


def _outcome(parse, text: str, n: int):
    try:
        return parse(text, n)
    except ParseError as exc:
        return ("ParseError", exc.position, str(exc))


def test_parser_matches_its_oracle_on_random_texts():
    rng = random.Random(29)
    for _ in range(600):
        text = _random_text(rng)
        got = parse_polynomial(text, 3)
        expect = oracle_parse_polynomial(text, 3)
        assert got == expect, text
        assert polynomial_text(got) == polynomial_text(expect), text


def test_parser_errors_match_its_oracle_on_malformed_texts():
    rng = random.Random(31)
    alphabet = "y1s^()*+-/0 2"
    errors = 0
    for _ in range(1500):
        chars = list(_random_text(rng))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(chars) + 1)
            action = rng.choice(["insert", "delete", "replace"])
            if action == "insert" or not chars:
                chars.insert(k, rng.choice(alphabet))
            elif action == "delete":
                del chars[min(k, len(chars) - 1)]
            else:
                chars[min(k, len(chars) - 1)] = rng.choice(alphabet)
        text = "".join(chars)
        for n in (1, 3):
            got, expect = _outcome(parse_polynomial, text, n), _outcome(oracle_parse_polynomial, text, n)
            assert got == expect, (text, n)
            errors += isinstance(got, tuple)
    assert errors > 500  # most mutations are malformed


@pytest.mark.parametrize(
    "text",
    ["", "   ", "y0", "y4", "1/0", "s(y1", "s^(y1)", "y1 ^ ", "(y1))", "y1 y1", "3*/2", "s^2 y1"],
)
def test_malformed_texts_fail_where_the_oracle_fails(text):
    got = _outcome(parse_polynomial, text, 3)
    assert isinstance(got, tuple)
    assert got == _outcome(oracle_parse_polynomial, text, 3)


def test_zero_and_cancellation():
    for text in ("0", "y1 - y1", "0/5*y2", "s(y1 - y1)", "(y1 + 1)^2 - y1^2 - 2*y1 - 1"):
        assert parse_polynomial(text, 2).is_zero, text
        assert parse_polynomial(text, 2) == oracle_parse_polynomial(text, 2)


def test_coefficients_are_fractions():
    f = parse_polynomial("2*y1 + 3/3 - 1/2*y2", 2)
    assert all(type(c) is Fraction for c in f.terms.values())
    assert f == oracle_parse_polynomial("2*y1 + 3/3 - 1/2*y2", 2)
