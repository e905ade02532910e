"""Text formats: difference polynomials, support sets, families.

Polynomial grammar (usual precedence, '^' binds tightest):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' nat]
    atom     := rational | 'y' nat | 's' ['^' nat] '(' expr ')' | '(' expr ')'
    rational := nat ['/' nat]

Examples: ``y1*s(y1) - 1``, ``s^2(y3)^5``, ``1/2*y1^2 - y2``.

Family text format: one member per line, e.g. ``{(0,1),(1,1)}``; the JSON
mirror is ``{"n": ..., "members": [[[shift, index], ...], ...]}``.
"""

from __future__ import annotations

from fractions import Fraction
from .families import SigmaFamily
from .polynomials import DifferencePolynomial, SigmaMonomial, SigmaVariable


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# While parsing, a polynomial is a dict from exponent tuples to nonzero int
# or Fraction coefficients; an exponent tuple is the sorted tuple of
# (SigmaVariable, exponent > 0) pairs that a SigmaMonomial holds, () for 1.
_Terms = dict


def _add(a: _Terms, b: _Terms, sign: int) -> _Terms:
    """a + sign * b."""
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _monomial_product(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mul(a: _Terms, b: _Terms) -> _Terms:
    out: _Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _monomial_product(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _pow(base: _Terms, k: int) -> _Terms:
    out: _Terms = {(): 1}
    while k:
        if k & 1:
            out = _mul(out, base)
        k >>= 1
        if k:
            base = _mul(base, base)
    return out


def _shift(a: _Terms, ell: int) -> _Terms:
    """s^ell applied to every variable: the order of a tuple is kept."""
    if ell == 0:
        return a
    return {tuple((v.shifted(ell), e) for v, e in m): c for m, c in a.items()}


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.pos = 0
        self.num_vars = num_vars

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def expr(self) -> _Terms:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        out = self.term()
        if sign < 0:
            out = {m: -c for m, c in out.items()}
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            out = _add(out, self.term(), 1 if op == "+" else -1)
        return out

    def term(self) -> _Terms:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = _mul(out, self.factor())
        return out

    def factor(self) -> _Terms:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return _pow(base, self.nat())
        return base

    def atom(self) -> _Terms:
        ch = self.peek()
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator")
                c = Fraction(num, den)
            else:
                c = num
            return {(): c} if c else {}
        if ch == "y":
            self.pos += 1
            index = self.nat()
            if index < 1 or index > self.num_vars:
                raise self.error(f"variable index {index} outside 1..{self.num_vars}")
            return {((SigmaVariable(0, index), 1),): 1}
        if ch == "s":
            self.pos += 1
            power = 1
            if self.peek() == "^":
                self.pos += 1
                power = self.nat()
            self.take("(")
            inner = self.expr()
            self.take(")")
            return _shift(inner, power)
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        raise self.error("expected a literal, variable, shift, or '('")


def parse_polynomial(text: str, num_vars: int) -> DifferencePolynomial:
    """Parse the grammar above into an exact difference polynomial: one
    term dict, made into one (validated) DifferencePolynomial at the end."""
    parser = _Parser(text, num_vars)
    terms = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return DifferencePolynomial({SigmaMonomial._make(m): c for m, c in terms.items()}, num_vars)


def polynomial_text(f: DifferencePolynomial) -> str:
    """Deterministic text form: terms in descending lex order."""
    from .groebner import LEX

    if f.is_zero:
        return "0"
    chunks: list[str] = []
    for m, c in LEX.sorted_terms(f):
        if m.is_one:
            body = str(abs(c))
        elif abs(c) == 1:
            body = str(m)
        else:
            body = f"{abs(c)}*{m}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def parse_cells(text: str) -> list[tuple[int, int]]:
    """Parse ``{(0,1),(1,2)}`` or ``(0,1),(1,2)`` into a cell list."""
    stripped = text.strip()
    if stripped.startswith("{") and stripped.endswith("}"):
        stripped = stripped[1:-1]
    if not stripped.strip():
        return []
    cells = []
    rest = stripped
    while rest.strip():
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
        if not rest.startswith("("):
            raise ParseError("expected '('", len(text) - len(rest))
        close = rest.find(")")
        if close < 0:
            raise ParseError("unterminated cell", len(text) - len(rest))
        body = rest[1:close]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise ParseError(f"malformed cell ({body})", len(text) - len(rest))
        cells.append((int(parts[0]), int(parts[1])))
        rest = rest[close + 1 :]
    return cells


def parse_family_text(text: str, n: int | None = None) -> SigmaFamily:
    """One member per line; n defaults to the largest index seen."""
    members = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        members.append(parse_cells(line))
    if not members and n is None:
        raise ParseError("empty family and no variable count given", 0)
    if n is None:
        n = max(j for cells in members for _, j in cells)
    return SigmaFamily(n, members)


def family_text(family: SigmaFamily) -> str:
    return "\n".join(map(repr, family.members))


def family_to_json(family: SigmaFamily) -> dict:
    return {
        "n": family.n,
        "members": [[list(c) for c in s.sorted_cells()] for s in family.members],
    }


def family_from_json(data: dict) -> SigmaFamily:
    return SigmaFamily(int(data["n"]), [[tuple(c) for c in member] for member in data["members"]])
