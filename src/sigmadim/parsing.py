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
from .polynomials import DifferencePolynomial


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def expr(self) -> DifferencePolynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        out = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> DifferencePolynomial:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = out * self.factor()
        return out

    def factor(self) -> DifferencePolynomial:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.nat()
        return base

    def atom(self) -> DifferencePolynomial:
        ch = self.peek()
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator")
                return DifferencePolynomial.constant(Fraction(num, den), self.num_vars)
            return DifferencePolynomial.constant(num, self.num_vars)
        if ch == "y":
            self.pos += 1
            index = self.nat()
            if index < 1 or index > self.num_vars:
                raise self.error(f"variable index {index} outside 1..{self.num_vars}")
            return DifferencePolynomial.variable(0, index, self.num_vars)
        if ch == "s":
            self.pos += 1
            power = 1
            if self.peek() == "^":
                self.pos += 1
                power = self.nat()
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner.shifted(power)
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        raise self.error("expected a literal, variable, shift, or '('")


def parse_polynomial(text: str, num_vars: int) -> DifferencePolynomial:
    """Parse the grammar above into an exact difference polynomial."""
    parser = _Parser(text, num_vars)
    out = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return out


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
