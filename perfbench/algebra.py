"""A small polynomial model of the benchmark's own, used to render the
generated inputs and to check the program's printed outputs.

It shares no code with ``sigmadim``, so a defect in the program cannot hide
the same defect in its check.  A polynomial is a tuple of terms
``(coefficient, monomial)``; a monomial is a sorted tuple of
``((shift, index), exponent)`` pairs, so ``((1, 2), 1)`` is ``s(y2)``.
Text follows the program's grammar restricted to expanded sums of terms:
``3*s(y1)*y2 - y1^2 + 1/2``.
"""

from __future__ import annotations

import re
from fractions import Fraction

_COEFF = re.compile(r"(\d+)(?:/(\d+))?")
_FACTOR = re.compile(r"(?:s(?:\^(\d+))?\(y(\d+)\)|y(\d+))(?:\^(\d+))?")


def var_text(shift: int, index: int) -> str:
    if shift == 0:
        return f"y{index}"
    if shift == 1:
        return f"s(y{index})"
    return f"s^{shift}(y{index})"


def monomial(*factors) -> tuple:
    """Monomial from ``(shift, index)`` cells or ``((shift, index), exp)`` pairs."""
    exps: dict = {}
    for f in factors:
        cell, e = (f, 1) if isinstance(f[0], int) else f
        exps[cell] = exps.get(cell, 0) + e
    return tuple(sorted(exps.items()))


def render(poly) -> str:
    chunks = []
    for c, m in poly:
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        body = "*".join(var_text(*cell) + (f"^{e}" if e > 1 else "") for cell, e in m)
        coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if not body:
            body = coeff
        elif mag != 1:
            body = f"{coeff}*{body}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def parse(text: str):
    """Parse an expanded polynomial as printed by the program."""
    text = text.strip()
    if text == "0":
        return ()
    terms = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(1)
        factors = []
        for part in chunk.split("*"):
            num = _COEFF.fullmatch(part)
            if num:
                coeff *= Fraction(int(num.group(1)), int(num.group(2) or 1))
                continue
            var = _FACTOR.fullmatch(part)
            if not var:
                raise ValueError(f"cannot read factor {part!r} in {text!r}")
            shift_pow, sidx, plain, exp = var.groups()
            if plain:
                cell = (0, int(plain))
            else:
                cell = (int(shift_pow or 1), int(sidx))
            factors.append((cell, int(exp or 1)))
        terms.append((sign * coeff, monomial(*factors)))
    return tuple(terms)


def shifted(poly, ell: int):
    return tuple((c, tuple(((a + ell, j), e) for (a, j), e in m)) for c, m in poly)


def cells(poly) -> set:
    return {cell for _, m in poly for cell, _ in m}


def order(poly) -> int:
    return max((a for a, _ in cells(poly)), default=0)


def evaluate(poly, value_of, modulus: int | None = None):
    """Value at the point ``value_of(cell)``, exact or reduced mod ``modulus``."""
    total = 0
    for c, m in poly:
        term = Fraction(c)
        for cell, e in m:
            term *= Fraction(value_of(cell)) ** e
        total += term
    if modulus is None:
        return total
    total = Fraction(total)
    return total.numerator * pow(total.denominator, -1, modulus) % modulus
