"""Exact sequence-solution oracle over small prime fields.

Lists every assignment of the window {0..i} x {1..n} to F_p that satisfies
each applicable shifted equation exactly, growing the assignments one cell
at a time and discarding a partial one as soon as an equation whose cells
are all assigned fails on it.  This is a heuristic companion to the exact
combinatorics: projection counts of 1 on a coordinate set are necessary
evidence of freeness, not proof, because the free-set theory lives over
large algebraically closed fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .polynomials import DifferencePolynomial

DEFAULT_BUDGET = 10**7
_DECODE_BLOCK = 1 << 16


class BudgetExceededError(ValueError):
    """Enumeration would exceed the point budget."""


Cell = tuple[int, int]


@dataclass(frozen=True)
class TruncatedSolutionSet:
    """Exact solution set of the shift-truncated system over F_p.

    Points are tuples over the window cells sorted by (shift, index); the
    listing follows the enumeration odometer (last cell fastest)."""

    p: int
    i: int
    n: int
    cells: tuple[Cell, ...]
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def enumerate_truncated_solutions(
    F: Sequence[DifferencePolynomial],
    p: int,
    i: int,
    budget: int = DEFAULT_BUDGET,
) -> TruncatedSolutionSet:
    """All window assignments satisfying s^l(f) for every f in F and every
    l with l + ord(f) <= i, by enumeration over F_p.

    The budget counts all p^(n(i+1)) grid points, but the search grows the
    assignments cell by cell and drops a partial assignment as soon as an
    equation whose cells are all assigned fails on it.

    Coefficients must be integers (they are reduced mod p)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if i < 0:
        raise ValueError("window order must be >= 0")
    if not F:
        raise ValueError("empty system")
    n = F[0].num_vars
    cells = tuple((a, j) for a in range(i + 1) for j in range(1, n + 1))
    ncells = len(cells)
    total = p**ncells
    if total > budget:
        raise BudgetExceededError(
            f"p^(n(i+1)) = {total} exceeds the enumeration budget {budget}"
        )
    if total >= 2**63 or p >= 2**31:
        raise ValueError(
            f"F_{p} on {ncells} cells is outside the int64 range of the enumeration"
        )

    # Each shifted generator as (coefficient mod p, ((cell position,
    # exponent), ...)) terms, filed under the last cell it mentions (-1: no
    # variables).
    cell_pos = {c: k for k, c in enumerate(cells)}
    filed: list[list[list]] = [[] for _ in range(ncells + 1)]
    for f in F:
        if f.is_zero:
            continue
        o = f.order() or 0
        if o > i:
            continue
        for c in f.terms.values():
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c} in {f}")
        for ell in range(i - o + 1):
            terms = [
                (int(c) % p, tuple((cell_pos[(v.shift + ell, v.index)], e) for v, e in m.exps))
                for m, c in f.terms.items()
            ]
            terms = [(c, t) for c, t in terms if c]
            if terms:
                last = max((pos for _, t in terms for pos, _ in t), default=-1)
                filed[last + 1].append(terms)

    # Odometer codes of the live partial assignments of cells 0..k (cell 0
    # most significant), ascending.
    codes = np.zeros(1, dtype=np.int64)
    for k in range(-1, ncells):
        if not len(codes):
            break
        if k >= 0:
            codes = (codes[:, None] * p + np.arange(p, dtype=np.int64)).ravel()
        for terms in filed[k + 1]:
            acc = np.zeros(len(codes), dtype=np.int64)
            for c, t in terms:
                term = c
                for pos, e in t:
                    digit = codes // p ** (k - pos) % p
                    term = term * (digit if e == 1 else pow_mod(digit, e, p)) % p
                acc = (acc + term) % p
            codes = codes[acc == 0]

    if not ncells:  # n = 0: the one empty point, if no constant fails
        return TruncatedSolutionSet(p=p, i=i, n=n, cells=cells, points=((),) * len(codes))
    powers = p ** np.arange(ncells - 1, -1, -1, dtype=np.int64)
    points: list[tuple[int, ...]] = []
    for start in range(0, len(codes), _DECODE_BLOCK):
        digits = codes[start : start + _DECODE_BLOCK, None] // powers % p
        points.extend(zip(*digits.T.tolist()))
    return TruncatedSolutionSet(p=p, i=i, n=n, cells=cells, points=tuple(points))


def pow_mod(base: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            out = (out * b) % p
        b = (b * b) % p
        e >>= 1
    return out


def projection_count(sols: TruncatedSolutionSet, T: Iterable[Cell]) -> int:
    """Cardinality of the image of the solution set under projection to the
    set of cells T (a cell listed twice counts once)."""
    cells = sorted({(int(a), int(j)) for a, j in T})
    pos = []
    for c in cells:
        if c not in sols.cells:
            raise ValueError(f"cell {c} outside the window")
        pos.append(sols.cells.index(c))
    return len({tuple(pt[k] for k in pos) for pt in sols.points})


def empirical_free_check(
    F: Sequence[DifferencePolynomial],
    p: int,
    i: int,
    T: Iterable[Cell],
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """projection_count / p^|T|: equal to 1 is necessary evidence that T
    is free; below 1 over several primes is evidence against."""
    cells = sorted({(int(a), int(j)) for a, j in T})
    sols = enumerate_truncated_solutions(F, p, i, budget=budget)
    return Fraction(projection_count(sols, cells), p ** len(cells))
