"""Exact arithmetic for difference polynomials over the rationals.

A difference polynomial lives in the ring Q{y_1,...,y_n}, the ordinary
polynomial ring in the countably many variables s^i(y_j) (shift i >= 0,
variable index 1 <= j <= n).  The shift endomorphism acts by sending
s^i(y_j) to s^(i+1)(y_j) and fixing coefficients.

Representation:

  SigmaVariable          (shift, index) pair, e.g. (2, 1) is s^2(y1)
  SigmaMonomial          sorted tuple of ((shift, index), exponent) pairs
  DifferencePolynomial   map from monomials to nonzero Fraction coefficients

Coefficients are `fractions.Fraction`, so all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple


class SigmaVariable(NamedTuple):
    """The variable s^shift(y_index); ordered by (shift, index)."""

    shift: int
    index: int

    def shifted(self, ell: int) -> "SigmaVariable":
        return SigmaVariable(self.shift + ell, self.index)

    def __str__(self) -> str:
        if self.shift == 0:
            return f"y{self.index}"
        if self.shift == 1:
            return f"s(y{self.index})"
        return f"s^{self.shift}(y{self.index})"


class SigmaMonomial:
    """A monomial in the variables s^i(y_j), stored as a sorted tuple of
    ((shift, index), exponent) pairs with all exponents positive.  The empty
    tuple is the monomial 1."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Mapping[SigmaVariable, int] | Iterable[tuple] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = []
        for var, e in items:
            if e < 0:
                raise ValueError(f"negative exponent {e} for {var}")
            if e > 0:
                v = SigmaVariable(*var)
                if v.shift < 0 or v.index < 0:
                    raise ValueError(f"invalid variable {v}")
                cleaned.append((v, int(e)))
        cleaned.sort()
        self.exps: tuple[tuple[SigmaVariable, int], ...] = tuple(cleaned)
        self._hash = hash(self.exps)

    @staticmethod
    def variable(shift: int, index: int) -> "SigmaMonomial":
        return SigmaMonomial(((SigmaVariable(shift, index), 1),))

    @property
    def is_one(self) -> bool:
        return not self.exps

    def support(self) -> frozenset[SigmaVariable]:
        return frozenset(v for v, _ in self.exps)

    def squarefree_part(self) -> "SigmaMonomial":
        return SigmaMonomial((v, 1) for v, _ in self.exps)

    def order(self) -> int | None:
        """Largest shift appearing, or None for the constant monomial 1."""
        if not self.exps:
            return None
        return max(v.shift for v, _ in self.exps)

    def shifted(self, ell: int) -> "SigmaMonomial":
        if ell == 0:
            return self
        return SigmaMonomial((v.shifted(ell), e) for v, e in self.exps)

    def __mul__(self, other: "SigmaMonomial") -> "SigmaMonomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return SigmaMonomial(merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SigmaMonomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
            parts.append(str(v) if e == 1 else f"{v}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"SigmaMonomial({self})"


ONE = SigmaMonomial()


class DifferencePolynomial:
    """Finite Q-linear combination of sigma-monomials in n difference
    variables.  Immutable; the zero polynomial is the empty term map.

    `num_vars` pins the ambient ring so that the zero polynomial (and
    operations mixing polynomials) know where they live."""

    __slots__ = ("terms", "num_vars")

    def __init__(self, terms: Mapping[SigmaMonomial, Fraction | int], num_vars: int):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        cleaned: dict[SigmaMonomial, Fraction] = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            for v, _ in m.exps:
                if v.index > num_vars:
                    raise ValueError(
                        f"variable {v} outside ring with {num_vars} variables"
                    )
            cleaned[m] = c
        self.terms: dict[SigmaMonomial, Fraction] = cleaned
        self.num_vars = num_vars

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "DifferencePolynomial":
        return DifferencePolynomial({}, num_vars)

    @staticmethod
    def constant(c, num_vars: int) -> "DifferencePolynomial":
        return DifferencePolynomial({ONE: Fraction(c)}, num_vars)

    @staticmethod
    def variable(shift: int, index: int, num_vars: int) -> "DifferencePolynomial":
        return DifferencePolynomial({SigmaMonomial.variable(shift, index): Fraction(1)}, num_vars)

    @staticmethod
    def from_monomial(m: SigmaMonomial, num_vars: int) -> "DifferencePolynomial":
        return DifferencePolynomial({m: Fraction(1)}, num_vars)

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_one for m in self.terms)

    def is_monomial(self) -> bool:
        """True if the polynomial is c * m for a single monomial m != 1."""
        return len(self.terms) == 1 and not next(iter(self.terms)).is_one

    def order(self) -> int | None:
        """Maximal shift appearing, or None for constants (incl. zero)."""
        orders = [m.order() for m in self.terms if not m.is_one]
        orders = [o for o in orders if o is not None]
        return max(orders) if orders else None

    def support_vars(self) -> frozenset[SigmaVariable]:
        out: set[SigmaVariable] = set()
        for m in self.terms:
            out |= m.support()
        return frozenset(out)

    def monomials(self) -> list[SigmaMonomial]:
        return list(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "DifferencePolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"mixed rings: {self.num_vars} vs {other.num_vars} variables"
            )

    def __add__(self, other: "DifferencePolynomial") -> "DifferencePolynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return DifferencePolynomial(out, self.num_vars)

    def __sub__(self, other: "DifferencePolynomial") -> "DifferencePolynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return DifferencePolynomial(out, self.num_vars)

    def __neg__(self) -> "DifferencePolynomial":
        return DifferencePolynomial({m: -c for m, c in self.terms.items()}, self.num_vars)

    def __mul__(self, other: "DifferencePolynomial") -> "DifferencePolynomial":
        self._check_ring(other)
        out: dict[SigmaMonomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return DifferencePolynomial(out, self.num_vars)

    def __pow__(self, k: int) -> "DifferencePolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = DifferencePolynomial.constant(1, self.num_vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c) -> "DifferencePolynomial":
        c = Fraction(c)
        return DifferencePolynomial({m: c * cc for m, cc in self.terms.items()}, self.num_vars)

    def shifted(self, ell: int) -> "DifferencePolynomial":
        """Apply the shift endomorphism ell >= 0 times: s^i(y_j) becomes
        s^(i+ell)(y_j); coefficients are fixed (identity base sigma)."""
        if ell < 0:
            raise ValueError("shift must be non-negative")
        if ell == 0:
            return self
        return DifferencePolynomial(
            {m.shifted(ell): c for m, c in self.terms.items()}, self.num_vars
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DifferencePolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        from .parsing import polynomial_text

        return polynomial_text(self)

    def __repr__(self) -> str:
        return f"DifferencePolynomial({self})"
