"""Covering density of a finite integer set.

For finite E containing 0, tau(E, i) is the least number of translates of
E covering {1..i}, and the covering density c(E) = lim tau(E, i)/i.  Both
are computed exactly.  tau is a window transversal number: a translate
at position p covers y iff p lies in y - E, a shift of -E, so tau(E, i)
is the window number of the one-member family {-E} at order
i + span - 1, read off the min-plus pass of its automaton
(`families.iter_window_taus`; span + 1 state bits, capped at
STATE_BIT_CAP).
c is the minimum mean cycle of the same automaton, which `meancycle`
finds by policy iteration and certifies with a witness cycle and an
integer potential; `cover` and the density cap the span at
STATE_BIT_CAP instead.

On {-E} the obligation state (`families.obligation_automaton`) is the
span-bit mask of the next span positions already covered by the
translates placed so far: scanning one position either skips it, allowed
only if it is covered, or places a translate there (weight and label 1),
and the states are numbered by increasing mask.  Infinite feasible walks
are exactly the complements covering a ray, so periodic complements
correspond to cycles and the optimal density to the minimum cycle mean.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .families import (
    STATE_BIT_CAP,
    CapExceededError,
    SigmaFamily,
    obligation_automaton,
    tau_family,
    window_taus,
)
from .meancycle import CertificateError, extract_min_mean_cycle, minimum_cycle_mean


class IntSet:
    """Non-empty finite set of integers, normalized to min = 0.

    The applied translation is recorded; covering quantities are
    translation invariant."""

    __slots__ = ("elements", "translation")

    def __init__(self, elements: Iterable[int]):
        raw = sorted({int(x) for x in elements})
        if not raw:
            raise ValueError("IntSet must be non-empty")
        self.translation = raw[0]
        self.elements: tuple[int, ...] = tuple(x - raw[0] for x in raw)

    @property
    def span(self) -> int:
        return self.elements[-1]

    def mask(self) -> int:
        return sum(1 << e for e in self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


def reflect(e: IntSet) -> IntSet:
    """-E, renormalized to min 0."""
    return IntSet(-x for x in e.elements)


class PeriodicComplement:
    """Translate positions `offsets` repeated with period `period`;
    E + (offsets + period*Z) covers all of Z."""

    __slots__ = ("period", "offsets")

    def __init__(self, period: int, offsets: Iterable[int]):
        if period < 1:
            raise ValueError("period must be positive")
        self.period = period
        self.offsets: tuple[int, ...] = tuple(sorted({int(o) % period for o in offsets}))

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.offsets), self.period)

    def covers(self, e: IntSet) -> bool:
        """Exact check that E + (offsets + period*Z) = Z, one period."""
        hit = set()
        for o in self.offsets:
            for x in e.elements:
                hit.add((o + x) % self.period)
        return len(hit) == self.period

    def __repr__(self) -> str:
        return f"PeriodicComplement(period={self.period}, offsets={self.offsets})"


def tau_interval(e: IntSet, i: int) -> int:
    """Least number of translates of E covering {1..i}.

    A set P of translate positions covers y iff it meets y - E, a shift
    of -E.  Positions range over [1 - span, i]; moved span - 1 columns
    right they fill the window {0..i + span - 1}, which holds exactly the
    shifts y - E for y = 1..i, so tau is the window transversal number of
    the one-member family {-E} at that order."""
    if i < 1:
        raise ValueError("interval length must be >= 1")
    return tau_family(_translates(e), i + e.span - 1)


def _translates(e: IntSet) -> SigmaFamily:
    """The one-member family {-E} in one variable; its window picks are
    translate positions of E.  Its automaton has span + 1 state bits
    under the family cap, so tau at spans from STATE_BIT_CAP on raises
    CapExceededError."""
    return SigmaFamily(1, [[(x, 1) for x in reflect(e).elements]])


def _coverage(e: IntSet) -> SigmaFamily:
    """{-E} under the cap of `cover` and the covering density, span at
    most STATE_BIT_CAP; CapExceededError beyond."""
    if e.span > STATE_BIT_CAP:
        raise CapExceededError(
            f"coverage automaton needs {e.span} state bits (span), cap is {STATE_BIT_CAP}"
        )
    return _translates(e)


def covering_density(e: IntSet, check: bool = False) -> Fraction:
    """Exact covering density c(E) as a minimum cycle mean.

    With check=True the value is bracketed against tau(E, i)/i for a few
    window sizes: the finite ratios approach c from within
    (span + 1)/i."""
    family = _coverage(e)
    c = minimum_cycle_mean(obligation_automaton(family))
    if check:
        span = e.span
        orders = (4 * (span + 1), 16 * (span + 1))
        taus = window_taus(family, orders[-1] + span - 1)
        for i in orders:
            ratio = Fraction(taus[i + span - 1], i)
            if abs(ratio - c) > Fraction(span + 1, i):
                raise CertificateError(
                    f"{e}: tau_{i}/{i} = {ratio} is farther than {span + 1}/{i} from {c}"
                )
    return c


def optimal_complement(e: IntSet) -> PeriodicComplement:
    """A periodic complement achieving density exactly c(E), unrolled from
    a minimum-mean cycle of the coverage automaton.  Its density is checked
    to equal that cycle mean, so `comp.density` is c(E)."""
    mean, labels = extract_min_mean_cycle(obligation_automaton(_coverage(e)))
    period = len(labels)
    offsets = [t for t, placed in enumerate(labels) if placed]
    comp = PeriodicComplement(period, offsets)
    if comp.density != mean:
        raise CertificateError(f"{comp} has density {comp.density}, cycle mean is {mean}")
    if not comp.covers(e):
        raise CertificateError(f"{comp} does not cover Z with translates of {e}")
    return comp
