"""Covering density of a finite integer set.

For finite E containing 0, tau(E, i) is the least number of translates of
E covering {1..i}, and the covering density c(E) = lim tau(E, i)/i.  Both
are computed exactly.  tau is a window transversal number: a translate
at position p covers y iff p lies in y - E, a shift of -E, so tau(E, i)
is the window number of the one-member family {-E} at order
i + span - 1, read off the min-plus pass of the family pick automaton
(`families.iter_window_taus`; span + 1 state bits, capped at
STATE_BIT_CAP).
c is the minimum mean cycle of the coverage-state automaton, which
`meancycle` finds by policy iteration and certifies with a witness cycle
and an integer potential.

The automaton state is a (span)-bit mask recording which of the next span
positions are already covered by translates placed so far.  Scanning one
position decides whether to place a translate there (weight 1) or not
(weight 0); the edge exists only if the position scanned ends up covered.
Only the states reachable from state 0 are built, by a rule rather than a
search (`coverage_graph`), with the edges as numpy arrays, two candidate
steps per state, for spans up to STATE_BIT_CAP.
Infinite feasible walks are exactly the complements covering a ray, so
periodic complements correspond to cycles and the optimal density to the
minimum cycle mean.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .families import STATE_BIT_CAP, CapExceededError, SigmaFamily, tau_family, window_taus
from .meancycle import CertificateError, Graph, extract_min_mean_cycle, minimum_cycle_mean


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
    translate positions of E.  Its pick automaton has span + 1 state
    bits, so spans from STATE_BIT_CAP on raise CapExceededError."""
    return SigmaFamily(1, [[(x, 1) for x in reflect(e).elements]])


def coverage_graph(e: IntSet) -> Graph:
    """The coverage-state automaton on the states reachable from state 0,
    numbered in increasing mask order; edge labels are 0/1 placement bits.

    The reachable states are exactly the masks OR_{k in P} (mask(E) >> k)
    for P a subset of {1..span}: the state after a walk from state 0 is
    fixed by its last span decisions (all of them on a shorter walk), a
    placement k steps back contributing mask(E) >> k.  Conversely every pattern P is reachable: placing at
    span positions in a row leads from state 0 to the full state (span
    is in E), and from the full state any span decisions are allowed,
    since each scanned position is already covered.  The graph meets the
    solver's contract: every state is reachable from state 0, and placing
    is always allowed."""
    span, mask = e.span, e.mask()
    if span > STATE_BIT_CAP:
        raise CapExceededError(
            f"coverage automaton needs {span} state bits (span), cap is {STATE_BIT_CAP}"
        )
    reached = np.zeros(1 << span, dtype=bool)
    reached[0] = True
    for k in range(1, span + 1):
        reached[np.flatnonzero(reached) | (mask >> k)] = True
    states = np.flatnonzero(reached)
    # per state: skip (allowed only if bit 0 is covered), then place
    src = np.repeat(np.arange(len(states)), 2)
    dst = np.stack((states >> 1, (states | mask) >> 1), axis=1).ravel()
    placed = np.tile(np.array([0, 1], dtype=np.int64), len(states))
    ok = (placed == 1) | np.repeat(states & 1 == 1, 2)
    return Graph(len(states), src[ok], np.searchsorted(states, dst[ok]), placed[ok], placed[ok])


def covering_density(e: IntSet, check: bool = False) -> Fraction:
    """Exact covering density c(E) as a minimum cycle mean.

    With check=True the value is bracketed against tau(E, i)/i for a few
    window sizes: the finite ratios approach c from within
    (span + 1)/i."""
    c = minimum_cycle_mean(coverage_graph(e))
    if check:
        span = e.span
        orders = (4 * (span + 1), 16 * (span + 1))
        taus = window_taus(_translates(e), orders[-1] + span - 1)
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
    mean, labels = extract_min_mean_cycle(coverage_graph(e))
    period = len(labels)
    offsets = [t for t, placed in enumerate(labels) if placed]
    comp = PeriodicComplement(period, offsets)
    if comp.density != mean:
        raise CertificateError(f"{comp} has density {comp.density}, cycle mean is {mean}")
    if not comp.covers(e):
        raise CertificateError(f"{comp} does not cover Z with translates of {e}")
    return comp
