"""Covering density of a finite integer set.

For finite E containing 0, tau(E, i) is the least number of translates of
E covering {1..i}, and the covering density c(E) = lim tau(E, i)/i.  Both
are computed exactly: tau by a forward DP over coverage bitmasks, c as the
minimum mean cycle of the coverage-state automaton.

The automaton state is a (span)-bit mask recording which of the next span
positions are already covered by translates placed so far.  Scanning one
position decides whether to place a translate there (weight 1) or not
(weight 0); the edge exists only if the position scanned ends up covered.
Infinite feasible walks are exactly the complements covering a ray, so
periodic complements correspond to cycles and the optimal density to the
minimum cycle mean.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .meancycle import INF, CertificateError, Graph, extract_min_mean_cycle, minimum_cycle_mean


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

    Translate positions range over [1 - span, i]; positions outside {1..i}
    carry no coverage requirement."""
    if i < 1:
        raise ValueError("interval length must be >= 1")
    span = e.span
    if span == 0:
        return i  # one point per position
    nstates = 1 << span
    states = np.arange(nstates, dtype=np.int64)
    maskE = e.mask()
    # skip transition: possible only if bit 0 already covered
    skip_ok = (states & 1).astype(bool)
    skip_to = states >> 1
    # place transition: bit 0 covered because 0 is in E
    place_to = (states | maskE) >> 1
    dp = np.full(nstates, INF, dtype=np.int64)
    dp[0] = 0
    for p in range(1 - span, i + 1):
        need_cover = p >= 1
        nxt = np.full(nstates, INF, dtype=np.int64)
        if need_cover:
            ok = skip_ok & (dp < INF)
        else:
            ok = dp < INF
        np.minimum.at(nxt, skip_to[ok], dp[ok])
        ok = dp < INF
        np.minimum.at(nxt, place_to[ok], dp[ok] + 1)
        dp = nxt
    return int(dp.min())


def coverage_graph(e: IntSet) -> Graph:
    """The coverage-state automaton; edge labels are 0/1 placement bits."""
    span = e.span
    maskE = e.mask()
    if span == 0:
        g = Graph(1)
        g.add_edge(0, 0, 1, 1)  # must place at every position
        return g
    g = Graph(1 << span)
    for s in range(1 << span):
        if s & 1:
            g.add_edge(s, s >> 1, 0, 0)
        m = s | maskE
        g.add_edge(s, m >> 1, 1, 1)
    return g


def covering_density(e: IntSet, check: bool = False) -> Fraction:
    """Exact covering density c(E) as a minimum cycle mean.

    With check=True the value is bracketed against tau(E, i)/i for a few
    window sizes: the finite ratios approach c from within
    (span + 1)/i."""
    c = minimum_cycle_mean(coverage_graph(e), source=0)
    if check:
        span = e.span
        for i in (4 * (span + 1), 16 * (span + 1)):
            ratio = Fraction(tau_interval(e, i), i)
            if abs(ratio - c) > Fraction(span + 1, i):
                raise CertificateError(
                    f"{e}: tau_{i}/{i} = {ratio} is farther than {span + 1}/{i} from {c}"
                )
    return c


def optimal_complement(e: IntSet) -> PeriodicComplement:
    """A periodic complement achieving density exactly c(E), unrolled from
    a minimum-mean cycle of the coverage automaton.  Its density is checked
    to equal that cycle mean, so `comp.density` is c(E)."""
    mean, labels = extract_min_mean_cycle(coverage_graph(e), source=0)
    period = len(labels)
    offsets = [t for t, placed in enumerate(labels) if placed]
    comp = PeriodicComplement(period, offsets)
    if comp.density != mean:
        raise CertificateError(f"{comp} has density {comp.density}, cycle mean is {mean}")
    if not comp.covers(e):
        raise CertificateError(f"{comp} does not cover Z with translates of {e}")
    return comp
