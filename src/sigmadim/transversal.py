"""Exact minimum hitting set by branch and bound on int bitmasks.

A hitting set instance is a collection of constraints, each a non-empty
set of elements; a hitting set touches every constraint.  The kernel
(`minimum_hitting_mask`) takes every constraint as one int whose set bits
are its elements, so a hitting set is a mask too and every step is a few
int operations.  The Groebner ladder hands it the supports of packed
leading monomials as masks of guard bits (`groebner.prefix_dimension`);
`minimum_hitting_set` maps hashable elements to bits in sorted order.

Instances are small (tens of elements) but the generic problem is
NP-hard, so plain 2^elements enumeration would cap the usable size, hence
branch and bound with

  * superset (dominance) elimination: a constraint c with k & c == k for
    a kept k is dropped,
  * unit-constraint propagation: single-bit constraints are forced,
  * a greedy upper bound: the bit hitting most constraints, repeatedly,
  * a disjoint-constraint packing lower bound: a greedy run of
    constraints with no bit in common.

Constraints are ordered by (popcount, value) and bits are tried lowest
first, so results depend only on the set of constraints.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional


def _bits(mask: int) -> Iterator[int]:
    """The single-bit masks of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _normalize(masks: Iterable[int]) -> Optional[list[int]]:
    """Dedupe and drop dominated (superset) constraints, ordered by
    (popcount, value).  None if some constraint is empty (no hitting set
    exists)."""
    pool = sorted(set(masks), key=lambda s: (s.bit_count(), s))
    if pool and not pool[0]:
        return None
    kept: list[int] = []
    for s in pool:
        for k in kept:
            if k & s == k:
                break
        else:
            kept.append(s)
    return kept


def _propagate(remaining: list[int], chosen: int) -> tuple[list[int], int]:
    """Unit propagation: add the single-bit constraints to chosen and drop
    the constraints they hit, until none is left."""
    while True:
        forced = 0
        for s in remaining:
            if not s & (s - 1):
                forced |= s
        if not forced:
            return remaining, chosen
        chosen |= forced
        remaining = [s for s in remaining if not s & forced]


def _greedy_cover(constraints: list[int]) -> int:
    """Upper bound: repeatedly pick the bit hitting most constraints, the
    lowest among ties."""
    chosen = 0
    remaining = constraints
    while remaining:
        union = 0
        for s in remaining:
            union |= s
        best, hits = 0, 0
        for b in _bits(union):
            count = 0
            for s in remaining:
                if s & b:
                    count += 1
            if count > hits:
                best, hits = b, count
        chosen |= best
        remaining = [s for s in remaining if not s & best]
    return chosen


def _packing_bound(constraints: list[int]) -> int:
    """Lower bound: size of a greedy pairwise-disjoint subfamily, taken in
    the given order."""
    used = 0
    count = 0
    for s in constraints:
        if not s & used:
            count += 1
            used |= s
    return count


def minimum_hitting_mask(masks: Iterable[int]) -> Optional[int]:
    """An optimal hitting set of the constraints given as bitmasks, as a
    bitmask; None if some constraint is 0 (empty).  No constraints give 0."""
    constraints = _normalize(masks)  # filtering below keeps this order
    if constraints is None:
        return None
    remaining, chosen = _propagate(constraints, 0)
    best = chosen | _greedy_cover(remaining)
    best_size = best.bit_count()

    def search(remaining: list[int], chosen: int) -> None:
        nonlocal best, best_size
        remaining, chosen = _propagate(remaining, chosen)
        size = chosen.bit_count()
        if not remaining:
            if size < best_size:
                best, best_size = chosen, size
            return
        if size + _packing_bound(remaining) >= best_size:
            return
        for b in _bits(remaining[0]):  # a smallest constraint
            search([s for s in remaining if not s & b], chosen | b)

    search(remaining, chosen)
    return best


def minimum_hitting_set(sets: Iterable[Iterable[Hashable]]) -> Optional[frozenset]:
    """An optimal hitting set of the given constraints, or None if some
    constraint is empty.  The empty collection has hitting set frozenset().
    Elements must be mutually comparable: they take bits in sorted order."""
    sets = [frozenset(s) for s in sets]
    universe = sorted(frozenset().union(*sets))
    bit = {x: 1 << k for k, x in enumerate(universe)}
    chosen = minimum_hitting_mask(sum(bit[x] for x in s) for s in sets)
    if chosen is None:
        return None
    return frozenset(x for x in universe if chosen & bit[x])


def minimum_hitting_set_size(sets: Iterable[Iterable[Hashable]]) -> Optional[int]:
    """Size of an optimal hitting set, or None if infeasible."""
    hs = minimum_hitting_set(sets)
    return None if hs is None else len(hs)
