"""Shared helpers: tiny builders and independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: hitting sets
by subset enumeration, interval transversals by combinations over
placements, free subsets by window enumeration, minimum cycle means by
Karp's dynamic program (the algorithm the library used before policy
iteration).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from sigmadim import DifferencePolynomial, SigmaMonomial, parse_polynomial


def poly(text: str, n: int) -> DifferencePolynomial:
    return parse_polynomial(text, n)


def mono(text: str, n: int) -> SigmaMonomial:
    p = parse_polynomial(text, n)
    (m,) = p.monomials()
    return m


def brute_min_hitting_set_size(sets) -> int | None:
    """Exhaustive minimum hitting set size (None if infeasible)."""
    sets = [frozenset(s) for s in sets]
    if any(not s for s in sets):
        return None
    universe = sorted(set(chain.from_iterable(sets)))
    for k in range(len(universe) + 1):
        for combo in combinations(universe, k):
            chosen = set(combo)
            if all(s & chosen for s in sets):
                return k
    raise AssertionError("unreachable")


def brute_tau_interval(elements, i: int) -> int:
    """Exhaustive minimum number of translates of E covering {1..i}."""
    E = sorted(elements)
    span = E[-1] - E[0]
    positions = list(range(1 - span, i + 1))
    target = set(range(1, i + 1))
    for k in range(len(positions) + 1):
        for combo in combinations(positions, k):
            cover = set()
            for t in combo:
                cover.update(t + e - E[0] for e in E)
            if target <= cover:
                return k
    raise AssertionError("unreachable")


def brute_max_free_size(family, i: int) -> int:
    """Exhaustive maximum free subset size of the order-i window."""
    cells = [(a, j) for a in range(i + 1) for j in range(1, family.n + 1)]
    masks = []
    for s in family.members:
        for ell in range(i - s.ord + 1):
            shifted = s.shifted(ell)
            mask = 0
            for c in shifted:
                mask |= 1 << cells.index(c)
            masks.append(mask)
    best = 0
    for pick in range(1 << len(cells)):
        if any(mask & ~pick == 0 for mask in masks):
            continue
        best = max(best, bin(pick).count("1"))
    return best


def karp_min_mean(g, source: int = 0) -> Fraction:
    """Minimum mean over the cycles reachable from source, by Karp's
    dynamic program: mu = min_v max_k (D_n(v) - D_k(v)) / (n - k), where
    D_k(v) is the least weight of a walk of exactly k edges from source
    to v.  Two passes keep memory at O(V): D_n first, then the k-layers
    streamed again.  Raises ValueError if no cycle is reachable."""
    src = [int(u) for u in g.src]
    dst = [int(v) for v in g.dst]
    adj: dict[int, list[int]] = {}
    for u, v in zip(src, dst):
        adj.setdefault(u, []).append(v)
    reach = {source}
    stack = [source]
    while stack:
        for v in adj.get(stack.pop(), ()):
            if v not in reach:
                reach.add(v)
                stack.append(v)
    index = {old: new for new, old in enumerate(sorted(reach))}
    keep = [k for k, u in enumerate(src) if u in reach]
    n = len(index)
    s = np.array([index[src[k]] for k in keep], dtype=np.int64)
    d = np.array([index[dst[k]] for k in keep], dtype=np.int64)
    w = np.array([int(g.weight[k]) for k in keep], dtype=np.int64)
    inf = 1 << 60
    start = np.full(n, inf, dtype=np.int64)
    start[index[source]] = 0

    def step(layer):
        nxt = np.full(n, inf, dtype=np.int64)
        ok = layer[s] < inf
        np.minimum.at(nxt, d[ok], layer[s[ok]] + w[ok])
        return nxt

    d_n = start
    for _ in range(n):
        d_n = step(d_n)
    layer = start
    best_num = np.zeros(n, dtype=np.int64)
    best_den = np.ones(n, dtype=np.int64)
    have = np.zeros(n, dtype=bool)
    for k in range(n):
        finite = (layer < inf) & (d_n < inf)
        num = d_n - layer
        better = finite & (~have | (num * best_den > best_num * (n - k)))
        best_num[better] = num[better]
        best_den[better] = n - k
        have |= finite
        layer = step(layer)
    if not have.any():
        raise ValueError("no cycle reachable from source")
    return min(Fraction(int(best_num[v]), int(best_den[v])) for v in range(n) if have[v])
