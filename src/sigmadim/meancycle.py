"""Exact minimum mean cycle of a small directed graph (Karp's DP).

Weights are non-negative integers and all arithmetic stays in integers
until the final Fraction, so results are exact.  Works on the subgraph
reachable from a given source; the callers' graphs are built so that the
global minimum cycle mean is realized inside that subgraph.

The cycle witness is recovered by reweighting edges with the known optimal
mean p/q (w' = q*w - p), computing shortest-path potentials and extracting
a cycle from the tight subgraph: a cycle is tight iff its reweighted
length is zero iff its mean is optimal.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

INF = 1 << 60


class CertificateError(RuntimeError):
    """Raised when a computed result fails the exact check that certifies
    it (a witness cycle, periodic pattern or bracket that does not hold).
    The checks are explicit code, so they also run under ``python -O``."""


class Graph:
    """Directed multigraph with integer edge weights and payload labels."""

    def __init__(self, num_states: int):
        self.num_states = num_states
        self.src: list[int] = []
        self.dst: list[int] = []
        self.weight: list[int] = []
        self.label: list[object] = []

    def add_edge(self, u: int, v: int, w: int, label: object = None) -> None:
        self.src.append(u)
        self.dst.append(v)
        self.weight.append(w)
        self.label.append(label)

    def restrict_reachable(self, source: int) -> tuple["Graph", int]:
        """Subgraph induced by the states reachable from source, states
        renumbered; returns (subgraph, new index of source)."""
        adj: dict[int, list[int]] = {}
        for k, u in enumerate(self.src):
            adj.setdefault(u, []).append(self.dst[k])
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        remap = {old: new for new, old in enumerate(sorted(seen))}
        sub = Graph(len(remap))
        for k in range(len(self.src)):
            u, v = self.src[k], self.dst[k]
            if u in remap and v in remap:
                sub.add_edge(remap[u], remap[v], self.weight[k], self.label[k])
        return sub, remap[source]


def _arrays(g: Graph):
    return (
        np.asarray(g.src, dtype=np.int64),
        np.asarray(g.dst, dtype=np.int64),
        np.asarray(g.weight, dtype=np.int64),
    )


def _final_layer(g: Graph, source: int, layers: int) -> np.ndarray:
    """D_layers(v): min weight of a walk of exactly `layers` edges."""
    src, dst, wgt = _arrays(g)
    d = np.full(g.num_states, INF, dtype=np.int64)
    d[source] = 0
    for _ in range(layers):
        nxt = np.full(g.num_states, INF, dtype=np.int64)
        ok = d[src] < INF
        np.minimum.at(nxt, dst[ok], d[src[ok]] + wgt[ok])
        d = nxt
    return d


def minimum_cycle_mean(g: Graph, source: int = 0) -> Fraction:
    """Exact minimum mean weight over directed cycles reachable from source.

    Karp: mu = min_v max_k (D_n(v) - D_k(v)) / (n - k).  Two passes keep
    memory at O(V): D_n first, then the k-layers streamed again."""
    sub, s = g.restrict_reachable(source)
    n = sub.num_states
    if not sub.src:
        raise ValueError("no cycle reachable from source")
    d_n = _final_layer(sub, s, n)
    src, dst, wgt = _arrays(sub)
    d = np.full(n, INF, dtype=np.int64)
    d[s] = 0
    best_num = np.zeros(n, dtype=np.int64)
    best_den = np.ones(n, dtype=np.int64)
    have = np.zeros(n, dtype=bool)
    for k in range(n):
        finite = (d < INF) & (d_n < INF)
        num = d_n - d
        den = n - k
        better = finite & (~have | (num * best_den > best_num * den))
        best_num[better] = num[better]
        best_den[better] = den
        have |= finite
        nxt = np.full(n, INF, dtype=np.int64)
        ok = d[src] < INF
        np.minimum.at(nxt, dst[ok], d[src[ok]] + wgt[ok])
        d = nxt
    if not have.any():
        raise ValueError("no cycle reachable from source")
    return min(
        Fraction(int(best_num[v]), int(best_den[v])) for v in range(n) if have[v]
    )


def extract_min_mean_cycle(g: Graph, source: int = 0) -> tuple[Fraction, list[object]]:
    """(mean, edge labels around one minimum-mean cycle).

    Deterministic: synchronous shortest-path relaxation for potentials,
    then a smallest-index DFS over tight edges."""
    mean = minimum_cycle_mean(g, source)
    p, q = mean.numerator, mean.denominator
    sub, s = g.restrict_reachable(source)
    n = sub.num_states
    src, dst, wgt = _arrays(sub)
    rw = q * wgt - p  # min cycle mean becomes 0; no negative cycles
    pot = np.full(n, INF, dtype=np.int64)
    pot[s] = 0
    for _ in range(n):
        ok = pot[src] < INF
        np.minimum.at(pot, dst[ok], pot[src[ok]] + rw[ok])
    tight: dict[int, list[int]] = {}
    for k in range(len(sub.src)):
        u, v = int(src[k]), int(dst[k])
        if pot[u] < INF and pot[u] + int(rw[k]) == pot[v]:
            tight.setdefault(u, []).append(k)
    for lst in tight.values():
        lst.sort(key=lambda k: (int(dst[k]), int(wgt[k])))

    color: dict[int, int] = {}  # 1 on stack, 2 done
    for root in sorted(tight):
        if color.get(root):
            continue
        path: list[int] = []  # edge stack
        entry: dict[int, int] = {root: -1}  # node -> index of entering edge
        stack: list[list[int]] = [[root, 0]]
        color[root] = 1
        while stack:
            u, ptr = stack[-1]
            edges = tight.get(u, [])
            if ptr < len(edges):
                stack[-1][1] += 1
                k = edges[ptr]
                v = int(dst[k])
                if v in entry:
                    cut = entry[v]
                    cycle = (path[cut + 1 :] if cut >= 0 else list(path)) + [k]
                    node = v
                    for e in cycle:
                        if int(src[e]) != node:
                            raise CertificateError(f"witness edges {cycle} do not form a walk")
                        node = int(dst[e])
                    total = sum(int(wgt[e]) for e in cycle)
                    if node != v or Fraction(total, len(cycle)) != mean:
                        raise CertificateError(
                            f"witness {cycle} is not a closed walk of mean {mean}"
                        )
                    return mean, [sub.label[e] for e in cycle]
                if not color.get(v):
                    color[v] = 1
                    entry[v] = len(path)
                    path.append(k)
                    stack.append([v, 0])
            else:
                stack.pop()
                color[u] = 2
                del entry[u]
                if path:
                    path.pop()
    raise CertificateError("tight subgraph of a graph with cycles must contain a cycle")
