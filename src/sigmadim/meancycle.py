"""Exact minimum mean cycle of a directed graph with integer edge weights.

`minimum_cycle_mean` runs Howard policy iteration (Cochet-Terrasson, Cohen,
Gaubert, McGettrick & Quadrat 1998; Dasdan 2004) over the states reachable
from a source, after trimming the states from which no cycle can be
reached.  A policy picks one outgoing edge per state; the cycles of the
policy bound the minimum mean from above and the policy values steer the
switch to better edges.  The iteration works in floats, but nothing it
finds is returned unchecked: every value p/q is proved by two exact
integer checks, explicit code that raises CertificateError and so also
runs under ``python -O``:

* upper bound: a cycle of the graph, walked edge by edge, whose integer
  weight sum over its length is exactly p/q;
* lower bound: an int64 potential pi with pi[u] + q*w(u, v) - p >= pi[v]
  on every edge; summed around any cycle it shows that no cycle has a
  smaller mean.

The potential starts from the policy values times q, computed exactly
from integer path sums, and is finished by vectorized Bellman-Ford rounds
until a round changes nothing.  When the rounds run into a cycle of
negative reweighted length instead (a float tie stopped the iteration
early), that cycle has a strictly smaller mean: the iteration restarts from
it, so the candidate mean decreases strictly until it is certified.

The cycle witness of `extract_min_mean_cycle` is recovered by reweighting
edges with the certified mean p/q (w' = q*w - p), computing shortest-path
potentials from the source with the same Bellman-Ford rounds and walking
the tight subgraph: a cycle is tight iff its reweighted length is zero
iff its mean is optimal.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

INF = 1 << 60

# relative size below which a float gain in policy values counts as a tie
TIE_TOLERANCE = 2.0 ** -40
# policy rounds after which the certificate takes over even without a
# fixpoint: exact arithmetic always reaches one, floats need not
HOWARD_ROUNDS = 1000


class CertificateError(RuntimeError):
    """Raised when a computed result fails the exact check that certifies
    it (a witness cycle, potential, periodic pattern or bracket that does
    not hold).  The checks are explicit code, so they also run under
    ``python -O``."""


class Graph:
    """Directed multigraph: edge k runs from src[k] to dst[k] with integer
    weight weight[k] and payload label[k], all 1-D numpy arrays."""

    def __init__(self, num_states: int, src=(), dst=(), weight=(), label=None):
        self.num_states = int(num_states)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.int64)
        if label is None:
            label = np.full(len(self.src), None, dtype=object)
        self.label = np.asarray(label)
        if not len(self.src) == len(self.dst) == len(self.weight) == len(self.label):
            raise ValueError("edge arrays differ in length")

    def add_edge(self, u: int, v: int, w: int, label: object = None) -> None:
        """Append one edge; copies the arrays, so meant for small graphs
        written out by hand."""
        self.src = np.append(self.src, u)
        self.dst = np.append(self.dst, v)
        self.weight = np.append(self.weight, w)
        tail = np.empty(1, dtype=object)
        tail[0] = label
        self.label = np.concatenate((self.label.astype(object), tail))

    def induced(self, keep: np.ndarray) -> "Graph":
        """Subgraph on the states where keep is True, renumbered in order."""
        new = np.cumsum(keep) - 1
        e = keep[self.src] & keep[self.dst]
        return Graph(
            int(np.count_nonzero(keep)),
            new[self.src[e]], new[self.dst[e]], self.weight[e], self.label[e],
        )

    def restrict_reachable(self, source: int) -> tuple["Graph", int]:
        """Subgraph induced by the states reachable from source, states
        renumbered in order; returns (subgraph, new index of source)."""
        seen = _reachable(self.num_states, self.src, self.dst, source)
        return self.induced(seen), int(np.count_nonzero(seen[:source]))


def _reachable(n: int, src: np.ndarray, dst: np.ndarray, source: int) -> np.ndarray:
    """Mask of the states reachable from source: a BFS that expands a whole
    frontier per step over the edges grouped by tail state."""
    heads = dst[np.argsort(src, kind="stable")]
    count = np.bincount(src, minlength=n)
    first = np.cumsum(count) - count
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    slot = np.zeros(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        k = count[frontier]
        runs = np.repeat(first[frontier] - (np.cumsum(k) - k), k)
        nxt = heads[runs + np.arange(runs.size)]
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        # keep one copy of each state: the position its slot ends up naming
        order = np.arange(nxt.size)
        slot[nxt] = order
        frontier = nxt[slot[nxt] == order]
    return seen


def _reaches_cycle(g: Graph) -> np.ndarray:
    """Mask of the states with an infinite walk: dead ends are dropped
    until every kept state has an edge to a kept state."""
    keep = np.ones(g.num_states, dtype=bool)
    while True:
        has_out = np.zeros(g.num_states, dtype=bool)
        has_out[g.src[keep[g.dst]]] = True
        if not (keep & ~has_out).any():
            return keep
        keep &= has_out


def _policy_values(succ: np.ndarray, cost: np.ndarray):
    """(rep, dist, steps) of a policy given as successor and step cost per
    state.  rep[u] is the smallest state on the policy cycle that u falls
    into; dist[u] and steps[u] are the integer weight and length of u's
    policy path up to its first visit of rep[u].  Pointer doubling:
    2**rounds >= n steps reach every cycle."""
    n = len(succ)
    rounds = max(1, (n - 1).bit_length())
    ident = np.arange(n, dtype=np.int64)
    jump, low = succ, ident
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    rep = low[jump]
    root = rep == ident
    jump = np.where(root, ident, succ)
    dist = np.where(root, 0, cost)
    steps = (~root).astype(np.int64)
    for _ in range(rounds):
        dist = dist + dist[jump]
        steps = steps + steps[jump]
        jump = jump[jump]
    return rep, dist, steps


def _cycle_sums(policy, values, dst, w):
    """Integer weight and length of the policy cycle through each rep."""
    _, dist, steps = values
    after = dst[policy]
    return w[policy] + dist[after], 1 + steps[after]


def _first_edge(mask: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per state, the first of its edges (grouped by tail state from
    `first` on) where mask holds; len(mask) where none does."""
    return np.minimum.reduceat(np.where(mask, np.arange(len(mask)), len(mask)), first)


def _improve(policy, src, dst, w, first):
    """Howard policy iteration from `policy` (one out-edge per state, the
    edges grouped by tail state from `first` on) until no state gains,
    or HOWARD_ROUNDS rounds.  Returns the policy and its values.

    A state first moves to a successor whose policy reaches a cycle of
    smaller mean; failing that, to the successor of equal mean with the
    smallest value w - eta + x, if that beats its own value by more than
    the tie tolerance."""
    for _ in range(HOWARD_ROUNDS):
        values = _policy_values(dst[policy], w[policy])
        rep, dist, steps = values
        total, length = _cycle_sums(policy, values, dst, w)
        eta = (total / length)[rep]
        x = dist - eta * steps
        eta_e = eta[dst]
        best_eta = np.minimum.reduceat(eta_e, first)
        down = best_eta < eta
        val = np.where(eta_e == eta[src], w - eta[src] + x[dst], np.inf)
        best_val = np.minimum.reduceat(val, first)
        tol = TIE_TOLERANCE * (1.0 + np.abs(dist).max() + np.abs(x).max())
        change = down | (best_val < x - tol)
        if not change.any():
            return policy, values
        want = np.where(down[src], eta_e == best_eta[src], val == best_val[src])
        policy = np.where(change, _first_edge(want, first), policy)
    return policy, _policy_values(dst[policy], w[policy])


def _policy_cycle(policy, values, dst, w) -> tuple[list[int], Fraction]:
    """Edges of the policy cycle of least mean, from its smallest state,
    and that mean."""
    rep = values[0]
    total, length = _cycle_sums(policy, values, dst, w)
    heads = np.flatnonzero(rep == np.arange(len(rep)))
    r = int(heads[np.argmin(total[heads] / length[heads])])
    cycle = [int(policy[r])]
    node = int(dst[policy[r]])
    while node != r and len(cycle) <= len(rep):
        cycle.append(int(policy[node]))
        node = int(dst[policy[node]])
    return cycle, Fraction(int(total[r]), int(length[r]))


def _check_cycle(cycle, src, dst, w, mean: Fraction) -> None:
    """Upper bound: the edges form a closed walk of mean exactly `mean`."""
    if not cycle:
        raise CertificateError("empty witness cycle")
    start = node = int(src[cycle[0]])
    total = 0
    for e in cycle:
        if int(src[e]) != node:
            raise CertificateError(f"witness edges {cycle} do not form a walk")
        total += int(w[e])
        node = int(dst[e])
    if node != start or Fraction(total, len(cycle)) != mean:
        raise CertificateError(f"witness {cycle} is not a closed walk of mean {mean}")


def _check_potential(pot, rw, src, dst) -> None:
    """Lower bound: pot[u] + rw(u, v) >= pot[v] on every edge, so every
    cycle has non-negative reweighted length."""
    bad = pot[src] + rw < pot[dst]
    if bad.any():
        k = int(np.argmax(bad))
        raise CertificateError(
            f"potential fails on edge {int(src[k])}->{int(dst[k])}: "
            f"{int(pot[src[k]])} + {int(rw[k])} < {int(pot[dst[k]])}"
        )


class _InEdges:
    """The edges grouped by head state, for per-state minima over
    in-edges with np.minimum.reduceat."""

    def __init__(self, dst: np.ndarray, n: int):
        self.order = np.argsort(dst, kind="stable")
        count = np.bincount(dst, minlength=n)
        self.has_in = count > 0
        self.starts = (np.cumsum(count) - count)[self.has_in]

    def relaxed(self, pot: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """min(pot[v], least cand over the edges into v); cand is in
        `order`."""
        out = pot.copy()
        out[self.has_in] = np.minimum(pot[self.has_in], np.minimum.reduceat(cand, self.starts))
        return out


def _parent_cycle(parent: np.ndarray, src: np.ndarray):
    """Edges of a cycle in the graph of last-improving edges, if any.
    Such a cycle has negative reweighted length."""
    n = len(parent)
    has = parent >= 0
    jump = np.where(has, src[np.maximum(parent, 0)], np.arange(n))
    for _ in range(max(1, (n - 1).bit_length())):
        jump = jump[jump]
    on_cycle = jump[has[jump]]
    if not on_cycle.size:
        return None
    start = node = int(on_cycle[0])
    cycle = []
    while True:
        e = int(parent[node])
        cycle.append(e)
        node = int(src[e])
        if node == start:
            return cycle[::-1]


def _settle(pot, rw, src, dst, into: _InEdges):
    """Bellman-Ford rounds from `pot` under the weights rw until a round
    changes nothing: (pot, None).  If the rounds meet a cycle of negative
    reweighted length, checked for at rounds 8, 16, 32, ...: (pot, its
    edges)."""
    s, d, r = src[into.order], dst[into.order], rw[into.order]
    parent = np.full(len(pot), -1, dtype=np.int64)
    rounds = 0
    while True:
        cand = pot[s] + r
        best = into.relaxed(pot, cand)
        better = best < pot
        if not better.any():
            return pot, None
        tight = better[d] & (cand == best[d])
        parent[d[tight]] = into.order[tight]
        pot = best
        rounds += 1
        if rounds >= 8 and rounds & (rounds - 1) == 0:
            cycle = _parent_cycle(parent, src)
            if cycle is not None:
                return pot, cycle


def _solve(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> Fraction:
    """Certified minimum cycle mean of a graph in which every state has an
    outgoing edge."""
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    count = np.bincount(src, minlength=n)
    first = np.cumsum(count) - count
    into = _InEdges(dst, n)
    policy = _first_edge(w == np.minimum.reduceat(w, first)[src], first)
    best = None
    while True:
        policy, values = _improve(policy, src, dst, w, first)
        cycle, mean = _policy_cycle(policy, values, dst, w)
        if best is None or mean < best[1]:
            best = cycle, mean
        cycle, mean = best
        _check_cycle(cycle, src, dst, w, mean)
        p, q = mean.numerator, mean.denominator
        rw = q * w - p
        _, dist, steps = values
        pot, negative = _settle(p * steps - q * dist, rw, src, dst, into)
        if negative is None:
            _check_potential(pot, rw, src, dst)
            return mean
        # a float tie stopped the iteration early: restart from the cycle
        # found, whose mean is strictly smaller
        if int(rw[negative].sum()) >= 0:
            raise CertificateError(f"cycle {negative} found by relaxation is not negative")
        policy = policy.copy()
        policy[src[negative]] = negative
        best = negative, Fraction(int(w[negative].sum()), len(negative))


def minimum_cycle_mean(g: Graph, source: int = 0) -> Fraction:
    """Exact minimum mean weight over directed cycles reachable from
    source; ValueError if there is none."""
    sub, _ = g.restrict_reachable(source)
    sub = sub.induced(_reaches_cycle(sub))
    if not len(sub.src):
        raise ValueError("no cycle reachable from source")
    return _solve(sub.num_states, sub.src, sub.dst, sub.weight)


def extract_min_mean_cycle(g: Graph, source: int = 0) -> tuple[Fraction, list[object]]:
    """(mean, edge labels around one minimum-mean cycle).

    Deterministic: shortest-path potentials from source under q*w - p,
    settled by the certificate's Bellman-Ford rounds from 0 at the source
    and INF elsewhere, then a smallest-index DFS over tight edges.  Every
    state of the reachable subgraph gets its true distance: values that
    start from INF stay near INF, far above any path from the source."""
    sub, s = g.restrict_reachable(source)
    mean = minimum_cycle_mean(sub, s)
    rw = mean.denominator * sub.weight - mean.numerator  # no negative cycles
    start = np.full(sub.num_states, INF, dtype=np.int64)
    start[s] = 0
    pot, negative = _settle(start, rw, sub.src, sub.dst, _InEdges(sub.dst, sub.num_states))
    if negative is not None:
        raise CertificateError(f"the reweighted graph has a negative cycle {negative}")
    return mean, _tight_cycle(sub, rw, pot, mean)


def _tight_cycle(sub: Graph, rw: np.ndarray, pot: np.ndarray, mean: Fraction) -> list[object]:
    """Labels around the first cycle that a smallest-index DFS meets in
    the subgraph of tight edges (pot[u] + rw = pot[v]), checked to have
    mean `mean`."""
    src, dst, wgt = sub.src, sub.dst, sub.weight
    ks = np.flatnonzero(pot[src] + rw == pot[dst])
    ks = ks[np.lexsort((wgt[ks], dst[ks], src[ks]))]
    tight: dict[int, list[int]] = {}
    for k, u in zip(ks.tolist(), src[ks].tolist()):
        tight.setdefault(u, []).append(k)

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
                    _check_cycle(cycle, src, dst, wgt, mean)
                    return sub.label[cycle].tolist()
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
