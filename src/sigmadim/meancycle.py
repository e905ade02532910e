"""Exact minimum mean cycle of a directed graph with integer edge weights.

Every graph the solver reads meets one contract, which its builder
guarantees: every state is reachable from state 0 and has an outgoing
edge.  The package's one automaton (`families.obligation_automaton`) is
built on the states reached from its all-hit state, every one of which
leads back to it, so every state reaches every other.  The solver
repairs nothing: a state without an outgoing edge raises ValueError, and
the value is the minimum over all cycles of the graph, which under the
contract are the cycles reachable from state 0.

`minimum_cycle_mean` runs Howard policy iteration (Cochet-Terrasson,
Cohen, Gaubert, McGettrick & Quadrat 1998; Dasdan 2004).  A policy picks
one outgoing edge per state; the cycles of the policy bound the minimum
mean from above and the policy values steer the switch to better edges.
The iteration is exact: each policy cycle's mean is reduced to p/q, a
state's bias is the integer q*dist - p*steps of its policy path, and an
edge to a state of equal mean is scored by the integer q*w - p + bias, so
no tolerance decides a switch and the iteration stops at an optimal
policy.  Policy values come from pointer doubling that carries each
state's path weight and length as one int64, dist << s | steps with
s = rounds + 1, and stops once every state jumps to a cycle head.  Means
are compared as float64 quotients of integer sums; the solve raises
ValueError unless states**2 * max|w| < 2**52, under which distinct means
of cycles of at most `states` edges stay distinct and correctly ordered
as floats and every integer below fits in int64.

Nothing the iteration finds is returned unchecked: every value p/q is
proved by two exact integer checks, explicit code that raises
CertificateError and so also runs under ``python -O``:

* upper bound: a cycle of the graph, walked edge by edge, whose integer
  weight sum over its length is exactly p/q;
* lower bound: an int64 potential pi with pi[u] + q*w(u, v) - p >= pi[v]
  on every edge; summed around any cycle it shows that no cycle has a
  smaller mean.

The potential starts from p*steps - q*dist of each state's policy path
and is finished by vectorized Bellman-Ford rounds until a round changes nothing; a round
after one round per state that still lowers it would prove a cycle of
smaller mean, and raises CertificateError.

The cycle witness of `extract_min_mean_cycle` is recovered by reweighting
edges with the certified mean p/q (w' = q*w - p), computing shortest-path
potentials from state 0 with the same Bellman-Ford rounds and walking
the tight subgraph: a cycle is tight iff its reweighted length is zero
iff its mean is optimal.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

INF = 1 << 60


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


def _policy_values(succ: np.ndarray, cost: np.ndarray):
    """(rep, dist, steps) of a policy given as successor and step cost per
    state.  rep[u] is the smallest state on the policy cycle that u falls
    into; dist[u] and steps[u] are the integer weight and length of u's
    policy path up to its first visit of rep[u].  Pointer doubling:
    2**rounds >= n steps reach every cycle.

    The path sums are carried as one int64 per state, dist << s | steps
    with s = rounds + 1: a path has fewer than n <= 2**rounds steps, so
    steps never carries into dist, and as 2**s <= 4n the solve's bound
    n**2 * max|w| < 2**52 keeps |dist << s| below 2**54.  The sums stop
    doubling once every state jumps to a cycle head."""
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
    s = rounds + 1
    packed = np.where(root, 0, (cost << s) | 1)
    for _ in range(rounds):
        packed += packed[jump]
        jump = jump[jump]
        if np.count_nonzero(root[jump]) == n:
            break
    return rep, packed >> s, packed & ((1 << s) - 1)


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
    edges grouped by tail state from `first` on) until no state gains.
    Returns the policy and its values.

    A state first moves to a successor whose policy reaches a cycle of
    smaller mean; failing that, to the successor of equal mean p/q with the
    smallest integer score q*w - p + bias, if that is below its own bias."""
    while True:
        values = _policy_values(dst[policy], w[policy])
        rep, dist, steps = values
        total, length = _cycle_sums(policy, values, dst, w)
        head = rep == np.arange(len(rep))
        g = np.gcd(total, length, out=np.ones_like(total), where=head)  # at the heads only
        p, q = (total // g)[rep], (length // g)[rep]
        bias = q * dist - p * steps
        eta = (total / length)[rep]
        eta_e = eta[dst]
        best_eta = np.minimum.reduceat(eta_e, first)
        down = best_eta < eta
        val = np.where(eta_e == eta[src], q[src] * w - p[src] + bias[dst], INF)
        best_val = np.minimum.reduceat(val, first)
        change = down | (best_val < bias)
        if not change.any():
            return policy, values
        want = np.where(down[src], eta_e == best_eta[src], val == best_val[src])
        policy = np.where(change, _first_edge(want, first), policy)


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


def _settle(pot, rw, src, dst, into: _InEdges):
    """Bellman-Ford rounds from `pot` under the weights rw until a round
    changes nothing.  Without a cycle of negative reweighted length that
    takes at most one round per state; CertificateError otherwise."""
    s, r = src[into.order], rw[into.order]
    for _ in range(len(pot) + 1):
        best = into.relaxed(pot, pot[s] + r)
        if not (best < pot).any():
            return pot
        pot = best
    raise CertificateError("the reweighted graph has a cycle of negative length")


def minimum_cycle_mean(g: Graph) -> Fraction:
    """Exact, certified minimum mean weight over the directed cycles of g;
    ValueError if a state of g has no outgoing edge, or unless
    states**2 * max|w| < 2**52."""
    n, src, dst, w = g.num_states, g.src, g.dst, g.weight
    count = np.bincount(src, minlength=n)
    if not n or not count.all():
        raise ValueError("the graph needs states, each with an outgoing edge")
    size = n * n * max(-int(w.min()), int(w.max()))
    if size >= 1 << 52:
        raise ValueError(f"states**2 * max|w| = {size} is not below 2**52")
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    first = np.cumsum(count) - count
    policy = _first_edge(w == np.minimum.reduceat(w, first)[src], first)
    policy, values = _improve(policy, src, dst, w, first)
    cycle, mean = _policy_cycle(policy, values, dst, w)
    _check_cycle(cycle, src, dst, w, mean)
    p, q = mean.numerator, mean.denominator
    rw = q * w - p
    _, dist, steps = values
    pot = _settle(p * steps - q * dist, rw, src, dst, _InEdges(dst, n))
    _check_potential(pot, rw, src, dst)
    return mean


def extract_min_mean_cycle(g: Graph) -> tuple[Fraction, list[object]]:
    """(mean, edge labels around one minimum-mean cycle) of a graph that
    meets the contract: every state reachable from state 0.

    Deterministic: shortest-path potentials from state 0 under q*w - p,
    settled by the certificate's Bellman-Ford rounds from 0 at state 0
    and INF elsewhere, then a smallest-index DFS over tight edges.  Every
    state gets its true distance from state 0."""
    mean = minimum_cycle_mean(g)
    rw = mean.denominator * g.weight - mean.numerator  # no negative cycles
    start = np.full(g.num_states, INF, dtype=np.int64)
    start[0] = 0
    pot = _settle(start, rw, g.src, g.dst, _InEdges(g.dst, g.num_states))
    return mean, _tight_cycle(g, rw, pot, mean)


def _tight_cycle(g: Graph, rw: np.ndarray, pot: np.ndarray, mean: Fraction) -> list[object]:
    """Labels around the first cycle that a smallest-index DFS meets in
    the subgraph of tight edges (pot[u] + rw = pot[v]), checked to have
    mean `mean`."""
    src, dst, wgt = g.src, g.dst, g.weight
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
                    return g.label[cycle].tolist()
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
