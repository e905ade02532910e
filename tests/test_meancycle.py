"""Minimum mean cycle against brute-force simple-cycle enumeration and
against Karp's dynamic program, plus the certificate checks of the policy
iteration."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sigmadim
import sigmadim.meancycle as meancycle
from conftest import (
    cover_automaton,
    graph,
    karp_min_mean,
    oracle_distances,
    oracle_pick_graph,
    oracle_policy_values,
    oracle_reachable,
    oracle_restrict_reachable,
)
from sigmadim import CertificateError, SigmaFamily
from sigmadim.covering import IntSet
from sigmadim.families import obligation_automaton
from sigmadim.meancycle import Graph, extract_min_mean_cycle, minimum_cycle_mean


def brute_min_mean(g: Graph, source: int) -> Fraction:
    """Enumerate all simple cycles reachable from source."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for k in range(len(g.src)):
        adj.setdefault(g.src[k], []).append((g.dst[k], g.weight[k]))
    reach = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v, _ in adj.get(u, ()):
            if v not in reach:
                reach.add(v)
                stack.append(v)
    best = None

    def walk(start, node, weight, length, visited):
        nonlocal best
        for v, w in adj.get(node, ()):
            if v == start and length >= 0:
                mean = Fraction(weight + w, length + 1)
                if best is None or mean < best:
                    best = mean
            elif v not in visited and v > start:
                visited.add(v)
                walk(start, v, weight + w, length + 1, visited)
                visited.discard(v)

    for s in sorted(reach):
        walk(s, s, 0, 0, set())
    if best is None:
        raise ValueError("no cycle")
    return best


def test_self_loop():
    g = graph(1, [(0, 0, 3)])
    assert minimum_cycle_mean(g) == 3


def test_two_cycles():
    g = graph(3, [
        (0, 1, 1),
        (1, 0, 0),  # mean 1/2
        (1, 2, 1),
        (2, 1, 2),  # mean 3/2
    ])
    assert minimum_cycle_mean(g) == Fraction(1, 2)


def test_every_cycle_counts():
    # the value is the minimum over all cycles of the graph: the builders
    # make every state reachable from state 0, the solver searches nothing
    g = graph(3, [
        (0, 0, 5),
        (1, 2, 0),
        (2, 1, 0),  # cheaper, and not reachable from 0
    ])
    assert minimum_cycle_mean(g) == 0


def test_no_cycle_raises():
    g = graph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        minimum_cycle_mean(g)


def test_extraction_walks_a_real_cycle():
    g = graph(4, [
        (0, 1, 1, "a"),
        (1, 2, 0, "b"),
        (2, 1, 1, "c"),
        (2, 3, 0, "d"),
        (3, 0, 9, "e"),
    ])
    mean, labels = extract_min_mean_cycle(g)
    assert mean == Fraction(1, 2)
    assert sorted(labels) == ["b", "c"]


def meet_the_contract(rng, nv: int, edges: list) -> list:
    """The edges plus, for every state v > 0, one edge into it from a
    smaller state and one out of it, so that every state is reachable
    from state 0 and has an outgoing edge."""
    for v in range(1, nv):
        edges.append((rng.randrange(v), v, rng.randint(0, 6)))
        edges.append((v, rng.randrange(nv), rng.randint(0, 6)))
    return edges


def test_random_graphs_match_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        nv = rng.randint(1, 6)
        edges = [
            (rng.randrange(nv), rng.randrange(nv), rng.randint(0, 4))
            for _ in range(rng.randint(1, 12))
        ]
        g = graph(nv, meet_the_contract(rng, nv, edges + [(0, 0, 5)]))
        expect = brute_min_mean(g, 0)
        assert minimum_cycle_mean(g) == expect
        mean, labels = extract_min_mean_cycle(g)
        assert mean == expect
        assert len(labels) >= 1


def random_graph(rng, feature: str) -> Graph:
    """A random graph that meets the solver's contract, with the named
    feature."""
    nv = rng.randint(2, 9)
    edges = []
    for _ in range(rng.randint(nv, 3 * nv)):
        u, v = rng.randrange(nv), rng.randrange(nv)
        if u != v:
            edges.append((u, v, rng.randint(0, 6)))
    edges.append((0, 1, rng.randint(0, 6)))
    edges.append((1, 0, rng.randint(0, 6)))
    if feature == "parallel":
        for k in rng.sample(range(len(edges)), min(4, len(edges))):
            edges.append(edges[k][:2] + (rng.randint(0, 6),))
    elif feature == "self_loops":
        for u in rng.sample(range(nv), rng.randint(1, nv)):
            edges.append((u, u, rng.randint(0, 6)))
    g = graph(nv, meet_the_contract(rng, nv, edges))
    if feature == "zero_weight":
        g.weight[rng.sample(range(len(g.src)), len(g.src) // 2)] = 0
    return g


@pytest.mark.parametrize("feature", ["parallel", "zero_weight", "self_loops"])
def test_policy_iteration_matches_karp(feature):
    rng = random.Random(feature)
    for _ in range(80):
        g = random_graph(rng, feature)
        assert oracle_reachable(g).all()
        expect = karp_min_mean(g, 0)
        assert minimum_cycle_mean(g) == expect, (g.src, g.dst, g.weight)
        mean, labels = extract_min_mean_cycle(g)
        assert mean == expect and labels


def test_dead_end_raises():
    g = graph(4, [
        (0, 1, 1),
        (1, 0, 1),
        (1, 2, 0),
        (2, 3, 0),  # 3 has no outgoing edge
    ])
    with pytest.raises(ValueError, match="outgoing edge"):
        minimum_cycle_mean(g)
    with pytest.raises(ValueError, match="outgoing edge"):
        extract_min_mean_cycle(g)


def test_oracle_restriction_renumbers_in_order():
    rng = random.Random(7)
    for _ in range(40):
        nv = rng.randint(1, 12)
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 20))]
        g = Graph(nv, [u for u, _ in edges], [v for _, v in edges], range(len(edges)), range(len(edges)))
        source = rng.randrange(nv)
        reach, stack = {source}, [source]
        while stack:
            u = stack.pop()
            for a, b in edges:
                if a == u and b not in reach:
                    reach.add(b)
                    stack.append(b)
        new = {old: i for i, old in enumerate(sorted(reach))}
        sub, s = oracle_restrict_reachable(g, source)
        assert sub.num_states == len(reach) and s == new[source]
        kept = [k for k, (a, _) in enumerate(edges) if a in reach]
        assert sub.label.tolist() == kept
        assert sub.src.tolist() == [new[edges[k][0]] for k in kept]
        assert sub.dst.tolist() == [new[edges[k][1]] for k in kept]


def random_pick_family(rng, max_bits, full_width=False):
    n = rng.randint(1, 3)
    width = max_bits // n if full_width else rng.randint(1, max_bits // n)
    members = [
        {(rng.randint(0, width - 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 3))
    ]
    if full_width:  # one member that spans the width
        members = [{(0, 1), (width - 1, n)} | members[0]]
    return SigmaFamily(n, members)


def test_pick_automata_match_karp():
    rng = random.Random(31)
    for max_bits, full in [(8, False)] * 40 + [(10, True)] * 3 + [(12, True)]:
        fam = random_pick_family(rng, max_bits, full)
        g = obligation_automaton(fam)
        assert not full or fam.width == max_bits // fam.n
        assert minimum_cycle_mean(g) == karp_min_mean(g), fam


def test_pick_graph_matches_the_full_state_oracle():
    rng = random.Random(47)
    for max_bits, full in [(8, False)] * 30 + [(12, False)] * 10 + [(12, True)] * 4:
        fam = random_pick_family(rng, max_bits, full)
        g = obligation_automaton(fam)
        assert g.num_states <= 2 ** (fam.n * (fam.width - 1)), fam
        assert minimum_cycle_mean(g) == minimum_cycle_mean(oracle_pick_graph(fam)), fam


def test_coverage_graphs_match_karp():
    rng = random.Random(37)
    for _ in range(40):
        span = rng.randint(0, 10)
        e = IntSet({0, span} | {rng.randint(0, span) for _ in range(rng.randint(0, 4))})
        g = cover_automaton(e)
        assert minimum_cycle_mean(g) == karp_min_mean(g), e


def oracle_extract(g: Graph):
    """extract_min_mean_cycle with its potentials from plain relaxation
    rounds instead of the certificate's Bellman-Ford."""
    mean = minimum_cycle_mean(g)
    rw = mean.denominator * g.weight - mean.numerator
    pot = oracle_distances(g.num_states, 0, g.src, g.dst, rw)
    return mean, meancycle._tight_cycle(g, rw, pot, mean)


def test_witnesses_match_plain_relaxation_potentials():
    rng = random.Random(59)
    graphs = []
    for feature in ("parallel", "self_loops", "zero_weight"):
        for _ in range(40):
            g = random_graph(rng, feature)  # labels become edge indices
            graphs.append(Graph(g.num_states, g.src, g.dst, g.weight, np.arange(len(g.src))))
    for _ in range(40):
        span = rng.randint(0, 10)
        graphs.append(cover_automaton(IntSet({0, span} | {rng.randint(0, span) for _ in range(3)})))
    graphs += [obligation_automaton(random_pick_family(rng, 10)) for _ in range(40)]
    for g in graphs:
        assert extract_min_mean_cycle(g) == oracle_extract(g), (g.src, g.dst, g.weight)


def tie_graph() -> Graph:
    """The cheapest edge out of 0 is a loop of mean 2, but the cycle
    0 -> 1 -> 0 has mean 3/2: only a value step of the policy iteration
    finds it."""
    return graph(2, [(0, 0, 2), (0, 1, 3), (1, 0, 0)])


def test_exact_iteration_matches_karp():
    # the value step alone finds the tie graph's mean, with no tolerance
    assert minimum_cycle_mean(tie_graph()) == Fraction(3, 2)
    rng = random.Random(41)
    for feature in ["parallel", "zero_weight", "self_loops"] * 27:
        g = random_graph(rng, feature)
        assert minimum_cycle_mean(g) == karp_min_mean(g)
        g.weight -= 3  # negative weights too
        assert minimum_cycle_mean(g) == karp_min_mean(g)
    for _ in range(10):
        g = obligation_automaton(random_pick_family(rng, 8))
        assert minimum_cycle_mean(g) == karp_min_mean(g)


def random_policy(rng, n: int, shape: str, top: int):
    """(succ, cost) of a functional graph on n states, costs in
    [-top, top] with both ends drawn more often.  "long": one cycle and a
    chain into it that holds more than half of the states, so doubling
    runs every round or all but the last; "short": cycles of one or two
    states, and every other state one step from a cycle, so every path
    to a cycle's least state has at most two steps and doubling stops
    after its first round."""
    order = list(range(n))
    rng.shuffle(order)
    succ = [0] * n
    if shape == "long":
        c = rng.randint(1, max(1, n // 3))
        parts = [order[:c]]
    else:
        c = rng.randint(1, n)
        parts, a = [], 0
        while a < c:
            b = min(c, a + rng.randint(1, 2))
            parts.append(order[a:b])
            a = b
    for part in parts:
        for u, v in zip(part, part[1:] + part[:1]):
            succ[u] = v
    prev = order[0]
    for u in order[c:]:
        if shape == "long":
            succ[u], prev = prev, u
        else:
            succ[u] = order[rng.randrange(c)]
    ends = [-top, top, -top + 1, top - 1]
    cost = [rng.choice(ends) if rng.random() < 0.4 else rng.randint(-top, top) for _ in range(n)]
    return np.array(succ, dtype=np.int64), np.array(cost, dtype=np.int64)


def test_packed_policy_values_match_two_arrays():
    rng = random.Random(89)
    for k in range(300):
        n = rng.randint(1, 70)
        shape = ("long", "short")[k % 2]
        # under the solve's bound n**2 * max|w| < 2**52, or small weights
        top = ((1 << 52) - 1) // (n * n) if k % 3 else rng.randint(1, 9)
        succ, cost = random_policy(rng, n, shape, top)
        got = meancycle._policy_values(succ, cost)
        want = oracle_policy_values(succ, cost)
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and np.array_equal(a, b), (n, shape, succ, cost)


def test_unimproved_policy_is_caught(monkeypatch):
    # the first policy of the tie graph is the loop of mean 2: returned
    # without the value step, the potential check must refuse it
    def unimproved(policy, src, dst, w, first):
        return policy, meancycle._policy_values(dst[policy], w[policy])

    monkeypatch.setattr(meancycle, "_improve", unimproved)
    with pytest.raises(CertificateError):
        minimum_cycle_mean(tie_graph())


def test_settle_refuses_a_negative_cycle():
    g = tie_graph()
    rw = g.weight - 2  # the cycle 0 -> 1 -> 0 has reweighted length -1
    into = meancycle._InEdges(g.dst, g.num_states)
    with pytest.raises(CertificateError):
        meancycle._settle(np.zeros(2, dtype=np.int64), rw, g.src, g.dst, into)
    pot = meancycle._settle(np.zeros(2, dtype=np.int64), 2 * g.weight - 3, g.src, g.dst, into)
    assert pot.tolist() == [-3, 0]


@pytest.mark.parametrize("sign", [1, -1])
def test_weight_bound(sign):
    # two states: states**2 * max|w| = 4 * max|w| must stay below 2**52
    top = (1 << 50) - 1
    g = graph(2, [(0, 1, sign * top), (1, 0, 0)])
    assert minimum_cycle_mean(g) == Fraction(sign * top, 2)
    g.weight[0] += sign
    with pytest.raises(ValueError, match="2\\*\\*52"):
        minimum_cycle_mean(g)


def close_cycles(q1: int, q2: int, smaller_first: bool) -> tuple[Graph, Fraction]:
    """Cycles of q1 and q2 edges through state 0, weights just under the
    bound, whose means differ by 1/(q1*q2), the first one's the smaller
    if smaller_first; and the smaller mean."""
    n = q1 + q2 - 1
    k = ((1 << 52) - 1) // (n * n) - 1  # every weight is k or k + 1
    # sums a = q1*k + r1 and b = q2*k + r2 with b*q1 - a*q2 = d
    d = 1 if smaller_first else -1
    r1 = next(r for r in range(q1) if (r * q2 + d) % q1 == 0)
    r2 = (r1 * q2 + d) // q1
    cycles = [list(range(1, q1)), list(range(q1, n))]
    edges = []
    for states, q, r in zip(cycles, (q1, q2), (r1, r2)):
        walk = [0] + states + [0]
        edges += [(u, v, k + (i < r)) for i, (u, v) in enumerate(zip(walk, walk[1:]))]
    means = Fraction(q1 * k + r1, q1), Fraction(q2 * k + r2, q2)
    assert abs(means[0] - means[1]) == Fraction(1, q1 * q2)
    assert n * n * (k + 1) < 1 << 52
    return graph(n, edges), min(means)


@pytest.mark.parametrize("q1, q2", [(2, 3), (3, 2), (31, 32), (255, 256), (1000, 999)])
@pytest.mark.parametrize("smaller_first", [True, False])
def test_close_means_at_the_bound(q1, q2, smaller_first):
    g, expect = close_cycles(q1, q2, smaller_first)
    assert minimum_cycle_mean(g) == expect
    mean, labels = extract_min_mean_cycle(g)
    assert mean == expect and len(labels) == (q1 if smaller_first else q2)


def corrupt_potential(monkeypatch):
    """Raise the potential at the head of one tight edge, which breaks
    that edge's inequality."""
    real = meancycle._settle

    def corrupted(pot, rw, src, dst, into):
        pot = real(pot, rw, src, dst, into).copy()
        k = int(np.flatnonzero(pot[src] + rw == pot[dst])[0])
        pot[dst[k]] += 1
        return pot

    monkeypatch.setattr(meancycle, "_settle", corrupted)


def test_corrupted_potential(monkeypatch):
    corrupt_potential(monkeypatch)
    with pytest.raises(CertificateError):
        minimum_cycle_mean(tie_graph())


@pytest.mark.parametrize("corruption", ["mean", "walk"])
def test_corrupted_policy_cycle(monkeypatch, corruption):
    real = meancycle._policy_cycle

    def corrupted(policy, values, dst, w):
        cycle, mean = real(policy, values, dst, w)
        if corruption == "mean":
            return cycle, mean - Fraction(1, 7)
        return cycle[:-1], mean

    monkeypatch.setattr(meancycle, "_policy_cycle", corrupted)
    g = graph(3, [(0, 1, 1), (1, 2, 2), (2, 0, 0)])
    with pytest.raises(CertificateError):
        minimum_cycle_mean(g)


# the policy-cycle check fed a cycle that claims a smaller mean; run as a
# script so that it can also run under python -O
CORRUPT_CYCLE = """
from fractions import Fraction
import sigmadim.meancycle as meancycle
from sigmadim.meancycle import CertificateError, Graph

real = meancycle._policy_cycle
def corrupted(*args):
    cycle, mean = real(*args)
    return cycle, mean - Fraction(1, 7)
meancycle._policy_cycle = corrupted
g = Graph(2, src=[0, 1], dst=[1, 0], weight=[1, 2])
try:
    meancycle.minimum_cycle_mean(g)
except CertificateError as exc:
    print("caught:", exc)
"""


def run_optimized(script: str) -> str:
    """Stdout of the script run under python -O; it must exit cleanly."""
    src = str(Path(sigmadim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_corrupted_policy_cycle_under_optimize():
    out = run_optimized(CORRUPT_CYCLE)
    assert out.startswith("caught:"), out


# a graph whose state 2 has no outgoing edge
DEAD_END = """
from sigmadim.meancycle import Graph, minimum_cycle_mean
g = Graph(3, src=[0, 1, 1], dst=[1, 0, 2], weight=[1, 1, 0])
try:
    minimum_cycle_mean(g)
except ValueError as exc:
    print("caught:", exc)
"""


def test_dead_end_raises_under_optimize():
    out = run_optimized(DEAD_END)
    assert out.startswith("caught:") and "outgoing edge" in out, out
