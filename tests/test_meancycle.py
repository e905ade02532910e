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
from conftest import karp_min_mean, oracle_distances, oracle_pick_graph
from sigmadim import CertificateError, SigmaFamily
from sigmadim.covering import IntSet, coverage_graph
from sigmadim.families import pick_graph
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
    g = Graph(1)
    g.add_edge(0, 0, 3)
    assert minimum_cycle_mean(g) == 3


def test_two_cycles():
    g = Graph(3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 0, 0)  # mean 1/2
    g.add_edge(1, 2, 1)
    g.add_edge(2, 1, 2)  # mean 3/2
    assert minimum_cycle_mean(g) == Fraction(1, 2)


def test_unreachable_cycle_ignored():
    g = Graph(3)
    g.add_edge(0, 0, 5)
    g.add_edge(1, 2, 0)
    g.add_edge(2, 1, 0)  # cheaper but unreachable from 0
    assert minimum_cycle_mean(g, source=0) == 5


def test_no_cycle_raises():
    g = Graph(2)
    g.add_edge(0, 1, 1)
    with pytest.raises(ValueError):
        minimum_cycle_mean(g)


def test_extraction_walks_a_real_cycle():
    g = Graph(4)
    g.add_edge(0, 1, 1, "a")
    g.add_edge(1, 2, 0, "b")
    g.add_edge(2, 1, 1, "c")
    g.add_edge(2, 3, 0, "d")
    g.add_edge(3, 0, 9, "e")
    mean, labels = extract_min_mean_cycle(g)
    assert mean == Fraction(1, 2)
    assert sorted(labels) == ["b", "c"]


def test_random_graphs_match_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        nv = rng.randint(1, 6)
        g = Graph(nv)
        for _ in range(rng.randint(1, 12)):
            g.add_edge(rng.randrange(nv), rng.randrange(nv), rng.randint(0, 4))
        # ensure a reachable cycle exists
        g.add_edge(0, 0, 5)
        expect = brute_min_mean(g, 0)
        assert minimum_cycle_mean(g, 0) == expect
        mean, labels = extract_min_mean_cycle(g, 0)
        assert mean == expect
        assert len(labels) >= 1


def random_graph(rng, feature: str) -> Graph:
    """A random graph with a reachable cycle and the named feature."""
    nv = rng.randint(2, 9)
    g = Graph(nv)
    for _ in range(rng.randint(nv, 3 * nv)):
        u, v = rng.randrange(nv), rng.randrange(nv)
        if u != v:
            g.add_edge(u, v, rng.randint(0, 6))
    g.add_edge(0, 1, rng.randint(0, 6))
    g.add_edge(1, 0, rng.randint(0, 6))
    if feature == "dead_ends":
        # states with no way out, entered from everywhere
        g = Graph(nv + 2, g.src, g.dst, g.weight)
        for u in range(nv):
            g.add_edge(u, nv + rng.randint(0, 1), rng.randint(0, 6))
        g.add_edge(nv, nv + 1, 0)
    elif feature == "unreachable_cheaper":
        # a zero-mean cycle that only leads into the graph
        g = Graph(nv + 2, g.src, g.dst, g.weight)
        g.add_edge(nv, nv + 1, 0)
        g.add_edge(nv + 1, nv, 0)
        g.add_edge(nv + 1, rng.randrange(nv), 0)
    elif feature == "parallel":
        for k in rng.sample(range(len(g.src)), min(4, len(g.src))):
            g.add_edge(int(g.src[k]), int(g.dst[k]), rng.randint(0, 6))
    elif feature == "zero_weight":
        g.weight[rng.sample(range(len(g.src)), len(g.src) // 2)] = 0
    elif feature == "self_loops":
        for u in rng.sample(range(nv), rng.randint(1, nv)):
            g.add_edge(u, u, rng.randint(0, 6))
    return g


@pytest.mark.parametrize(
    "feature", ["dead_ends", "unreachable_cheaper", "parallel", "zero_weight", "self_loops"]
)
def test_policy_iteration_matches_karp(feature):
    rng = random.Random(feature)
    for _ in range(80):
        g = random_graph(rng, feature)
        expect = karp_min_mean(g, 0)
        assert minimum_cycle_mean(g, 0) == expect, (g.src, g.dst, g.weight)
        mean, labels = extract_min_mean_cycle(g, 0)
        assert mean == expect and labels


def test_dead_ends_are_trimmed():
    g = Graph(4)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 0, 1)
    g.add_edge(1, 2, 0)
    g.add_edge(2, 3, 0)  # 2 and 3 lead nowhere
    assert minimum_cycle_mean(g) == 1
    with pytest.raises(ValueError):
        minimum_cycle_mean(g, source=2)


def test_restrict_reachable_renumbers_in_order():
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
        sub, s = g.restrict_reachable(source)
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
        g = pick_graph(fam)
        assert not full or fam.width == max_bits // fam.n
        assert minimum_cycle_mean(g) == karp_min_mean(g), fam


def test_pick_graph_matches_the_full_state_oracle():
    rng = random.Random(47)
    for max_bits, full in [(8, False)] * 30 + [(12, False)] * 10 + [(12, True)] * 4:
        fam = random_pick_family(rng, max_bits, full)
        g = pick_graph(fam)
        assert g.num_states == 2 ** (fam.n * (fam.width - 1)), fam
        assert minimum_cycle_mean(g) == minimum_cycle_mean(oracle_pick_graph(fam)), fam


def test_coverage_graphs_match_karp():
    rng = random.Random(37)
    for _ in range(40):
        span = rng.randint(0, 10)
        e = IntSet({0, span} | {rng.randint(0, span) for _ in range(rng.randint(0, 4))})
        g = coverage_graph(e)
        assert minimum_cycle_mean(g) == karp_min_mean(g), e


def oracle_extract(g: Graph, source: int = 0):
    """extract_min_mean_cycle with its potentials from plain relaxation
    rounds instead of the certificate's Bellman-Ford."""
    sub, s = g.restrict_reachable(source)
    mean = minimum_cycle_mean(g, source)
    rw = mean.denominator * sub.weight - mean.numerator
    pot = oracle_distances(sub.num_states, s, sub.src, sub.dst, rw)
    return mean, meancycle._tight_cycle(sub, rw, pot, mean)


def test_witnesses_match_plain_relaxation_potentials():
    rng = random.Random(59)
    graphs = []
    for feature in ("dead_ends", "unreachable_cheaper", "zero_weight"):
        for _ in range(40):
            g = random_graph(rng, feature)  # labels become edge indices
            graphs.append(Graph(g.num_states, g.src, g.dst, g.weight, np.arange(len(g.src))))
    for _ in range(40):
        span = rng.randint(0, 10)
        graphs.append(coverage_graph(IntSet({0, span} | {rng.randint(0, span) for _ in range(3)})))
    graphs += [pick_graph(random_pick_family(rng, 10)) for _ in range(40)]
    for g in graphs:
        assert extract_min_mean_cycle(g) == oracle_extract(g), (g.src, g.dst, g.weight)


def tie_graph() -> Graph:
    """The cheapest edge out of 0 is a loop of mean 2, but the cycle
    0 -> 1 -> 0 has mean 3/2: only a value step of the policy iteration
    finds it."""
    g = Graph(2)
    g.add_edge(0, 0, 2)
    g.add_edge(0, 1, 3)
    g.add_edge(1, 0, 0)
    return g


def test_negative_cycle_restarts_the_iteration(monkeypatch):
    # a tie tolerance that hides every value gain stops the iteration at
    # once; the certificate rounds must then find a negative cycle and
    # restart from it until the mean is exact
    monkeypatch.setattr(meancycle, "TIE_TOLERANCE", 1e30)
    real = meancycle._parent_cycle
    found = []

    def recording(parent, src):
        cycle = real(parent, src)
        found.append(cycle)
        return cycle

    monkeypatch.setattr(meancycle, "_parent_cycle", recording)
    assert minimum_cycle_mean(tie_graph()) == Fraction(3, 2)
    assert any(c is not None for c in found)
    rng = random.Random(41)
    for feature in ["dead_ends", "parallel", "zero_weight", "self_loops"] * 20:
        g = random_graph(rng, feature)
        assert minimum_cycle_mean(g) == karp_min_mean(g)
    for _ in range(10):
        g = pick_graph(random_pick_family(rng, 8))
        assert minimum_cycle_mean(g) == karp_min_mean(g)


def corrupt_potential(monkeypatch):
    """Raise the potential at the head of one tight edge, which breaks
    that edge's inequality."""
    real = meancycle._settle

    def corrupted(pot, rw, src, dst, into):
        pot, negative = real(pot, rw, src, dst, into)
        pot = pot.copy()
        k = int(np.flatnonzero(pot[src] + rw == pot[dst])[0])
        pot[dst[k]] += 1
        return pot, negative

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
    g = Graph(3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 2)
    g.add_edge(2, 0, 0)
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
g = Graph(2)
g.add_edge(0, 1, 1)
g.add_edge(1, 0, 2)
try:
    meancycle.minimum_cycle_mean(g)
except CertificateError as exc:
    print("caught:", exc)
"""


def test_corrupted_policy_cycle_under_optimize():
    src = str(Path(sigmadim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_CYCLE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("caught:"), done.stdout
