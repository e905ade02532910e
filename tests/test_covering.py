"""Covering density: interval transversals, densities, complements.

c({0,2,3}) = 2/5 was pinned independently of the cycle search: the bracket
|tau(E,i)/i - c| <= (span+1)/i at i = 4*(span+1)*4^span is narrower than
the gap between any two fractions with denominator <= 2^span, leaving 2/5
as the only candidate.  The same Farey-pinning runs here for every E with
span <= 3.
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sigmadim import (
    IntSet,
    covering_density,
    optimal_complement,
    reflect,
    tau_interval,
)
from sigmadim.meancycle import extract_min_mean_cycle
from conftest import (
    brute_tau_interval,
    cover_automaton,
    oracle_coverage_graph,
    oracle_reachable,
    oracle_restrict_reachable,
    oracle_tau_interval,
)


class TestIntSet:
    def test_normalizes_translation(self):
        e = IntSet([5, 7, 8])
        assert e.elements == (0, 2, 3)
        assert e.translation == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntSet([])


class TestTauInterval:
    def test_single_point(self):
        assert tau_interval(IntSet([0]), 5) == 5

    def test_pair(self):
        assert tau_interval(IntSet([0, 1]), 5) == 3

    def test_gap_pair(self):
        assert tau_interval(IntSet([0, 2]), 4) == 2

    def test_matches_exhaustive(self):
        rng = random.Random(3)
        for _ in range(30):
            span = rng.randint(0, 4)
            elems = {0, span} | {rng.randint(0, span) for _ in range(2)}
            i = rng.randint(1, 7)
            e = IntSet(elems)
            assert tau_interval(e, i) == brute_tau_interval(e.elements, i)

    def test_matches_the_coverage_mask_dp(self):
        rng = random.Random(41)
        for _ in range(40):
            span = rng.randint(0, 12)
            e = IntSet({0, span} | {rng.randint(0, span) for _ in range(rng.randint(0, 5))})
            i = rng.randint(1, 60)
            assert tau_interval(e, i) == oracle_tau_interval(e.elements, i), (e, i)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            tau_interval(IntSet([0]), 0)

    def test_long_interval_keeps_only_the_running_value(self):
        # a list of every window number would hold 50,004 ints (~1.8 MB)
        e = IntSet([0, 1, 5])
        tracemalloc.start()
        try:
            got = tau_interval(e, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, peak
        assert got == oracle_tau_interval(e.elements, 50_000)


class TestCoveringDensity:
    def test_single_point(self):
        assert covering_density(IntSet([0])) == 1
        assert covering_density(IntSet([17])) == 1

    def test_adjacent_pair(self):
        assert covering_density(IntSet([0, 1]), check=True) == Fraction(1, 2)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_intervals(self, m):
        assert covering_density(IntSet(range(m + 1))) == Fraction(1, m + 1)

    def test_zero_two_three(self):
        assert covering_density(IntSet([0, 2, 3]), check=True) == Fraction(2, 5)

    def test_farey_pinning_small_spans(self):
        # trusts only tau_interval (itself checked against exhaustive search)
        for span in range(1, 4):
            for bits in range(1 << (span - 1)) if span > 1 else [0]:
                elems = {0, span} | {b + 1 for b in range(span - 1) if bits >> b & 1}
                e = IntSet(elems)
                v = 1 << span
                i = 4 * (span + 1) * v * v
                t = tau_interval(e, i)
                lo = Fraction(t, i) - Fraction(span + 1, i)
                hi = Fraction(t, i) + Fraction(span + 1, i)
                cands = {
                    Fraction(p, q)
                    for q in range(1, v + 1)
                    for p in range(q + 1)
                    if lo <= Fraction(p, q) <= hi
                }
                assert cands == {covering_density(e)}, e

    def test_reflection_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            span = rng.randint(1, 7)
            e = IntSet({0, span} | {rng.randint(0, span) for _ in range(3)})
            assert covering_density(reflect(e)) == covering_density(e)

    def test_reflect_examples(self):
        assert reflect(IntSet([0, 1, 3])).elements == (0, 2, 3)
        assert reflect(IntSet([0])).elements == (0,)
        assert reflect(IntSet([0, 5])).elements == (0, 5)

    def test_translation_invariance(self):
        assert covering_density(IntSet([4, 6, 7])) == covering_density(IntSet([0, 2, 3]))

    def test_convergence_bound(self):
        rng = random.Random(13)
        for _ in range(6):
            span = rng.randint(1, 6)
            e = IntSet({0, span} | {rng.randint(0, span) for _ in range(2)})
            c = covering_density(e)
            for i in (50, 100, 200):
                assert abs(Fraction(tau_interval(e, i), i) - c) <= Fraction(span + 1, i)


class TestOptimalComplement:
    def test_single_point(self):
        comp = optimal_complement(IntSet([0]))
        assert (comp.period, comp.offsets, comp.density) == (1, (0,), Fraction(1))

    def test_adjacent_pair(self):
        comp = optimal_complement(IntSet([0, 1]))
        assert comp.density == Fraction(1, 2)
        assert comp.covers(IntSet([0, 1]))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_interval_tiling(self, m):
        comp = optimal_complement(IntSet(range(m + 1)))
        assert comp.density == Fraction(1, m + 1)
        assert comp.covers(IntSet(range(m + 1)))

    def test_witness_valid_on_random_sets(self):
        rng = random.Random(17)
        for _ in range(20):
            span = rng.randint(1, 8)
            e = IntSet({0, span} | {rng.randint(0, span) for _ in range(3)})
            comp = optimal_complement(e)
            assert comp.covers(e)
            assert comp.density == covering_density(e)

    def test_deterministic(self):
        a = optimal_complement(IntSet([0, 2, 3]))
        b = optimal_complement(IntSet([0, 2, 3]))
        assert (a.period, a.offsets) == (b.period, b.offsets)


def test_coverage_graph_edges_match_a_loop():
    # a plain search from state 0 over the skip and place steps; the
    # states it meets, in increasing mask order, with their steps in order
    for elements in ([0], [0, 1], [0, 2, 3], [0, 1, 5], [0, 3, 4, 7]):
        e = IntSet(elements)

        def steps(s):
            if s & 1:
                yield s >> 1, 0
            yield (s | e.mask()) >> 1, 1

        seen, stack = {0}, [0]
        while stack:
            for t, _ in steps(stack.pop()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        index = {s: i for i, s in enumerate(sorted(seen))}
        want = [(index[s], index[t], p, p) for s in sorted(seen) for t, p in steps(s)]
        g = cover_automaton(e)
        got = list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist(), g.label.tolist()))
        assert got == want, e


def every_set(max_span: int):
    """Every IntSet of span at most max_span."""
    yield IntSet([0])
    for span in range(1, max_span + 1):
        for inner in range(1 << (span - 1)):
            yield IntSet([0, span] + [k for k in range(1, span) if inner >> (k - 1) & 1])


RULE_RNG = random.Random(61)
RULE_SETS = list(every_set(10)) + [
    IntSet({0, span} | {RULE_RNG.randint(0, span) for _ in range(RULE_RNG.randint(1, 3))})
    for span in [RULE_RNG.randint(11, 16) for _ in range(24)]
]


def test_coverage_graph_is_the_searched_full_automaton():
    # the obligation automaton of {-E} is the coverage automaton on the
    # masks that a search from state 0 reaches: the same graph, edge for
    # edge, so `cover` walks the same witness cycles
    dropped = 0
    for e in RULE_SETS:
        full = oracle_coverage_graph(e)
        want, s = oracle_restrict_reachable(full)
        g = cover_automaton(e)
        assert s == 0 and g.num_states == want.num_states, e
        for a in ("src", "dst", "weight", "label"):
            assert np.array_equal(getattr(g, a), getattr(want, a)), (e, a)
        dropped += full.num_states - g.num_states
    assert dropped > 100_000


def test_coverage_graph_meets_the_solver_contract():
    for e in RULE_SETS:
        g = cover_automaton(e)
        assert oracle_reachable(g).all(), e
        assert np.bincount(g.src, minlength=g.num_states).all(), e


def test_density_and_complement_match_the_searched_automaton():
    for e in RULE_SETS:
        mean, labels = extract_min_mean_cycle(oracle_restrict_reachable(oracle_coverage_graph(e))[0])
        comp = optimal_complement(e)
        assert covering_density(e) == mean == comp.density, e
        assert comp.period == len(labels), e
        assert comp.offsets == tuple(t for t, placed in enumerate(labels) if placed), e


def test_coverage_graph_cap():
    # the automaton builder applies no cap: `cover` and the density stop
    # above span STATE_BIT_CAP, tau from it on (span + 1 state bits)
    from sigmadim.families import STATE_BIT_CAP, CapExceededError

    wide = IntSet([0, STATE_BIT_CAP + 1])
    for call in (covering_density, optimal_complement):
        with pytest.raises(CapExceededError, match="needs 21 state bits \\(span\\), cap is 20"):
            call(wide)
    with pytest.raises(CapExceededError, match="needs 21 state bits \\(n\\*width\\), cap is 20"):
        tau_interval(IntSet([0, STATE_BIT_CAP]), 1)
    assert cover_automaton(IntSet(range(STATE_BIT_CAP + 2))).num_states == STATE_BIT_CAP + 2
