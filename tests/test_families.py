"""Family combinatorics: transversals, window dimensions, free sets.

Window dimensions are checked against exhaustive free-subset search; note
the product example y*s(y) has d_i = i/2 + 1 for even i (witness
{0,2,...,i}), d_i = (i+1)/2 for odd i.
"""

import random

import pytest

from sigmadim import (
    EMPTY,
    CapExceededError,
    SigmaFamily,
    SupportSet,
    UnitIdealError,
    family_from_monomials,
    is_free,
    max_free_subset,
    monomial_krull_dim,
    tau_family,
    window_dim,
    window_taus,
)
from sigmadim.families import STATE_BIT_CAP
from sigmadim.transversal import minimum_hitting_set_size
from conftest import (
    brute_max_free_size,
    brute_min_hitting_set_size,
    mono,
    oracle_pick_graph,
    window_constraints,
)

YS = SigmaFamily(1, [[(0, 1), (1, 1)]])  # the y*s(y) family


def random_family(rng: random.Random, n=None, max_ord=2) -> SigmaFamily:
    n = n or rng.randint(1, 2)
    members = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        cells = {(rng.randint(0, max_ord), rng.randint(1, n)) for _ in range(size)}
        members.append(cells)
    return SigmaFamily(n, members)


class TestConstruction:
    def test_squarefree_reduction(self):
        fam = family_from_monomials([mono("y1^2*s(y1)^3", 1)], 1)
        assert fam == SigmaFamily(1, [[(0, 1), (1, 1)]])

    def test_shift_redundancy(self):
        fam = family_from_monomials([mono("y1*s(y1)", 1), mono("s^2(y1)*s^3(y1)", 1)], 1)
        assert fam == YS

    def test_containment_redundancy(self):
        fam = family_from_monomials([mono("y1*y2", 2), mono("y1*y2*s(y1)", 2)], 2)
        assert fam == SigmaFamily(2, [[(0, 1), (0, 2)]])

    def test_unit_rejected(self):
        from sigmadim import SigmaMonomial

        with pytest.raises(UnitIdealError):
            family_from_monomials([SigmaMonomial()], 1)

    def test_support_normalized(self):
        s = SupportSet([(2, 1), (3, 1)])
        assert sorted(s.cells) == [(0, 1), (1, 1)]
        assert s.translation == 2

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            SupportSet([])


class TestTau:
    def test_product_window_three(self):
        assert tau_family(YS, 3) == 2

    def test_single_cell_hits_every_column(self):
        fam = SigmaFamily(1, [[(0, 1)]])
        assert tau_family(fam, 5) == 6

    def test_order_zero_pair(self):
        fam = SigmaFamily(2, [[(0, 1), (0, 2)]])
        assert tau_family(fam, 2) == 3  # brute force: one cell per column

    def test_matches_exhaustive_hitting(self):
        rng = random.Random(2)
        for _ in range(25):
            fam = random_family(rng)
            i = rng.randint(0, 4)
            assert tau_family(fam, i) == (
                brute_min_hitting_set_size(window_constraints(fam, i)) or 0
            )

    def test_vacuous_below_member_order(self):
        fam = SigmaFamily(1, [[(0, 1), (2, 1)]])
        assert tau_family(fam, 1) == 0

    def test_monotone_steps(self):
        rng = random.Random(3)
        for _ in range(15):
            fam = random_family(rng)
            for i in range(5):
                lo, hi = tau_family(fam, i), tau_family(fam, i + 1)
                assert lo <= hi <= lo + fam.n


class TestWindowTaus:
    def test_matches_branch_and_bound(self):
        # the automaton pass against the hitting-set oracle it replaced
        rng = random.Random(12)
        for _ in range(300):
            fam = random_family(rng)
            taus = window_taus(fam, 10)
            for i in range(11):
                assert taus[i] == minimum_hitting_set_size(window_constraints(fam, i)), (fam, i)

    def test_long_pass_matches_the_full_state_oracle(self):
        # a state that only blocked steps reach needs up to width - 1 of
        # them: its cost must stay capped at INF over a long pass instead
        # of wrapping around int64
        fam = SigmaFamily(1, [[(0, 1), (1, 1)], [(0, 1), (9, 1)]])
        g = oracle_pick_graph(fam)
        edges = list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()))
        cost = {g.num_states - 1: 0}  # the all-picked start
        want = []
        for _ in range(101):
            nxt = {}
            for u, v, w in edges:
                if u in cost and (v not in nxt or cost[u] + w < nxt[v]):
                    nxt[v] = cost[u] + w
            cost = nxt
            want.append(min(cost.values()))
        assert window_taus(fam, 100) == want

    def test_prefix_of_longer_pass(self):
        rng = random.Random(13)
        for _ in range(10):
            fam = random_family(rng)
            assert window_taus(fam, 4) == window_taus(fam, 12)[:5]
            assert window_taus(fam, 12)[7] == tau_family(fam, 7)

    def test_empty_family_and_empty_range(self):
        assert window_taus(SigmaFamily(3, []), 4) == [0] * 5
        assert window_taus(YS, -1) == []

    def test_cap_exceeded(self):
        wide = SigmaFamily(1, [[(0, 1), (STATE_BIT_CAP, 1)]])
        for call in (window_taus, tau_family, window_dim, max_free_subset):
            with pytest.raises(CapExceededError):
                call(wide, 0)

    def test_cap_reached(self):
        at_cap = SigmaFamily(2, [[(0, 1), (STATE_BIT_CAP // 2 - 1, 2)]])
        assert window_dim(at_cap, 2) == 6


class TestWindowDim:
    def test_product_even_window(self):
        # window {0..4}: {0,2,4} is free, so d_4 = 3
        assert window_dim(YS, 4) == 3

    def test_product_matches_exhaustive(self):
        for i in range(7):
            assert window_dim(YS, i) == brute_max_free_size(YS, i)

    def test_empty_family(self):
        assert window_dim(SigmaFamily(2, []), 3) == 8

    def test_everything_killed(self):
        fam = SigmaFamily(1, [[(0, 1)]])
        for i in range(4):
            assert window_dim(fam, i) == 0

    def test_subadditive(self):
        rng = random.Random(4)
        for _ in range(10):
            fam = random_family(rng)
            e = {i: window_dim(fam, i - 1) for i in range(1, 9)}
            for i in range(1, 5):
                for j in range(1, 5):
                    assert e[i + j] <= e[i] + e[j]

    def test_complementarity_exhaustive(self):
        rng = random.Random(5)
        for _ in range(12):
            fam = random_family(rng)
            for i in range(4):
                if fam.n * (i + 1) <= 16:
                    assert window_dim(fam, i) == brute_max_free_size(fam, i)

    def test_complementarity_twenty_cells(self):
        import numpy as np

        for fam, i in [(YS, 19), (SigmaFamily(2, [[(0, 1), (0, 2)]]), 9)]:
            cells = [(a, j) for a in range(i + 1) for j in range(1, fam.n + 1)]
            assert len(cells) == 20
            masks = []
            for constraint in window_constraints(fam, i):
                mask = 0
                for c in constraint:
                    mask |= 1 << cells.index(c)
                masks.append(mask)
            picks = np.arange(1 << 20, dtype=np.int64)
            free = np.ones(len(picks), dtype=bool)
            for m in masks:
                free &= (picks & m) != m
            table = np.array([bin(x).count("1") for x in range(1 << 10)], dtype=np.int64)
            counts = table[picks[free] & 1023] + table[(picks[free] >> 10) & 1023]
            assert int(counts.max()) == window_dim(fam, i)


class TestIsFree:
    def test_alternating_free(self):
        assert is_free([(0, 1), (2, 1), (4, 1)], YS)

    def test_consecutive_not_free(self):
        assert not is_free([(1, 1), (2, 1)], YS)

    def test_empty_set_free(self):
        assert is_free([], YS)

    def test_shifted_member_detected_deep(self):
        fam = SigmaFamily(1, [[(0, 1), (2, 1)]])
        assert not is_free([(5, 1), (7, 1)], fam)
        assert is_free([(5, 1), (6, 1)], fam)

    @pytest.mark.parametrize("cells", [[(-1, 1)], [(0, 0)], [(0, 2)], [(0, 1), (3, 2)]])
    def test_cells_outside_the_ring_rejected(self, cells):
        with pytest.raises(ValueError, match="N x"):
            is_free(cells, YS)


class TestMaxFreeSubset:
    def test_product_window(self):
        assert max_free_subset(YS, 3) == {(0, 1), (2, 1)}

    def test_empty_family_full_window(self):
        assert max_free_subset(SigmaFamily(1, []), 1) == {(0, 1), (1, 1)}

    def test_killed_column(self):
        assert max_free_subset(SigmaFamily(1, [[(0, 1)]]), 2) == frozenset()

    def test_witness_properties(self):
        rng = random.Random(6)
        for _ in range(15):
            fam = random_family(rng)
            i = rng.randint(0, 4)
            T = max_free_subset(fam, i)
            assert is_free(T, fam)
            assert len(T) == window_dim(fam, i)

    def test_lexicographically_smallest(self):
        rng = random.Random(7)
        for _ in range(8):
            fam = random_family(rng, n=1)
            i = rng.randint(1, 3)
            T = sorted(max_free_subset(fam, i))
            cells = [(a, j) for a in range(i + 1) for j in range(1, fam.n + 1)]
            best = None
            target = window_dim(fam, i)
            from itertools import combinations

            for combo in combinations(sorted(cells), target):
                if is_free(combo, fam):
                    best = list(combo)
                    break
            assert T == (best or [])


    def test_matches_hitting_set_greedy(self):
        # the greedy scan over branch-and-bound hitting sets that the
        # automaton backtrack replaced, n <= 2
        rng = random.Random(8)
        for _ in range(25):
            fam = random_family(rng)
            i = rng.randint(0, 5)
            constraints = window_constraints(fam, i)
            tau = minimum_hitting_set_size(constraints)
            taken: set = set()
            for cell in sorted((a, j) for a in range(i + 1) for j in range(1, fam.n + 1)):
                banned = taken | {cell}
                if minimum_hitting_set_size([c - banned for c in constraints]) == tau:
                    taken.add(cell)
            assert max_free_subset(fam, i) == taken, (fam, i)


class TestMonomialKrullDim:
    def test_two_lines(self):
        assert monomial_krull_dim([{"x", "y"}], 2) == 1

    def test_triangle(self):
        assert monomial_krull_dim([{"x", "y"}, {"y", "z"}, {"x", "z"}], 3) == 1

    def test_zero_ideal(self):
        assert monomial_krull_dim([], 5) == 5

    def test_unit_ideal(self):
        assert monomial_krull_dim([set()], 3) is EMPTY

    def test_invariant_under_duplicates_and_supersets(self):
        base = [{1, 2}, {2, 3}]
        d = monomial_krull_dim(base, 4)
        assert monomial_krull_dim(base + [{1, 2}], 4) == d
        assert monomial_krull_dim(base + [{1, 2, 4}], 4) == d
