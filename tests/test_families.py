"""Family combinatorics: transversals, window dimensions, free sets.

Window dimensions are checked against exhaustive free-subset search; note
the product example y*s(y) has d_i = i/2 + 1 for even i (witness
{0,2,...,i}), d_i = (i+1)/2 for odd i.
"""

import random

import numpy as np
import pytest

from sigmadim import (
    EMPTY,
    CapExceededError,
    SigmaFamily,
    SupportSet,
    UnitIdealError,
    family_from_monomials,
    is_free,
    monomial_krull_dim,
    tau_family,
    window_dim,
    window_taus,
)
from sigmadim.engine import _family_report, sigma_dim_family
from sigmadim.families import STATE_BIT_CAP, obligation_automaton
from sigmadim.meancycle import CertificateError, extract_min_mean_cycle, minimum_cycle_mean
from sigmadim.transversal import minimum_hitting_set_size
from conftest import (
    brute_max_free_size,
    brute_min_hitting_set_size,
    karp_min_mean,
    mono,
    oracle_family_members,
    oracle_obligation_graph,
    oracle_pick_graph,
    oracle_reachable,
    oracle_window_taus,
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

    def test_bitmask_pruning_matches_the_support_set_oracle(self):
        # duplicates, translated presentations of one support and members
        # that contain shifts of others, given as cell lists and SupportSets
        rng = random.Random(71)
        dropped = 0
        for _ in range(400):
            n = rng.randint(1, 3)
            base = [
                {(rng.randint(0, 3), rng.randint(1, n)) for _ in range(rng.randint(1, 4))}
                for _ in range(rng.randint(1, 5))
            ]
            members = []
            for cells in base:
                for _ in range(rng.randint(1, 3)):
                    t = rng.randint(0, 4)
                    moved = [(i + t, j) for i, j in sorted(cells)]
                    rng.shuffle(moved)
                    members.append(SupportSet(moved) if rng.random() < 0.3 else moved)
                if rng.random() < 0.5:  # a superset of a shift of this member
                    members.append(list(cells) + [(rng.randint(0, 5), rng.randint(1, n))])
            want = oracle_family_members(n, members)
            fam = SigmaFamily(n, members)
            assert fam.members == want, members
            assert [s.sorted_cells() for s in fam.members] == [s.sorted_cells() for s in want]
            assert fam.width == 1 + max(s.ord for s in want)
            distinct = {m if isinstance(m, SupportSet) else SupportSet(m) for m in members}
            dropped += len(distinct) - len(want)
        assert dropped > 400

    def test_pruned_member_is_still_validated(self):
        # the second member contains the first, so pruning would drop it,
        # but its index 2 lies beyond n = 1
        with pytest.raises(ValueError, match="beyond n=1"):
            SigmaFamily(1, [[(0, 1)], [(0, 1), (0, 2)]])
        with pytest.raises(ValueError, match="must lie in"):
            SigmaFamily(1, [[(0, 1)], [(0, 1), (-1, 1)]])
        with pytest.raises(ValueError, match="non-empty"):
            SigmaFamily(1, [[(0, 1)], []])


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
        for call in (window_taus, tau_family, window_dim):
            with pytest.raises(CapExceededError):
                call(wide, 0)

    def test_cap_reached(self):
        at_cap = SigmaFamily(2, [[(0, 1), (STATE_BIT_CAP // 2 - 1, 2)]])
        assert window_dim(at_cap, 2) == 6


def random_pending_family(rng: random.Random) -> SigmaFamily:
    """n <= 3, up to 4 members, at most 10 bits of n * width; the first
    member spans the width, and a quarter of the others sit in one
    column."""
    n = rng.randint(1, 3)
    width = rng.randint(1, 10 // n)
    members = [{(0, rng.randint(1, n)), (width - 1, rng.randint(1, n))}]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.25:
            a = rng.randint(0, width - 1)
            members.append({(a, rng.randint(1, n)) for _ in range(rng.randint(1, n))})
        else:
            cells = {(rng.randint(0, width - 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))}
            members.append(cells)
    return SigmaFamily(n, members)


PENDING_RNG = random.Random(61)
PENDING_FAMILIES = [random_pending_family(PENDING_RNG) for _ in range(300)]
# every {0, a, 12}: eleven members of order 12, 143 obligation bits
MANY_MASKS = SigmaFamily(1, [[(0, 1), (a, 1), (12, 1)] for a in range(1, 12)])


def random_translated_family(rng: random.Random) -> SigmaFamily:
    """n <= 3, two to four members of different orders, each written at
    a random translation, at most 12 bits of n * width."""
    n = rng.randint(1, 3)
    top = 12 // n - 1
    members = []
    for o in rng.sample(range(top + 1), rng.randint(2, min(4, top + 1))):
        t = rng.randint(0, 3)
        cells = {(t, rng.randint(1, n)), (t + o, rng.randint(1, n))}
        cells |= {(t + rng.randint(0, o), rng.randint(1, n)) for _ in range(rng.randint(0, 2))}
        members.append(cells)
    return SigmaFamily(n, members)


TRANSLATED_RNG = random.Random(83)
TRANSLATED_FAMILIES = [random_translated_family(TRANSLATED_RNG) for _ in range(500)]


class TestPendingGraph:
    """The obligation automaton: the pick automaton's quotient by the
    started translates each state hits, or leaves pending."""

    def test_reachable_classes_match_the_searched_quotient(self):
        # the states built in width - 1 rounds from the all-hit state are
        # the classes of the full pick states that a search from the
        # all-picked state reaches: the same graph, edge for edge
        dropped = 0
        for fam in TRANSLATED_FAMILIES + PENDING_FAMILIES + [MANY_MASKS]:
            want = oracle_obligation_graph(fam)
            g = obligation_automaton(fam)
            assert g.num_states == want.num_states, fam
            for a in ("src", "dst", "weight", "label"):
                assert np.array_equal(getattr(g, a), getattr(want, a)), (fam, a)
            dropped += (1 << fam.n * (fam.width - 1)) - g.num_states
        assert dropped > 1000

    def test_pending_graph_meets_the_solver_contract(self):
        # every state reachable from every other, each with an outgoing edge
        for fam in TRANSLATED_FAMILIES:
            g = obligation_automaton(fam)
            assert oracle_reachable(g, 0).all(), fam
            assert oracle_reachable(g, g.num_states - 1).all(), fam
            assert np.bincount(g.src, minlength=g.num_states).all(), fam

    def test_solves_on_the_quotient_run_no_search(self):
        # the automaton is reachable by construction, so the solver reads
        # it as built; its mean, witness and checked solve agree
        for fam in TRANSLATED_FAMILIES[:40] + [YS, MANY_MASKS]:
            g = obligation_automaton(fam)
            mean = minimum_cycle_mean(g)
            assert extract_min_mean_cycle(g)[0] == mean
            assert sigma_dim_family(fam, check=True) == fam.n - mean

    def test_mean_matches_the_full_automaton(self):
        # MANY_MASKS has 11 blocks of 13 bits, so its masks are Python ints
        assert sum(s.ord + 1 for s in MANY_MASKS.members) == 143
        for fam in PENDING_FAMILIES + TRANSLATED_FAMILIES + [MANY_MASKS]:
            g = obligation_automaton(fam)
            assert g.num_states <= 1 << fam.n * (fam.width - 1), fam
            mean = minimum_cycle_mean(g)
            assert mean == minimum_cycle_mean(oracle_pick_graph(fam)), fam
            assert mean == karp_min_mean(g), fam
            assert window_taus(fam, 12) == oracle_window_taus(fam, 12), fam

    def test_checked_solve(self):
        for fam in PENDING_FAMILIES + [MANY_MASKS]:
            want = fam.n - minimum_cycle_mean(oracle_pick_graph(fam))
            assert sigma_dim_family(fam, check=True) == want, fam

    def test_early_stop_fails_the_closure_check(self):
        # a build with one round fewer either raises or, when the last
        # round found nothing new, returns the whole automaton; explicit
        # checks, so this also holds under python -O
        fam = SigmaFamily(1, [[(0, 1), (1, 1), (4, 1)]])
        fam.width -= 1
        with pytest.raises(CertificateError, match="was not built"):
            obligation_automaton(fam)
        caught = 0
        for fam in PENDING_FAMILIES:
            want = obligation_automaton(fam)
            short = SigmaFamily(fam.n, fam.members)
            short.width -= 1
            try:
                g = obligation_automaton(short)
            except CertificateError:
                caught += 1
                continue
            for a in ("src", "dst", "weight", "label"):
                assert np.array_equal(getattr(g, a), getattr(want, a)), (fam, a)
        assert caught > 100

    def test_table_built_once_per_family(self):
        fam = SigmaFamily(2, [[(0, 1), (1, 2)], [(0, 2), (2, 1)]])
        g = obligation_automaton(fam)
        assert not any(a.flags.writeable for a in (g.src, g.dst, g.weight, g.label))
        _family_report(fam, 12, check=True)
        assert obligation_automaton(fam) is g
        twin = SigmaFamily(2, fam.members)
        assert twin == fam and hash(twin) == hash(fam)
        assert obligation_automaton(twin) is not g


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
