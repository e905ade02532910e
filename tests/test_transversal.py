"""Branch-and-bound hitting sets against exhaustive enumeration and the
frozenset branch and bound."""

import random

from sigmadim.transversal import minimum_hitting_mask, minimum_hitting_set, minimum_hitting_set_size
from conftest import brute_min_hitting_set_size, oracle_minimum_hitting_set


def test_empty_collection():
    assert minimum_hitting_set([]) == frozenset()


def test_infeasible():
    assert minimum_hitting_set([set()]) is None
    assert minimum_hitting_set_size([{1}, set()]) is None


def test_unit_propagation_chain():
    assert minimum_hitting_set([{1}, {2}, {1, 2, 3}]) == frozenset({1, 2})


def test_witness_hits_everything():
    sets = [{1, 2}, {2, 3}, {3, 4}, {5}]
    hs = minimum_hitting_set(sets)
    assert all(hs & s for s in map(frozenset, sets))
    assert len(hs) == brute_min_hitting_set_size(sets)


def test_random_instances_match_exhaustive():
    rng = random.Random(11)
    for _ in range(120):
        universe = range(rng.randint(1, 9))
        sets = [
            frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
            for _ in range(rng.randint(1, 7))
        ]
        expect = brute_min_hitting_set_size(sets)
        got = minimum_hitting_set(sets)
        assert len(got) == expect
        assert all(got & s for s in sets)


def test_deterministic():
    sets = [{3, 1}, {1, 2}, {2, 3}]
    assert minimum_hitting_set(sets) == minimum_hitting_set(list(reversed(sets)))


def test_interval_instances_scale():
    # chain constraints like those of width-2 families at window 64
    sets = [{t, t + 1} for t in range(64)]
    assert minimum_hitting_set_size(sets) == 32


def _random_instance(rng, universe_size, infeasible_rate=0.1):
    universe = range(universe_size)
    sets = [
        frozenset(rng.sample(universe, rng.randint(1, min(5, universe_size))))
        for _ in range(rng.randint(0, 14))
    ]
    if sets and rng.random() < infeasible_rate:
        sets.insert(rng.randrange(len(sets) + 1), frozenset())
    return sets


def _as_masks(sets):
    return [sum(1 << x for x in s) for s in sets]


def test_mask_kernel_matches_the_frozenset_oracle_up_to_20_elements():
    rng = random.Random(17)
    for _ in range(400):
        sets = _random_instance(rng, rng.randint(1, 20))
        expect = oracle_minimum_hitting_set(sets)
        got = minimum_hitting_mask(_as_masks(sets))
        if expect is None:
            assert got is None, sets
            continue
        assert got.bit_count() == len(expect), sets
        assert all(got & m for m in _as_masks(sets)), sets


def test_mask_kernel_matches_exhaustive_enumeration():
    rng = random.Random(19)
    for _ in range(150):
        sets = _random_instance(rng, rng.randint(1, 20), infeasible_rate=0.2)
        expect = brute_min_hitting_set_size(sets)
        got = minimum_hitting_mask(_as_masks(sets))
        assert (None if got is None else got.bit_count()) == expect, sets


def test_mask_kernel_on_sparse_bits():
    # guard-bit masks of packed monomials: one bit every `width` positions
    rng = random.Random(23)
    for _ in range(100):
        width = rng.randint(2, 33)
        sets = _random_instance(rng, rng.randint(1, 16))
        spread = [sum(1 << (x * width + width - 1) for x in s) for s in sets]
        got = minimum_hitting_mask(spread)
        expect = brute_min_hitting_set_size(sets)
        assert (None if got is None else got.bit_count()) == expect, sets


def test_mask_kernel_edge_cases():
    assert minimum_hitting_mask([]) == 0
    assert minimum_hitting_mask([0]) is None
    assert minimum_hitting_mask([0b1, 0]) is None
    assert minimum_hitting_mask([0b110, 0b110, 0b011]) == 0b010


def test_elements_take_bits_in_sorted_order():
    sets = [{"b", "c"}, {"a", "c"}, {"a", "b"}]
    assert minimum_hitting_set(sets) == oracle_minimum_hitting_set(sets) == frozenset({"a", "b"})
    cells = [{(0, 2), (1, 1)}, {(1, 1), (2, 1)}, {(0, 2)}]
    assert minimum_hitting_set(cells) == frozenset({(0, 2), (1, 1)})
