"""Finite-field enumeration oracle.

The intro system over F_3 at window order 1 has 25 solutions (case split
on y_0: if y_0 = 0 then y_1 is unconstrained and z_0*z_1 = 0 gives 5
pairs, 15 points; otherwise y_1 = 0 and z_0(y_0 - z_1) = 0 gives 5 pairs
each for 2 choices of y_0, 10 points), double-checked below against a
second direct enumeration.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from sigmadim import (
    BudgetExceededError,
    SigmaFamily,
    DifferencePolynomial,
    empirical_free_check,
    enumerate_truncated_solutions,
    is_free,
    projection_count,
)
from sigmadim.cli import main
from conftest import oracle_enumerate, poly, random_system


class TestEnumerate:
    def test_product_f2(self):
        sols = enumerate_truncated_solutions([poly("y1*s(y1)", 1)], 2, 1)
        assert set(sols.points) == {(0, 0), (0, 1), (1, 0)}

    def test_constant_sequences_f2(self):
        sols = enumerate_truncated_solutions([poly("s(y1) - y1", 1)], 2, 2)
        assert set(sols.points) == {(0, 0, 0), (1, 1, 1)}

    def test_intro_f3(self):
        F = [poly("y1*s(y1)", 2), poly("y1*y2 - y2*s(y2)", 2)]
        sols = enumerate_truncated_solutions(F, 3, 1)
        assert len(sols) == 25
        # independent re-enumeration; cells are (0,1),(0,2),(1,1),(1,2)
        direct = {
            (a0, b0, a1, b1)
            for a0, b0, a1, b1 in product(range(3), repeat=4)
            if a0 * a1 % 3 == 0 and (a0 * b0 - b0 * b1) % 3 == 0
        }
        assert set(sols.points) == direct

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_truncated_solutions([poly("y1", 1)], 5, 9, budget=10**6)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            enumerate_truncated_solutions([poly("y1", 1)], 6, 1)

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(ValueError):
            enumerate_truncated_solutions([poly("1/2*y1", 1)], 3, 1)

    def test_odometer_order(self):
        sols = enumerate_truncated_solutions([poly("y1*s(y1)", 1)], 2, 1)
        assert sols.points == ((0, 0), (0, 1), (1, 0))

    def test_int64_range_guard(self):
        # A nonzero constant rejects every point before the first cell, so
        # none of these would allocate a large frontier even unguarded.
        one = [poly("1", 1)]
        with pytest.raises(ValueError, match="int64"):
            enumerate_truncated_solutions(one, 2, 62, budget=10**20)  # 2^63 points
        with pytest.raises(ValueError, match="int64"):
            enumerate_truncated_solutions(one, 2147483659, 0, budget=10**20)  # p > 2^31
        assert len(enumerate_truncated_solutions(one, 2, 61, budget=10**20)) == 0
        assert len(enumerate_truncated_solutions(one, 2**31 - 1, 0, budget=10**20)) == 0

    def test_int64_range_guard_cli(self, monkeypatch, capsys):
        # 3^40 > 2^63: the odometer codes would wrap without the guard
        monkeypatch.setenv("SDIM_BUDGET", str(10**20))
        code = main(["solve", "s(y1) - y1", "--prime", "3", "--order", "39"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "int64" in captured.err


class TestAgainstWholeGrid:
    """The cell-by-cell search lists exactly the points, in the same order,
    that evaluating every equation on the whole grid keeps."""

    def check(self, F, p, i):
        assert enumerate_truncated_solutions(F, p, i).points == oracle_enumerate(F, p, i)

    def test_random_systems(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 2)
            F = random_system(rng, n, max_order=rng.randint(0, 2), max_degree=2)
            p = rng.choice((2, 3, 5))
            i = rng.choice([i for i in range(4) if p ** (n * (i + 1)) <= 5**6])
            self.check(F, p, i)

    def test_zero_polynomial(self):
        self.check([DifferencePolynomial.zero(2)], 3, 1)

    def test_nonzero_constant(self):
        self.check([poly("2", 2)], 3, 1)
        assert enumerate_truncated_solutions([poly("3", 2)], 3, 1).points == tuple(
            product(range(3), repeat=4)
        )

    def test_no_variables(self):
        for c in (2, 3):
            self.check([DifferencePolynomial.constant(c, 0)], 3, 1)

    def test_order_above_window(self):
        self.check([poly("s^3(y1) - y2", 2)], 3, 2)
        self.check([poly("s^3(y1) - y2", 2), poly("y1*y2 - 1", 2)], 3, 2)

    def test_rejection_only_at_last_cell(self):
        self.check([poly("s^3(y2)*s^3(y1) - 1", 2)], 3, 3)
        self.check([poly("y1*s^3(y2) - s^3(y2)*s^3(y1)", 2)], 3, 3)


class TestProjection:
    @pytest.fixture()
    def product_sols(self):
        return enumerate_truncated_solutions([poly("y1*s(y1)", 1)], 3, 1)

    def test_first_coordinate_full(self, product_sols):
        assert projection_count(product_sols, [(0, 1)]) == 3

    def test_both_coordinates(self, product_sols):
        assert projection_count(product_sols, [(0, 1), (1, 1)]) == 5

    def test_forced_zero(self):
        sols = enumerate_truncated_solutions([poly("y1", 1)], 3, 1)
        assert projection_count(sols, [(0, 1)]) == 1

    def test_duplicate_cells_count_once(self, product_sols):
        assert projection_count(product_sols, [(0, 1), (0, 1)]) == 3

    def test_cell_outside_window(self, product_sols):
        with pytest.raises(ValueError):
            projection_count(product_sols, [(7, 1)])

    def test_fiber_counting_inequalities(self):
        rng = random.Random(3)
        F = [poly("y1*s(y1)", 2), poly("y1*y2 - y2*s(y2)", 2)]
        sols = enumerate_truncated_solutions(F, 3, 1)
        cells = list(sols.cells)
        for _ in range(10):
            big = rng.sample(cells, rng.randint(1, 3))
            small = rng.sample(big, rng.randint(1, len(big)))
            cb = projection_count(sols, big)
            cs = projection_count(sols, small)
            p = sols.p
            assert cs <= cb * p ** len(set(small) - set(big))
            assert cs >= -(-cb // p ** len(set(big) - set(small)))  # ceil division


class TestEmpiricalFreeCheck:
    def test_single_coordinate(self):
        assert empirical_free_check([poly("y1*s(y1)", 1)], 3, 1, [(0, 1)]) == 1

    def test_duplicate_cells(self):
        assert empirical_free_check([poly("y1*s(y1)", 1)], 3, 1, [(0, 1), (0, 1)]) == 1

    def test_pair(self):
        got = empirical_free_check([poly("y1*s(y1)", 1)], 3, 1, [(0, 1), (1, 1)])
        assert got == Fraction(5, 9)

    def test_zero_system(self):
        zero = DifferencePolynomial.zero(1)
        assert empirical_free_check([zero], 3, 1, [(0, 1), (1, 1)]) == 1

    def test_agrees_with_is_free_for_monomial_systems(self):
        # squarefree monomial systems have no field-size pathologies
        rng = random.Random(5)
        cases = [
            ([poly("y1*s(y1)", 1)], SigmaFamily(1, [[(0, 1), (1, 1)]]), 1, 3),
            ([poly("y1", 1)], SigmaFamily(1, [[(0, 1)]]), 1, 2),
            (
                [poly("y1*y2", 2), poly("y1*s(y1)", 2)],
                SigmaFamily(2, [[(0, 1), (0, 2)], [(0, 1), (1, 1)]]),
                1,
                2,
            ),
        ]
        for F, family, i, _n in cases:
            n = F[0].num_vars
            cells = [(a, j) for a in range(i + 1) for j in range(1, n + 1)]
            for p in (2, 3, 5):
                if p ** len(cells) > 10**6:
                    continue
                sols = enumerate_truncated_solutions(F, p, i)
                for bits in range(1, 1 << len(cells)):
                    T = [c for k, c in enumerate(cells) if bits >> k & 1]
                    frac = Fraction(projection_count(sols, T), p ** len(T))
                    assert (frac == 1) == is_free(T, family), (F, p, T)
