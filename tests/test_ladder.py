"""The truncation ladder read off one Groebner basis run.

`truncated_dim_sequence` runs `buchberger` once, on the deepest window,
and reads each window's dimension off the pass that joins that window's
last input.  These tests hold it to the per-window ladder
(`conftest.oracle_dim_sequence`), on random systems and on the cases
where the prefix reading is easiest to get wrong: a window with no
inputs, a window that becomes the unit ideal, a nonzero constant, and a
deepest window whose exponents outgrow the first field width.
"""

import random

import pytest

import sigmadim.engine
from sigmadim import EMPTY, CertificateError, DifferencePolynomial, truncated_dim_sequence
from conftest import oracle_dim_sequence, poly, random_system


def _random_cases(seed: int, count: int) -> list:
    """(system, i_max) with n <= 2, order <= 2 and i_max <= 4."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 2)
        F = [f for f in random_system(rng, n, max_order=2, max_degree=2) if not f.is_zero]
        if not F:
            continue
        cases.append((F, rng.randint(max(f.order() or 0 for f in F), 4)))
    return cases


NAMED = {
    # both generators have order 1: window 0 has no inputs
    "empty window 0": ([poly("y1*s(y1)", 2), poly("y1*y2 - y2*s(y2)", 2)], 3),
    "unit from window 1": ([poly("y1 - 1", 1), poly("s(y1) - 2", 1)], 3),
    "nonzero constant": ([poly("s(y1)*y1 - y1", 1), DifferencePolynomial.constant(3, 1)], 2),
    # window 1 fits 16-bit fields, window 2 needs 32
    "overflows 8 bits": ([poly("y1^300*s(y1) - 1", 1)], 2),
}


def _mismatch(F, i_max: int) -> str | None:
    """What differs between the one-run ladder and the per-window oracle."""
    report = truncated_dim_sequence(F, i_max)
    d, basis = oracle_dim_sequence(F, i_max)
    if report.d_sequence() != d:
        return f"d = {report.d_sequence()}, oracle {d}"
    if report.basis.generators != basis.generators or report.basis.ring != basis.ring:
        return f"basis {report.basis}, oracle {basis}"
    return None


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_match_the_per_window_ladder(name):
    F, i_max = NAMED[name]
    assert _mismatch(F, i_max) is None


def test_named_cases_read_as_expected():
    d = truncated_dim_sequence(*NAMED["empty window 0"]).d_sequence()
    assert d[0] == 2
    assert truncated_dim_sequence(*NAMED["unit from window 1"]).d_sequence() == [0] + [EMPTY] * 3
    report = truncated_dim_sequence(*NAMED["nonzero constant"])
    assert report.d_sequence() == [EMPTY] * 3
    assert report.certified_value is None
    report = truncated_dim_sequence(*NAMED["overflows 8 bits"])
    assert report.basis.bits == 32
    assert report.d_sequence() == [1, 1, 1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_systems_match_the_per_window_ladder(seed):
    for F, i_max in _random_cases(seed, 40):
        assert _mismatch(F, i_max) is None, ([str(f) for f in F], i_max)


def test_reading_the_wrong_prefix_is_caught(monkeypatch):
    real = sigmadim.engine._window_inputs
    monkeypatch.setattr(sigmadim.engine, "_window_inputs", lambda orders, i: real(orders, i) + 1)
    caught = 0
    for F, i_max in _random_cases(1, 40):
        try:
            caught += _mismatch(F, i_max) is not None
        except CertificateError:  # the order-0 check sees it first
            caught += 1
    assert caught
    for name in ("empty window 0", "unit from window 1"):
        assert _mismatch(*NAMED[name]) is not None, name


def test_order_zero_check_reads_the_run(monkeypatch):
    # a run that kept only its first pass reads d_i = 2(i+1) - 1 for
    # y1*y2 at every i >= 1: not (i + 1) * d_0
    real = sigmadim.engine.buchberger

    def first_pass_only(*args, **kwargs):
        basis = real(*args, **kwargs)
        basis.passes = basis.passes[:1]
        return basis

    monkeypatch.setattr(sigmadim.engine, "buchberger", first_pass_only)
    with pytest.raises(CertificateError):
        truncated_dim_sequence([poly("y1*y2", 2)], 3)


def _ladder_basis(F, i_max: int):
    from sigmadim.engine import _window_vars, truncation_generators
    from sigmadim.groebner import LEX, buchberger

    return buchberger(truncation_generators(F, i_max), _window_vars(i_max, F[0].num_vars), LEX)


@pytest.mark.parametrize("seed", [4, 5])
def test_prefix_dimension_matches_unpacked_supports_on_every_pass(seed):
    # the guard-bit masks against the fields unpacked one by one
    from sigmadim.families import monomial_krull_dim
    from sigmadim.groebner import _fields, prefix_dimension

    cases = _random_cases(seed, 40) + list(NAMED.values())
    for F, i_max in cases:
        basis = _ladder_basis(F, i_max)
        width = len(basis.ring)
        for k in range(len(basis.passes) + 2):
            if k == 0:
                expect = width
            else:
                lms = basis.passes[min(k, len(basis.passes)) - 1]
                supports = [[j for j, _ in _fields(lm, basis.ring, basis.bits)] for lm in lms]
                expect = monomial_krull_dim(supports, width)
            assert prefix_dimension(basis, k, width) == expect, ([str(f) for f in F], i_max, k)


@pytest.mark.parametrize("seed", [6, 7])
def test_leading_family_matches_the_monomial_route(seed):
    from sigmadim import UnitIdealError, family_from_monomials, leading_monomial_ideal
    from sigmadim.engine import _leading_family

    cases = _random_cases(seed, 40) + list(NAMED.values())
    units = 0
    for F, i_max in cases:
        basis = _ladder_basis(F, i_max)
        n = F[0].num_vars
        lms = leading_monomial_ideal(basis)
        if basis.is_unit_ideal:
            units += 1
            with pytest.raises(UnitIdealError):
                family_from_monomials([m.squarefree_part() for m in lms], n)
            with pytest.raises(UnitIdealError):
                _leading_family(basis, n)
            continue
        expect = family_from_monomials([m.squarefree_part() for m in lms], n)
        got = _leading_family(basis, n)
        assert got == expect and got.members == expect.members, ([str(f) for f in F], i_max)
    assert units  # the unit ideal is among the cases
