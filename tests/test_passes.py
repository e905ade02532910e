"""Tail-free signature passes and the deferred interreduction.

The signature passes of `buchberger` join each element after top
reduction only, and `GroebnerBasis` interreduces the minimal basis into
the reduced one on the first read of `packed`.  These tests hold each
pass to the plain Buchberger oracle on the prefix of inputs it has
joined, check that the dimension ladder never builds the reduced basis,
and that the verbs that print generators still get the oracle's basis,
also when the deferred interreduction overflows its fields.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sigmadim import LEX, SigmaVariable, buchberger, eliminate, elimination_order, leading_monomial_ideal
from sigmadim import groebner
from sigmadim.cli import main
from sigmadim.engine import truncation_generators
from sigmadim.parsing import polynomial_text
from conftest import oracle_buchberger, poly, random_system

COUPLED = ["s(y1)*y2 - y1 - 1", "s(y2) - y1*y2"]
# two `truncation` templates of the benchmark, with drawn coefficients
TEMPLATES = [
    ["y1*s(y1)", "y1*y2 - 2*y2*s(y2)"],
    ["s(y1)*y1 + 2*s(y1) - 3*y1 + 1"],
]


def _json(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--json"] + argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["result"]


def _system(texts):
    n = 2 if any("y2" in t for t in texts) else 1
    return [poly(t, n) for t in texts], n


class _Interreduced(Exception):
    pass


@pytest.mark.parametrize("texts", [COUPLED] + TEMPLATES)
def test_the_ladder_never_builds_the_reduced_basis(texts, monkeypatch):
    def refuse(*args, **kwargs):
        raise _Interreduced

    with monkeypatch.context() as m:
        m.setattr(groebner, "_interreduce", refuse)
        for verb in ("dimseq", "sdim"):
            result = _json([verb, *texts, "--imax", "5"])
            assert len(result["sequence"]) == 6, verb

    calls = []
    real = groebner._interreduce

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_interreduce", counted)
    F, _ = _system(texts)
    expected = oracle_buchberger(F)
    assert _json(["gb", *texts])["generators"] == [polynomial_text(g) for g in expected]
    assert calls, "gb printed generators that were never interreduced"

    variables = sorted(frozenset().union(*(f.support_vars() for f in F)))
    keep = [v for v in variables if v.shift == 0]
    order = elimination_order(set(variables) - set(keep))
    kept = [g for g in oracle_buchberger(F, order) if g.support_vars() <= set(keep)]
    kept.sort(key=lambda g: LEX.key(LEX.leading(g)[0]))
    assert eliminate(F, variables, keep) == kept


def _random_inputs(seed: int, count: int) -> list:
    """Truncation generators of random systems (n <= 2, order <= 2) at a
    depth up to 3, without zeros."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 2)
        F = [f for f in random_system(rng, n, max_order=2, max_degree=2) if not f.is_zero]
        if not F:
            continue
        depth = rng.randint(max(f.order() or 0 for f in F), 3)
        gens = [g for g in truncation_generators(F, depth) if not g.is_zero]
        if gens:
            cases.append(gens)
    return cases


def _oracle_lms(F) -> list:
    return sorted((LEX.leading(g)[0] for g in oracle_buchberger(F)), key=LEX.key)


@pytest.mark.parametrize("seed", [1, 2])
def test_each_pass_is_a_groebner_basis_of_its_prefix(seed):
    for gens in _random_inputs(seed, 50):
        basis = buchberger(gens)
        joined = sorted(gens, key=lambda f: LEX.key(LEX.leading(f)[0]))
        for k, lms in enumerate(basis.passes, 1):
            read = [groebner._monomial(m, basis.ring, basis.bits) for m in sorted(lms)]
            assert read == _oracle_lms(joined[:k]), ([str(g) for g in joined], k)
        if len(basis.passes) < len(joined):
            assert basis.passes[-1] == [0] and basis.is_unit_ideal
        assert leading_monomial_ideal(basis) == _oracle_lms(gens)
        assert basis._packed is None, "reading the passes interreduced the basis"
        assert list(basis.generators) == oracle_buchberger(gens)


@pytest.mark.parametrize("texts", [COUPLED] + TEMPLATES)
def test_an_overflowing_interreduction_reruns_wider(texts, monkeypatch):
    real = groebner._interreduce
    calls = []

    def overflow_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise groebner._Overflow
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_interreduce", overflow_once)
    F, n = _system(texts)
    gens = truncation_generators(F, 3)
    ring = [SigmaVariable(a, j) for a in range(4) for j in range(1, n + 1)]
    basis = buchberger(gens, ring)
    bits, lms, dims = basis.bits, leading_monomial_ideal(basis), groebner.basis_dimension(basis)
    assert list(basis.generators) == oracle_buchberger(gens)
    assert len(calls) == 2
    assert basis.bits == 2 * bits
    # the rerun's passes and minimal basis are packed to the new width
    assert leading_monomial_ideal(basis) == lms
    assert groebner.basis_dimension(basis) == dims
