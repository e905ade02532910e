"""Seed-generated job streams, one per workload.

A job is one CLI verb (always with ``--json``, so the checks read exact
fractions).  Each workload mixes templates in a fixed round; a template
fixes the input's shape and depth (n, order, degree, span, ``--imax``) and
draws the free parameters from the seed.  Parameters come from a shuffled
deck that is reshuffled when exhausted, so a run samples its parameter
space evenly and two seeds see mixes of equal shape.  No draw is ever
discarded for its running time: every template's depth was fixed so that
its slowest parameter choice fits a run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Callable, Iterator, Optional

import checks
from algebra import evaluate, monomial, render, shifted

FAMILY_ARG = "@family"  # replaced by the path of the job's family file


@dataclass
class Job:
    argv: list[str]
    check: Callable[[dict], Optional[str]]
    family: Optional[str] = None  # family file text, for ``--family``

    def label(self) -> str:
        """Stable description of the input, independent of file paths."""
        return json.dumps([self.argv, self.family])


def _deck(rng: random.Random, items) -> Iterator:
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _report_job(verb_args: list[str], n: int, imax: int, method: str, family=None) -> Job:
    argv = ["--json"] + verb_args + ["--imax", str(imax)]
    return Job(argv, lambda r: checks.report(r, n, imax, method), family)


# ---------------------------------------------------------------------------
# truncation: non-monomial systems, n <= 2, order <= 2, degree <= 2

Y1, Y2, S1, S2 = (0, 1), (0, 2), (1, 1), (1, 2)
SS1 = (2, 1)


def _system(rng, verbs, imax, make, params):
    for args in _deck(rng, product(verbs, *params)):
        verb, coeffs = args[0], args[1:]
        polys = [render(p) for p in make(*coeffs)]
        n = 2 if any("y2" in p for p in polys) else 1
        yield _report_job([verb] + polys, n, imax, "truncation")


SMALL = (1, 2, 3)
SIGNED = (-3, -2, -1, 1, 2, 3)
BOTH = ("dimseq", "sdim")


def coupled(rng, verb):
    """The coupled system s(y1)*y2 - y1 - 1, s(y2) - y1*y2 with drawn
    coefficients: the heavy Buchberger job."""
    return _system(rng, (verb,), 4, lambda a, b, c: [
        [(a, monomial(S1, Y2)), (-1, monomial(Y1)), (-b, ())],
        [(1, monomial(S2)), (-c, monomial(Y1, Y2))],
    ], (SMALL, SMALL, SMALL))


def two_var(rng):
    return _system(rng, BOTH, 6, lambda a, b: [
        [(b, monomial(Y1, S1))],
        [(1, monomial(Y1, Y2)), (-a, monomial(Y2, S2))],
    ], (SMALL, SMALL))


def riccati(rng):
    return _system(rng, BOTH, 5, lambda a, b, c: [
        [(1, monomial(S1, Y1)), (a, monomial(S1)), (b, monomial(Y1)), (c, ())],
    ], (SIGNED, SMALL, SIGNED))


def second_order(rng):
    return _system(rng, BOTH, 5, lambda a, b: [
        [(1, monomial(SS1, Y1)), (-a, monomial((S1, 2))), (-b, ())],
    ], (SIGNED, SIGNED))


def mixed(rng):
    return _system(rng, BOTH, 5, lambda a, b, c: [
        [(1, monomial(S1)), (-a, monomial(Y1, Y2))],
        [(1, monomial((S2, 2))), (-b, monomial(Y1)), (-c, ())],
    ], (SIGNED, SMALL, SIGNED))


def order_zero(rng):
    return _system(rng, ("dimseq",), 5, lambda a, b: [
        [(1, monomial((Y1, 2))), (-a, monomial(Y2))],
        [(1, monomial(Y1, Y2)), (-b, ())],
    ], (SIGNED, SIGNED))


def linear(rng):
    return _system(rng, BOTH, 8, lambda a, b: [
        [(1, monomial(SS1)), (-a, monomial(S1)), (-b, monomial(Y1))],
    ], (SIGNED, SIGNED))


# ---------------------------------------------------------------------------
# families and monomials: pick and coverage automata


def _cells_text(cells) -> str:
    return "{" + ",".join(f"({a},{j})" for a, j in sorted(cells)) + "}"


def _family_text(members) -> str:
    return "".join(_cells_text(m) + "\n" for m in members)


def _family_job(members, n, imax) -> Job:
    return _report_job(["sdim", "--family", FAMILY_ARG], n, imax, "family", _family_text(members))


def family_one_var(rng, width, imax):
    """n = 1: one member {0, a, width-1}, so `width` state bits.  With three
    cells the automaton size, and so the cost, is set by the width alone."""
    top = width - 1
    for a, t in _deck(rng, product(range(1, top), range(3))):
        yield _family_job([[(t, 1), (t + a, 1), (t + top, 1)]], 1, imax)


def family_two_var(rng, width, imax):
    """n = 2: cross members {(0,1),(a,2)} and {(0,2),(b,1),(width-1,1)};
    2*width state bits."""
    top = width - 1
    for a, b, swap in _deck(rng, product(range(1, width), range(1, top), (False, True))):
        members = [[(0, 1), (a, 2)], [(0, 2), (b, 1), (top, 1)]]
        if swap:
            members = [[(s, 3 - j) for s, j in m] for m in members]
        yield _family_job(members, 2, imax)


def _int_set(rng, span, size):
    return sorted({0, span} | set(rng.sample(range(1, span), size - 2)))


def _shift_monomial(shifts, base):
    return render([(1, monomial(*((base + s, 1) for s in shifts)))])


def cover(rng, spans):
    for span, size, t in _deck(rng, product(spans, (3, 4), (0, 2, 5))):
        e = [x + t for x in _int_set(rng, span, size)]
        yield Job(["--json", "cover", ",".join(map(str, e))], partial(checks.cover, elements=e))


def monomial_one_var(rng, spans, imax=None):
    """Univariate monomial: the covering path.  Without ``imax`` the
    program's default depth of 64 windows is used."""
    for span, size, base in _deck(rng, product(spans, (3, 4), (0, 1, 2))):
        mono = _shift_monomial(_int_set(rng, span, size), base)
        argv = ["--json", "sdim", "--monomial", mono]
        depth = 64 if imax is None else imax
        if imax is not None:
            argv += ["--imax", str(imax)]
        yield Job(argv, partial(checks.report, n=1, imax=depth, method="covering"))


def monomial_two_var(rng, width, imax):
    """Two bivariate monomials: the pick automaton on 2*width bits."""
    top = width - 1
    for a, b in _deck(rng, product(range(1, width), range(1, top))):
        m1 = render([(1, monomial((0, 1), (top, 2)))])
        m2 = render([(1, monomial((0, 2), (a, 1), (b, 2)))])
        yield _report_job(["sdim", "--monomial", m1, "--monomial", m2], 2, imax, "family")


# ---------------------------------------------------------------------------
# windows: branch-and-bound window dimensions and the tau DP


def family_windows(rng, span, size, imax):
    """One univariate member of `size` cells and the given span at a deep
    window; presentation shifted by a drawn translation."""
    sets = [[0, *mid, span] for mid in combinations(range(1, span), size - 2)]
    for e, t in _deck(rng, product(sets, range(4))):
        yield _family_job([[(t + x, 1) for x in e]], 1, imax)


def tau(rng, spans, length):
    for span, size in _deck(rng, product(spans, (3, 4))):
        e = _int_set(rng, span, size)
        argv = ["--json", "tau", ",".join(map(str, e)), "--order", str(length)]
        yield Job(argv, partial(checks.tau, elements=e, length=length))


# ---------------------------------------------------------------------------
# certify: elimination, certificates and F_p enumeration
#
# Every system vanishes on a planted constant sequence y_j(k) = c_j, so each
# element of the ideal (and each certificate) must vanish there too.


def _planted(rng):
    """Two generators of order 1 and degree 2 in y1, y2 whose constant
    terms make the drawn point (c1, c2) a solution."""
    c1, c2 = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    a, b, c = (rng.choice(SIGNED) for _ in range(3))
    f = [(a, monomial(Y1, S1)), (b, monomial(Y2))]
    g = [(1, monomial(Y1, Y2)), (c, monomial(S2))]
    point = (c1, c2)
    polys = [tuple(p) + ((-evaluate(p, lambda cell: point[cell[1] - 1]), ()),) for p in (f, g)]
    return polys, point


def groebner_basis(rng, depth):
    while True:
        polys, point = _planted(rng)
        gens = [render(shifted(f, ell)) for f in polys for ell in range(depth + 1)]
        yield Job(["--json", "gb"] + gens, partial(checks.generators, point=point))


def elimination(rng, depth):
    while True:
        polys, point = _planted(rng)
        gens = [render(shifted(f, ell)) for f in polys for ell in range(depth + 1)]
        keep = [(a, 2) for a in range(depth + 2)]
        argv = ["--json", "eliminate"] + gens + ["--keep", _cells_text(keep)]
        yield Job(argv, partial(checks.generators, point=point, keep=keep))


def certificate(rng, depth):
    sets = [[(0, 2), (1, 2)], [(0, 1), (1, 1)], [(0, 1), (0, 2)], [(0, 2), (1, 2), (2, 2)]]
    for keep in _deck(rng, sets):
        polys, point = _planted(rng)
        argv = ["--json", "free"] + [render(f) for f in polys] + [
            "--set", _cells_text(keep), "--depth", str(depth)]
        yield Job(argv, partial(checks.free, keep=keep, point=point))


def enumerate_fp(rng, prime, window):
    """F_p enumeration of the window {0..window} x {1, 2}: p^(2(window+1))
    points."""
    while True:
        polys, point = _planted(rng)
        texts = [render(f) for f in polys]
        proj = [(0, 1), (1, 1)]
        argv = ["--json", "solve"] + texts + [
            "--prime", str(prime), "--order", str(window), "--set", _cells_text(proj)]
        yield Job(argv, partial(checks.solve, texts=texts, n=2, p=prime, window=window,
                                point=point, proj=proj))


def rotate(rng, makes):
    """One job from each of several templates in turn."""
    sources = [make(rng) for make in makes]
    while True:
        for source in sources:
            yield next(source)


# ---------------------------------------------------------------------------
# workload table: (template, jobs per round)
#
# Short jobs are the ones this kind of machine slows most unevenly, so each
# workload puts a block of its longer jobs of similar cost where the median
# falls and a block of its longest where the tail percentile falls; the
# other templates take turns in the remaining slots of a round.

WORKLOADS: dict[str, list[tuple[Callable, int]]] = {
    "truncation": [
        (partial(coupled, verb="sdim"), 4),
        (partial(coupled, verb="dimseq"), 4),
        (partial(rotate, makes=[two_var, riccati, second_order, mixed, order_zero, linear]), 4),
    ],
    "automaton": [
        (partial(family_one_var, width=13, imax=6), 1),
        (partial(family_one_var, width=12, imax=6), 6),
        (partial(rotate, makes=[
            partial(family_one_var, width=11, imax=6),
            partial(cover, spans=(6, 8, 10, 12)),
            partial(family_one_var, width=10, imax=6),
            partial(monomial_one_var, spans=(8, 10, 12), imax=8),
            partial(family_two_var, width=5, imax=6),
            partial(family_one_var, width=9, imax=6),
            partial(monomial_two_var, width=6, imax=6),
        ]), 4),
    ],
    "windows": [
        (partial(family_windows, span=3, size=3, imax=27), 3),
        (partial(family_windows, span=3, size=3, imax=24), 3),
        (partial(rotate, makes=[
            partial(family_windows, span=5, size=3, imax=30),
            partial(tau, spans=(4, 6, 8, 10), length=1000),
            partial(family_windows, span=7, size=3, imax=30),
            partial(monomial_one_var, spans=(9,)),
            partial(family_windows, span=5, size=4, imax=28),
            partial(family_windows, span=7, size=4, imax=28),
        ]), 3),
    ],
    "certify": [
        (partial(enumerate_fp, prime=3, window=5), 3),
        (partial(elimination, depth=2), 3),
        (partial(rotate, makes=[
            partial(groebner_basis, depth=2),
            partial(certificate, depth=2),
            partial(enumerate_fp, prime=3, window=3),
            partial(enumerate_fp, prime=3, window=4),
            partial(enumerate_fp, prime=5, window=3),
        ]), 3),
    ],
}


def stream(workload: str, seed: int) -> Iterator[Job]:
    """The endless job stream of a workload: rounds of its templates, each
    template interleaved evenly through the round."""
    table = WORKLOADS[workload]
    sources = [
        make(random.Random(f"{workload}/{k}/{seed}")) for k, (make, _) in enumerate(table)
    ]
    slots = sorted(
        ((j + 0.5) / count, k) for k, (_, count) in enumerate(table) for j in range(count)
    )
    while True:
        for _, k in slots:
            yield next(sources[k])
