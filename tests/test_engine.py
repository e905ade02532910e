"""Engine: exact paths, truncation bounds, monomialization, dispatch.

Two [DERIVED] expectations here differ from first-draft hand computations
one might try: the depth-4 monomialization of the intro system contains a
third generator support {(0,1),(0,2),(2,2)} (the S-polynomial of
consecutive shifts of y2*s(y2) - y1*y2 reduces to the monomial
y1*y2*s^2(y2), confirmed against sympy), and the depth-3 monomialization
of {s(y1)-y1-1, y1*y2-1} contains the pair supports {(0,2),(k,2)} coming
from relations among the shifts of y2 alone.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sigmadim
from sigmadim import (
    EMPTY,
    CapExceededError,
    CertificateError,
    SigmaFamily,
    UnitIdealError,
    DifferencePolynomial,
    detect_eventual_linear,
    family_from_monomials,
    monomial_krull_dim,
    monomialize,
    not_free_certificate,
    sigma_dim,
    sigma_dim_family,
    sigma_dim_univariate_monomial,
    truncated_dim_sequence,
    window_dim,
)
from sigmadim.covering import IntSet, tau_interval, reflect
from sigmadim.engine import DimEntry, DimensionReport, _family_report
from conftest import mono, pick_graph, poly, random_system

INTRO = lambda: [poly("y1*s(y1)", 2), poly("y1*y2 - y2*s(y2)", 2)]


def random_family(rng, n, max_ord=1, max_members=2) -> SigmaFamily:
    members = []
    for _ in range(rng.randint(1, max_members)):
        cells = {(rng.randint(0, max_ord), rng.randint(1, n)) for _ in range(rng.randint(1, 3))}
        members.append(cells)
    return SigmaFamily(n, members)


class TestUnivariateMonomial:
    def test_product(self):
        assert sigma_dim_univariate_monomial(mono("y1*s(y1)", 1)) == Fraction(1, 2)

    def test_three_chain(self):
        assert sigma_dim_univariate_monomial(mono("y1*s(y1)*s^2(y1)", 1)) == Fraction(2, 3)

    def test_single_power(self):
        assert sigma_dim_univariate_monomial(mono("s^3(y1)^5", 1)) == 0

    def test_constant_rejected(self):
        from sigmadim import SigmaMonomial

        with pytest.raises(UnitIdealError):
            sigma_dim_univariate_monomial(SigmaMonomial())

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            sigma_dim_univariate_monomial(mono("y1*y2", 2))


class TestFamilyValue:
    def test_product_family(self):
        assert sigma_dim_family(SigmaFamily(1, [[(0, 1), (1, 1)]]), check=True) == Fraction(1, 2)

    def test_order_zero_pair(self):
        assert sigma_dim_family(SigmaFamily(2, [[(0, 1), (0, 2)]]), check=True) == 1

    def test_two_disjoint_chains(self):
        fam = SigmaFamily(2, [[(0, 1), (1, 1)], [(0, 2), (1, 2)]])
        assert sigma_dim_family(fam, check=True) == 1

    def test_empty_family(self):
        assert sigma_dim_family(SigmaFamily(3, [])) == 3

    def test_cap(self):
        fam = SigmaFamily(3, [[(0, 1), (7, 2)], [(0, 2), (7, 3)]])
        with pytest.raises(CapExceededError):
            sigma_dim_family(fam)

    def test_cross_oracle_shift_sets(self):
        # covering path and family path are independent; both must agree
        # on every univariate monomial with shifts in {0..8}
        for bits in range(1 << 8):
            shifts = [0] + [b + 1 for b in range(8) if bits >> b & 1]
            m = mono("*".join(f"s^{a}(y1)" for a in shifts), 1)
            via_cover = sigma_dim_univariate_monomial(m)
            via_family = sigma_dim_family(family_from_monomials([m], 1))
            assert via_cover == via_family, shifts

    def test_report_sequence_matches_window_dim(self):
        rng = random.Random(29)
        for _ in range(12):
            fam = random_family(rng, n=rng.randint(1, 2), max_ord=2)
            rep = _family_report(fam, 12, check=True)
            assert rep.d_sequence() == [window_dim(fam, i) for i in range(13)], fam
            assert all(e.exact for e in rep.entries)

    def test_pick_graph_edges_match_a_loop(self):
        rng = random.Random(43)
        for _ in range(12):
            fam = random_family(rng, n=rng.randint(1, 3), max_ord=2)
            n, bits = fam.n, fam.n * (fam.width - 1)
            want = []
            for u in range(1 << bits):
                for pick in range(1 << n):
                    pattern = (u << n) | pick
                    window = [(pattern >> (n * a)) & ((1 << n) - 1) for a in range(fam.width)]
                    if all(
                        any(window[s.ord - a] >> (j - 1) & 1 for a, j in s.cells)
                        for s in fam.members
                    ):
                        v = pattern & ((1 << bits) - 1)
                        want.append((u, v, bin(pick).count("1"), pick))
            g = pick_graph(fam)
            assert g.num_states == 1 << bits, fam
            got = list(zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist(), g.label.tolist()))
            assert got == want, fam


YS = SigmaFamily(1, [[(0, 1), (1, 1)]])

# sigma_dim_family(YS, check=True) fed a periodic witness that picks
# nothing; run as a script so that it can also run under python -O
CORRUPT_WITNESS = """
import sigmadim.engine as engine
from sigmadim import CertificateError, SigmaFamily

real = engine.extract_min_mean_cycle
engine.extract_min_mean_cycle = lambda g, source=0: (real(g, source)[0], [0, 0])
try:
    engine.sigma_dim_family(SigmaFamily(1, [[(0, 1), (1, 1)]]), check=True)
except CertificateError as exc:
    print("caught:", exc)
"""


class TestCertificateChecks:
    """Each test corrupts one input of a certificate check, which must then
    raise CertificateError (an explicit check, not an assert)."""

    def _patch_witness(self, monkeypatch, module, mean=None, labels=None):
        real = module.extract_min_mean_cycle

        def corrupted(g, source=0):
            m, lab = real(g, source)
            return (m if mean is None else mean), (lab if labels is None else labels)

        monkeypatch.setattr(module, "extract_min_mean_cycle", corrupted)

    def test_periodic_witness(self, monkeypatch):
        import sigmadim.engine

        self._patch_witness(monkeypatch, sigmadim.engine, labels=[0, 0])
        with pytest.raises(CertificateError):
            sigma_dim_family(YS, check=True)

    def test_witness_mean(self, monkeypatch):
        import sigmadim.engine

        self._patch_witness(monkeypatch, sigmadim.engine, mean=Fraction(1, 3))
        with pytest.raises(CertificateError):
            sigma_dim_family(YS, check=True)

    def test_window_bracket(self, monkeypatch):
        import sigmadim.engine

        monkeypatch.setattr(
            sigmadim.engine, "window_taus", lambda fam, i_max: [i + 1 for i in range(i_max + 1)]
        )
        with pytest.raises(CertificateError):
            sigma_dim_family(YS, check=True)

    def test_univariate_cross_check(self, monkeypatch):
        import sigmadim.engine

        monkeypatch.setattr(
            sigmadim.engine, "sigma_dim_family", lambda fam, check=False: Fraction(1, 3)
        )
        with pytest.raises(CertificateError):
            sigma_dim([mono("y1*s(y1)", 1)], i_max=3, check=True)

    def test_complement_density(self, monkeypatch):
        import sigmadim.covering

        self._patch_witness(monkeypatch, sigmadim.covering, mean=Fraction(1, 3))
        with pytest.raises(CertificateError):
            sigmadim.covering.optimal_complement(IntSet([0, 1]))

    def test_complement_cover(self, monkeypatch):
        import sigmadim.covering

        self._patch_witness(monkeypatch, sigmadim.covering, mean=Fraction(1, 3), labels=[1, 0, 0])
        with pytest.raises(CertificateError):
            sigmadim.covering.optimal_complement(IntSet([0, 1]))

    def test_order_zero_exactness(self, monkeypatch):
        import sigmadim.engine

        # d_i = i + 2 for an order-0 system: not (i + 1) * d_0
        monkeypatch.setattr(
            sigmadim.engine, "prefix_dimension", lambda basis, k, num_vars: num_vars // 2 + 1
        )
        with pytest.raises(CertificateError):
            truncated_dim_sequence([poly("y1*y2", 2)], 3)

    def test_checked_family_solves_once(self, monkeypatch):
        import sigmadim.engine
        import sigmadim.meancycle

        real = sigmadim.meancycle.minimum_cycle_mean
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (sigmadim.meancycle, sigmadim.engine):
            monkeypatch.setattr(module, "minimum_cycle_mean", counting)
        for fam in (YS, SigmaFamily(2, [[(0, 1), (1, 2)], [(0, 2), (2, 1)]])):
            calls.clear()
            sigma_dim_family(fam, check=True)
            assert len(calls) == 1, fam

    @pytest.mark.parametrize("i_max", [3, 40])
    def test_checked_family_report_walks_the_windows_once(self, monkeypatch, i_max):
        import sigmadim.families

        real = sigmadim.families.iter_window_taus
        passes = []

        def counting(family, depth):
            passes.append(depth)
            return real(family, depth)

        monkeypatch.setattr(sigmadim.families, "iter_window_taus", counting)
        fam = SigmaFamily(2, [[(0, 1), (1, 2)], [(0, 2), (2, 1)]])
        rep = sigma_dim(fam, i_max=i_max, check=True)
        assert passes == [max(i_max, 8 * fam.width)]
        assert rep.d_sequence() == [window_dim(fam, i) for i in range(i_max + 1)]

    def test_periodic_witness_under_optimize(self):
        src = str(Path(sigmadim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPT_WITNESS],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("caught:"), done.stdout


class TestTruncation:
    def test_linear_recurrence(self):
        rep = truncated_dim_sequence([poly("s^2(y1) - y1", 1)], 5)
        assert rep.d_sequence() == [1, 2, 2, 2, 2, 2]
        assert rep.certified_kind == "upper_bound"
        assert rep.certified_value == Fraction(2, 6)
        assert not rep.entries[0].exact

    def test_intro_system(self):
        rep = truncated_dim_sequence(INTRO(), 6)
        assert rep.d_sequence() == [2, 2, 3, 4, 5, 6, 7]
        assert rep.certified_value == 1
        assert rep.certified_kind == "upper_bound"

    def test_order_zero_exact(self):
        rep = truncated_dim_sequence([poly("y1*y2", 2)], 4)
        assert rep.d_sequence() == [i + 1 for i in range(5)]
        assert all(e.exact for e in rep.entries)
        assert rep.certified_kind == "exact"
        assert rep.certified_value == 1

    def test_monomial_entries_exact(self):
        rep = truncated_dim_sequence([poly("y1*s(y1)", 1)], 5)
        assert all(e.exact for e in rep.entries)
        fam = SigmaFamily(1, [[(0, 1), (1, 1)]])
        assert rep.d_sequence() == [window_dim(fam, i) for i in range(6)]

    def test_unit_truncation_reported_empty(self):
        rep = truncated_dim_sequence([poly("y1", 1), poly("y1 - 1", 1)], 2)
        assert all(e.d is EMPTY for e in rep.entries)
        assert rep.certified_value is None

    def test_fekete_subadditive(self):
        # V_{a+b-1} projects into V_{a-1} x s^a(V_{b-1}), so d_{a+b-1} <=
        # d_{a-1} + d_{b-1}, and an empty window stays empty in every
        # larger one.
        rng = random.Random(8)
        for _ in range(150):
            n = rng.randint(1, 2)
            F = random_system(rng, n, max_order=1, max_degree=2)
            if all(f.is_zero for f in F):
                continue
            i_max = rng.randint(max(f.order() or 0 for f in F), 4)
            d = truncated_dim_sequence(F, i_max).d_sequence()
            for i, di in enumerate(d):
                assert di is EMPTY or 0 <= di <= n * (i + 1)
            for a in range(1, i_max + 1):
                for b in range(1, i_max + 2 - a):
                    if d[a - 1] is EMPTY or d[b - 1] is EMPTY:
                        assert d[a + b - 1] is EMPTY
                    elif d[a + b - 1] is not EMPTY:
                        assert d[a + b - 1] <= d[a - 1] + d[b - 1]

    def test_imax_below_order_rejected(self):
        with pytest.raises(ValueError):
            truncated_dim_sequence([poly("s^3(y1) - y1", 1)], 2)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            truncated_dim_sequence([], 3)


class TestMonomialize:
    @pytest.mark.parametrize("k", [2, 4])
    def test_sigma_dim_solves_each_window_once(self, monkeypatch, k):
        import sigmadim.engine
        import sigmadim.groebner

        real = sigmadim.groebner.buchberger
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (sigmadim.groebner, sigmadim.engine):
            monkeypatch.setattr(module, "buchberger", counting)
        report = sigma_dim(INTRO(), i_max=k)
        assert len(calls) == 1
        assert report.family == monomialize(INTRO(), k)
        assert report.family_value == sigma_dim_family(report.family)

    def test_already_monomial(self):
        assert monomialize([poly("y1*s(y1)", 1)], 3) == SigmaFamily(1, [[(0, 1), (1, 1)]])

    def test_intro_system_depth_four(self):
        fam = monomialize(INTRO(), 4)
        assert fam == SigmaFamily(
            2, [[(0, 1), (1, 1)], [(0, 2), (1, 2)], [(0, 1), (0, 2), (2, 2)]]
        )
        assert sigma_dim_family(fam, check=True) == 1

    def test_shift_plus_hyperbola_depth_three(self):
        fam = monomialize([poly("s(y1) - y1 - 1", 2), poly("y1*y2 - 1", 2)], 3)
        assert fam == SigmaFamily(
            2, [[(0, 1)], [(0, 2), (1, 2)], [(0, 2), (2, 2)], [(0, 2), (3, 2)]]
        )

    def test_unit_truncation_rejected(self):
        with pytest.raises(UnitIdealError):
            monomialize([poly("y1", 1), poly("y1 - 1", 1)], 2)

    @pytest.mark.parametrize("i_max", [1, -1])
    def test_below_generator_order_rejected(self, i_max):
        with pytest.raises(ValueError, match="below the maximal generator order 2"):
            monomialize([poly("y1*s^2(y1) - 1", 1)], i_max)


class TestNotFreeCertificate:
    def test_finds_generator(self):
        F = [poly("s(y1) - y1 - 1", 2), poly("y1*y2 - 1", 2)]
        cert = not_free_certificate(F, [(0, 1), (1, 1)], 1)
        assert cert == poly("s(y1) - y1 - 1", 2)

    def test_inconclusive_on_free_set(self):
        assert not_free_certificate([poly("y1*s(y1)", 1)], [(0, 1), (2, 1)], 4) is None

    def test_shifted_generator(self):
        cert = not_free_certificate([poly("y1", 1)], [(3, 1)], 3)
        assert cert == poly("s^3(y1)", 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            not_free_certificate([poly("y1", 1)], [], -1)


class TestDetectEventualLinear:
    @staticmethod
    def _report(values, start=0):
        entries = [DimEntry(i + start, d, True) for i, d in enumerate(values)]
        return DimensionReport("truncation", entries, None, "upper_bound")

    def test_affine(self):
        tail = detect_eventual_linear(self._report([2 * (i + 1) + 1 for i in range(6)]))
        assert (tail.d, tail.e) == (2, 1)

    def test_alternating_product_sequence_has_no_tail(self):
        values = [i // 2 + 1 for i in range(8)]  # 1,1,2,2,3,3,4,4
        assert detect_eventual_linear(self._report(values)) is None

    def test_constant(self):
        tail = detect_eventual_linear(self._report([7, 7, 7, 7]))
        assert (tail.d, tail.e, tail.onset) == (0, 7, 0)

    def test_too_short(self):
        assert detect_eventual_linear(self._report([1, 2])) is None

    def test_onset(self):
        tail = detect_eventual_linear(self._report([5, 3, 3, 3, 3]))
        assert (tail.d, tail.e, tail.onset) == (0, 3, 1)


class TestDispatch:
    def test_univariate_monomial_both_paths(self):
        rep = sigma_dim([poly("y1*s(y1)", 1)], check=True, i_max=8)
        assert rep.method == "covering"
        assert rep.certified_value == Fraction(1, 2)
        assert rep.certified_kind == "exact"
        assert rep.d_sequence() == [1, 1, 2, 2, 3, 3, 4, 4, 5]

    def test_intro_system_both_results(self):
        rep = sigma_dim(INTRO(), i_max=6)
        assert rep.certified_kind == "upper_bound"
        assert rep.certified_value == 1
        assert rep.family is not None
        assert rep.family_value == 1

    def test_zero_system(self):
        rep = sigma_dim([DifferencePolynomial.zero(4)], i_max=3)
        assert rep.certified_value == 4
        assert rep.certified_kind == "exact"

    def test_family_input(self):
        rep = sigma_dim(SigmaFamily(1, [[(0, 1), (1, 1)]]), i_max=6)
        assert rep.method == "family"
        assert rep.certified_value == Fraction(1, 2)

    def test_monomial_list_input(self):
        rep = sigma_dim([mono("y1*s(y1)", 2), mono("y2", 2)], i_max=4)
        assert rep.method == "family"
        assert rep.certified_value == Fraction(1, 2)

    @pytest.mark.parametrize(
        "system",
        [
            [poly("y1*s(y1)", 1)],  # covering path
            [mono("y1*s(y1)", 2), mono("y2", 2)],  # family of monomials
            SigmaFamily(1, [[(0, 1), (1, 1)]]),
            [DifferencePolynomial.zero(2)],  # the zero ideal's empty family
        ],
    )
    def test_negative_depth_rejected(self, system):
        with pytest.raises(ValueError, match="must be non-negative"):
            sigma_dim(system, i_max=-1)

    def test_unit_rejected(self):
        from sigmadim import SigmaMonomial

        with pytest.raises(UnitIdealError):
            sigma_dim([SigmaMonomial()])


class TestInvariants:
    def test_range(self):
        rng = random.Random(31)
        for _ in range(15):
            fam = random_family(rng, n=rng.randint(1, 2))
            v = sigma_dim_family(fam)
            assert 0 <= v <= fam.n

    def test_tensor_additivity(self):
        rng = random.Random(37)
        for _ in range(8):
            f1 = random_family(rng, n=1)
            f2 = random_family(rng, n=1)
            union = SigmaFamily(
                2,
                [s.cells for s in f1.members]
                + [frozenset((a, j + 1) for a, j in s.cells) for s in f2.members],
            )
            assert sigma_dim_family(union) == sigma_dim_family(f1) + sigma_dim_family(f2)

    def test_exponent_invariance(self):
        low = sigma_dim([mono("y1*s(y1)", 1)]).certified_value
        high = sigma_dim([mono("y1^3*s(y1)^7", 1)]).certified_value
        assert low == high

    def test_monotone_under_new_members(self):
        rng = random.Random(41)
        for _ in range(10):
            fam = random_family(rng, n=2)
            extra = {(rng.randint(0, 1), rng.randint(1, 2))}
            bigger = SigmaFamily(2, [s.cells for s in fam.members] + [extra])
            assert sigma_dim_family(bigger) <= sigma_dim_family(fam)

    def test_truncation_bounds_dominate_family_value(self):
        # monomial inputs routed through the truncation path: every
        # d_i/(i+1) is at least the exact family value
        F = [poly("y1*s(y1)", 1)]
        rep = truncated_dim_sequence(F, 6)
        exact = sigma_dim_family(SigmaFamily(1, [[(0, 1), (1, 1)]]))
        for e in rep.entries:
            assert Fraction(e.d, e.i + 1) >= exact

    def test_window_formula(self):
        # d_i = i + 1 - tau(-E, i - max(E) + 1) for the family of one
        # univariate shift-set monomial
        for elems in ([0, 1], [0, 2], [0, 2, 3], [0, 1, 4]):
            fam = SigmaFamily(1, [[(a, 1) for a in elems]])
            neg = reflect(IntSet(elems))
            top = max(elems)
            for i in range(top, 16):
                assert window_dim(fam, i) == i + 1 - tau_interval(neg, i - top + 1)

    def test_order_zero_family_matches_krull(self):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(1, 3)
            supports = [
                frozenset((0, rng.randint(1, n)) for _ in range(rng.randint(1, n)))
                for _ in range(rng.randint(1, 3))
            ]
            fam = SigmaFamily(n, supports)
            krull = monomial_krull_dim([{j for _, j in s} for s in supports], n)
            assert sigma_dim_family(fam) == krull
