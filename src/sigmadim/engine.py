"""Sigma-dimension computations.

Exact values:
  * univariate sigma-monomials, via covering density (1 - c(E));
  * squarefree monomial sigma-ideals given as families, via the minimum
    mean cycle of the column-pick automaton on obligation states
    (`families.family_automaton`).

Convergent upper bounds for general systems, via Krull dimensions of
shift-generated truncations (the d-hat sequence); the bound is sound
because the normalized dimension sequence converges to its infimum.  The
whole ladder takes one Groebner basis run, on the deepest window: its
inputs join in increasing leading-monomial order, and every input of a
shallower window comes first, so each window's dimension is read off the
pass that joins its last input (`truncated_dim_sequence`).
A general system can additionally be monomialized: the squarefree supports
of the leading monomials of a truncated Groebner basis form a family whose
exact sigma-dimension is reported alongside, with no claim that the family
has stabilized at the computed depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .covering import IntSet, covering_density
from .families import (
    STATE_BIT_CAP,  # re-exported: the cap belongs to the family automaton
    CapExceededError,
    EmptyDimension,
    SigmaFamily,
    UnitIdealError,
    family_automaton,
    family_from_monomials,
    tau_family,
    window_taus,
)
from .groebner import LEX, GroebnerBasis, buchberger, eliminate, prefix_dimension
from .meancycle import CertificateError, extract_min_mean_cycle, minimum_cycle_mean
from .parsing import family_to_json, frac_to_json
from .polynomials import DifferencePolynomial, SigmaMonomial, SigmaVariable

DEFAULT_GROEBNER_IMAX = 8
DEFAULT_COMBINATORIAL_IMAX = 64


@dataclass(frozen=True)
class DimEntry:
    i: int
    d: Union[int, EmptyDimension]
    exact: bool


@dataclass(frozen=True)
class LinearTail:
    """Affine tail d_i = d*(i+1) + e observed from index `onset` on."""

    d: int
    e: int
    onset: int


@dataclass
class DimensionReport:
    """The computed dimension sequence and what it certifies.

    certified_kind "exact" means certified_value is the sigma-dimension;
    "upper_bound" means every d_i/(i+1) dominates it and the reported value
    is the best (smallest) such ratio."""

    method: str  # covering | family | truncation
    entries: list[DimEntry]
    certified_value: Optional[Fraction]
    certified_kind: str  # exact | upper_bound
    family: Optional[SigmaFamily] = None
    family_value: Optional[Fraction] = None
    truncation_depth: Optional[int] = None
    linear_tail: Optional[LinearTail] = field(default=None)
    # Groebner basis of the deepest truncation window (reduced on first read)
    basis: Optional[GroebnerBasis] = field(default=None, repr=False, compare=False)

    def d_sequence(self) -> list[Union[int, EmptyDimension]]:
        return [e.d for e in self.entries]

    def to_json(self) -> dict:
        out = {
            "method": self.method,
            "certified": {"kind": self.certified_kind, "value": frac_to_json(self.certified_value)},
            "sequence": [
                {"i": e.i, "d": "empty" if isinstance(e.d, EmptyDimension) else e.d, "exact": e.exact}
                for e in self.entries
            ],
        }
        if self.family is not None:
            out["family"] = dict(
                family_to_json(self.family),
                value=frac_to_json(self.family_value),
                depth=self.truncation_depth,
            )
        if self.linear_tail is not None:
            out["linear_tail"] = {
                "d": self.linear_tail.d,
                "e": self.linear_tail.e,
                "onset": self.linear_tail.onset,
            }
        return out


# ---------------------------------------------------------------------------
# exact paths


def sigma_dim_univariate_monomial(m: SigmaMonomial, check: bool = False) -> Fraction:
    """Sigma-dimension of a univariate sigma-monomial: 1 - c(shift set).

    Exponents are irrelevant (radical invariance); the monomial must be
    non-constant and use a single variable index."""
    if m.is_one:
        raise UnitIdealError("constant monomial generates the unit ideal")
    indices = {v.index for v in m.support()}
    if len(indices) != 1:
        raise ValueError("monomial must involve exactly one variable index")
    shifts = IntSet(v.shift for v in m.support())
    return 1 - covering_density(shifts, check=check)


def _verify_periodic_picks(family: SigmaFamily, picks: list[int]) -> bool:
    """True if the periodic column-pick pattern hits every shifted member
    of the family (bi-infinite periodic check over one period)."""
    period = len(picks)
    for s in family.members:
        for phase in range(period):
            if not any(
                picks[(phase + a) % period] & (1 << (j - 1)) for a, j in s.cells
            ):
                return False
    return True


def sigma_dim_family(
    family: SigmaFamily, check: bool = False, *, taus: Optional[Sequence[int]] = None
) -> Fraction:
    """Exact sigma-dimension n - C of a squarefree monomial family, where
    C = lim tau(family, i)/(i+1) is the minimum mean pick rate per column.

    With check=True, C is taken with a witness cycle from one solve and
    checked independently of the solver: the witness, read as a periodic
    column-pick pattern, has density exactly C and hits every shifted
    member, and finite window transversal ratios never exceed C.  The
    ratios are read off `taus`, tau(family, i) for i = 0..at least
    8 * width, when the caller has them, else off a pass of their own."""
    if not family.members:
        return Fraction(family.n)
    graph = family_automaton(family)
    if not check:
        return family.n - minimum_cycle_mean(graph)
    c, picks = extract_min_mean_cycle(graph)
    density = Fraction(sum(bin(p).count("1") for p in picks), len(picks))
    if density != c:
        raise CertificateError(f"{family}: periodic picks {picks} have density {density}, not {c}")
    w = family.width
    if taus is None:
        taus = window_taus(family, 8 * w)
    for i in (2 * w, 4 * w, 8 * w):
        ratio = Fraction(taus[i], i + 1)
        if ratio > c:
            raise CertificateError(
                f"{family}: window ratio tau_{i}/{i + 1} = {ratio} exceeds the cycle mean {c}"
            )
    if not _verify_periodic_picks(family, picks):
        raise CertificateError(f"{family}: periodic picks {picks} miss a shifted member")
    return family.n - c


# ---------------------------------------------------------------------------
# truncation path


def _window_vars(i: int, n: int) -> frozenset[SigmaVariable]:
    return frozenset(SigmaVariable(a, j) for a in range(i + 1) for j in range(1, n + 1))


def _check_window_depth(F: Sequence[DifferencePolynomial], i_max: int) -> None:
    """Raise ValueError when a generator of F does not fit in the order-i_max
    window (its truncation would drop it)."""
    max_order = max((o for o in (f.order() for f in F) if o is not None), default=0)
    if i_max < max_order:
        raise ValueError(f"i_max={i_max} below the maximal generator order {max_order}")


def truncation_generators(
    F: Sequence[DifferencePolynomial], i: int
) -> list[DifferencePolynomial]:
    """All shifts of the generators fitting in the order-i window:
    s^l(f) for l + ord(f) <= i.  Nonzero constants are kept as-is (unit)."""
    gens = []
    for f in F:
        if f.is_zero:
            continue
        o = f.order()
        if o is None:  # nonzero constant: unit ideal at every window
            gens.append(f)
            continue
        for ell in range(i - o + 1):
            gens.append(f.shifted(ell))
    return gens


def _window_inputs(orders: Sequence[Optional[int]], i: int) -> int:
    """k_i = len(truncation_generators(F, i)) from the orders of F's
    generators: max(0, i - ord(f) + 1) shifts of each, one for a nonzero
    constant (order None)."""
    return sum(1 if o is None else max(0, i - o + 1) for o in orders)


def truncated_dim_sequence(
    F: Sequence[DifferencePolynomial], i_max: int
) -> DimensionReport:
    """The d-hat sequence: Krull dimension of the shift-generated
    truncation inside each window ring, for i = 0..i_max.

    One `buchberger` run on the generators of window i_max gives every
    window.  Under the shift-compatible lex order the leading monomial of
    s^l(f) contains the top-ranked variable of its support, whose shift
    is l + ord(f), so every input of window i is smaller than every input
    outside it; the run joins its inputs in increasing leading-monomial
    order (stably), so window i's inputs are its first k_i
    (`_window_inputs`), and the minimal basis after pass k_i is a
    Groebner basis of window i's truncation: d_i = n(i+1) minus a minimum
    hitting set of its leading-monomial supports (`prefix_dimension`).
    k_i = 0 gives n(i+1); a pass that yields the unit ideal makes that
    window and every deeper one EMPTY.  `report.basis` is the Groebner
    basis of window i_max; only its leading monomials are read here, so
    it is never interreduced unless a caller reads its generators.

    Entries are exact when F is all order 0 or all monomials (then the
    truncation equals the full ideal cut); the certified value is exact
    for order-0 systems and otherwise the best upper bound
    min d_i/(i+1)."""
    F = [f for f in F if not f.is_zero]
    if not F:
        raise ValueError("empty system; use a family or pass the zero ideal explicitly")
    _check_window_depth(F, i_max)
    orders = [f.order() for f in F]
    n = F[0].num_vars
    all_order0 = all(o == 0 for o in orders)
    all_monomial = all(f.is_monomial() for f in F)
    exact = all_order0 or all_monomial

    basis = buchberger(truncation_generators(F, i_max), _window_vars(i_max, n), LEX)
    entries = [
        DimEntry(i, prefix_dimension(basis, _window_inputs(orders, i), n * (i + 1)), exact)
        for i in range(i_max + 1)
    ]

    ratios = [
        Fraction(e.d, e.i + 1) for e in entries if not isinstance(e.d, EmptyDimension)
    ]
    if len(ratios) < len(entries):
        certified_value = None  # unit truncation somewhere: no dimension
        kind = "upper_bound"
    elif all_order0:
        d0 = entries[0].d
        for e in entries:
            if e.d != d0 * (e.i + 1):
                raise CertificateError(
                    f"order-0 system: d_{e.i} = {e.d} is not (i + 1) * d_0 = {d0 * (e.i + 1)}"
                )
        certified_value = Fraction(d0)
        kind = "exact"
    else:
        certified_value = min(ratios)
        kind = "upper_bound"
    report = DimensionReport(
        method="truncation",
        entries=entries,
        certified_value=certified_value,
        certified_kind=kind,
        truncation_depth=i_max,
        basis=basis,
    )
    report.linear_tail = detect_eventual_linear(report)
    return report


def _leading_family(basis: GroebnerBasis, n: int) -> SigmaFamily:
    """The family of the supports of the minimal basis's leading
    monomials, read off their packed fields."""
    if basis.is_unit_ideal:
        raise UnitIdealError("truncation is the unit ideal")
    return SigmaFamily(n, basis.leading_supports())


def monomialize(F: Sequence[DifferencePolynomial], i_max: int) -> SigmaFamily:
    """Family of shift-normalized squarefree supports of the leading
    monomials of the Groebner basis of the deepest truncation.

    The result depends on i_max; nothing is claimed about stabilization.
    Raises ValueError when i_max is below the maximal generator order."""
    F = [f for f in F if not f.is_zero]
    if not F:
        raise ValueError("empty system")
    _check_window_depth(F, i_max)
    n = F[0].num_vars
    basis = buchberger(truncation_generators(F, i_max), _window_vars(i_max, n), LEX)
    return _leading_family(basis, n)


def not_free_certificate(
    F: Sequence[DifferencePolynomial],
    T: Iterable[tuple[int, int]],
    depth: int,
) -> Optional[DifferencePolynomial]:
    """A nonzero element of (F, s(F), ..., s^depth(F)) supported on the
    cells of T, if one exists at this depth; None is inconclusive (T may
    still fail to be free at greater depth).  Raises ValueError for a
    negative depth."""
    if depth < 0:
        raise ValueError(f"depth={depth} must be non-negative")
    F = [f for f in F if not f.is_zero]
    if not F:
        return None
    n = F[0].num_vars
    keep = frozenset(SigmaVariable(int(i), int(j)) for i, j in T)
    if any(v.index > n or v.index < 1 or v.shift < 0 for v in keep):
        raise ValueError("T must lie in N x {1..n}")
    gens = [f.shifted(ell) for f in F for ell in range(depth + 1)]
    variables = frozenset().union(*(g.support_vars() for g in gens)) | keep
    found = eliminate(gens, variables, keep)
    return found[0] if found else None


def detect_eventual_linear(report: DimensionReport) -> Optional[LinearTail]:
    """Affine tail d_i = d*(i+1) + e fitted to the longest suffix of the
    report, or None if no suffix of length >= 3 is affine in (i+1) with
    d, e natural numbers."""
    tail: list[DimEntry] = []
    for e in reversed(report.entries):
        if isinstance(e.d, EmptyDimension):
            break
        tail.append(e)
    tail.reverse()
    if len(tail) < 3:
        return None
    last = tail[-1]
    slope = last.d - tail[-2].d
    start = len(tail) - 2
    while start > 0 and tail[start].d - tail[start - 1].d == slope:
        start -= 1
    if len(tail) - start < 3:
        return None
    e0 = last.d - slope * (last.i + 1)
    if slope < 0 or e0 < 0:
        return None
    return LinearTail(d=slope, e=e0, onset=tail[start].i)


# ---------------------------------------------------------------------------
# dispatch

SystemInput = Union[SigmaFamily, Sequence[DifferencePolynomial], Sequence[SigmaMonomial]]


def _family_report(family: SigmaFamily, i_max: int, check: bool) -> DimensionReport:
    # one window pass serves the entries and the check's window ratios
    taus = window_taus(family, max(i_max, 8 * family.width) if check else i_max)
    value = sigma_dim_family(family, check=check, taus=taus)
    entries = [DimEntry(i, family.n * (i + 1) - t, True) for i, t in enumerate(taus[: i_max + 1])]
    report = DimensionReport(
        method="family",
        entries=entries,
        certified_value=value,
        certified_kind="exact",
        family=family,
        family_value=value,
    )
    report.linear_tail = detect_eventual_linear(report)
    return report


def _combinatorial_depth(i_max: Optional[int]) -> int:
    """Window depth of the exact paths: the default for None, and
    ValueError for a negative depth."""
    if i_max is None:
        return DEFAULT_COMBINATORIAL_IMAX
    if i_max < 0:
        raise ValueError(f"i_max={i_max} must be non-negative")
    return i_max


def sigma_dim(
    system: SystemInput,
    *,
    i_max: Optional[int] = None,
    with_family: bool = True,
    check: bool = False,
) -> DimensionReport:
    """Sigma-dimension dispatch.

    * SigmaFamily, list of sigma-monomials, or list of monomial
      polynomials: exact, via the family automaton.
    * single univariate monomial: exact, via covering density, with the
      window dimensions given by the interval-transversal identity; the
      family path is cross-checked when check=True.
    * anything else: truncated dimension sequence (upper bound), plus the
      monomialized family alongside when with_family is set.

    A negative i_max raises ValueError on every path.
    """
    if isinstance(system, SigmaFamily):
        return _family_report(system, _combinatorial_depth(i_max), check)

    items = list(system)
    if not items:
        raise ValueError("empty system; construct a SigmaFamily for the zero ideal")
    if all(isinstance(x, SigmaMonomial) for x in items):
        n = max(v.index for m in items for v in m.support()) if any(not m.is_one for m in items) else 1
        monomials = items
    else:
        if not all(isinstance(x, DifferencePolynomial) for x in items):
            raise TypeError("system must be monomials, polynomials, or a family")
        n = items[0].num_vars
        nonzero = [f for f in items if not f.is_zero]
        if not nonzero:  # the zero ideal: full affine space
            return _family_report(SigmaFamily(n, []), _combinatorial_depth(i_max), check)
        if any(f.is_constant() for f in nonzero):
            raise UnitIdealError("a nonzero constant generates the unit ideal")
        if not all(f.is_monomial() for f in nonzero):
            depth = DEFAULT_GROEBNER_IMAX if i_max is None else i_max
            report = truncated_dim_sequence(nonzero, depth)
            if any(isinstance(e.d, EmptyDimension) for e in report.entries):
                raise UnitIdealError("the system generates the unit ideal")
            if with_family:  # the family of the deepest window's basis, as monomialize gives
                report.family = _leading_family(report.basis, n)
                report.family_value = sigma_dim_family(report.family, check=check)
            return report
        monomials = [next(iter(f.terms)) for f in nonzero]

    if any(m.is_one for m in monomials):
        raise UnitIdealError("constant monomial generates the unit ideal")

    indices = {v.index for m in monomials for v in m.support()}
    if len(monomials) == 1 and len(indices) == 1 and n == 1:
        # univariate monomial: covering path, window dims from the
        # interval-transversal identity d_i = i + 1 - tau(-E, i - max(E) + 1),
        # the window number of the family {E} at order i - min(E)
        m = monomials[0]
        depth = _combinatorial_depth(i_max)
        family = family_from_monomials(monomials, n)
        shifts = [v.shift for v in m.support()]
        low, top = min(shifts), max(shifts)  # before normalization
        entries = []
        for i in range(depth + 1):  # before the covering solve: tau has the tighter cap
            d = i + 1 if i < top else i + 1 - tau_family(family, i - low)
            entries.append(DimEntry(i, d, True))
        value = sigma_dim_univariate_monomial(m, check=check)
        if check:
            fam_value = sigma_dim_family(family)
            if fam_value != value:
                raise CertificateError(
                    f"covering value {value} differs from the family value {fam_value}"
                )
        report = DimensionReport(
            method="covering",
            entries=entries,
            certified_value=value,
            certified_kind="exact",
        )
        report.linear_tail = detect_eventual_linear(report)
        return report

    family = family_from_monomials(monomials, n)
    return _family_report(family, _combinatorial_depth(i_max), check)
