"""Combinatorics of squarefree monomial sigma-ideals.

A squarefree sigma-monomial corresponds to a non-empty finite set of cells
(shift, index) in N x {1..n}; a family of such supports encodes the
monomial sigma-ideal generated by all forward shifts of its members.  This
module owns the one automaton of the package, the column-pick automaton
on obligation states (`obligation_automaton`): a state records which
started member translates a picked cell already hits.  Window
transversal numbers and window dimensions are finite-horizon min-plus
passes over it, and the family value is its minimum cycle mean; both are
capped at STATE_BIT_CAP bits of n * width (`family_automaton`).  On the
family {-E} it is the coverage automaton of `covering`.  The module also
tests free sets directly and computes the Krull dimension of ordinary
monomial ideals by an exact minimum hitting set.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .meancycle import INF, CertificateError, Graph
from .polynomials import SigmaMonomial
from .transversal import minimum_hitting_set_size

Cell = tuple[int, int]  # (shift, index)

STATE_BIT_CAP = 20


class CapExceededError(ValueError):
    """Raised when an automaton would exceed its state-bit cap."""


class EmptyDimension:
    """Distinguished dimension value of the zero ring (unit ideal)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "empty"


EMPTY = EmptyDimension()


class UnitIdealError(ValueError):
    """Raised when an operation receives the unit ideal (zero ring)."""


class SupportSet:
    """Non-empty finite subset of N x {1..n}, shift-normalized so that the
    minimal shift is 0.  `ord` is the maximal shift."""

    __slots__ = ("cells", "translation", "ord")

    def __init__(self, cells: Iterable[Cell]):
        raw, low = _cell_set(cells)
        self.translation = low
        self.cells: frozenset[Cell] = frozenset((i - low, j) for i, j in raw)
        self.ord = max(raw)[0] - low

    def shifted(self, ell: int) -> frozenset[Cell]:
        return frozenset((i + ell, j) for i, j in self.cells)

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportSet) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        inner = ",".join(f"({i},{j})" for i, j in self.sorted_cells())
        return "{" + inner + "}"


def _cell_set(cells: Iterable[Cell]) -> tuple[set[Cell], int]:
    """(the cells as a set of int pairs, their least shift); ValueError
    unless they are a non-empty subset of N x {1, 2, ...}."""
    raw = {(int(i), int(j)) for i, j in cells}
    if not raw:
        raise ValueError("support set must be non-empty")
    low = min(raw)[0]
    if low < 0 or min(raw, key=itemgetter(1))[1] < 1:
        raise ValueError(f"cells must lie in N x {{1..n}}: {sorted(raw)}")
    return raw, low


class SigmaFamily:
    """A finite family of supports encoding a squarefree monomial
    sigma-ideal in n difference variables.

    Members are normalized to an antichain under shifted containment: a
    member containing some forward shift of another member generates
    nothing new and is dropped.  Dropping such supersets leaves every
    window transversal number unchanged.

    Every member is validated, and pruned as a bitmask of its
    shift-normalized cells, n bits per column (cell (a, j) at bit
    a*n + j - 1): `small` shifted l columns lies in `big` iff
    (small << l*n) & ~big == 0.  Candidates are tried by increasing size,
    and a SupportSet is built only for the members kept."""

    __slots__ = ("n", "members", "width", "_automaton")

    def __init__(self, n: int, members: Iterable[SupportSet | Iterable[Cell]]):
        if n < 1:
            raise ValueError("n must be >= 1")
        given: dict[int, SupportSet | set[Cell]] = {}  # normalized mask -> first member
        beyond = None
        for m in members:
            raw, low = (m.cells, 0) if isinstance(m, SupportSet) else _cell_set(m)
            mask = 0
            for i, j in raw:
                if j > n:
                    beyond = beyond or raw
                    break
                mask |= 1 << ((i - low) * n + j - 1)
            else:
                given.setdefault(mask, m if isinstance(m, SupportSet) else raw)
        if beyond is not None:
            raise ValueError(f"member {SupportSet(beyond)} uses index beyond n={n}")
        kept: list[tuple[int, int]] = []  # (mask, ord)
        for big in sorted(given, key=int.bit_count):
            top = (big.bit_length() - 1) // n
            if not any(
                (small << l * n) & ~big == 0 for small, o in kept for l in range(top - o + 1)
            ):
                kept.append((big, top))
        self.n = n
        self.width = 1 + max((o for _, o in kept), default=0)  # window span of one member
        chosen = (given[mask] for mask, _ in kept)
        self.members: tuple[SupportSet, ...] = tuple(
            sorted(
                (m if isinstance(m, SupportSet) else SupportSet(m) for m in chosen),
                key=SupportSet.sorted_cells,
            )
        )
        self._automaton: Graph | None = None  # filled by obligation_automaton

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SigmaFamily)
            and self.n == other.n
            and set(self.members) == set(other.members)
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.members)))

    def __repr__(self) -> str:
        return f"SigmaFamily(n={self.n}, members={list(self.members)})"


def family_from_monomials(monomials: Sequence[SigmaMonomial], n: int) -> SigmaFamily:
    """Family of the shift-normalized squarefree supports of the given
    sigma-monomials.  The constant monomial means the unit ideal and is
    rejected."""
    supports = []
    for m in monomials:
        if m.is_one:
            raise UnitIdealError("constant monomial generates the unit ideal")
        supports.append(SupportSet((v.shift, v.index) for v in m.support()))
    return SigmaFamily(n, supports)


def obligation_automaton(family: SigmaFamily) -> Graph:
    """The column-pick automaton of a family, on its obligation states.

    A state is the bitmask of the started, not yet ended member translates
    that a picked cell already hits.  Member s owns a block of ord(s) + 1
    bits, and bit k of the block is its translate that ends k columns
    from the new one; a cell at shift a of that translate lies in the new
    column iff a = ord(s) - k.  A step appends the column pattern p,
    costs its picks and is labeled p: with x = m | hit[p] it is allowed
    iff x & low == low (every translate ending in the new column is hit)
    and lands in (x >> 1) & store, which drops the ended translates and
    leaves the top bit of each block, the translate starting next, unhit.
    Whether a continuation is allowed depends only on the translates
    still unhit, so the automaton has the windows and cycles of the pick
    patterns themselves.

    The states are those reached from the all-hit state, store, in at
    most width - 1 vectorized rounds: a state depends only on the last
    width - 1 columns, since a stored translate started within them, and
    those columns are allowed after an all-hit history, which hits more.
    Picking a whole column is never blocked (an ending translate has its
    last cell in it), and width - 1 such picks lead from any state back
    to the all-hit one, so every state is reachable from every other.  A
    successor of a built state that was not built raises
    CertificateError.  States are numbered by increasing mask, so the
    all-hit state is the last; a state's edges follow in increasing
    pattern order.  On the family {-E} a state is the mask of the next
    span positions already covered, and the automaton is the coverage
    automaton of E.  The masks are int64 while the blocks fit in 62 bits
    and Python ints (object arrays) beyond.  The graph is built once per
    family object and kept read-only; neither cap applies here
    (`family_automaton`, `covering`)."""
    if family._automaton is not None:
        return family._automaton
    n = family.n
    column = [0] * n  # the obligation bits a pick of index j + 1 hits
    low = store = base = 0
    for s in family.members:
        for a, j in s.cells:
            column[j - 1] |= 1 << (base + s.ord - a)
        low |= 1 << base
        store |= ((1 << s.ord) - 1) << base
        base += s.ord + 1
    dtype = np.int64 if base <= 62 else object
    hit = [0]
    for bits in column:
        hit += [h | bits for h in hit]
    hit = np.array(hit, dtype=dtype)
    states = frontier = np.array([store], dtype=dtype)
    for _ in range(family.width - 1):
        x = frontier[:, None] | hit
        merged = np.concatenate((states, (x[(x & low) == low] >> 1) & store))
        order = np.argsort(merged, kind="stable")  # built states first among equals
        merged = merged[order]
        first = np.ones(len(merged), dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        frontier = merged[first & (order >= len(states))]
        if not len(frontier):
            break
        states = merged[first]
    x = states[:, None] | hit
    src, pick = np.nonzero((x & low) == low)
    succ = (x[src, pick] >> 1) & store
    dst = np.minimum(np.searchsorted(states, succ), len(states) - 1)
    if not np.array_equal(states[dst], succ):
        raise CertificateError(f"{family}: a successor of a built state was not built")
    cost = np.array([p.bit_count() for p in range(1 << n)], dtype=np.int64)
    graph = Graph(len(states), src, dst, cost[pick], pick)
    for edges in (graph.src, graph.dst, graph.weight, graph.label):
        edges.flags.writeable = False  # shared by every caller of the family
    family._automaton = graph
    return graph


def family_automaton(family: SigmaFamily) -> Graph:
    """`obligation_automaton` of a family with n * width at most
    STATE_BIT_CAP, the cap of window numbers, tau and family values;
    CapExceededError beyond."""
    bits = family.n * family.width
    if bits > STATE_BIT_CAP:
        raise CapExceededError(
            f"pick automaton needs {bits} state bits (n*width), cap is {STATE_BIT_CAP}"
        )
    return obligation_automaton(family)


def iter_window_taus(family: SigmaFamily, i_max: int) -> Iterator[int]:
    """tau(family, i) for i = 0..i_max, yielded in one min-plus pass over
    the in-edges of `family_automaton`.

    The pass starts in the all-hit state, which makes every member
    longer than the columns appended so far vacuous; each appended column
    costs its picks and must hit the members that end in it, so every
    shifted member inside the window is checked exactly once.  After i+1
    columns the minimum over states is tau(family, i)."""
    if not family.members:
        yield from repeat(0, i_max + 1)
        return
    g = family_automaton(family)
    order = np.argsort(g.dst, kind="stable")
    src, weight = g.src[order], g.weight[order]
    count = np.bincount(g.dst, minlength=g.num_states)  # every state has an in-edge
    starts = np.cumsum(count) - count
    dp = np.full(g.num_states, INF, dtype=np.int64)
    dp[-1] = 0
    for _ in range(i_max + 1):
        # blocked sums are capped at INF, so they cannot overflow
        dp = np.minimum(np.minimum.reduceat(dp[src] + weight, starts), INF)
        yield int(dp.min())


def window_taus(family: SigmaFamily, i_max: int) -> list[int]:
    """tau(family, i) for i = 0..i_max (`iter_window_taus`)."""
    return list(iter_window_taus(family, i_max))


def tau_family(family: SigmaFamily, i: int) -> int:
    """Minimum size of a cell set hitting every shifted member within the
    order-i window."""
    if i < 0:
        raise ValueError("window order must be >= 0")
    for tau in iter_window_taus(family, i):  # only the running value is kept
        pass
    return tau


def window_dim(family: SigmaFamily, i: int) -> int:
    """Dimension of the order-i truncation: n(i+1) - tau(family, i)."""
    return family.n * (i + 1) - tau_family(family, i)


def is_free(T: Iterable[Cell], family: SigmaFamily) -> bool:
    """True iff no forward shift of any member is contained in T.

    ValueError if a cell of T lies outside N x {1..n}."""
    cells = frozenset((int(i), int(j)) for i, j in T)
    outside = sorted((i, j) for i, j in cells if i < 0 or not 1 <= j <= family.n)
    if outside:
        raise ValueError(f"cells must lie in N x {{1..{family.n}}}: {outside}")
    if not cells:
        return True
    top = max(i for i, _ in cells)
    for s in family.members:
        for ell in range(top - s.ord + 1):
            if s.shifted(ell) <= cells:
                return False
    return True


def monomial_krull_dim(supports: Sequence[Iterable], m: int) -> int | EmptyDimension:
    """Krull dimension of k[x_1..x_m] modulo a squarefree monomial ideal
    given by generator supports: m minus a minimum hitting set.  Returns
    EMPTY when some support is empty (unit ideal, zero ring)."""
    sets = [frozenset(s) for s in supports]
    size = minimum_hitting_set_size(sets)
    if size is None:
        return EMPTY
    return m - size


__all__ = [
    "STATE_BIT_CAP",
    "CapExceededError",
    "Cell",
    "EMPTY",
    "EmptyDimension",
    "SigmaFamily",
    "SupportSet",
    "UnitIdealError",
    "family_automaton",
    "family_from_monomials",
    "is_free",
    "iter_window_taus",
    "monomial_krull_dim",
    "obligation_automaton",
    "tau_family",
    "window_dim",
    "window_taus",
]
