"""Combinatorics of squarefree monomial sigma-ideals.

A squarefree sigma-monomial corresponds to a non-empty finite set of cells
(shift, index) in N x {1..n}; a family of such supports encodes the
monomial sigma-ideal generated by all forward shifts of its members.  This
module owns the column-pick automaton: one transfer table over the pick
patterns of the last width - 1 columns (`pick_automaton`, capped at
STATE_BIT_CAP bits of n * width), read by finite-horizon min-plus passes
for window transversal numbers and window dimensions.  It also tests free
sets directly and computes the Krull dimension of ordinary monomial
ideals by an exact minimum hitting set.

The cycle-mean solve reads the table through its quotient by pending
members (`pending_graph`).  A translate of a member is pending in a state
when its last cell lies in a later column and no picked cell of the
state hits it; the state's key packs one pending bit per such translate.
States with equal keys have equal rows and successors in equal classes,
since blocking and the next key depend only on the pending translates
and the new column: the key is a congruence, and the quotient keeps every
cycle and its mean.  The all-picked state has key 0 and is the source,
class 0; every cycle is reachable from it, because picking a whole column
is never blocked and the all-picked history admits every continuation.

The quotient keeps only the classes reachable from class 0, found by a
rule rather than a search.  A table state is reachable from the
all-picked state iff it hits every member translate that lies inside its
own width - 1 columns: appending its columns, oldest first, after an
all-picked history checks only such translates and translates that meet
the all-picked columns; and every state that steps reach had each of its
columns checked when it was appended.  A class is reachable iff it holds
a reachable state: a walk in the quotient from class 0 lifts, through
the congruence, to a walk of states from the all-picked state.
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
    """Raised when the pick-automaton table would exceed the cap."""


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

    __slots__ = ("n", "members", "width", "_pick_table")

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
        self._pick_table: np.ndarray | None = None  # filled by pick_automaton

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


def _ending_mask(s: SupportSet, n: int) -> int:
    """Pattern bits of the translate of s whose last cell lies in the
    newest column: a cell at shift a sits ord - a columns behind it."""
    return sum(1 << ((s.ord - a) * n + j - 1) for a, j in s.cells)


def pick_automaton(family: SigmaFamily) -> np.ndarray:
    """Transfer table of the column-pick automaton.

    A state is the pick pattern of the last width - 1 columns (n bits per
    column, newest column in the low bits).  A step from state r appends
    the column pattern p; step[r, p] is its cost popcount(p) when the
    pattern (r << n) | p hits every member whose window ends at the new
    column, and INF otherwise.  The step lands in the state
    ((r << n) | p) & (len(step) - 1).  The table has 2^(n * width)
    entries, capped at STATE_BIT_CAP bits.

    The table is built once per family object and kept read-only on it."""
    if family._pick_table is not None:
        return family._pick_table
    n, w = family.n, family.width
    bits = n * w
    if bits > STATE_BIT_CAP:
        raise CapExceededError(
            f"pick automaton needs {bits} state bits (n*width), cap is {STATE_BIT_CAP}"
        )
    patterns = np.arange(1 << bits, dtype=np.int64)
    hit = np.ones(1 << bits, dtype=bool)
    for s in family.members:
        hit &= (patterns & _ending_mask(s, n)) != 0
    picks = np.array([bin(p).count("1") for p in range(1 << n)], dtype=np.int64)
    step = np.where(hit.reshape(-1, 1 << n), picks, INF)
    step.flags.writeable = False
    family._pick_table = step
    return step


def _pending_masks(family: SigmaFamily) -> list[int]:
    """State bits of the cells already seen of each translate still to
    end, distinct masks only: the translate of member s whose last cell
    lands j columns after the newest one, for j in 1..ord(s), has seen
    the cells of the ending mask shifted j columns back.  It is pending
    in state r iff r & mask == 0.  No mask is empty: every member has a
    cell at shift 0."""
    masks = {}
    for s in family.members:
        whole = _ending_mask(s, family.n)
        for j in range(1, s.ord + 1):
            masks[whole >> (j * family.n)] = None
    return list(masks)


def _pending_key(family: SigmaFamily, size: int) -> np.ndarray:
    """The pending bits of each of the `size` states packed into an int64
    key.  When its bits run out, the key so far is renumbered by rank,
    which keeps both the classes and their order."""
    states = np.arange(size, dtype=np.int64)
    key = np.zeros(size, dtype=np.int64)
    used = 0
    for mask in _pending_masks(family):
        if used == 62:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            used = int(key.max()).bit_length()
        key = (key << 1) | ((states & mask) == 0)
        used += 1
    return key


def _reached_states(family: SigmaFamily, size: int) -> np.ndarray:
    """Mask of the `size` table states reachable from the all-picked
    state: those that hit every member translate inside their own
    width - 1 columns, the translate of s that ends j columns before the
    newest one for j < width - 1 - ord(s)."""
    n, w = family.n, family.width
    states = np.arange(size, dtype=np.int64)
    reached = np.ones(size, dtype=bool)
    for s in family.members:
        whole = _ending_mask(s, n)
        for j in range(w - 1 - s.ord):
            reached &= (states & (whole << (j * n))) != 0
    return reached


def pending_graph(family: SigmaFamily) -> Graph:
    """The pick automaton's quotient by pending members, as a graph on
    the classes reachable from the all-picked state's.

    The class key of a state packs its pending bits (`_pending_masks`);
    classes are numbered in key order, so the all-picked state's class,
    key 0, is class 0.  A class takes the row of its first state: its
    edges are that row's finite entries, weighted by their picks and
    labeled by the pick pattern, into the class of the representative's
    successor.  Explicit checks that every state has its representative's
    row and successor classes raise CertificateError: the certified mean
    of the quotient is then the mean of the full automaton.

    Only the classes holding a reachable state (`_reached_states`) are
    kept, renumbered in order, so the graph meets the solver's contract:
    every class is reachable from class 0, and each has an outgoing edge,
    since picking the whole column is never blocked."""
    step = pick_automaton(family)
    _, rep, cls = np.unique(_pending_key(family, len(step)), return_index=True, return_inverse=True)
    nxt = np.arange(step.size, dtype=np.int64).reshape(step.shape) & (len(step) - 1)
    row, succ = step[rep], cls[nxt[rep]]  # per class, from its representative
    if not np.array_equal(step, row[cls]):
        raise CertificateError(f"{family}: a state's row differs from its pending class's")
    if not np.array_equal(cls[nxt], succ[cls]):
        raise CertificateError(f"{family}: a state's successors leave its pending classes")
    kept = np.zeros(len(rep), dtype=bool)
    kept[cls[_reached_states(family, len(step))]] = True
    number = np.cumsum(kept) - 1
    row, succ = row[kept], succ[kept]
    c, pick = np.nonzero(row < INF)
    return Graph(len(row), c, number[succ[c, pick]], row[c, pick], pick)


def iter_window_taus(family: SigmaFamily, i_max: int) -> Iterator[int]:
    """tau(family, i) for i = 0..i_max, yielded in one min-plus pass over
    the pick automaton.

    The pass starts in the all-picked state, which makes every member
    longer than the columns appended so far vacuous; each appended column
    costs its picks and must hit the members that end in it, so every
    shifted member inside the window is checked exactly once.  After i+1
    columns the minimum over states is tau(family, i)."""
    if not family.members:
        yield from repeat(0, i_max + 1)
        return
    step = pick_automaton(family)
    dp = np.full(len(step), INF, dtype=np.int64)
    dp[-1] = 0
    for _ in range(i_max + 1):
        # entry k = (r << n) | p of the table lands in state k mod len(dp),
        # so column t of the reshaped sums holds the steps into state t;
        # `initial` caps blocked sums at INF, so they cannot overflow
        dp = (dp[:, None] + step).reshape(-1, len(dp)).min(axis=0, initial=INF)
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
    "family_from_monomials",
    "is_free",
    "iter_window_taus",
    "monomial_krull_dim",
    "pending_graph",
    "pick_automaton",
    "tau_family",
    "window_dim",
    "window_taus",
]
