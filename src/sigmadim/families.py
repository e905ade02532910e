"""Combinatorics of squarefree monomial sigma-ideals.

A squarefree sigma-monomial corresponds to a non-empty finite set of cells
(shift, index) in N x {1..n}; a family of such supports encodes the
monomial sigma-ideal generated by all forward shifts of its members.  This
module computes window transversal numbers, window dimensions and
lexicographically least maximum free subsets by one finite-horizon
min-plus pass over the column-pick automaton (capped at STATE_BIT_CAP
state bits), free-set tests directly, and the Krull dimension of ordinary
monomial ideals by an exact minimum hitting set.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .meancycle import INF
from .polynomials import SigmaMonomial
from .transversal import minimum_hitting_set_size

Cell = tuple[int, int]  # (shift, index)

STATE_BIT_CAP = 20


class CapExceededError(ValueError):
    """Raised when the pick-automaton state space would exceed the cap."""


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

    __slots__ = ("cells", "translation")

    def __init__(self, cells: Iterable[Cell]):
        raw = {(int(i), int(j)) for i, j in cells}
        if not raw:
            raise ValueError("support set must be non-empty")
        if any(i < 0 or j < 1 for i, j in raw):
            raise ValueError(f"cells must lie in N x {{1..n}}: {sorted(raw)}")
        low = min(i for i, _ in raw)
        self.translation = low
        self.cells: frozenset[Cell] = frozenset((i - low, j) for i, j in raw)

    @property
    def ord(self) -> int:
        return max(i for i, _ in self.cells)

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


class SigmaFamily:
    """A finite family of supports encoding a squarefree monomial
    sigma-ideal in n difference variables.

    Members are normalized to an antichain under shifted containment: a
    member containing some forward shift of another member generates
    nothing new and is dropped.  Dropping such supersets leaves every
    window transversal number unchanged."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[SupportSet | Iterable[Cell]]):
        if n < 1:
            raise ValueError("n must be >= 1")
        normalized = {m if isinstance(m, SupportSet) else SupportSet(m) for m in members}
        for s in normalized:
            if any(j > n for _, j in s.cells):
                raise ValueError(f"member {s} uses index beyond n={n}")
        kept: list[SupportSet] = []
        for s in sorted(normalized, key=lambda s: (len(s.cells), s.sorted_cells())):
            if not any(_shift_contained(t, s) for t in kept):
                kept.append(s)
        self.n = n
        self.members: tuple[SupportSet, ...] = tuple(
            sorted(kept, key=lambda s: s.sorted_cells())
        )

    @property
    def width(self) -> int:
        """1 + max member order (window span of one member)."""
        return 1 + max((s.ord for s in self.members), default=0)

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


def _shift_contained(small: SupportSet, big: SupportSet) -> bool:
    """True if some forward shift of `small` is contained in `big`."""
    for ell in range(big.ord - small.ord + 1):
        if small.shifted(ell) <= big.cells:
            return True
    return False


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


def window_constraints(family: SigmaFamily, i: int) -> list[frozenset[Cell]]:
    """All shifted members fitting inside the window {0..i} x {1..n}.

    Members of order greater than i contribute nothing (vacuous)."""
    out = []
    for s in family.members:
        for ell in range(i - s.ord + 1):
            out.append(s.shifted(ell))
    return out


def pick_states(family: SigmaFamily) -> tuple[int, np.ndarray]:
    """State bits and allowed-state mask of the column-pick automaton.

    A state is the pick pattern of the last `width` columns (n bits per
    column, newest column in the low bits).  A step appends one column and
    may land on state t only if allowed[t]: every member whose window ends
    at the newest column has some picked cell."""
    n, w = family.n, family.width
    bits = n * w
    if bits > STATE_BIT_CAP:
        raise CapExceededError(
            f"pick automaton needs {bits} state bits (n*width), cap is {STATE_BIT_CAP}"
        )
    states = np.arange(1 << bits, dtype=np.int64)
    allowed = np.ones(1 << bits, dtype=bool)
    for s in family.members:
        mask = 0
        for (a, j) in s.cells:
            # cell at shift a of a member of order o sits (o - a) columns
            # behind the newest column
            mask |= 1 << ((s.ord - a) * n + (j - 1))
        allowed &= (states & mask) != 0
    return bits, allowed


def _popcounts(n: int) -> np.ndarray:
    """Picks in each of the 2^n column patterns: the cost of a step."""
    return np.array([bin(p).count("1") for p in range(1 << n)], dtype=np.int64)


def window_taus(family: SigmaFamily, i_max: int) -> list[int]:
    """tau(family, i) for i = 0..i_max in one min-plus pass over the pick
    automaton.

    The pass starts in the all-picked state, which makes every member
    longer than the columns appended so far vacuous; each appended column
    costs its picks and must land in an allowed state, so every shifted
    member inside the window is checked exactly once.  After i+1 columns
    the minimum over states is tau(family, i)."""
    if not family.members:
        return [0] * (i_max + 1)
    n = family.n
    bits, allowed = pick_states(family)
    blocked = ~allowed
    cost = _popcounts(n)
    dp = np.full(1 << bits, INF, dtype=np.int64)
    dp[-1] = 0
    taus = []
    for _ in range(i_max + 1):
        # the predecessors of state t are the 2^n states whose low
        # bits - n bits equal t >> n: one column of the reshaped dp
        best = dp.reshape(1 << n, -1).min(axis=0)
        dp = (best[:, None] + cost[None, :]).ravel()
        dp[blocked] = INF
        taus.append(int(dp.min()))
    return taus


def tau_family(family: SigmaFamily, i: int) -> int:
    """Minimum size of a cell set hitting every shifted member within the
    order-i window."""
    if i < 0:
        raise ValueError("window order must be >= 0")
    return window_taus(family, i)[i]


def window_dim(family: SigmaFamily, i: int) -> int:
    """Dimension of the order-i truncation: n(i+1) - tau(family, i)."""
    return family.n * (i + 1) - tau_family(family, i)


def is_free(T: Iterable[Cell], family: SigmaFamily) -> bool:
    """True iff no forward shift of any member is contained in T."""
    cells = frozenset((int(i), int(j)) for i, j in T)
    if not cells:
        return True
    top = max(i for i, _ in cells)
    for s in family.members:
        for ell in range(top - s.ord + 1):
            if s.shifted(ell) <= cells:
                return False
    return True


def max_free_subset(family: SigmaFamily, i: int) -> frozenset[Cell]:
    """Lexicographically smallest maximum free subset of the order-i window.

    Free sets are exactly the complements of window hitting sets.  A
    backward pass over the pick automaton gives, for each column, the least
    picks the later columns still need; the forward scan then takes, column
    by column, the pick pattern that leaves the earliest cells free among
    those that keep the total at tau."""
    if i < 0:
        raise ValueError("window order must be >= 0")
    n = family.n
    if not family.members:
        return frozenset((a, j) for a in range(i + 1) for j in range(1, n + 1))
    bits, allowed = pick_states(family)
    full = (1 << bits) - 1
    low = full >> n  # the part of a state the next step sees
    cost = _popcounts(n)
    states = np.arange(1 << bits, dtype=np.int64)
    step_cost = cost[states & ((1 << n) - 1)]
    seen_next = states & low
    # rest[c][r]: least picks in columns c..i from a state whose low bits
    # - n bits are r; rest[i + 1] = 0
    rest = [np.zeros(low + 1, dtype=np.int64)]
    for _ in range(i + 1):
        through = np.where(allowed, step_cost + rest[-1][seen_next], INF)
        rest.append(through.reshape(low + 1, 1 << n).min(axis=1))
    rest.reverse()
    # lexicographic preference: cell (a, 1) free first, then (a, 2), ...
    order = sorted(range(1 << n), key=lambda p: [(p >> k) & 1 for k in range(n)])
    state = full
    free: set[Cell] = set()
    for a in range(i + 1):
        need = rest[a][state & low]
        for pick in order:
            nxt = ((state << n) | pick) & full
            if allowed[nxt] and cost[pick] + rest[a + 1][nxt & low] == need:
                break
        free.update((a, j) for j in range(1, n + 1) if not pick >> (j - 1) & 1)
        state = nxt
    return frozenset(free)


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
    "max_free_subset",
    "monomial_krull_dim",
    "pick_states",
    "tau_family",
    "window_constraints",
    "window_dim",
    "window_taus",
]
