"""Shared helpers: tiny builders and independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: hitting sets
by subset enumeration, interval transversals by combinations over
placements and by a forward DP over coverage bitmasks (the algorithm the
library used before the window pass of the pick automaton), free subsets
by window enumeration, window constraints by listing every shifted member,
minimum cycle means by Karp's dynamic program (the algorithm the library
used before policy iteration), shortest-path potentials by plain
synchronous relaxation rounds (the witness potentials the library used
before the certificate's Bellman-Ford), the pick automaton on the patterns
of the last `width` columns (the state space the library used before its
obligation states), window numbers by a min-plus pass over it, its
quotient by the started translates each state hits, found by a search
from the all-picked state (the automaton the library builds in rounds),
the coverage automaton on all 2**span masks and the reachability search
by a numpy BFS (the graph and the search the library used before it
built the reachable coverage states), the member pruning by
shifted containment of SupportSets (the pruning the library ran before
its bitmasks), policy values over two arrays and every doubling round
(the evaluation the library ran before it packed them),
Groebner bases by the plain Buchberger loop the library used before packed
exponents and the pair heap, with divisibility, quotients, lcms and
coprimality on SigmaMonomials, truncated dimension sequences by one
Groebner basis per window (the ladder the library ran before reading every
window off one run), F_p solution sets by evaluating every
equation on the whole window grid (the enumeration the library used before
the cell-by-cell search), minimum hitting sets by branch and bound on
frozensets (the search the library ran before its int-mask kernel), and
polynomial texts by a parser that evaluates every node with
DifferencePolynomial arithmetic (the parser the library used before it
built one term dict).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from sigmadim import LEX, DifferencePolynomial, SigmaMonomial, parse_polynomial
from sigmadim.lab import pow_mod


def poly(text: str, n: int) -> DifferencePolynomial:
    return parse_polynomial(text, n)


def mono(text: str, n: int) -> SigmaMonomial:
    p = parse_polynomial(text, n)
    (m,) = p.terms
    return m


def random_system(rng, n: int, max_order: int, max_degree: int) -> list:
    """One or two random polynomials in y1..yn with nonzero integer
    coefficients in [-3, 3] (before like terms merge), shifts up to
    max_order and terms of total degree up to max_degree."""
    system = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(0, max_degree)
            cells = [(rng.randint(0, max_order), rng.randint(1, n)) for _ in range(degree)]
            exps = {}
            for cell in cells:
                exps[cell] = exps.get(cell, 0) + 1
            m = SigmaMonomial(exps)
            terms[m] = terms.get(m, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        system.append(DifferencePolynomial(terms, n))
    return system


def brute_min_hitting_set_size(sets) -> int | None:
    """Exhaustive minimum hitting set size (None if infeasible)."""
    sets = [frozenset(s) for s in sets]
    if any(not s for s in sets):
        return None
    universe = sorted(set(chain.from_iterable(sets)))
    for k in range(len(universe) + 1):
        for combo in combinations(universe, k):
            chosen = set(combo)
            if all(s & chosen for s in sets):
                return k
    raise AssertionError("unreachable")


def brute_tau_interval(elements, i: int) -> int:
    """Exhaustive minimum number of translates of E covering {1..i}."""
    E = sorted(elements)
    span = E[-1] - E[0]
    positions = list(range(1 - span, i + 1))
    target = set(range(1, i + 1))
    for k in range(len(positions) + 1):
        for combo in combinations(positions, k):
            cover = set()
            for t in combo:
                cover.update(t + e - E[0] for e in E)
            if target <= cover:
                return k
    raise AssertionError("unreachable")


def oracle_tau_interval(elements, i: int) -> int:
    """Least number of translates of E covering {1..i}, by a forward DP
    over coverage bitmasks: the state is which of the next span positions
    are covered, and translate positions run over [1 - span, i];
    positions outside {1..i} carry no coverage requirement."""
    E = sorted(elements)
    span = E[-1] - E[0]
    if span == 0:
        return i  # one point per position
    inf = 1 << 60
    nstates = 1 << span
    states = np.arange(nstates, dtype=np.int64)
    skip_ok = (states & 1).astype(bool)  # skip only if bit 0 is covered
    skip_to = states >> 1
    place_to = (states | sum(1 << (x - E[0]) for x in E)) >> 1
    dp = np.full(nstates, inf, dtype=np.int64)
    dp[0] = 0
    for p in range(1 - span, i + 1):
        nxt = np.full(nstates, inf, dtype=np.int64)
        ok = (skip_ok | (p < 1)) & (dp < inf)
        np.minimum.at(nxt, skip_to[ok], dp[ok])
        ok = dp < inf
        np.minimum.at(nxt, place_to[ok], dp[ok] + 1)
        dp = nxt
    return int(dp.min())


def window_constraints(family, i: int) -> list:
    """All shifted members fitting inside the window {0..i} x {1..n}.

    Members of order greater than i contribute nothing (vacuous)."""
    out = []
    for s in family.members:
        for ell in range(i - s.ord + 1):
            out.append(s.shifted(ell))
    return out


def brute_max_free_size(family, i: int) -> int:
    """Exhaustive maximum free subset size of the order-i window."""
    cells = [(a, j) for a in range(i + 1) for j in range(1, family.n + 1)]
    masks = []
    for s in family.members:
        for ell in range(i - s.ord + 1):
            shifted = s.shifted(ell)
            mask = 0
            for c in shifted:
                mask |= 1 << cells.index(c)
            masks.append(mask)
    best = 0
    for pick in range(1 << len(cells)):
        if any(mask & ~pick == 0 for mask in masks):
            continue
        best = max(best, bin(pick).count("1"))
    return best


def graph(num_states: int, edges):
    """A Graph written out by hand: edges are (u, v, w) or (u, v, w, label)
    tuples, in order; a missing label is None."""
    from sigmadim.meancycle import Graph

    edges = list(edges)
    label = np.empty(len(edges), dtype=object)
    for k, e in enumerate(edges):
        label[k] = e[3] if len(e) > 3 else None
    return Graph(
        num_states, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges], label
    )


def karp_min_mean(g, source: int = 0) -> Fraction:
    """Minimum mean over the cycles reachable from source, by Karp's
    dynamic program: mu = min_v max_k (D_n(v) - D_k(v)) / (n - k), where
    D_k(v) is the least weight of a walk of exactly k edges from source
    to v.  Two passes keep memory at O(V): D_n first, then the k-layers
    streamed again.  Raises ValueError if no cycle is reachable."""
    src = [int(u) for u in g.src]
    dst = [int(v) for v in g.dst]
    adj: dict[int, list[int]] = {}
    for u, v in zip(src, dst):
        adj.setdefault(u, []).append(v)
    reach = {source}
    stack = [source]
    while stack:
        for v in adj.get(stack.pop(), ()):
            if v not in reach:
                reach.add(v)
                stack.append(v)
    index = {old: new for new, old in enumerate(sorted(reach))}
    keep = [k for k, u in enumerate(src) if u in reach]
    n = len(index)
    s = np.array([index[src[k]] for k in keep], dtype=np.int64)
    d = np.array([index[dst[k]] for k in keep], dtype=np.int64)
    w = np.array([int(g.weight[k]) for k in keep], dtype=np.int64)
    inf = 1 << 60
    start = np.full(n, inf, dtype=np.int64)
    start[index[source]] = 0

    def step(layer):
        nxt = np.full(n, inf, dtype=np.int64)
        ok = layer[s] < inf
        np.minimum.at(nxt, d[ok], layer[s[ok]] + w[ok])
        return nxt

    d_n = start
    for _ in range(n):
        d_n = step(d_n)
    layer = start
    best_num = np.zeros(n, dtype=np.int64)
    best_den = np.ones(n, dtype=np.int64)
    have = np.zeros(n, dtype=bool)
    for k in range(n):
        finite = (layer < inf) & (d_n < inf)
        num = d_n - layer
        better = finite & (~have | (num * best_den > best_num * (n - k)))
        best_num[better] = num[better]
        best_den[better] = n - k
        have |= finite
        layer = step(layer)
    if not have.any():
        raise ValueError("no cycle reachable from source")
    return min(Fraction(int(best_num[v]), int(best_den[v])) for v in range(n) if have[v])


def oracle_distances(n: int, source: int, src, dst, rw) -> np.ndarray:
    """Shortest-path potentials from source under the integer weights rw,
    by synchronous relaxation rounds that stop at the first round changing
    nothing; INF (1 << 60) marks unreached states.  Raises ValueError if
    n + 1 rounds do not settle (a negative cycle is reachable)."""
    inf = 1 << 60
    src, dst, rw = (np.asarray(a, dtype=np.int64) for a in (src, dst, rw))
    pot = np.full(n, inf, dtype=np.int64)
    pot[source] = 0
    for _ in range(n + 1):
        nxt = pot.copy()
        ok = pot[src] < inf
        np.minimum.at(nxt, dst[ok], pot[src[ok]] + rw[ok])
        if np.array_equal(nxt, pot):
            return pot
        pot = nxt
    raise ValueError("the reweighted graph has a negative cycle")


def oracle_reachable(g, source: int = 0) -> np.ndarray:
    """Mask of the states of g reachable from source: a BFS that expands
    a whole frontier per step over the edges grouped by tail state."""
    n = g.num_states
    heads = g.dst[np.argsort(g.src, kind="stable")]
    count = np.bincount(g.src, minlength=n)
    first = np.cumsum(count) - count
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    slot = np.zeros(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        k = count[frontier]
        runs = np.repeat(first[frontier] - (np.cumsum(k) - k), k)
        nxt = heads[runs + np.arange(runs.size)]
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        # keep one copy of each state: the position its slot ends up naming
        order = np.arange(nxt.size)
        slot[nxt] = order
        frontier = nxt[slot[nxt] == order]
    return seen


def oracle_restrict_reachable(g, source: int = 0):
    """(subgraph of g induced by the states reachable from source, states
    renumbered in order; new index of source)."""
    from sigmadim.meancycle import Graph

    keep = oracle_reachable(g, source)
    new = np.cumsum(keep) - 1
    e = keep[g.src] & keep[g.dst]
    sub = Graph(
        int(np.count_nonzero(keep)), new[g.src[e]], new[g.dst[e]], g.weight[e], g.label[e]
    )
    return sub, int(new[source])


def oracle_coverage_graph(e):
    """The coverage automaton on all 2**span masks, reachable from state 0
    or not: per state, skip (only if bit 0 is covered), then place."""
    from sigmadim.meancycle import Graph

    span = e.span
    if span == 0:
        return Graph(1, [0], [0], [1], [1])  # must place at every position
    states = np.arange(1 << span, dtype=np.int64)
    src = np.repeat(states, 2)
    dst = np.stack((states >> 1, (states | e.mask()) >> 1), axis=1).ravel()
    placed = np.tile(np.array([0, 1], dtype=np.int64), 1 << span)
    ok = (placed == 1) | (src & 1 == 1)
    return Graph(1 << span, src[ok], dst[ok], placed[ok], placed[ok])


def oracle_pick_graph(family):
    """The pick automaton of a family on full states: a state is the pick
    pattern of the last `width` columns (newest column in the low bits), and
    a step appending pattern p may land on a state only if every member
    whose window ends at the newest column has a picked cell there.  Edge
    weight = picks in the new column, edge label = its pattern."""
    from sigmadim.meancycle import Graph

    n = family.n
    bits = n * family.width
    full = (1 << bits) - 1
    states = np.arange(1 << bits, dtype=np.int64)
    allowed = np.ones(1 << bits, dtype=bool)
    for s in family.members:
        mask = 0
        for a, j in s.cells:
            mask |= 1 << ((s.ord - a) * n + (j - 1))
        allowed &= (states & mask) != 0
    src, dst, pick = [], [], []
    for p in range(1 << n):
        nxt = ((states << n) | p) & full
        ok = allowed[nxt]
        src.append(states[ok])
        dst.append(nxt[ok])
        pick.append(np.full(len(dst[-1]), p, dtype=np.int64))
    pick = np.concatenate(pick)
    cost = np.array([bin(p).count("1") for p in range(1 << n)], dtype=np.int64)
    return Graph(1 << bits, np.concatenate(src), np.concatenate(dst), cost[pick], pick)


def oracle_window_taus(family, i_max: int) -> list[int]:
    """tau(family, i) for i = 0..i_max by a min-plus pass over
    `oracle_pick_graph` from the all-picked state."""
    g = oracle_pick_graph(family)
    inf = 1 << 60
    cost = np.full(g.num_states, inf, dtype=np.int64)
    cost[-1] = 0
    taus = []
    for _ in range(i_max + 1):
        nxt = np.full(g.num_states, inf, dtype=np.int64)
        ok = cost[g.src] < inf
        np.minimum.at(nxt, g.dst[ok], cost[g.src[ok]] + g.weight[ok])
        cost = nxt
        taus.append(int(cost.min()))
    return taus


def oracle_obligation_graph(family):
    """The quotient of `oracle_pick_graph`, on the states reachable from
    the all-picked one, by the started translates each state hits.

    A state's mask has one block of ord(s) + 1 bits per member s, in
    member order; bit k is set when the translate of s that ends k + 1
    columns after the newest one has a picked cell.  Classes are numbered
    by increasing mask, with one edge per pick pattern that their states
    allow, into the class of its head.  AssertionError unless the states
    of a class allow the same patterns and agree on each one's head
    class."""
    from sigmadim.meancycle import Graph

    n, g = family.n, oracle_pick_graph(family)
    full = np.arange(g.num_states, dtype=np.int64)
    mask = np.zeros(g.num_states, dtype=object)
    base = 0
    for s in family.members:
        for k in range(s.ord):
            cells = sum(1 << ((s.ord - k - 1 - a) * n + j - 1) for a, j in s.cells if a < s.ord - k)
            mask |= ((full & cells) != 0).astype(object) << (base + k)
        base += s.ord + 1
    seen = oracle_reachable(g, g.num_states - 1)
    reach = np.flatnonzero(seen)
    classes = np.unique(mask[reach])
    cls = np.searchsorted(classes, mask)
    e = seen[g.src]
    pairs = np.unique(np.stack((cls[g.src[e]] << n | g.label[e], cls[g.dst[e]])), axis=1)
    assert len(np.unique(pairs[0])) == pairs.shape[1], "a class's states disagree on a head"
    out = np.bincount(pairs[0] >> n, minlength=len(classes))
    assert np.array_equal(np.bincount(g.src[e], minlength=g.num_states)[reach], out[cls[reach]])
    pick = pairs[0] & ((1 << n) - 1)
    cost = np.array([bin(p).count("1") for p in range(1 << n)], dtype=np.int64)
    return Graph(len(classes), pairs[0] >> n, pairs[1], cost[pick], pick)


def cover_automaton(e):
    """The automaton that `cover` and the covering density solve: the
    obligation automaton of the family {-E}."""
    from sigmadim.covering import _translates
    from sigmadim.families import obligation_automaton

    return obligation_automaton(_translates(e))


def oracle_shift_contained(small, big) -> bool:
    """True if some forward shift of the SupportSet `small` is contained
    in the SupportSet `big`."""
    for ell in range(big.ord - small.ord + 1):
        if small.shifted(ell) <= big.cells:
            return True
    return False


def oracle_family_members(n: int, members) -> tuple:
    """The members a SigmaFamily keeps, by the pruning the library ran
    before its bitmasks: every member made a SupportSet and checked
    against n, then kept by increasing size unless some forward shift of
    a kept one lies in it; sorted by their sorted cells."""
    from sigmadim.families import SupportSet

    normalized = {m if isinstance(m, SupportSet) else SupportSet(m) for m in members}
    for s in normalized:
        if any(j > n for _, j in s.cells):
            raise ValueError(f"member {s} uses index beyond n={n}")
    kept = []
    for s in sorted(normalized, key=lambda s: (len(s.cells), s.sorted_cells())):
        if not any(oracle_shift_contained(t, s) for t in kept):
            kept.append(s)
    return tuple(sorted(kept, key=lambda s: s.sorted_cells()))


def oracle_policy_values(succ, cost):
    """(rep, dist, steps) of a policy, by pointer doubling over two arrays
    for every round: the evaluation the library ran before it carried the
    path sums packed in one int64 and stopped early."""
    n = len(succ)
    rounds = max(1, (n - 1).bit_length())
    ident = np.arange(n, dtype=np.int64)
    jump, low = succ, ident
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    rep = low[jump]
    root = rep == ident
    jump = np.where(root, ident, succ)
    dist = np.where(root, 0, cost)
    steps = (~root).astype(np.int64)
    for _ in range(rounds):
        dist = dist + dist[jump]
        steps = steps + steps[jump]
        jump = jump[jump]
    return rep, dist, steps


def oracle_divides(a, b) -> bool:
    """The monomial a divides the monomial b."""
    mine = dict(b.exps)
    return all(mine.get(v, 0) >= e for v, e in a.exps)


def oracle_quotient(b, a):
    """b / a for monomials with a dividing b."""
    merged = dict(b.exps)
    for v, e in a.exps:
        got = merged.get(v, 0) - e
        if got < 0:
            raise ValueError(f"{a} does not divide {b}")
        merged[v] = got
    return SigmaMonomial(merged)


def oracle_lcm(a, b):
    merged = dict(a.exps)
    for v, e in b.exps:
        merged[v] = max(merged.get(v, 0), e)
    return SigmaMonomial(merged)


def oracle_coprime(a, b) -> bool:
    return not (a.support() & b.support())


def oracle_reduce(f, G, order=LEX):
    """Full normal form of f modulo G on SigmaMonomial-keyed polynomials:
    the leading term is reduced by the first g whose leading monomial
    divides it, or moved to the remainder."""
    divisors = [(g, *order.leading(g)) for g in G if not g.is_zero]
    remainder = {}
    work = f
    while not work.is_zero:
        m, c = order.leading(work)
        hit = next(((g, lm, lc) for g, lm, lc in divisors if oracle_divides(lm, m)), None)
        if hit is None:
            remainder[m] = remainder.get(m, Fraction(0)) + c
            work = work - DifferencePolynomial({m: c}, f.num_vars)
        else:
            g, lm, lc = hit
            factor = DifferencePolynomial({oracle_quotient(m, lm): c / lc}, f.num_vars)
            work = work - factor * g
    return DifferencePolynomial(remainder, f.num_vars)


def _oracle_monic(f, order):
    _, c = order.leading(f)
    return f.scale(Fraction(1) / c)


def oracle_s_polynomial(f, g, order):
    mf, cf = order.leading(f)
    mg, cg = order.leading(g)
    lcm = oracle_lcm(mf, mg)
    uf = DifferencePolynomial({oracle_quotient(lcm, mf): Fraction(1) / cf}, f.num_vars)
    ug = DifferencePolynomial({oracle_quotient(lcm, mg): Fraction(1) / cg}, g.num_vars)
    return uf * f - ug * g


def oracle_buchberger(F, order=LEX) -> list:
    """Reduced monic Groebner basis of (F), sorted by leading monomial,
    by the plain Buchberger loop: the pair with the least lcm is found by
    rescanning every pending pair, with the product criterion and
    Buchberger's chain criterion.  [1] for the unit ideal, [] for zero."""
    polys = [f for f in F if not f.is_zero]
    num_vars = F[0].num_vars if F else 0
    G, lms = [], []
    for f in sorted(polys, key=lambda f: order.key(order.leading(f)[0])):
        r = oracle_reduce(f, G, order)
        if not r.is_zero:
            G.append(_oracle_monic(r, order))
            lms.append(order.leading(G[-1])[0])

    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()

    def chain_skippable(i, j):
        lcm = oracle_lcm(lms[i], lms[j])
        for k in range(len(G)):
            if k in (i, j) or not oracle_divides(lms[k], lcm):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a in done and b in done:
                return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda p: (order.key(oracle_lcm(lms[p[0]], lms[p[1]])), p))
        pairs.discard((i, j))
        done.add((i, j))
        if oracle_coprime(lms[i], lms[j]) or chain_skippable(i, j):
            continue
        r = oracle_reduce(oracle_s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero:
            continue
        G.append(_oracle_monic(r, order))
        lms.append(order.leading(G[-1])[0])
        k = len(G) - 1
        pairs |= {(t, k) for t in range(k)}

    minimal = [
        G[i]
        for i in range(len(G))
        if not any(j != i and oracle_divides(lms[j], lms[i]) for j in range(len(G)))
    ]
    if any(g.is_constant() for g in minimal):
        return [DifferencePolynomial.constant(1, num_vars)]
    reduced = []
    for i, g in enumerate(minimal):
        others = [minimal[j] for j in range(len(minimal)) if j != i]
        reduced.append(_oracle_monic(oracle_reduce(g, others, order), order))
    reduced.sort(key=lambda g: order.key(order.leading(g)[0]))
    return reduced


def oracle_dim_sequence(F, i_max: int) -> tuple:
    """(d_0, ..., d_i_max, reduced basis of window i_max) by one
    `buchberger` run per window on that window's truncation generators,
    each d_i the window's n(i+1) variables minus an exhaustive minimum
    hitting set of the basis's leading-monomial supports (EMPTY for the
    unit ideal)."""
    from sigmadim import EMPTY, buchberger, leading_monomial_ideal
    from sigmadim.engine import truncation_generators
    from sigmadim.polynomials import SigmaVariable

    F = [f for f in F if not f.is_zero]
    n = F[0].num_vars
    d, basis = [], None
    for i in range(i_max + 1):
        ring = [SigmaVariable(a, j) for a in range(i + 1) for j in range(1, n + 1)]
        basis = buchberger(truncation_generators(F, i), ring, LEX)
        size = brute_min_hitting_set_size(m.support() for m in leading_monomial_ideal(basis))
        d.append(EMPTY if size is None else n * (i + 1) - size)
    return d, basis


def oracle_enumerate(F, p: int, i: int) -> tuple:
    """Points of the window {0..i} x {1..n} over F_p (cells sorted by
    (shift, index), odometer order, last cell fastest) on which s^l(f)
    vanishes for every f in F and every l with l + ord(f) <= i: every
    shifted generator is evaluated on all p^(n(i+1)) grid points."""
    n = F[0].num_vars
    cells = [(a, j) for a in range(i + 1) for j in range(1, n + 1)]
    ncells = len(cells)
    total = p**ncells
    idx = np.arange(total, dtype=np.int64)
    values = {c: (idx // p ** (ncells - 1 - k)) % p for k, c in enumerate(cells)}
    ok = np.ones(total, dtype=bool)
    for f in F:
        if f.is_zero:
            continue
        o = f.order() or 0
        for ell in range(i - o + 1):
            acc = np.zeros(total, dtype=np.int64)
            for m, c in f.shifted(ell).terms.items():
                term = np.full(total, int(c) % p, dtype=np.int64)
                for v, e in m.exps:
                    term = (term * pow_mod(values[(v.shift, v.index)], e, p)) % p
                acc = (acc + term) % p
            ok &= acc == 0
    return tuple(
        tuple((s // p ** (ncells - 1 - k)) % p for k in range(ncells))
        for s in np.nonzero(ok)[0].tolist()
    )


def _oracle_normalize(sets):
    pool = sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    if pool and not pool[0]:
        return None
    kept = []
    for s in pool:
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def _oracle_greedy_cover(constraints) -> set:
    chosen = set()
    remaining = list(constraints)
    while remaining:
        counts = {}
        for s in remaining:
            for x in s:
                counts[x] = counts.get(x, 0) + 1
        best = max(sorted(counts), key=lambda x: counts[x])
        chosen.add(best)
        remaining = [s for s in remaining if best not in s]
    return chosen


def _oracle_packing_bound(constraints) -> int:
    used = set()
    count = 0
    for s in sorted(constraints, key=lambda s: (len(s), sorted(s))):
        if not (s & used):
            count += 1
            used |= s
    return count


def oracle_minimum_hitting_set(sets):
    """An optimal hitting set by branch and bound on frozensets (None if
    some constraint is empty): dominance elimination, unit propagation, a
    greedy upper bound and a disjoint-packing lower bound, with no
    bitmasks (the search the library ran before its int-mask kernel)."""
    constraints = _oracle_normalize(sets)
    if constraints is None:
        return None
    if not constraints:
        return frozenset()
    best = _oracle_greedy_cover(constraints)

    def search(remaining, chosen):
        nonlocal best
        while True:
            units = [s for s in remaining if len(s) == 1]
            if not units:
                break
            for s in units:
                chosen |= s
            forced = set().union(*units)
            remaining = [s for s in remaining if not (s & forced)]
        if not remaining:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + _oracle_packing_bound(remaining) >= len(best):
            return
        target = min(remaining, key=lambda s: (len(s), sorted(s)))
        for x in sorted(target):
            search([s for s in remaining if x not in s], chosen | {x})

    search(constraints, set())
    return frozenset(best)


class _OracleParser:
    """The polynomial grammar of `sigmadim.parsing`, evaluated with
    DifferencePolynomial arithmetic at every node (the parser the library
    used before it built one term dict)."""

    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.pos = 0
        self.num_vars = num_vars

    def error(self, message: str):
        from sigmadim.parsing import ParseError

        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def expr(self) -> DifferencePolynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        out = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> DifferencePolynomial:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = out * self.factor()
        return out

    def factor(self) -> DifferencePolynomial:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.nat()
        return base

    def atom(self) -> DifferencePolynomial:
        ch = self.peek()
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator")
                return DifferencePolynomial.constant(Fraction(num, den), self.num_vars)
            return DifferencePolynomial.constant(num, self.num_vars)
        if ch == "y":
            self.pos += 1
            index = self.nat()
            if index < 1 or index > self.num_vars:
                raise self.error(f"variable index {index} outside 1..{self.num_vars}")
            return DifferencePolynomial.variable(0, index, self.num_vars)
        if ch == "s":
            self.pos += 1
            power = 1
            if self.peek() == "^":
                self.pos += 1
                power = self.nat()
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner.shifted(power)
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        raise self.error("expected a literal, variable, shift, or '('")


def oracle_parse_polynomial(text: str, num_vars: int) -> DifferencePolynomial:
    """`parse_polynomial` by `_OracleParser`: same grammar, same errors."""
    parser = _OracleParser(text, num_vars)
    out = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return out
