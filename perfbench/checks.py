"""Output checks that are cheap and independent of the program.

Each check takes the ``result`` object of a ``--json`` envelope plus what
the generator knows about the input, and returns ``None`` when the output
is consistent or a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction

from algebra import cells, evaluate, order, parse, shifted


def _frac(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def report(result: dict, n: int, imax: int, method: str):
    """Dimension sequences of ``sdim`` and ``dimseq``.

    The window dimensions satisfy 0 <= d_i <= n(i+1), never decrease, and
    are subadditive in the window length; an upper bound is min d_i/(i+1),
    and an exact value never exceeds it (Fekete)."""
    if result["method"] != method:
        return f"method {result['method']} != {method}"
    seq = result["sequence"]
    if [e["i"] for e in seq] != list(range(imax + 1)):
        return "sequence does not cover windows 0..imax"
    d = [e["d"] for e in seq]
    if not all(isinstance(x, int) for x in d):
        return "empty window in a system that has a solution"
    for i, x in enumerate(d):
        if not 0 <= x <= n * (i + 1):
            return f"d_{i} = {x} outside [0, {n * (i + 1)}]"
        if i and x < d[i - 1]:
            return f"d_{i} = {x} < d_{i - 1} = {d[i - 1]}"
    # D(m) = d_{m-1} is the dimension of a window of m columns
    for a in range(1, imax + 1):
        for b in range(1, imax + 2 - a):
            if d[a + b - 1] > d[a - 1] + d[b - 1]:
                return f"not subadditive at window lengths {a} + {b}"
    best = min(Fraction(x, i + 1) for i, x in enumerate(d))
    cert = result["certified"]
    value = _frac(cert["value"])
    if cert["kind"] == "upper_bound" and value != best:
        return f"upper bound {value} != min d_i/(i+1) = {best}"
    if cert["kind"] == "exact" and not 0 <= value <= best:
        return f"exact value {value} outside [0, min d_i/(i+1) = {best}]"
    tail = result.get("linear_tail")
    if tail is not None:
        for i in range(tail["onset"], imax + 1):
            if d[i] != tail["d"] * (i + 1) + tail["e"]:
                return f"linear tail does not fit d_{i}"
    fam = result.get("family")
    if fam is not None:
        if fam["n"] != n or not 0 <= _frac(fam["value"]) <= n:
            return "monomialized family value outside [0, n]"
        for member in fam["members"]:
            if not member or min(a for a, _ in member) != 0:
                return f"family member {member} is not shift-normalized"
            if any(a < 0 or not 1 <= j <= n for a, j in member):
                return f"family member {member} leaves N x {{1..n}}"
    return None


def cover(result: dict, elements: list[int]):
    """The complement covers Z over one period at density |offsets|/period."""
    e = sorted({x - min(elements) for x in elements})
    if result["elements"] != e:
        return f"elements {result['elements']} != {e}"
    comp = result["complement"]
    period, offsets = comp["period"], comp["offsets"]
    if {(o + x) % period for o in offsets for x in e} != set(range(period)):
        return "complement does not cover Z"
    density = _frac(result["density"])
    if density != Fraction(len(offsets), period):
        return f"density {density} != |offsets|/period = {len(offsets)}/{period}"
    if not Fraction(1, len(e)) <= density <= 1:
        return f"density {density} outside [1/|E|, 1]"
    return None


def tau(result: dict, elements: list[int], length: int):
    """ceil(i/|E|) translates are needed; a left-to-right greedy cover
    gives an upper bound."""
    e = sorted({x - min(elements) for x in elements})
    greedy, covered = 0, set()
    for x in range(1, length + 1):
        if x not in covered:
            greedy += 1
            covered.update(x + y for y in e)
    lower = -(-length // len(e))
    if not lower <= result["tau"] <= greedy:
        return f"tau {result['tau']} outside [{lower}, {greedy}]"
    return None


def _constant_point(point):
    return lambda cell: point[cell[1] - 1]


def free(result: dict, keep: list, point: tuple):
    """A certificate is supported on T and vanishes on the planted solution."""
    cert = result["certificate"]
    if cert is None:
        return None if result["free"] is None and not result["conclusive"] else "bad verdict"
    if result["free"] is not False or not result["conclusive"]:
        return "certificate with a verdict other than not free"
    poly = parse(cert)
    if not poly:
        return "zero certificate"
    if not cells(poly) <= set(map(tuple, keep)):
        return f"certificate {cert} leaves T"
    if evaluate(poly, _constant_point(point)) != 0:
        return f"certificate {cert} does not vanish on a solution"
    return None


def generators(result: dict, point: tuple, keep=None):
    """``gb`` and ``eliminate``: every generator vanishes on the planted
    solution, is monic, and (for elimination) lies on the kept cells."""
    gens = [parse(g) for g in result["generators"]]
    if keep is None and not gens:
        return "empty basis of a nonzero ideal"
    for text, g in zip(result["generators"], gens):
        if evaluate(g, _constant_point(point)) != 0:
            return f"generator {text} does not vanish on a solution"
        if g[0][0] != 1:
            return f"generator {text} is not monic"
        if keep is not None and not cells(g) <= set(map(tuple, keep)):
            return f"generator {text} leaves the kept cells"
    return None


def solve(result: dict, texts: list[str], n: int, p: int, window: int, point: tuple, proj: list):
    """Every printed point satisfies every shifted equation mod p, and the
    planted constant solution is among them."""
    want_cells = [[a, j] for a in range(window + 1) for j in range(1, n + 1)]
    if result["cells"] != want_cells:
        return "window cells differ"
    polys = [parse(t) for t in texts]
    eqs = [shifted(f, ell) for f in polys for ell in range(window - order(f) + 1)]
    points = result.get("points")
    got = result["projection"]
    if points is None:  # more than 200 solutions: the program lists none
        if not 1 <= got["count"] <= min(result["count"], p ** len(proj)):
            return "projection count out of range"
        return None
    if result["count"] != len(points):
        return "count differs from the listed points"
    pos = {tuple(c): k for k, c in enumerate(want_cells)}
    for pt in points:
        for eq in eqs:
            if evaluate(eq, lambda cell: pt[pos[cell]], p) != 0:
                return f"point {pt} violates an equation mod {p}"
    planted = [point[j - 1] % p for _, j in want_cells]
    if planted not in points:
        return "planted solution missing"
    image = {tuple(pt[pos[tuple(c)]] for c in sorted(map(tuple, proj))) for pt in points}
    if got["count"] != len(image) or _frac(got["fraction"]) != Fraction(len(image), p ** len(proj)):
        return "projection count differs from the listed points"
    return None
