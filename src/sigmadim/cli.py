"""Command-line front end.

One verb per invocation; deterministic output; ``--json`` switches to a
machine-readable envelope {"verb": ..., "result": ...} that validates
against the shipped schema.json.

Exit codes: 0 success, 2 parse/usage error, 3 budget or cap exceeded,
4 unit ideal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .covering import IntSet, optimal_complement, tau_interval
from .engine import (
    CapExceededError,
    DimensionReport,
    monomialize,
    not_free_certificate,
    sigma_dim,
    truncated_dim_sequence,
)
from .families import EmptyDimension, SigmaFamily, UnitIdealError, is_free
from .groebner import buchberger, eliminate
from .lab import DEFAULT_BUDGET, BudgetExceededError, enumerate_truncated_solutions, projection_count
from .parsing import (
    ParseError,
    family_text,
    family_to_json,
    parse_cells,
    parse_family_text,
    parse_polynomial,
    polynomial_text,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_UNIT = 4


def _frac_json(x: Optional[Fraction]):
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _infer_nvars(texts: Sequence[str], given: Optional[int]) -> int:
    if given is not None:
        return given
    indices = [int(m) for t in texts for m in re.findall(r"y(\d+)", t)]
    return max(indices, default=1)


def _parse_intset(text: str) -> IntSet:
    try:
        return IntSet(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad integer set '{text}': {exc}", 0) from exc


def _load_family(path: str) -> SigmaFamily:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"members"' in stripped:
        from .parsing import family_from_json

        return family_from_json(json.loads(text))
    return parse_family_text(text)


def _report_lines(report: DimensionReport) -> list[str]:
    lines = ["  i  d_i"]
    for e in report.entries:
        mark = "*" if e.exact else "≤"
        d = "empty" if isinstance(e.d, EmptyDimension) else str(e.d)
        lines.append(f"{e.i:>3}  {d} {mark}")
    if report.certified_value is None:
        lines.append("sigma-dim: undefined (unit ideal)")
    elif report.certified_kind == "exact":
        lines.append(f"sigma-dim (exact) = {_frac_text(report.certified_value)}")
    else:
        lines.append(f"sigma-dim (upper bound) ≤ {_frac_text(report.certified_value)}")
    if report.family is not None:
        lines.append(f"monomialized family (depth {report.truncation_depth}):")
        for s in report.family.members:
            lines.append("  " + "{" + ",".join(f"({i},{j})" for i, j in s.sorted_cells()) + "}")
        if report.family_value is not None:
            lines.append(f"family sigma-dim (exact for the family) = {_frac_text(report.family_value)}")
    if report.linear_tail is not None:
        t = report.linear_tail
        lines.append(f"eventual-linear fit: d_i = {t.d}*(i+1) + {t.e} from i = {t.onset}")
    return lines


def _emit(args, verb: str, result: dict, lines: list[str]) -> int:
    if args.json:
        print(json.dumps({"verb": verb, "result": result}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_sdim(args) -> int:
    if sum(map(bool, (args.poly, args.monomial, args.family))) > 1:
        raise ParseError("pass only one of polynomials, --monomial, or --family", 0)
    if args.family:
        report = sigma_dim(_load_family(args.family), i_max=args.imax)
    elif args.monomial:
        n = _infer_nvars(args.monomial, args.nvars)
        polys = [parse_polynomial(t, n) for t in args.monomial]
        bad = [p for p in polys if len(p.terms) > 1]
        if bad:
            raise ParseError(f"not a monomial: {bad[0]}", 0)
        report = sigma_dim(polys, i_max=args.imax)
    else:
        if not args.poly:
            raise ParseError("pass polynomials, --monomial, or --family", 0)
        n = _infer_nvars(args.poly, args.nvars)
        polys = [parse_polynomial(t, n) for t in args.poly]
        report = sigma_dim(polys, i_max=args.imax, with_family=not args.no_family)
    return _emit(args, "sdim", report.to_json(), _report_lines(report))


def _cmd_cover(args) -> int:
    e = _parse_intset(args.elements)
    comp = optimal_complement(e)  # one cycle-mean solve; its density is c(E)
    density = comp.density
    result = {
        "elements": list(e.elements),
        "density": _frac_json(density),
        "complement": {"period": comp.period, "offsets": list(comp.offsets)},
    }
    lines = [
        f"E = {{{','.join(map(str, e.elements))}}}",
        f"density = {_frac_text(density)}",
        f"complement: period {comp.period}, offsets {{{','.join(map(str, comp.offsets))}}}",
    ]
    return _emit(args, "cover", result, lines)


def _cmd_tau(args) -> int:
    e = _parse_intset(args.elements)
    value = tau_interval(e, args.order)
    result = {"elements": list(e.elements), "i": args.order, "tau": value}
    return _emit(args, "tau", result, [f"tau(E, {args.order}) = {value}"])


def _cmd_dimseq(args) -> int:
    n = _infer_nvars(args.poly, args.nvars)
    polys = [parse_polynomial(t, n) for t in args.poly]
    report = truncated_dim_sequence(polys, args.imax)
    return _emit(args, "dimseq", report.to_json(), _report_lines(report))


def _cmd_free(args) -> int:
    if args.family and args.poly:
        raise ParseError("pass polynomials or --family, not both", 0)
    cells = parse_cells(args.set)
    if args.family:
        family = _load_family(args.family)
        verdict = is_free(cells, family)
        result = {"free": verdict, "conclusive": True, "certificate": None}
        lines = [f"T = {args.set}: {'free' if verdict else 'not free'}"]
        return _emit(args, "free", result, lines)
    n = _infer_nvars(args.poly, args.nvars)
    polys = [parse_polynomial(t, n) for t in args.poly]
    cert = not_free_certificate(polys, cells, args.depth)
    if cert is None:
        result = {"free": None, "conclusive": False, "certificate": None}
        lines = [f"T = {args.set}: inconclusive at depth {args.depth} (no relation found)"]
    else:
        result = {"free": False, "conclusive": True, "certificate": polynomial_text(cert)}
        lines = [f"T = {args.set}: not free", f"certificate: {polynomial_text(cert)}"]
    return _emit(args, "free", result, lines)


def _cmd_monomialize(args) -> int:
    n = _infer_nvars(args.poly, args.nvars)
    polys = [parse_polynomial(t, n) for t in args.poly]
    family = monomialize(polys, args.imax)
    result = dict(family_to_json(family), depth=args.imax)
    lines = [f"depth = {args.imax}", f"n = {family.n}"] + family_text(family).splitlines()
    return _emit(args, "monomialize", result, lines)


def _cmd_gb(args) -> int:
    n = _infer_nvars(args.poly, args.nvars)
    polys = [parse_polynomial(t, n) for t in args.poly]
    basis = buchberger(polys)
    gens = [polynomial_text(g) for g in basis]
    return _emit(args, "gb", {"generators": gens}, gens or ["(zero ideal)"])


def _cmd_eliminate(args) -> int:
    n = _infer_nvars(args.poly, args.nvars)
    polys = [parse_polynomial(t, n) for t in args.poly]
    keep = parse_cells(args.keep)
    variables = frozenset().union(*(p.support_vars() for p in polys)) | {
        (i, j) for i, j in keep
    }
    gens = [polynomial_text(g) for g in eliminate(polys, variables, keep)]
    return _emit(args, "eliminate", {"generators": gens}, gens or ["(no relations)"])


def _cmd_solve(args) -> int:
    n = _infer_nvars(args.poly, args.nvars)
    polys = [parse_polynomial(t, n) for t in args.poly]
    budget = int(os.environ.get("SDIM_BUDGET", DEFAULT_BUDGET))
    sols = enumerate_truncated_solutions(polys, args.prime, args.order, budget=budget)
    result = {
        "prime": sols.p,
        "order": sols.i,
        "cells": [list(c) for c in sols.cells],
        "count": len(sols),
    }
    lines = [f"{len(sols)} solutions over F_{sols.p}, window order {sols.i}"]
    if len(sols) <= 200:
        result["points"] = [list(pt) for pt in sols.points]
        lines += ["(" + ",".join(map(str, pt)) + ")" for pt in sols.points]
    if args.set:
        cells = list(dict.fromkeys(parse_cells(args.set)))
        count = projection_count(sols, cells)
        frac = Fraction(count, sols.p ** len(cells))
        result["projection"] = {
            "set": [list(c) for c in cells],
            "count": count,
            "fraction": _frac_json(frac),
        }
        lines.append(f"projection to {args.set}: {count} points, fraction {_frac_text(frac)}")
    return _emit(args, "solve", result, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmadim",
        description="Exact sigma-dimension of systems of algebraic difference equations.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sdim", help="sigma-dimension of monomials, a family, or a system")
    p.add_argument("poly", nargs="*", help="difference polynomials, e.g. 'y1*s(y1) - 1'")
    p.add_argument("--monomial", action="append", default=[], help="sigma-monomial (repeatable)")
    p.add_argument("--family", help="family file (text or JSON)")
    p.add_argument("--nvars", type=int)
    p.add_argument("--imax", type=int, default=None)
    p.add_argument("--no-family", action="store_true", help="skip monomialization for general systems")
    p.set_defaults(func=_cmd_sdim)

    p = sub.add_parser("cover", help="covering density and optimal periodic complement")
    p.add_argument("elements", help="comma list, e.g. 0,2,3")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("tau", help="translates of E needed to cover {1..i}")
    p.add_argument("elements", help="comma list, e.g. 0,2,3")
    p.add_argument("--order", type=int, required=True, help="interval length i")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("dimseq", help="truncated dimension sequence of a system")
    p.add_argument("poly", nargs="+")
    p.add_argument("--nvars", type=int)
    p.add_argument("--imax", type=int, required=True)
    p.set_defaults(func=_cmd_dimseq)

    p = sub.add_parser("free", help="free-set test (family) or non-freeness certificate (system)")
    p.add_argument("poly", nargs="*")
    p.add_argument("--set", required=True, help="cells, e.g. '{(0,1),(2,1)}'")
    p.add_argument("--family", help="family file; exact test")
    p.add_argument("--nvars", type=int)
    p.add_argument("--depth", type=int, default=4, help="shift depth for the certificate search")
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("monomialize", help="family of leading-monomial supports of a truncation")
    p.add_argument("poly", nargs="+")
    p.add_argument("--nvars", type=int)
    p.add_argument("--imax", type=int, required=True)
    p.set_defaults(func=_cmd_monomialize)

    p = sub.add_parser("gb", help="reduced Groebner basis under the shift-compatible lex order")
    p.add_argument("poly", nargs="+")
    p.add_argument("--nvars", type=int)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("eliminate", help="intersection with the subring on kept variables")
    p.add_argument("poly", nargs="+")
    p.add_argument("--nvars", type=int)
    p.add_argument("--keep", required=True, help="cells to keep, e.g. '{(0,2)}'")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("solve", help="enumerate truncated solutions over a prime field")
    p.add_argument("poly", nargs="+")
    p.add_argument("--nvars", type=int)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--set", help="optional projection cells")
    p.set_defaults(func=_cmd_solve)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first call only.  Reuse is
    safe because argparse copies an ``append`` default before extending it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceededError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UnitIdealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
