"""Per-layer tracing from outside the program.

Each traced public function is replaced by a wrapper at every module
attribute that binds it (``sigmadim.groebner.buchberger`` and also
``sigmadim.engine.buchberger``, ``sigmadim.cli.buchberger``, ...), so
calls between modules and within one module both pass through it.  A
wrapper records a span (name, start, end, parent span, job id) and the
counters of its layer; spans stay in memory until the run writes them out.

Repeat ratios hash each call's input and count calls whose input was
already seen earlier in the same job: work a job did twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


def _buchberger_key(args, kwargs):
    F = args[0]
    variables = args[1] if len(args) > 1 else kwargs.get("variables")
    order = args[2] if len(args) > 2 else kwargs.get("order")
    ranking = None
    if variables is not None:
        from sigmadim.polynomials import SigmaMonomial

        variables = frozenset(tuple(v) for v in variables)
        if order is not None:  # a lex order is fixed by its variable ranking
            ranking = tuple(sorted(variables, key=lambda v: order.key(SigmaMonomial.variable(*v))))
    return hash((tuple(F), variables, ranking))


def _coeff_bits(basis) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for g in basis for c in g.terms.values()),
        default=0,
    )


def _graph_key(args, kwargs):
    g = args[0]
    source = args[1] if len(args) > 1 else kwargs.get("source", 0)
    return hash((g.num_states, source, tuple(g.src), tuple(g.dst), tuple(g.weight)))


def _constraints_key(args, kwargs):
    return hash(frozenset(frozenset(s) for s in args[0]))


@dataclass
class Probe:
    """One traced function: where it lives, its span name, and the counters
    it feeds.  ``count(tracer, args, kwargs, result)`` adds to counters."""

    module: str
    func: str
    name: str
    span: bool = True
    key: Optional[Callable] = None
    count: Optional[Callable] = None


def _count_basis(t, args, kwargs, basis):
    t.add("groebner.basis_size.sum", len(basis))
    t.peak("groebner.coeff_bits.max", _coeff_bits(basis))


def _count_graph(t, args, kwargs, result):
    g = args[0]
    t.add("meancycle.states.sum", g.num_states)
    t.add("meancycle.edges.sum", len(g.src))


def _count_constraints(t, args, kwargs, result):
    t.add("transversal.constraints.sum", len(args[0]))


def _count_points(t, args, kwargs, sols):
    t.add("lab.points.sum", sols.p ** len(sols.cells))
    t.add("lab.solutions.sum", len(sols))


def _count_gens(t, args, kwargs, gens):
    t.add("engine.truncation_gens.sum", len(gens))


PROBES = [
    Probe("sigmadim.cli", "main", "cli"),
    Probe("sigmadim.parsing", "parse_polynomial", "parsing"),
    Probe("sigmadim.parsing", "parse_cells", "parsing"),
    Probe("sigmadim.parsing", "parse_family_text", "parsing"),
    Probe("sigmadim.parsing", "family_from_json", "parsing"),
    Probe("sigmadim.engine", "sigma_dim", "engine.sigma_dim"),
    Probe("sigmadim.engine", "truncated_dim_sequence", "engine.truncated_dim_sequence"),
    Probe("sigmadim.engine", "truncation_generators", "engine.truncation_generators",
          span=False, count=_count_gens),
    Probe("sigmadim.engine", "monomialize", "engine.monomialize"),
    Probe("sigmadim.engine", "not_free_certificate", "engine.not_free_certificate"),
    Probe("sigmadim.engine", "sigma_dim_family", "engine.sigma_dim_family"),
    Probe("sigmadim.engine", "sigma_dim_univariate_monomial", "engine.sigma_dim_univariate_monomial"),
    Probe("sigmadim.groebner", "buchberger", "groebner.buchberger",
          key=_buchberger_key, count=_count_basis),
    Probe("sigmadim.groebner", "eliminate", "groebner.eliminate"),
    Probe("sigmadim.meancycle", "minimum_cycle_mean", "meancycle.cycle_mean",
          key=_graph_key, count=_count_graph),
    Probe("sigmadim.meancycle", "extract_min_mean_cycle", "meancycle.extract_cycle"),
    Probe("sigmadim.covering", "covering_density", "covering.covering_density"),
    Probe("sigmadim.covering", "optimal_complement", "covering.optimal_complement"),
    Probe("sigmadim.covering", "tau_interval", "covering.tau_interval"),
    Probe("sigmadim.families", "window_dim", "families.window_dim"),
    Probe("sigmadim.families", "monomial_krull_dim", "families.monomial_krull_dim"),
    Probe("sigmadim.families", "is_free", "families.is_free"),
    Probe("sigmadim.transversal", "minimum_hitting_set", "transversal.hitting_set",
          key=_constraints_key, count=_count_constraints),
    Probe("sigmadim.lab", "enumerate_truncated_solutions", "lab.enumerate", count=_count_points),
    Probe("sigmadim.lab", "projection_count", "lab.projection_count"),
]

# per-layer metrics reported by a traced run: name -> (unit, how)
# how: ("calls"|"busy"|"self", span name), ("counter", key),
#      ("repeat", span name) or ("ratio", numerator key, denominator key)
METRICS = {
    "groebner.buchberger.calls": ("count", ("calls", "groebner.buchberger")),
    "groebner.buchberger.busy_s": ("s", ("busy", "groebner.buchberger")),
    "groebner.buchberger.repeat_ratio": ("ratio", ("repeat", "groebner.buchberger")),
    "groebner.basis_size.sum": ("count", ("counter", "groebner.basis_size.sum")),
    "groebner.coeff_bits.max": ("bits", ("counter", "groebner.coeff_bits.max")),
    "groebner.eliminate.busy_s": ("s", ("busy", "groebner.eliminate")),
    "engine.truncated_dim_sequence.self_s": ("s", ("self", "engine.truncated_dim_sequence")),
    "engine.truncation_gens.sum": ("count", ("counter", "engine.truncation_gens.sum")),
    "engine.monomialize.busy_s": ("s", ("busy", "engine.monomialize")),
    "engine.sigma_dim_family.self_s": ("s", ("self", "engine.sigma_dim_family")),
    "meancycle.cycle_mean.calls": ("count", ("calls", "meancycle.cycle_mean")),
    "meancycle.cycle_mean.busy_s": ("s", ("busy", "meancycle.cycle_mean")),
    "meancycle.states.sum": ("count", ("counter", "meancycle.states.sum")),
    "meancycle.edges.sum": ("count", ("counter", "meancycle.edges.sum")),
    "meancycle.repeat_ratio": ("ratio", ("repeat", "meancycle.cycle_mean")),
    "meancycle.extract_cycle.self_s": ("s", ("self", "meancycle.extract_cycle")),
    "covering.covering_density.self_s": ("s", ("self", "covering.covering_density")),
    "covering.optimal_complement.self_s": ("s", ("self", "covering.optimal_complement")),
    "covering.tau_interval.busy_s": ("s", ("busy", "covering.tau_interval")),
    "families.window_dim.calls": ("count", ("calls", "families.window_dim")),
    "families.monomial_krull_dim.busy_s": ("s", ("busy", "families.monomial_krull_dim")),
    "transversal.hitting_set.calls": ("count", ("calls", "transversal.hitting_set")),
    "transversal.hitting_set.busy_s": ("s", ("busy", "transversal.hitting_set")),
    "transversal.constraints.sum": ("count", ("counter", "transversal.constraints.sum")),
    "transversal.repeat_ratio": ("ratio", ("repeat", "transversal.hitting_set")),
    "lab.enumerate.calls": ("count", ("calls", "lab.enumerate")),
    "lab.enumerate.busy_s": ("s", ("busy", "lab.enumerate")),
    "lab.points.sum": ("count", ("counter", "lab.points.sum")),
    "lab.solution_ratio": ("ratio", ("ratio", "lab.solutions.sum", "lab.points.sum")),
    "parsing.calls": ("count", ("calls", "parsing")),
    "parsing.busy_s": ("s", ("busy", "parsing")),
    "cli.self_s": ("s", ("self", "cli")),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the top
    job: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    repeats: dict[str, int] = field(default_factory=dict)
    job: int = -1
    _stack: list[int] = field(default_factory=list)
    _seen: dict[str, set] = field(default_factory=dict)
    _originals: list = field(default_factory=list)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen = {}

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if probe.key is not None:
                seen = tracer._seen.setdefault(probe.name, set())
                key = probe.key(args, kwargs)
                if key in seen:
                    tracer.repeats[probe.name] = tracer.repeats.get(probe.name, 0) + 1
                seen.add(key)
            if not probe.span:
                result = original(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else -1
                index = len(tracer.spans)
                span = Span(probe.name, time.perf_counter(), 0.0, parent, tracer.job)
                tracer.spans.append(span)
                tracer._stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    tracer._stack.pop()
            if probe.count is not None:
                probe.count(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every probe at each module attribute bound to its function."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sigmadim" or name.startswith("sigmadim."))]
        for probe in PROBES:
            original = getattr(sys.modules[probe.module], probe.func)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def metrics(self) -> dict[str, dict]:
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}  # self time: each span minus its children
        for span in self.spans:
            took = span.end - span.start
            up = self.spans[span.parent].name if span.parent >= 0 else None
            calls[span.name] = calls.get(span.name, 0) + 1
            if up != span.name:  # a nested call of the same layer is already busy
                busy[span.name] = busy.get(span.name, 0.0) + took
            own[span.name] = own.get(span.name, 0.0) + took
            if up is not None:
                own[up] = own.get(up, 0.0) - took
        out = {}
        for name, (unit, how) in METRICS.items():
            kind = how[0]
            if kind == "calls":
                value = calls.get(how[1], 0)
            elif kind == "busy":
                value = busy.get(how[1], 0.0)
            elif kind == "self":
                value = own.get(how[1], 0.0)
            elif kind == "counter":
                value = self.counters.get(how[1], 0)
            elif kind == "repeat":
                value = self.repeats.get(how[1], 0) / max(calls.get(how[1], 0), 1)
            else:
                value = self.counters.get(how[1], 0) / max(self.counters.get(how[2], 0), 1)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job}) + "\n")
