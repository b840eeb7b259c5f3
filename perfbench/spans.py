"""Per-layer spans and counts, recorded from outside foleq.

`Tracer.install` replaces public functions of foleq's modules (and a few
methods) with wrappers. A wrapper records a span: its call count, its
inclusive time (counted once when a span of the same name is nested in
itself) and its self time (inclusive time minus the time of the spans it
caused). Some wrappers also count what the call did: structures
enumerated, cache hits, confirmed candidates, satisfiability results by
status and by query origin.

Totals live in memory. `snapshot` reads them after the traced set-up and
again after the traced round, so that each part's times can be scaled by
its own calibration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)      # span or count name -> count
        self.total = defaultdict(float)    # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self._active = defaultdict(int)
        self._children: list[float] = []   # per open span: time of its children
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, classify=None):
        """fn wrapped in a span. classify(args, result) may name a
        category of the call; the category gets the call's count and its
        inclusive time as well."""
        calls, total, self_time = self.calls, self.total, self.self_time
        active, children = self._active, self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                active[name] -= 1
                if not active[name]:
                    total[name] += elapsed
                self_time[name] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if classify is not None:
                label = classify(args, result)
                if label:
                    calls[label] += 1
                    total[label] += elapsed
            return result

        return wrapper

    def counted_generator(self, name: str, fn):
        """A generator function whose yielded items are counted."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[name] += 1
                yield item

        return wrapper

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.calls), dict(self.total), dict(self.self_time)

    # -- installation ------------------------------------------------------

    def _replace_function(self, module_name: str, attr: str, make_wrapper) -> None:
        """Replace the function in every foleq module that refers to it, so
        that `from .x import f` copies are wrapped too."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name != "foleq" and not name.startswith("foleq."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def _replace_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def install(self) -> None:
        import foleq.countermodel
        import foleq.definability
        import foleq.explain
        import foleq.harness
        import foleq.models
        import foleq.parser
        import foleq.prover
        import foleq.syntax

        span = self.span
        fn = self._replace_function
        fn("foleq.parser", "parse", lambda f: span("parser.parse", f))
        fn("foleq.syntax", "alpha_normalize", lambda f: span("syntax.alpha_normalize", f))
        fn("foleq.models", "satisfies_all", lambda f: span("models.satisfies_all", f))
        fn("foleq.models", "enumerate_structures",
           lambda f: self.counted_generator("models.enumerate_structures.structures", f))
        fn("foleq.countermodel", "random_structure",
           lambda f: span("countermodel.random_structure", f))
        fn("foleq.countermodel", "search_countermodel",
           lambda f: span("countermodel.search", f,
                          lambda a, r: "countermodel.search.hits" if r is not None else None))
        fn("foleq.definability", "necessary_symbols",
           lambda f: span("definability.necessary_symbols", f))
        for family in ("symbol", "quantifier", "guard", "boolean"):
            fn("foleq.explain", f"{family}_strategies",
               lambda f, family=family: span(f"explain.{family}", f))
        fn("foleq.harness", "run_pair", lambda f: span("harness.run_pair", f))
        fn("foleq.harness", "_backend_countermodel",
           lambda f: span("harness.backend_countermodel", f))

        method = self._replace_method
        method(foleq.prover.BoundedSearchBackend, "check_sat",
               lambda f: span("prover.check_sat", f, _sat_label(self)))
        method(foleq.prover.DecisionCache, "get",
               lambda f: span("prover.cache.lookups", f,
                              lambda a, r: "prover.cache.hits" if r is not None else None))
        method(foleq.explain.StrategyContext, "__post_init__",
               lambda f: span("explain.context", f))
        method(foleq.explain.StrategyContext, "confirm",
               lambda f: span("explain.confirm", f,
                              lambda a, r: "explain.confirm.confirmed" if r else None))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def _sat_label(tracer: Tracer):
    """Counts a satisfiability call by its query's origin; its status
    (sat, unsat, unknown) is the category that is timed apart."""
    def classify(args, result):
        query = args[1] if len(args) > 1 else None
        tracer.calls[f"prover.check_sat.calls.{getattr(query, 'origin', 'unknown')}"] += 1
        return f"prover.check_sat.{result.status}"
    return classify


# name, unit, better; the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("parser.parse.calls", "count", "lower"),
    ("parser.parse.ms", "ms", "lower"),
    ("syntax.alpha_normalize.calls", "count", "lower"),
    ("syntax.alpha_normalize.ms", "ms", "lower"),
    ("prover.cache.lookups", "count", "lower"),
    ("prover.cache.hits", "count", "higher"),
    ("prover.cache.hit_ratio", "ratio", "higher"),
    ("prover.check_sat.sat.calls", "count", "lower"),
    ("prover.check_sat.sat.ms", "ms", "lower"),
    ("prover.check_sat.unsat.calls", "count", "lower"),
    ("prover.check_sat.unsat.ms", "ms", "lower"),
    ("prover.check_sat.self_ms", "ms", "lower"),
    ("prover.check_sat.calls.equivalence", "count", "lower"),
    ("prover.check_sat.calls.strategy-candidate", "count", "lower"),
    ("prover.check_sat.calls.definability", "count", "lower"),
    ("models.satisfies_all.calls", "count", "lower"),
    ("models.satisfies_all.ms", "ms", "lower"),
    ("models.enumerate_structures.structures", "count", "lower"),
    ("countermodel.random_structure.calls", "count", "lower"),
    ("countermodel.random_structure.ms", "ms", "lower"),
    ("countermodel.search.calls", "count", "lower"),
    ("countermodel.search.hits", "count", "higher"),
    ("countermodel.search.ms", "ms", "lower"),
    ("definability.necessary_symbols.calls", "count", "lower"),
    ("definability.necessary_symbols.ms", "ms", "lower"),
    ("explain.context.ms", "ms", "lower"),
    ("explain.symbol.ms", "ms", "lower"),
    ("explain.symbol.self_ms", "ms", "lower"),
    ("explain.quantifier.ms", "ms", "lower"),
    ("explain.quantifier.self_ms", "ms", "lower"),
    ("explain.guard.ms", "ms", "lower"),
    ("explain.guard.self_ms", "ms", "lower"),
    ("explain.boolean.ms", "ms", "lower"),
    ("explain.boolean.self_ms", "ms", "lower"),
    ("explain.confirm.calls", "count", "lower"),
    ("explain.confirm.confirmed", "count", "higher"),
    ("explain.confirm.confirmed_ratio", "ratio", "higher"),
    ("harness.run_pair.ms", "ms", "lower"),
    ("harness.backend_countermodel.calls", "count", "lower"),
    ("harness.backend_countermodel.ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

_RATIOS = {
    "prover.cache.hit_ratio": ("prover.cache.hits", "prover.cache.lookups"),
    "explain.confirm.confirmed_ratio": ("explain.confirm.confirmed", "explain.confirm"),
}


def per_layer_metrics(tracer: Tracer, setup_snapshot, setup_factor: float,
                      traced_round: dict, untraced_round: dict) -> dict:
    """Every PER_LAYER metric over one traced set-up and round.

    Times are scaled like the end-to-end ones: the set-up's spans by the
    set-up's calibration factor, the round's by the round's ratio of
    normalised to raw seconds. The overhead compares the traced round
    with the untraced one, both normalised.
    """
    calls, total, self_time = tracer.snapshot()
    _, setup_total, setup_self = setup_snapshot
    round_factor = traced_round["loop_s"] / traced_round["loop_raw_s"]

    def ms(table, setup_table, name):
        in_setup = setup_table.get(name, 0.0)
        return 1000 * (in_setup * setup_factor
                       + (table.get(name, 0.0) - in_setup) * round_factor)

    out = {}
    for name, unit, _ in PER_LAYER:
        if name in _RATIOS:
            num, den = _RATIOS[name]
            value = calls.get(num, 0) / calls[den] if calls.get(den) else 0.0
        elif name == "trace.overhead_pct":
            value = 100 * (traced_round["loop_s"] / untraced_round["loop_s"] - 1)
        elif name.endswith(".self_ms"):
            value = ms(self_time, setup_self, name[:-len(".self_ms")])
        elif name.endswith(".ms"):
            value = ms(total, setup_total, name[:-len(".ms")])
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        else:
            value = calls.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
