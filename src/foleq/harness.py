"""Dataset ingestion, single-pair feedback, and batch evaluation.

A dataset is JSON lines, one record per line::

    {"id": "...", "vocabulary": {...}, "gamma": ["axiom", ...],
     "psi": "solution formula", "phi": "attempt formula"}

Batch runs aggregate a report with total and distinct counts (distinct =
one representative per duplicate group: the records of one decision
cache key, `DecisionCache.key`), counter-model method attribution,
per-strategy explanation counts, and timing data.

The random counter-model search is seeded by the engine seed alone, so
renamed or repeated records get the same random outcome, and the engine
keeps the theory models it draws, in a store (`models.SharedLists`), for
every later record over the same theory and closed vocabulary. A batch
runs the search once per distinct oriented pair: a record takes the
outcome of an earlier record of its duplicate group with the same
solution up to bound-variable names and the same vocabulary, and the
outcomes of a group are dropped once its last record has run.

The records of one exercise share its solution, so what depends on the
solution alone, its normal form and the strategies' facts of it, is
computed once per engine and kept by the engine's decision cache
(`DecisionCache.facts`), for separately parsed copies too. The duplicate
groups, the decisions and the search outcomes all read the solution's
normal form from there.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from .syntax import (
    MALFORMED_INPUT, Formula, FoleqError, Vocabulary, alpha_normalize, drop_vacuous, to_str,
)
from .parser import parse
from .theory import Theory
from .prover import (
    BoundedSearchBackend, DecisionCache, ExternalProverBackend, ProverConfig,
    decide_equivalence,
)
from .definability import NecessityCache
from .models import SharedLists, vocabulary_key
from .countermodel import backend_counterexample, backend_source, search_countermodel
from .explain import ALL_STRATEGIES, explain_nonequivalence


ENV_PROVER = "FOLEQ_PROVER"
ENV_MODES = "FOLEQ_MODES"
ENV_TIMEOUT_MS = "FOLEQ_TIMEOUT_MS"


class RecordError(FoleqError):
    """A dataset record, or one of its formula fields, has the wrong type."""


@dataclass(frozen=True)
class PairRecord:
    id: str
    vocabulary: Vocabulary
    theory: Theory
    solution: Formula
    attempt: Formula

    @staticmethod
    def from_json(obj: dict, default_id: str = "?") -> "PairRecord":
        """The record of the dataset form above; RecordError names the
        first formula field of another type."""
        if not isinstance(obj, dict):
            raise RecordError(f"a record must be an object, not {type(obj).__name__}")
        vocab = Vocabulary.from_json(obj["vocabulary"])
        psi, phi, gamma = obj["psi"], obj["phi"], obj.get("gamma", [])
        for name, text in (("psi", psi), ("phi", phi)):
            if not isinstance(text, str):
                raise RecordError(f"{name} must be a string, not {type(text).__name__}")
        if not isinstance(gamma, list):
            raise RecordError(f"gamma must be a list of strings, not {type(gamma).__name__}")
        for axiom in gamma:
            if not isinstance(axiom, str):
                raise RecordError("gamma must be a list of strings, not a list holding "
                                  f"{type(axiom).__name__}")
        return PairRecord(
            id=str(obj.get("id", default_id)),
            vocabulary=vocab,
            theory=Theory(vocab, tuple(drop_vacuous(parse(ax, vocab))[0] for ax in gamma)),
            solution=parse(psi, vocab),
            attempt=parse(phi, vocab),
        )


def load_dataset(path: str) -> tuple[list[PairRecord], list[str]]:
    """Parse a JSONL dataset; returns (records, per-line error messages)."""
    records: list[PairRecord] = []
    errors: list[str] = []
    with open(path, "rb") as fh:    # bytes: a line that is not UTF-8 is a line error
        for line_no, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8").strip()
                if text:
                    records.append(PairRecord.from_json(json.loads(text),
                                                        default_id=f"line-{line_no}"))
            except MALFORMED_INPUT as exc:
                errors.append(f"line {line_no}: {exc}")
    return records, errors


# ---------------------------------------------------------------------------
# Engine


def parse_positive(text: str, name: str, unit: str = "") -> int:
    """The positive whole number (of `unit`) that `text` spells; a
    ValueError naming `name` otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        unit = f" of {unit}" if unit else ""
        raise ValueError(f"{name} must be a positive whole number{unit}, not {text!r}")
    return value


def parse_modes(text: str, name: str) -> tuple[str, ...]:
    """The prover modes that the comma-separated `text` names, blank
    entries dropped; a ValueError naming `name` when none is left."""
    modes = tuple(filter(None, (mode.strip() for mode in text.split(","))))
    if not modes:
        raise ValueError(f"{name} must name at least one prover mode, not {text!r}")
    return modes


@dataclass
class Engine:
    backend: object
    prover_config: ProverConfig
    cache: DecisionCache
    necessity_cache: NecessityCache
    seed: int = 0
    # the random search's theory models, shared by every record: threads
    # of `run_batch` share the engine
    search_draws: SharedLists = field(default_factory=SharedLists)

    @staticmethod
    def make(prover_path: str | None = None, modes: tuple[str, ...] | None = None,
             timeout_ms: int | None = None, strategy_timeout_ms: int | None = None,
             seed: int = 0, cache_path: str | None = None) -> "Engine":
        """Engine with the external prover when available, else the
        bounded-search fallback. Environment variables supply defaults
        for the prover path, modes, and timeout."""
        prover_path = prover_path or os.environ.get(ENV_PROVER) or None
        env_modes = os.environ.get(ENV_MODES)
        if modes is None and env_modes:
            modes = parse_modes(env_modes, ENV_MODES)
        env_timeout = os.environ.get(ENV_TIMEOUT_MS)
        if timeout_ms is None and env_timeout:
            timeout_ms = parse_positive(env_timeout, ENV_TIMEOUT_MS, "milliseconds")
        config = ProverConfig(
            executable=prover_path,
            modes=modes or ProverConfig.modes,
            timeout_ms=ProverConfig.timeout_ms if timeout_ms is None else timeout_ms,
            strategy_timeout_ms=ProverConfig.strategy_timeout_ms
            if strategy_timeout_ms is None else strategy_timeout_ms,
        )
        if prover_path:
            backend = ExternalProverBackend(config)
        else:
            backend = BoundedSearchBackend(seed=seed)
        necessity_path = f"{cache_path}.necessity" if cache_path else None
        return Engine(backend=backend, prover_config=config,
                      cache=DecisionCache(cache_path),
                      necessity_cache=NecessityCache(necessity_path),
                      seed=seed)


# ---------------------------------------------------------------------------
# Single pair


def _backend_countermodel(record, engine):
    """The backend's counter model for a cached verdict whose entry holds
    none (a line of an older cache file, or a failed model extraction):
    the pair is decided again, past the cache."""
    verdict = decide_equivalence(record.solution, record.attempt, record.theory,
                                 engine.backend, cache=None,
                                 timeout_ms=engine.prover_config.timeout_ms)
    return backend_counterexample(verdict, engine.backend)


def run_pair(record: PairRecord, engine: Engine, both_methods: bool = False,
             first_only: bool = False, searches: dict | None = None) -> dict:
    """Full pipeline for one record: decide, counter model, explanations.

    `searches` holds the random search's outcomes of the record's
    duplicate group (`run_batch` keeps one per group), by solution up to
    bound-variable names and vocabulary: the group sorts the pair, so the
    solution orients it. A record finds its outcome there or adds it."""
    start = time.perf_counter()
    bundle = explain_nonequivalence(
        record.solution, record.attempt, record.theory, engine.backend,
        cache=engine.cache, necessity_cache=engine.necessity_cache,
        prover_config=engine.prover_config, random_seed=engine.seed,
        search_draws=engine.search_draws, first_only=first_only,
        with_countermodel=not both_methods)

    methods: dict[str, bool] = {}
    counterexample = bundle.counterexample
    if bundle.verdict.status == "non-equivalent" and both_methods:
        # both methods get an attempt of their own: the backend's is the
        # verdict's revalidated model, fresh or cached, and only a cache
        # entry that holds no model sends the pair to the backend again
        if counterexample is None and bundle.verdict.method == "cache":
            counterexample = _backend_countermodel(record, engine)
        searches = {} if searches is None else searches
        key = (engine.cache.normal_form(record.solution)[1],
               vocabulary_key(record.theory.vocabulary))
        if key not in searches:
            searches[key] = search_countermodel(record.solution, record.attempt,
                                                record.theory, engine.seed, engine.search_draws)
        random_hit = searches[key]
        methods = {backend_source(engine.backend): counterexample is not None,
                   "random": random_hit is not None}
        counterexample = counterexample or random_hit

    elapsed_ms = (time.perf_counter() - start) * 1000
    out = {"id": record.id, "verdict": bundle.verdict.to_json(),
           "solution": to_str(record.solution), "attempt": to_str(record.attempt),
           "explanations": [e.to_json() for e in bundle.explanations],
           "timing_ms": round(elapsed_ms, 3)}
    if bundle.verdict.status == "unknown":
        out["note"] = "not able to determine equivalence"
    if counterexample is not None:
        out["counterexample"] = counterexample.to_json()
    if methods:
        out["countermodel_methods"] = methods
    out["strategies"] = sorted(bundle.strategies())
    return out


# ---------------------------------------------------------------------------
# Batch report


_FIRST_BUCKET_MS = 10             # bucket edges double from here


def _section(results: list[dict]) -> dict:
    """One report section over per-pair results: verdict counts,
    counter-model methods that hit (and hit alone), strategy counts."""
    wrong = [r for r in results if r["verdict"]["status"] == "non-equivalent"]
    statuses = Counter(r["verdict"]["status"] for r in results)
    by_method, exclusive, strategies = Counter(), Counter(), Counter()
    for r in wrong:
        methods = r.get("countermodel_methods", {})
        hits = [method for method, hit in methods.items() if hit]
        by_method.update(hits)
        if len(hits) == 1 < len(methods):
            exclusive.update(hits)
        strategies.update(r.get("strategies", []))
    explained = sum(1 for r in wrong if r.get("strategies"))
    return {
        "all": len(results),
        "equivalent": statuses["equivalent"],
        "non_equivalent": len(wrong),
        "unknown": statuses["unknown"],
        "counter_found": sum(1 for r in wrong if r.get("counterexample")),
        "at_least_one_strategy": explained,
        "counter_by_method": dict(sorted(by_method.items())),
        "counter_exclusive": dict(sorted(exclusive.items())),
        "strategies": dict(sorted(strategies.items())),
        "explained_ratio": round(explained / (len(wrong) or 1), 4),
    }


@dataclass
class Report:
    """The sections over all pairs ("total") and over the first pair of
    each duplicate key ("distinct"), per-pair timings and errors."""

    total: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)
    timings_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def validate(self) -> None:
        for counts in (self.total, self.distinct):
            assert counts["all"] == (counts["equivalent"] + counts["non_equivalent"]
                                     + counts["unknown"])
            assert counts["at_least_one_strategy"] <= counts["non_equivalent"]
            assert counts["counter_found"] <= counts["non_equivalent"]
            for method, count in counts["counter_exclusive"].items():
                assert count <= counts["counter_by_method"].get(method, 0)
        assert self.distinct["all"] <= self.total["all"]

    def timing_percentiles(self) -> dict:
        if not self.timings_ms:
            return {}
        data = sorted(self.timings_ms)

        def pct(q: float) -> float:
            # nearest rank: the smallest timing with q% of them at or below it
            return round(data[max(1, math.ceil(q * len(data) / 100)) - 1], 3)

        return {"p50": pct(50), "p90": pct(90), "p95": pct(95), "p99": pct(99),
                "max": round(data[-1], 3)}

    def bucket_edges_ms(self) -> list[int]:
        """Exclusive upper edges of the timing buckets, doubling from
        10 ms until the slowest pair falls below the last edge."""
        slowest = max(self.timings_ms, default=0)
        edges = [_FIRST_BUCKET_MS]
        while edges[-1] <= slowest:
            edges.append(edges[-1] * 2)
        return edges

    def timing_buckets(self) -> list[int]:
        """Pair counts per bucket: below the first edge, then between
        consecutive edges."""
        edges = self.bucket_edges_ms()
        buckets = [0] * len(edges)
        for ms in self.timings_ms:
            buckets[bisect.bisect_right(edges, ms)] += 1
        return buckets

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "distinct": self.distinct,
            "timing": {"percentiles": self.timing_percentiles(),
                       "bucket_edges_ms": self.bucket_edges_ms(),
                       "buckets": self.timing_buckets()},
            "errors": list(self.errors),
        }

    def to_csv(self) -> str:
        lines = ["metric,total,distinct"]
        keys = ["all", "equivalent", "non_equivalent", "unknown",
                "counter_found", "at_least_one_strategy"]
        for k in keys:
            lines.append(f"{k},{self.total[k]},{self.distinct[k]}")
        # a method can hit on a duplicate only, so the distinct section
        # may lack a key of the total one, never the other way round
        for prefix, key in (("counter_via", "counter_by_method"),
                            ("counter_exclusively", "counter_exclusive")):
            for method, count in self.total[key].items():
                lines.append(f"{prefix}_{method},{count},"
                             f"{self.distinct[key].get(method, 0)}")
        for s in ALL_STRATEGIES:
            lines.append(f"strategy_{s},{self.total['strategies'].get(s, 0)},"
                         f"{self.distinct['strategies'].get(s, 0)}")
        return "\n".join(lines) + "\n"


def run_batch(records: list[PairRecord], engine: Engine, both_methods: bool = True,
              first_only: bool = False, workers: int = 1) -> Report:
    """Process all records and aggregate the evaluation report.

    Results are aggregated in input order regardless of worker
    scheduling. The random search is seeded by the engine seed alone, so
    a record's outcome does not depend on its id, its position or the
    workers, and reruns with a warm cache change timings only. It runs
    once per distinct oriented pair and vocabulary of a duplicate group,
    in the `run_pair` call of the group's first record that needs it; the
    group's outcomes are dropped after its last record.
    """
    def process(record: PairRecord, searches: dict) -> dict:
        try:
            return run_pair(record, engine, both_methods=both_methods,
                            first_only=first_only, searches=searches)
        except FoleqError as exc:
            return {"id": record.id, "verdict": {"status": "unknown"},
                    "explanations": [], "strategies": [], "timing_ms": 0.0,
                    "error": str(exc)}

    keys = [engine.cache.key(record.solution, alpha_normalize(record.attempt), record.theory)
            for record in records]
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    if workers > 1:
        # imported here: a serial run does without the module's memory
        from concurrent.futures import ThreadPoolExecutor

        def run_group(group: list[int]) -> list[dict]:
            searches: dict = {}
            return [process(records[i], searches) for i in group]

        # one task runs a key's records in order, so that its repeats find
        # the decision cached and the search's outcome, as in a serial run
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run_group, groups.values()))
        done = {i: r for group, rs in zip(groups.values(), runs) for i, r in zip(group, rs)}
        results = [done[i] for i in range(len(records))]
    else:
        searches: dict[str, dict] = {}      # per open group
        results = []
        for i, (record, key) in enumerate(zip(records, keys)):
            results.append(process(record, searches.setdefault(key, {})))
            if groups[key][-1] == i:
                del searches[key]

    report = Report(total=_section(results),
                    distinct=_section([results[group[0]] for group in groups.values()]),
                    timings_ms=[result["timing_ms"] for result in results],
                    errors=[f"{record.id}: {result['error']}"
                            for record, result in zip(records, results)
                            if result.get("error")])
    report.validate()
    return report
