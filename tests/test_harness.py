import gc
import json
import os
import re
import subprocess
import sys
import weakref

import pytest

from foleq import explain, harness, prover
from foleq.harness import (
    Engine, PairRecord, RecordError, Report, _section, load_dataset, run_batch, run_pair,
)
from foleq.cli import main as cli_main
from foleq.corpus import all_solutions, load_scenarios
from foleq.definability import NOT_SHOWN, UNKNOWN, necessary_symbols
from foleq.models import vocabulary_key
from foleq.mutate import MUTATIONS, mutate, mutate_all
from foleq.parser import MAX_DEPTH, ParseError, parse
from foleq.prover import DecisionCache, SatResult, decide_equivalence
from foleq.syntax import Vocabulary, VocabularyError, alpha_normalize, to_str
from foleq.theory import Theory

from conftest import FormulaSampler


def record_obj(pair_id, psi, phi, relations=None, gamma=()):
    return {"id": pair_id,
            "vocabulary": {"relations": relations or {"P": 1},
                           "functions": {}, "constants": [],
                           "with_equality": True},
            "gamma": list(gamma), "psi": psi, "phi": phi}


def write_dataset(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")


@pytest.fixture
def engine():
    return Engine.make(seed=5)


def test_load_dataset_and_errors(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [json.dumps(record_obj("a", "forall x P(x)", "exists x P(x)")),
             "{broken json",
             json.dumps({"id": "b", "vocabulary": {"relations": {"P": 1}},
                         "gamma": [], "psi": "forall x W(x)", "phi": "P(x)"}),
             json.dumps(record_obj("c", "P(x)", "P(x)"))]
    path.write_text("\n".join(lines) + "\n")
    records, errors = load_dataset(str(path))
    assert [r.id for r in records] == ["a", "c"]
    assert len(errors) == 2
    assert "line 2" in errors[0]
    assert "line 3" in errors[1] and "W" in errors[1]


MALFORMED_VOCABULARIES = {
    "relations-list": {"relations": ["P"]},
    "null": None,
    "constants-string": {"relations": {"P": 1}, "constants": "ab"},
    "with-equality-string": {"relations": {"P": 1}, "with_equality": "no"},
    "arity-string": {"relations": {"P": "x"}},
    "arity-float": {"relations": {"P": 1.5}},
    "arity-bool": {"relations": {"P": True}},
    "function-arity-zero": {"relations": {"P": 1}, "functions": {"f": 0}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VOCABULARIES))
def test_malformed_vocabulary_is_a_dataset_error(tmp_path, capsys, case):
    with pytest.raises(VocabularyError):
        Vocabulary.from_json(MALFORMED_VOCABULARIES[case])
    bad = {**record_obj("bad", "forall x P(x)", "exists x P(x)"),
           "vocabulary": MALFORMED_VOCABULARIES[case]}
    path = tmp_path / "data.jsonl"
    write_dataset(path, [bad, record_obj("good", "forall x P(x)", "exists x P(x)")])
    records, errors = load_dataset(str(path))
    assert [r.id for r in records] == ["good"]
    assert len(errors) == 1 and errors[0].startswith("line 1: ")
    report = str(tmp_path / "report.json")
    assert cli_main(["batch", str(path), "--report", report]) == 2
    assert cli_main(["batch", str(path), "--report", report, "--lenient"]) == 0
    assert "dataset error: line 1" in capsys.readouterr().err


MALFORMED_RECORDS = {
    "psi-number": ({"psi": 3}, "psi must be a string, not int"),
    "phi-null": ({"phi": None}, "phi must be a string, not NoneType"),
    "phi-list": ({"phi": ["exists x P(x)"]}, "phi must be a string, not list"),
    # a string would be parsed one character at a time
    "gamma-string": ({"gamma": "forall x P(x)"},
                     "gamma must be a list of strings, not str"),
    "gamma-number": ({"gamma": ["forall x P(x)", 1]},
                     "gamma must be a list of strings, not a list holding int"),
    "gamma-null": ({"gamma": None}, "gamma must be a list of strings, not NoneType"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_field_is_a_dataset_error(tmp_path, capsys, case):
    fields, message = MALFORMED_RECORDS[case]
    bad = {**record_obj("bad", "forall x P(x)", "exists x P(x)"), **fields}
    with pytest.raises(RecordError, match=f"^{re.escape(message)}$"):
        PairRecord.from_json(bad)
    path = tmp_path / "data.jsonl"
    write_dataset(path, [record_obj("good", "forall x P(x)", "exists x P(x)"), bad])
    records, errors = load_dataset(str(path))
    assert [r.id for r in records] == ["good"]
    assert errors == [f"line 2: {message}"]
    report = str(tmp_path / "report.json")
    assert cli_main(["batch", str(path), "--report", report]) == 2
    assert f"dataset error: line 2: {message}" in capsys.readouterr().err
    assert cli_main(["batch", str(path), "--report", report, "--lenient"]) == 0
    assert f"dataset error: line 2: {message}" in capsys.readouterr().err
    assert json.loads((tmp_path / "report.json").read_text())["total"]["all"] == 1


def test_record_that_is_not_an_object_is_a_dataset_error(tmp_path):
    with pytest.raises(RecordError, match="^a record must be an object, not list$"):
        PairRecord.from_json(["forall x P(x)"])
    path = tmp_path / "data.jsonl"
    path.write_text('["forall x P(x)"]\n')
    assert load_dataset(str(path)) == ([], ["line 1: a record must be an object, not list"])


def test_vocabulary_json_round_trip():
    vocab = Vocabulary(relations={"A": 0, "R": 2}, functions={"f": 1},
                       constants={"c", "d"}, with_equality=False)
    assert Vocabulary.from_json(vocab.to_json()) == vocab
    assert Vocabulary.from_json({}) == Vocabulary()


def test_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    records, errors = load_dataset(str(path))
    assert records == [] and errors == []


def test_run_pair_self_pair(engine):
    rec = PairRecord.from_json(record_obj("self", "forall x P(x)", "forall x P(x)"))
    out = run_pair(rec, engine)
    assert out["verdict"]["status"] == "equivalent"
    assert out["explanations"] == []
    assert "counterexample" not in out


def test_run_pair_nonequivalent_bundle(engine):
    rec = PairRecord.from_json(record_obj(
        "quant", "forall x forall y ((S(x) & D(x,y)) -> S(y))",
        "forall x exists y ((S(x) & D(x,y)) -> S(y))",
        relations={"S": 1, "D": 2}))
    out = run_pair(rec, engine)
    assert out["verdict"]["status"] == "non-equivalent"
    assert any(s.startswith("Q") for s in out["strategies"])
    assert out["counterexample"]["direction"] in ("too-restrictive", "too-permissive")
    assert out["timing_ms"] > 0


def test_run_pair_both_methods_attribution(engine):
    rec = PairRecord.from_json(record_obj("m", "forall x P(x)", "exists x P(x)"))
    out = run_pair(rec, engine, both_methods=True)
    methods = out["countermodel_methods"]
    assert methods["random"] is True
    assert methods["brute-force"] is True


class _OriginCounter:
    """A backend that counts satisfiability calls by query origin."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.origins = {}

    def check_sat(self, query, timeout_ms=None, want_model=True):
        self.origins[query.origin] = self.origins.get(query.origin, 0) + 1
        return self.inner.check_sat(query, timeout_ms=timeout_ms, want_model=want_model)


def test_run_pair_both_methods_asks_backend_once(engine):
    # the decision's revalidated model serves as the backend's counter model
    engine.backend = _OriginCounter(engine.backend)
    rec = PairRecord.from_json(record_obj("once", "forall x P(x)", "exists x P(x)"))
    out = run_pair(rec, engine, both_methods=True)
    assert engine.backend.origins["equivalence"] == 1
    assert out["countermodel_methods"] == {"brute-force": True, "random": True}
    # the cached verdict carries the same model, so a warm rerun asks nothing
    again = run_pair(rec, engine, both_methods=True)
    assert again["verdict"]["method"] == "cache"
    assert again["countermodel_methods"] == out["countermodel_methods"]
    assert again["counterexample"] == out["counterexample"]
    assert engine.backend.origins["equivalence"] == 1


def test_batch_single_method_repeats_keep_the_backend_model(monkeypatch, engine):
    # a repeat's decision comes from the cache, with the first record's model
    outs = []

    def recording(record, *args, **kwargs):
        outs.append(run_pair(record, *args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(harness, "run_pair", recording)
    records = [PairRecord.from_json(record_obj(i, "forall x P(x)", "exists x P(x)"))
               for i in ("first", "again")]
    report = run_batch(records, engine, both_methods=False)
    first, again = (out["counterexample"] for out in outs)
    assert outs[1]["verdict"]["method"] == "cache"
    assert first["source"] == again["source"] == "brute-force"
    assert first["structure"] == again["structure"]
    assert report.total["counter_found"] == 2


def test_cache_line_without_counter_asks_backend_once(tmp_path):
    # a cache file written before entries kept their model still hits; the
    # backend is asked for the model once, and the output is a fresh run's
    rec = PairRecord.from_json(record_obj("old", "forall x P(x)", "exists x P(x)"))
    fresh = run_pair(rec, Engine.make(seed=5), both_methods=True)
    path = tmp_path / "cache.jsonl"
    key = prover.backend_key(prover.BoundedSearchBackend(), rec.duplicate_key())
    path.write_text(json.dumps({"key": key, "status": "non-equivalent",
                                "method": "bounded", "timestamp": 0}) + "\n")
    engine = Engine.make(seed=5, cache_path=str(path))
    engine.backend = _OriginCounter(engine.backend)
    out = run_pair(rec, engine, both_methods=True)
    assert out["verdict"]["method"] == "cache"
    assert engine.backend.origins["equivalence"] == 1
    assert out["countermodel_methods"] == fresh["countermodel_methods"]
    assert out["counterexample"] == fresh["counterexample"]


def test_prover_model_missing_from_a_hit_is_asked_again(tmp_path):
    # a prover that answers sat without a model leaves an entry without one,
    # so a hit asks the backend again for the model
    from test_prover import make_prover
    exe = make_prover(tmp_path, {"default": {"stdout": "% SZS status Satisfiable\n"}})
    engine = Engine.make(prover_path=exe, modes=("vampire",), seed=5)
    engine.backend = _OriginCounter(engine.backend)
    rec = PairRecord.from_json(record_obj("nomodel", "forall x P(x)", "exists x P(x)"))
    first = run_pair(rec, engine, both_methods=True, first_only=True)
    assert first["countermodel_methods"] == {"prover-fmb": False, "random": True}
    assert first["counterexample"]["source"] == "random"
    again = run_pair(rec, engine, both_methods=True, first_only=True)
    assert again["verdict"]["method"] == "cache"
    assert engine.backend.origins["equivalence"] == 2
    assert again["countermodel_methods"] == first["countermodel_methods"]


def test_run_pair_tells_a_constant_from_a_bound_variable_of_its_name():
    # with a constant v0, the second pair's cache key and duplicate key were
    # the first's, so it was served the first's syntactic "equivalent"
    objs = [record_obj("same", "forall x P(x)", "forall y P(y)"),
            record_obj("other", "forall x P(x)", "forall x P(v0)")]
    for obj in objs:
        obj["vocabulary"]["constants"] = ["v0"]
    same, other = map(PairRecord.from_json, objs)
    assert same.duplicate_key() != other.duplicate_key()
    engine = Engine.make(seed=5)
    assert run_pair(same, engine)["verdict"] == {"status": "equivalent", "method": "syntactic"}
    served, fresh = run_pair(other, engine), run_pair(other, Engine.make(seed=5))
    assert served.pop("timing_ms") >= 0 and fresh.pop("timing_ms") >= 0
    assert served == fresh and served["verdict"]["status"] == "non-equivalent"


def test_batch_self_pairs_all_equivalent(tmp_path, engine):
    objs = [record_obj(f"s{i}", "forall x P(x)", "forall x P(x)") for i in range(4)]
    path = tmp_path / "d.jsonl"
    write_dataset(path, objs)
    records, _ = load_dataset(str(path))
    report = run_batch(records, engine)
    data = report.to_json()
    assert data["total"]["all"] == 4
    assert data["total"]["equivalent"] == 4
    assert data["distinct"]["all"] == 1


def test_batch_report_invariants_and_counts(tmp_path, engine):
    objs = [
        record_obj("eq", "forall x P(x)", "forall z P(z)"),
        record_obj("neq1", "forall x P(x)", "exists x P(x)"),
        record_obj("neq1-dup", "forall x P(x)", "exists x P(x)"),
        record_obj("neq2", "forall x (Q(x) -> P(x))", "forall x P(x)",
                   relations={"P": 1, "Q": 1}),
    ]
    path = tmp_path / "d.jsonl"
    write_dataset(path, objs)
    records, _ = load_dataset(str(path))
    report = run_batch(records, engine, both_methods=True)
    report.validate()
    data = report.to_json()
    assert data["total"]["all"] == 4
    assert data["total"]["non_equivalent"] == 3
    assert data["distinct"]["non_equivalent"] == 2
    assert data["total"]["at_least_one_strategy"] >= 2
    assert data["total"]["counter_found"] >= 2
    timing = data["timing"]
    assert timing["bucket_edges_ms"] == report.bucket_edges_ms()
    assert sum(timing["buckets"]) == 4
    csv = report.to_csv()
    assert "strategy_S-1" in csv or "strategy_Q-1" in csv


def test_batch_counts_stable_under_warm_cache(tmp_path):
    engine = Engine.make(seed=9)
    objs = [record_obj("a", "forall x P(x)", "exists x P(x)"),
            record_obj("b", "forall x P(x)", "forall y P(y)")]
    path = tmp_path / "d.jsonl"
    write_dataset(path, objs)
    records, _ = load_dataset(str(path))
    cold = run_batch(records, engine).to_json()
    warm = run_batch(records, engine).to_json()
    for section in ("total", "distinct"):
        cold_counts = {k: v for k, v in cold[section].items()}
        warm_counts = {k: v for k, v in warm[section].items()}
        assert cold_counts == warm_counts


def test_cache_hit_keeps_the_bound(tmp_path, engine):
    objs = [record_obj("cold", "forall x (P(x) -> Q(x))", "forall x ~(P(x) & ~Q(x))",
                       relations={"P": 1, "Q": 1}),
            record_obj("warm", "forall y (P(y) -> Q(y))", "forall z ~(P(z) & ~Q(z))",
                       relations={"P": 1, "Q": 1})]
    path = tmp_path / "d.jsonl"
    write_dataset(path, objs)
    (cold, warm), _ = load_dataset(str(path))
    cold_verdict = run_pair(cold, engine)["verdict"]
    assert cold_verdict["status"] == "equivalent"
    assert cold_verdict["method"].startswith("bounded<=")
    assert run_pair(warm, engine)["verdict"] == {
        "status": "equivalent", "method": "cache",
        "cached_method": cold_verdict["method"]}


def test_timing_buckets_double_up_to_the_slowest_pair():
    report = Report(timings_ms=[5.0, 300.0, 5000.0])
    edges = report.bucket_edges_ms()
    assert edges[0] == 10 and edges[-1] > 5000
    assert all(b == 2 * a for a, b in zip(edges, edges[1:]))
    buckets = report.timing_buckets()
    assert sum(buckets) == 3 and buckets.count(1) == 3


@pytest.mark.parametrize("n, expected", [
    (1, (1, 1, 1, 1)),
    (5, (3, 5, 5, 5)),
    (9, (5, 9, 9, 9)),
    (22, (11, 20, 21, 22)),
])
def test_timing_percentiles_take_the_nearest_rank(n, expected):
    # the p-th percentile of n timings is the ceil(p / 100 * n)-th smallest
    report = Report(timings_ms=[float(ms) for ms in range(n, 0, -1)])
    percentiles = report.timing_percentiles()
    assert tuple(percentiles[k] for k in ("p50", "p90", "p95", "p99")) == expected
    assert percentiles["max"] == n


def test_csv_when_only_a_duplicate_finds_a_random_model():
    # the record id seeds the random search, so a duplicate can hit where
    # the first record of its key missed
    wrong = {"verdict": {"status": "non-equivalent"}, "strategies": [],
             "counterexample": {"direction": "too-permissive"}}
    first = {**wrong, "countermodel_methods": {"brute-force": True, "random": False}}
    duplicate = {**wrong, "countermodel_methods": {"brute-force": True, "random": True}}
    report = Report(total=_section([first, duplicate]), distinct=_section([first]))
    report.validate()
    lines = report.to_csv().splitlines()
    assert "counter_via_random,1,0" in lines
    assert "counter_exclusively_random" not in report.to_csv()
    assert "counter_exclusively_brute-force,1,1" in lines


def test_cli_batch_gives_renamed_records_one_random_outcome(tmp_path):
    # the only separating models have one element, where all ten relations
    # must hold; the engine seed alone seeds the random search, so r5 and
    # r0 hit or miss together, whatever their ids
    relations = {f"P{i}": 1 for i in range(10)}
    psi = "forall x (" + " & ".join(f"P{i}(x)" for i in range(10)) + ")"
    phi = f"{psi} & exists x exists y ~(x = y)"
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj(i, psi, phi, relations) for i in ("r5", "r0")])
    outcomes = []
    for seed in ("0", "1", "2"):
        report_path = tmp_path / f"report-{seed}.json"
        code = cli_main(["batch", str(data), "--report", str(report_path), "--seed", seed])
        assert code == 0
        report = json.loads(report_path.read_text())
        outcomes.append([report[section]["counter_by_method"].get("random", 0)
                         for section in ("total", "distinct")])
    # seed 0 hits for both records, seeds 1 and 2 miss for both
    assert outcomes == [[2, 1], [0, 0], [0, 0]]


def test_batch_gives_renamed_copies_their_originals_countermodel_methods(monkeypatch):
    # each first mutant per family, then a copy with its bound variables
    # renamed, as the batch benchmark submits them; a copy's random search
    # draws from its original's streams
    solutions = {sol.id: (sc, sol) for sc, sol in all_solutions()}
    records = []
    for solution_id in ("E-1-1", "E-6-5"):
        sc, sol = solutions[solution_id]
        for family in MUTATIONS:
            mutant = mutate(sol.formula, family)
            if mutant is None:
                continue
            label = f"{solution_id}/{family}"
            assert alpha_normalize(mutant) != mutant
            records += [PairRecord(label, sc.vocabulary, sc.theory, sol.formula, mutant),
                        PairRecord(f"{label}/renamed", sc.vocabulary, sc.theory,
                                   sol.formula, alpha_normalize(mutant))]
    methods = {}

    def recorded(record, *args, **kwargs):
        result = run_pair(record, *args, **kwargs)
        methods[record.id] = result.get("countermodel_methods")
        return result

    monkeypatch.setattr(harness, "run_pair", recorded)
    run_batch(records, Engine.make())
    originals = [r.id for r in records if not r.id.endswith("/renamed")]
    assert all(methods[label] == methods[f"{label}/renamed"] for label in originals), methods
    hits = [methods[label]["random"] for label in originals if methods[label]]
    assert True in hits and False in hits


def reuse_records() -> list[PairRecord]:
    """Two pairs, one whose random search hits (E-3-1) and one whose
    search misses (E-12-1), each submitted five times: as itself, with the
    attempt's bound variables renamed, verbatim again, with psi and phi
    swapped, and over a vocabulary with one more, unused, relation. The
    five share a duplicate key; they orient the pair two ways and use two
    vocabularies."""
    solutions = {sol.id: (sc, sol) for sc, sol in all_solutions()}
    records = []
    for solution_id in ("E-3-1", "E-12-1"):
        sc, sol = solutions[solution_id]
        mutant = mutate(sol.formula, "negation-toggle")
        assert alpha_normalize(mutant) != mutant
        wider = sc.vocabulary.extend(relations={"Unused": 1})
        label = f"{solution_id}/negation-toggle"
        records += [
            PairRecord(label, sc.vocabulary, sc.theory, sol.formula, mutant),
            PairRecord(f"{label}/renamed", sc.vocabulary, sc.theory, sol.formula,
                       alpha_normalize(mutant)),
            PairRecord(f"{label}/again", sc.vocabulary, sc.theory, sol.formula, mutant),
            PairRecord(f"{label}/swapped", sc.vocabulary, sc.theory, mutant, sol.formula),
            PairRecord(f"{label}/wider", wider, Theory(wider, sc.theory.axioms),
                       sol.formula, mutant),
        ]
    assert len({r.duplicate_key() for r in records}) == 2
    return records


def without_timing(result: dict) -> dict:
    """A run_pair result without its timing, its verdict's method the one
    a cache hit repeats."""
    verdict = dict(result["verdict"])
    if verdict.get("method") == "cache":
        verdict["method"] = verdict.pop("cached_method")
    return {**{k: v for k, v in result.items() if k != "timing_ms"}, "verdict": verdict}


def recorded_batch(monkeypatch, records, **kwargs) -> dict:
    """Each record's run_pair result in a run_batch of the records, by id."""
    results = {}

    def recorded(record, *args, **kw):
        result = run_pair(record, *args, **kw)
        results[record.id] = without_timing(result)
        return result

    with monkeypatch.context() as patched:
        patched.setattr(harness, "run_pair", recorded)
        report = run_batch(records, Engine.make(), **kwargs).to_json()
    del report["timing"]
    return {"results": results, "report": report}


@pytest.mark.parametrize("backend_models", [True, False])
def test_batch_reuses_search_outcomes_as_fresh_runs_give_them(monkeypatch, backend_models):
    if not backend_models:
        # verdicts without the backend's model show the random search's
        # model and direction as the record's counter model
        monkeypatch.setattr(prover, "revalidate_counter", lambda *args: (None, None))
    records = reuse_records()
    batch = recorded_batch(monkeypatch, records)["results"]
    fresh = {r.id: without_timing(run_pair(r, Engine.make(), both_methods=True))
             for r in records}
    assert batch == fresh
    hits = [batch[r.id]["countermodel_methods"]["random"] for r in records]
    assert True in hits and False in hits
    shown = {r.id: batch[r.id].get("counterexample", {}) for r in records}
    assert all(c.get("source") != "random" for c in shown.values()) == backend_models
    assert "Unused" in shown["E-3-1/negation-toggle/wider"]["structure"]["relations"]


def test_batch_searches_once_per_group_orientation_and_vocabulary(monkeypatch):
    records = reuse_records()
    searched = []
    search = harness.search_countermodel

    def counted(solution, attempt, theory, *args):
        searched.append((DecisionCache.key(solution, attempt, theory),
                         alpha_normalize(solution), vocabulary_key(theory.vocabulary)))
        return search(solution, attempt, theory, *args)

    monkeypatch.setattr(harness, "search_countermodel", counted)
    for workers in (1, 2):
        searched.clear()
        run_batch(records, Engine.make(), workers=workers)
        # per pair: one search for the first three records, one for the
        # swapped and one for the wider vocabulary
        assert len(searched) == len(set(searched)) == 6


def test_batch_parallel_reuse_matches_serial(monkeypatch):
    records = reuse_records()
    # the groups interleave, so that a serial run holds both open at once
    records = [r for pair in zip(records[:5], records[5:]) for r in pair]
    assert recorded_batch(monkeypatch, records, workers=2) == \
        recorded_batch(monkeypatch, records)


def one_solution_records() -> list[PairRecord]:
    """Every mutant of E-1-2, one record each, parsed from its own line
    as a class's dataset holds them: the records' solutions are equal by
    value, each a separate copy."""
    sc, sol = next((sc, sol) for sc, sol in all_solutions() if sol.id == "E-1-2")
    objs = [{"id": f"E-1-2/{family}/{i}", "vocabulary": sc.vocabulary.to_json(),
             "gamma": [to_str(ax) for ax in sc.theory.axioms],
             "psi": sol.text, "phi": to_str(mutant)}
            for family in MUTATIONS for i, mutant in enumerate(mutate_all(sol.formula, family))]
    records = [PairRecord.from_json(obj) for obj in objs]
    assert len(records) > 10 and records[0].solution is not records[1].solution
    return records


def test_solution_facts_are_computed_once_per_engine(monkeypatch):
    records = one_solution_records()
    solution = records[0].solution
    made = []
    # alpha_normalize itself also sees the candidates that equal the solution
    normal, facts = prover._normal_text, explain.formula_facts
    monkeypatch.setattr(prover, "_normal_text",
                        lambda f: made.append(("normal form", f)) or normal(f))
    monkeypatch.setattr(explain, "formula_facts",
                        lambda f: made.append(("strategy facts", f)) or facts(f))
    runs = []
    for _ in range(2):      # the second engine computes them again
        made.clear()
        engine = Engine.make(seed=3)
        runs.append([without_timing(run_pair(r, engine, both_methods=True))
                     for r in records])
        assert sorted(kind for kind, f in made if f == solution) == [
            "normal form", "strategy facts"]
    statuses = {r["verdict"]["status"] for r in runs[0]}
    assert statuses == {"equivalent", "non-equivalent"}
    fresh = [without_timing(run_pair(r, Engine.make(seed=3), both_methods=True))
             for r in records]
    assert runs[0] == runs[1] == fresh


def test_batch_with_shared_solution_facts_parallel_matches_serial(monkeypatch):
    records = one_solution_records()
    assert recorded_batch(monkeypatch, records, workers=2) == \
        recorded_batch(monkeypatch, records)


def test_batch_drops_a_groups_search_outcomes_after_its_last_record(monkeypatch):
    records = reuse_records()
    outcomes = []     # weak references to the hits the searches returned
    search = harness.search_countermodel

    def kept(*args):
        hit = search(*args)
        if hit is not None:
            outcomes.append(weakref.ref(hit))
        return hit

    def alive() -> int:
        gc.collect()
        return sum(ref() is not None for ref in outcomes)

    seen = []

    def recorded(record, *args, **kwargs):
        # the first group (E-3-1, whose searches hit) has ended when the
        # second one starts
        if record.id.startswith("E-12-1"):
            seen.append(alive())
        return run_pair(record, *args, **kwargs)

    monkeypatch.setattr(harness, "search_countermodel", kept)
    monkeypatch.setattr(harness, "run_pair", recorded)
    engine = Engine.make()
    fields = set(vars(engine))
    run_batch(records, engine)
    assert len(outcomes) == 3 and seen == [0] * 5
    assert alive() == 0 and set(vars(engine)) == fields


def test_batch_drops_vacuous_quantifiers_in_time(tmp_path):
    # each vacuous forall multiplied the instances an evaluation walks:
    # 10 of them did not finish in 60 s, 3 took 0.26 s
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj("pair", "forall y " * 10 + "P(x)", "P(x)"),
                         record_obj("axiom", "forall x P(x)", "exists x P(x)",
                                    gamma=["forall y " * 10 + "exists z P(z)"])])
    script = ("import json, sys\n"
              "from foleq.harness import Engine, load_dataset, run_batch\n"
              "records, _ = load_dataset(sys.argv[1])\n"
              "print(json.dumps(run_batch(records, Engine.make()).to_json()['total']))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-c", script, str(data)], capture_output=True,
                         text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    total = json.loads(run.stdout)
    assert (total["equivalent"], total["non_equivalent"]) == (1, 1)


class _UndecidedProver:
    """A prover-kind backend that never decides."""

    name = "prover"

    def __init__(self):
        self.calls = 0

    def check_sat(self, query, timeout_ms=None, want_model=True):
        self.calls += 1
        return SatResult("unknown", reason="timeout")


def test_cache_file_keeps_bounded_and_prover_entries_apart(tmp_path):
    v = Vocabulary(relations={"P": 1, "Q": 1})
    th = Theory(v, (parse("forall x P(x)", v),))
    psi, phi = parse("forall x (Q(x) -> P(x))", v), parse("forall x P(x)", v)
    path = str(tmp_path / "cache.jsonl")

    def answers(engine):
        verdict = decide_equivalence(psi, phi, th, engine.backend, engine.cache)
        report = necessary_symbols(psi, th, engine.backend, cache=engine.necessity_cache)
        return verdict, report.status("Q")

    verdict, necessity = answers(Engine.make(cache_path=path))
    assert verdict.status == "equivalent" and necessity == NOT_SHOWN

    prover = Engine.make(cache_path=path)
    prover.backend = _UndecidedProver()
    verdict, necessity = answers(prover)
    assert verdict.status == "unknown" and necessity == UNKNOWN
    assert prover.backend.calls >= 2

    bounded = Engine.make(cache_path=path)
    verdict, necessity = answers(bounded)
    assert verdict.method == "cache" and necessity == NOT_SHOWN
    assert bounded.backend.calls == 0


def test_batch_parallel_matches_serial(tmp_path, monkeypatch):
    objs = [record_obj(f"p{i}", "forall x P(x)",
                       "exists x P(x)" if i % 2 else "forall x P(x)")
            for i in range(6)]
    path = tmp_path / "d.jsonl"
    write_dataset(path, objs)
    records, _ = load_dataset(str(path))
    # a record whose decision takes long enough for its repeat to start
    # meanwhile, were both sent to the pool at once
    sc = next(c for c in load_scenarios() if c.id == "E-1")
    sol = sc.solutions[1].formula
    flip = mutate(sol, "quantifier-flip")
    records[1:1] = [PairRecord(f"e1{suffix}", sc.vocabulary, sc.theory, sol, flip)
                    for suffix in ("", "-again")]
    verdicts = {}

    def recorded(record, *args, **kwargs):
        result = run_pair(record, *args, **kwargs)
        verdicts[record.id] = result["verdict"], result.get("countermodel_methods")
        return result

    monkeypatch.setattr(harness, "run_pair", recorded)

    def outcomes(workers):
        verdicts.clear()
        report = run_batch(records, Engine.make(seed=3), workers=workers).to_json()
        return report["total"], report["distinct"], dict(verdicts)

    serial = outcomes(1)
    assert serial[2]["e1-again"][0]["method"] == "cache"
    assert serial[2]["p1"][1] == {"brute-force": True, "random": True}
    assert outcomes(4) == serial


def test_batch_parallel_matches_serial_on_a_theory(monkeypatch):
    # threads share the engine's theory-model tables while they fill them;
    # the random phase, which reads no table, is left out for speed, and
    # so is E-1-1, whose strategies take seconds
    monkeypatch.setattr(prover, "SAMPLE_SIZES", (1, 2))
    sc = next(c for c in load_scenarios() if c.id == "E-1")
    records = [PairRecord(f"{sol.id}/{family}", sc.vocabulary, sc.theory,
                          sol.formula, mutate(sol.formula, family))
               for sol in sc.solutions[1:] for family in MUTATIONS]
    results = {}

    def recorded(record, *args, **kwargs):
        result = run_pair(record, *args, **kwargs)
        results[record.id] = (result["verdict"], result.get("counterexample"),
                              result.get("countermodel_methods"))
        return result

    monkeypatch.setattr(harness, "run_pair", recorded)

    def outcomes(workers):
        results.clear()
        engine = Engine.make(seed=3)
        report = run_batch(records, engine, workers=workers)
        # each table holds the same entries in the same order as a serial run's
        tables = {key: list(table._found._entries)
                  for key, table in engine.backend.store._values.items()}
        return report.to_json()["total"], dict(results), tables

    serial = outcomes(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)    # switch threads often while tables fill
    try:
        parallel = outcomes(4)
    finally:
        sys.setswitchinterval(interval)
    assert serial == parallel
    assert len(serial[1]) == len(records)
    assert {v["status"] for v, _, _ in serial[1].values()} == \
        {"equivalent", "non-equivalent"}


def test_cli_feedback(tmp_path, capsys):
    pair = record_obj("cli", "forall x P(x)", "exists x P(x)")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code = cli_main(["feedback", str(path), "--seed", "2", "--dump-profiles",
                     "--dump-necessity"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["status"] == "non-equivalent"
    assert "profiles" in out and "necessity" in out


@pytest.mark.parametrize("content, message", [
    (json.dumps({k: v for k, v in record_obj("cli", "P(a)", "P(a)").items() if k != "phi"}),
     "'phi'"),
    (json.dumps(record_obj("cli", "forall x (P(x)", "P(a)")), ""),
    (json.dumps(record_obj("cli", "forall x P(x)", 5)), "phi must be a string"),
    ("[1, 2]", "must be an object"),
    ("{nope", ""),
])
def test_cli_feedback_reports_a_malformed_pair_file(tmp_path, capsys, content, message):
    path = tmp_path / "pair.json"
    path.write_text(content)
    assert cli_main(["feedback", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pair file error: ") and message in captured.err
    assert "Traceback" not in captured.err


def _unreadable(tmp_path, kind):
    """A path that is missing, or a file whose bytes are not UTF-8."""
    path = tmp_path / "input"
    if kind == "not-utf-8":
        path.write_bytes(b"\xff\xfe" + json.dumps(record_obj("x", "P(a)", "P(a)")).encode())
    return path


@pytest.mark.parametrize("kind, message", [("missing", "No such file"),
                                           ("not-utf-8", "utf-8")])
def test_cli_feedback_reports_an_unreadable_pair_file(tmp_path, capsys, kind, message):
    assert cli_main(["feedback", str(_unreadable(tmp_path, kind))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pair file error: ") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("lenient", [[], ["--lenient"]])
@pytest.mark.parametrize("kind, message", [("missing", "No such file"),
                                           ("not-utf-8", "utf-8")])
def test_cli_batch_reports_an_unreadable_dataset(tmp_path, capsys, kind, message, lenient):
    report = tmp_path / "r.json"
    assert cli_main(["batch", str(_unreadable(tmp_path, kind)), "--report", str(report),
                     *lenient]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dataset error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert not report.exists()


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two", ""])
def test_cli_rejects_workers_that_are_not_positive(tmp_path, capsys, value):
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj("x", "forall x P(x)", "exists x P(x)")])
    with pytest.raises(SystemExit) as exit_:
        cli_main(["batch", str(data), "--report", str(tmp_path / "r.json"),
                  f"--workers={value}"])
    assert exit_.value.code == 2
    assert "--workers must be a positive whole number" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_batch_and_exit_codes(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj("x", "forall x P(x)", "exists x P(x)")])
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = cli_main(["batch", str(data), "--report", str(report_path),
                     "--csv", str(csv_path), "--seed", "1"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["total"]["all"] == 1
    assert csv_path.read_text().startswith("metric,total,distinct")

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{nope\n")
    code = cli_main(["batch", str(bad), "--report", str(report_path)])
    assert code == 2
    capsys.readouterr()
    code = cli_main(["batch", str(bad), "--report", str(report_path), "--lenient"])
    assert code == 0


def test_cli_batch_skips_a_malformed_necessity_line(tmp_path):
    # a necessity line under a real key whose statuses are not an object of
    # statuses is skipped: the batch reports as with an empty cache
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj("a", "forall x P(x)", "exists x P(x)"),
                         record_obj("b", "forall x (P(x) -> Q(x))", "forall x Q(x)",
                                    relations={"P": 1, "Q": 1})])

    def batch(cache):
        report = tmp_path / f"{cache}.json"
        assert cli_main(["batch", str(data), "--report", str(report),
                         "--cache", str(tmp_path / cache)]) == 0
        return {k: v for k, v in json.loads(report.read_text()).items() if k != "timing"}

    clean = batch("clean")
    keys = [json.loads(line)["key"] for line in
            (tmp_path / "clean.necessity").read_text().splitlines()]
    assert keys
    (tmp_path / "bad.necessity").write_text(
        "".join(json.dumps({"key": key, "statuses": "abc"}) + "\n" for key in keys))
    assert batch("bad") == clean


# cached counter models that `Structure.from_json` accepts but whose arities
# are not the vocabulary's: a binary table for the unary f made `foleq batch
# --cache` exit 1 with a KeyError, and pairs for the unary P were reported
# as the pair's counter model
WRONG_ARITY_COUNTERS = {
    "binary-table-for-unary-f": (
        "forall x P(f(x))", "exists x P(f(x))",
        {"size": 2, "relations": {"P": [[1]]},
         "functions": {"f": [[1, 1, 1], [1, 2, 1], [2, 1, 2], [2, 2, 2]]}}),
    "pairs-for-unary-P": (
        "forall x P(x)", "~(exists x P(x))",
        {"size": 1, "relations": {"P": [[1, 1]]}, "functions": {"f": [[1, 1]]}}),
}


@pytest.mark.parametrize("case", sorted(WRONG_ARITY_COUNTERS))
def test_cli_drops_a_cached_counter_of_other_arities(tmp_path, capsys, case):
    # the verdict stands without the model: the output is that of a cache
    # line that holds none
    psi, phi, counter = WRONG_ARITY_COUNTERS[case]
    pair = record_obj(case, psi, phi)
    pair["vocabulary"]["functions"] = {"f": 1}
    data, pair_file = tmp_path / "d.jsonl", tmp_path / "pair.json"
    write_dataset(data, [pair])
    pair_file.write_text(json.dumps(pair))
    key = prover.backend_key(prover.BoundedSearchBackend(),
                             PairRecord.from_json(pair).duplicate_key())

    def outputs(name, counter):
        cache = tmp_path / name
        cache.write_text(json.dumps({"key": key, "status": "non-equivalent",
                                     "method": "bounded", "counter": counter}) + "\n")
        report = tmp_path / f"{name}.json"
        assert cli_main(["batch", str(data), "--report", str(report),
                         "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert cli_main(["feedback", str(pair_file), "--cache", str(cache)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.pop("timing_ms") >= 0 and out["verdict"]["method"] == "cache"
        return ({k: v for k, v in json.loads(report.read_text()).items() if k != "timing"},
                out)

    assert outputs("bad", counter) == outputs("clean", None)


HIGH_ARITY_PAIRS = {
    # the structure count at size 2 has 2 ** 36 bits
    "36-ary": (36, "exists x R({x})", "forall x R({x})"),
    # one draw at size 6 holds 6 ** 8, 1.7 million, tuples
    "8-ary-tautology": (8, "forall x (R({x}) | ~R({x}))", "forall x x = x"),
}


def batch_in_subprocess(data, timeout: float) -> tuple[float, dict, list]:
    """run_batch on the dataset in a fresh interpreter under a 2 GB address
    space and the timeout: its seconds, total section and errors."""
    script = ("import json, resource, sys, time\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from foleq.harness import Engine, load_dataset, run_batch\n"
              "records, errors = load_dataset(sys.argv[1])\n"
              "start = time.perf_counter()\n"
              "report = run_batch(records, Engine.make())\n"
              "print(json.dumps([time.perf_counter() - start, report.total,"
              " errors + report.errors]))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-c", script, str(data)], capture_output=True,
                         text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    return tuple(json.loads(run.stdout))


@pytest.mark.parametrize("case", sorted(HIGH_ARITY_PAIRS))
def test_batch_decides_a_relation_of_high_arity_in_bounded_memory(tmp_path, case):
    arity, psi, phi = HIGH_ARITY_PAIRS[case]
    x = ", ".join(["x"] * arity)
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj(case, psi.format(x=x), phi.format(x=x),
                                    relations={"R": arity})])
    seconds, total, errors = batch_in_subprocess(data, timeout=60)
    assert total["equivalent"] + total["non_equivalent"] == 1 and not errors
    assert seconds < 10


def test_batch_answers_formulas_near_the_nesting_cap_in_bounded_time(tmp_path):
    # each drawn formula against a small one, against the next drawn one and
    # against its mutants that parse; before profiles.atom_occurrences
    # dropped shadowed binders, one pair of drawn formulas took 100 s
    sampler = FormulaSampler(seed=13)
    vocab = sampler.vocab

    def accepted(f) -> bool:
        try:
            return parse(to_str(f), vocab) is not None
        except ParseError:
            return False

    deep = [sampler.near_cap() for _ in range(4)]
    pairs = []
    for i, psi in enumerate(deep):
        pairs += [(psi, sampler.formula(2)), (psi, deep[(i + 1) % len(deep)])]
        pairs += [(psi, mutant) for family in MUTATIONS
                  if (mutant := mutate(psi, family)) is not None and accepted(mutant)]
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj(f"near-cap-{i}", to_str(psi), to_str(phi),
                                    relations=dict(vocab.relations))
                         for i, (psi, phi) in enumerate(pairs)])
    seconds, total, errors = batch_in_subprocess(data, timeout=120)
    assert not errors and total["all"] == len(pairs) > 12
    assert total["equivalent"] + total["non_equivalent"] == len(pairs)
    assert seconds < 60


# formulas nested past the parser's cap: without it, the first two overflow
# the stack in load_dataset, and the last two in run_batch's walks of the tree
DEEP_FORMULAS = {
    "170-parentheses": "(" * 170 + "P(x)" + ")" * 170,
    "1000-negations": "~" * 1000 + "P(x)",
    "600-negations": "~" * 600 + "P(x)",
    "500-conjuncts": " & ".join(["P(x)"] * 500),
}


@pytest.mark.parametrize("case", sorted(DEEP_FORMULAS))
def test_cli_batch_reports_a_formula_nested_past_the_cap(tmp_path, capsys, case):
    path = tmp_path / "data.jsonl"
    write_dataset(path, [record_obj("good", "forall x P(x)", "exists x P(x)"),
                         record_obj("deep", DEEP_FORMULAS[case], "P(x)")])
    message = f"line 2: formula nested deeper than {MAX_DEPTH} levels"
    records, errors = load_dataset(str(path))
    assert [r.id for r in records] == ["good"]
    assert len(errors) == 1 and errors[0].startswith(message)
    report = tmp_path / "report.json"
    assert cli_main(["batch", str(path), "--report", str(report)]) == 2
    assert f"dataset error: {message}" in capsys.readouterr().err
    assert cli_main(["batch", str(path), "--report", str(report), "--lenient"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(report.read_text())["total"]["all"] == 1


def test_batch_decides_formulas_at_the_nesting_cap(tmp_path):
    at_cap = ["(" * MAX_DEPTH + "P(x)" + ")" * MAX_DEPTH,
              "~" * (MAX_DEPTH - 1) + "P(x)",
              " & ".join(["P(x)"] * MAX_DEPTH)]
    path = tmp_path / "data.jsonl"
    write_dataset(path, [record_obj(f"cap-{i}", psi, "P(x)") for i, psi in enumerate(at_cap)])
    records, errors = load_dataset(str(path))
    assert len(records) == 3 and not errors
    report = run_batch(records, Engine.make(seed=1))
    assert report.total["equivalent"] == 2 and report.total["non_equivalent"] == 1
    assert not report.errors


def test_engine_env_configuration(monkeypatch, tmp_path):
    import stat
    exe = tmp_path / "prover"
    exe.write_text("#!/bin/sh\nexit 0\n")
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("FOLEQ_PROVER", str(exe))
    monkeypatch.setenv("FOLEQ_MODES", "casc, casc_sat")
    monkeypatch.setenv("FOLEQ_TIMEOUT_MS", "1234")
    engine = Engine.make()
    from foleq.prover import ExternalProverBackend
    assert isinstance(engine.backend, ExternalProverBackend)
    assert engine.prover_config.modes == ("casc", "casc_sat")
    assert engine.prover_config.timeout_ms == 1234
    monkeypatch.delenv("FOLEQ_PROVER")
    assert Engine.make().backend.name == "bounded"


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
@pytest.mark.parametrize("option", ["--timeout-ms", "--strategy-timeout-ms"])
def test_cli_rejects_a_timeout_that_is_not_positive(tmp_path, capsys, option, value):
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj("x", "forall x P(x)", "exists x P(x)")])
    with pytest.raises(SystemExit) as exit_:
        cli_main(["batch", str(data), "--report", str(tmp_path / "r.json"),
                  f"{option}={value}"])
    assert exit_.value.code == 2
    assert "positive whole number of milliseconds" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_timeout_from_the_environment_must_be_positive(tmp_path, monkeypatch, capsys,
                                                       value):
    monkeypatch.setenv("FOLEQ_TIMEOUT_MS", value)
    with pytest.raises(ValueError, match="FOLEQ_TIMEOUT_MS"):
        Engine.make()
    data = tmp_path / "d.jsonl"
    write_dataset(data, [record_obj("x", "forall x P(x)", "exists x P(x)")])
    with pytest.raises(SystemExit) as exit_:
        cli_main(["batch", str(data), "--report", str(tmp_path / "r.json")])
    assert exit_.value.code == 2
    assert "FOLEQ_TIMEOUT_MS" in capsys.readouterr().err
    # an option given on the command line is taken before the environment
    assert cli_main(["batch", str(data), "--report", str(tmp_path / "r.json"),
                     "--timeout-ms", "100"]) == 0


def test_timeouts_are_kept_as_given():
    engine = Engine.make(timeout_ms=7, strategy_timeout_ms=9)
    assert (engine.prover_config.timeout_ms, engine.prover_config.strategy_timeout_ms) == (7, 9)
    for bad in ({"timeout_ms": 0}, {"strategy_timeout_ms": 0}, {"timeout_ms": -1}):
        with pytest.raises(ValueError):
            Engine.make(**bad)


def test_cli_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "foleq.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "feedback" in result.stdout and "batch" in result.stdout


def test_corpus_self_pairs_batch(engine, tmp_path):
    objs = []
    for sc in load_scenarios():
        for sol in sc.solutions:
            objs.append({"id": sol.id, "vocabulary": sc.vocabulary.to_json(),
                         "gamma": [to_str(ax) for ax in sc.theory.axioms],
                         "psi": sol.text, "phi": sol.text})
    path = tmp_path / "corpus.jsonl"
    write_dataset(path, objs)
    records, errors = load_dataset(str(path))
    assert not errors
    assert len(records) == 62
    report = run_batch(records, engine, both_methods=False)
    assert report.to_json()["total"]["equivalent"] == 62


class _WitnessBackend:
    """Answers the pair query with a fixed model, like a prover would."""

    name = "prover"

    def __init__(self, witness):
        self.witness = witness
        self.calls = 0

    def check_sat(self, query, timeout_ms=None, want_model=True):
        from foleq.prover import SatResult
        self.calls += 1
        if query.origin == "definability":
            return SatResult("unknown", reason="timeout")
        return SatResult("sat", model=self.witness)


def test_dropped_binder_makes_variable_free():
    # the smallest structure separating the pair has three elements: one
    # all-together team whose leader constant lands on the one mathematician
    from foleq.models import Structure, satisfies_all
    sc = next(c for c in load_scenarios() if c.id == "E-10")
    solution = next(s for s in sc.solutions if s.id == "E-10-3")
    broken = "forall x exists y (~(y = z) & G(x,y) & G(x,z) & I(y) & I(z))"

    full = frozenset((a, b) for a in range(3) for b in range(3))
    witness = Structure(
        size=3,
        relations={"I": frozenset({(0,), (1,)}), "M": frozenset({(2,)}), "G": full},
        functions={"f": {(0,): 0, (1,): 0, (2,): 0}},
        constants={"c_z": 2})
    assert satisfies_all(witness, sc.theory.axioms)

    rec = PairRecord.from_json({
        "id": "drop-z", "vocabulary": sc.vocabulary.to_json(),
        "gamma": [to_str(ax) for ax in sc.theory.axioms],
        "psi": solution.text, "phi": broken})
    engine = Engine.make(seed=5)
    engine.backend = _WitnessBackend(witness)
    out = run_pair(rec, engine)
    assert out["verdict"]["status"] == "non-equivalent"
    assert out["counterexample"]["direction"] == "too-restrictive"
    assert "Q-3" in out["strategies"]
