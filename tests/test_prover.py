import itertools
import json
import random
import stat
import sys
import threading
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from foleq import prover
from foleq.corpus import all_solutions, load_scenarios, scenario
from foleq.definability import (
    NECESSARY, NecessityCache, NecessityReport, encode_padoa, star_transform,
)
from foleq.explain import StrategyContext
from foleq.models import (
    brute_force_verdict, close_formulas, count_structures, enumerate_structures,
    random_models, random_structure, satisfies_all,
)
from foleq.mutate import mutate, mutate_all
from foleq.parser import parse
from foleq.prover import (
    BoundedSearchBackend, DecisionCache,
    ExternalProverBackend, ProverConfig, ProverError, SatQuery,
    decide_equivalence, encode_equivalence, mangle_table, parse_finite_model,
    TheoryDraws, TheoryModels, Verdict, parse_szs_status, to_tptp,
)
from foleq.syntax import Forall, Not, Vocabulary, VocabularyError, free_variables, to_str
from foleq.theory import Theory

from conftest import FormulaSampler
from test_acceptance import ORACLE_BUDGET, _perfbench_check

VP = Vocabulary(relations={"P": 1})
FAKE = """#!/usr/bin/env python3
import json, sys, time
behaviors = json.loads({behaviors!r})
args = sys.argv[1:]
mode = args[args.index("--mode") + 1] if "--mode" in args else "default"
fmb = "--saturation_algorithm" in args
sys.stdin.read()
behavior = behaviors.get(mode + "+fmb" if fmb else mode) or behaviors.get("default") or {{}}
if "log" in behavior:
    with open(behavior["log"], "a") as fh:
        fh.write(" ".join(args) + "\\n")
time.sleep(behavior.get("sleep", 0))
sys.stdout.write(behavior.get("stdout", ""))
"""

MODEL_BLOCK = """% SZS status Satisfiable
% SZS output start FiniteModel for stdin
tff(declare_$i1,type,fmb_$i_1:$i).
tff(declare_$i2,type,fmb_$i_2:$i).
tff(p_definition,axiom, p(fmb_$i_1) & ~p(fmb_$i_2)).
% SZS output end FiniteModel
"""


def make_prover(tmp_path, behaviors: dict) -> str:
    path = tmp_path / "fakeprover"
    path.write_text(FAKE.format(behaviors=json.dumps(behaviors)))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


# encoding


def test_encode_equivalence_axioms():
    th = Theory(VP)
    psi = parse("forall x P(x)", VP)
    q = encode_equivalence(psi, psi, th)
    assert len(q.axioms) == 1
    assert q.origin == "equivalence"


def test_encode_rejects_foreign_vocabulary():
    other = Vocabulary(relations={"W": 1})
    with pytest.raises(VocabularyError):
        encode_equivalence(parse("forall x W(x)", other),
                           parse("forall x W(x)", other), Theory(VP))


def test_tptp_single_axiom():
    q = SatQuery(axioms=(parse("forall x P(x)", VP),), vocabulary=VP)
    assert to_tptp(q) == "fof(ax0, axiom, ! [X0] : p(X0)).\n"


def test_tptp_negated_biconditional():
    th = Theory(VP)
    q = encode_equivalence(parse("forall x P(x)", VP), parse("exists x P(x)", VP), th)
    line = to_tptp(q).strip()
    assert line == "fof(ax0, axiom, ~((! [X0] : p(X0)) <=> (? [X1] : p(X1))))."


def test_tptp_equality():
    v = Vocabulary(relations={})
    f = parse("forall x forall y (x = y)", v)
    q = SatQuery(axioms=(f,), vocabulary=v)
    assert "X0 = X1" in to_tptp(q)


def test_mangling_deterministic_and_injective():
    v = Vocabulary(relations={"Pred": 1, "pred": 1, "P_2": 2}, constants={"c"})
    table = mangle_table(v)
    assert table == mangle_table(v)
    assert len(set(table.values())) == len(table)
    for mangled in table.values():
        assert mangled[0].islower()


def test_szs_parsing():
    assert parse_szs_status("% SZS status Unsatisfiable for x") == "Unsatisfiable"
    assert parse_szs_status("% SZS status Satisfiable") == "Satisfiable"
    assert parse_szs_status("nothing here") is None


def test_parse_finite_model():
    s = parse_finite_model(MODEL_BLOCK, VP)
    assert s.size == 2
    assert s.relations["P"] == {(0,)}


def test_parse_finite_model_requires_total_functions():
    v = Vocabulary(functions={"f": 1})
    bad = MODEL_BLOCK.replace("p(fmb_$i_1) & ~p(fmb_$i_2)", "f(fmb_$i_1) = fmb_$i_2")
    with pytest.raises(ProverError, match="not total"):
        parse_finite_model(bad, v)


def test_parse_finite_model_rejects_unknown_format():
    with pytest.raises(ProverError, match="no finite model block"):
        parse_finite_model("% SZS status Satisfiable", VP)
    junk = MODEL_BLOCK.replace("p(fmb_$i_1)", "p(weird_element)")
    with pytest.raises(ProverError):
        parse_finite_model(junk, VP)


# external backend


def query_for(psi_text, phi_text):
    th = Theory(VP)
    return encode_equivalence(parse(psi_text, VP), parse(phi_text, VP), th)


def test_race_first_decisive_wins(tmp_path):
    exe = make_prover(tmp_path, {
        "vampire": {"sleep": 5, "stdout": "% SZS status Satisfiable\n"},
        "casc": {"stdout": "% SZS status Unsatisfiable\n"},
        "casc_sat": {"sleep": 5, "stdout": "% SZS status Satisfiable\n"},
    })
    backend = ExternalProverBackend(ProverConfig(executable=exe, timeout_ms=8000))
    start = time.monotonic()
    result = backend.check_sat(query_for("forall x P(x)", "forall x P(x)"))
    assert result.status == "unsat"
    assert time.monotonic() - start < 4


def test_race_timeout(tmp_path):
    exe = make_prover(tmp_path, {"default": {"sleep": 30, "stdout": ""}})
    backend = ExternalProverBackend(
        ProverConfig(executable=exe, modes=("vampire",), timeout_ms=1))
    result = backend.check_sat(query_for("forall x P(x)", "forall x P(x)"),
                               timeout_ms=1)
    assert result.status == "unknown"
    assert result.reason == "timeout"


def test_race_debug_agreement(tmp_path):
    exe = make_prover(tmp_path, {
        "vampire": {"stdout": "% SZS status Unsatisfiable\n"},
        "casc": {"stdout": "% SZS status Unsatisfiable\n"},
    })
    backend = ExternalProverBackend(
        ProverConfig(executable=exe, modes=("vampire", "casc")), debug_agreement=True)
    assert backend.check_sat(query_for("forall x P(x)", "forall x P(x)")).status == "unsat"


def test_race_disagreement_raises(tmp_path):
    exe = make_prover(tmp_path, {
        "vampire": {"stdout": "% SZS status Unsatisfiable\n"},
        "casc": {"stdout": "% SZS status Satisfiable\n"},
    })
    backend = ExternalProverBackend(
        ProverConfig(executable=exe, modes=("vampire", "casc")), debug_agreement=True)
    with pytest.raises(ProverError, match="disagree"):
        backend.check_sat(query_for("forall x P(x)", "exists x P(x)"))


def test_model_extraction_and_revalidation(tmp_path):
    exe = make_prover(tmp_path, {
        "vampire": {"stdout": "% SZS status Satisfiable\n"},
        "vampire+fmb": {"stdout": MODEL_BLOCK},
    })
    backend = ExternalProverBackend(
        ProverConfig(executable=exe, modes=("vampire",)))
    th = Theory(VP)
    verdict = decide_equivalence(parse("forall x P(x)", VP),
                                 parse("exists x P(x)", VP), th, backend)
    assert verdict.status == "non-equivalent"
    assert verdict.counter is not None
    assert verdict.counter.relations["P"] == {(0,)}
    assert verdict.direction == "too-permissive"


def test_invalid_model_is_dropped_but_verdict_stands(tmp_path):
    # the emitted model makes P full, which does not separate the pair
    block = MODEL_BLOCK.replace("p(fmb_$i_1) & ~p(fmb_$i_2)",
                                "p(fmb_$i_1) & p(fmb_$i_2)")
    exe = make_prover(tmp_path, {
        "vampire": {"stdout": "% SZS status Satisfiable\n"},
        "vampire+fmb": {"stdout": block},
    })
    backend = ExternalProverBackend(ProverConfig(executable=exe, modes=("vampire",)))
    verdict = decide_equivalence(parse("forall x P(x)", VP),
                                 parse("exists x P(x)", VP), Theory(VP), backend)
    assert verdict.status == "non-equivalent"
    assert verdict.counter is None


def test_only_top_level_decisions_ask_for_a_model(tmp_path):
    # a strategy confirmation reads only the status, so a rejected
    # candidate must not start a finite-model-builder run
    log = tmp_path / "fmb.log"
    exe = make_prover(tmp_path, {
        "vampire": {"stdout": "% SZS status Satisfiable\n"},
        "vampire+fmb": {"stdout": MODEL_BLOCK, "log": str(log)},
    })
    backend = ExternalProverBackend(ProverConfig(executable=exe, modes=("vampire",)))
    forall, exists = parse("forall x P(x)", VP), parse("exists x P(x)", VP)
    ctx = StrategyContext(solution=forall, attempt=exists, theory=Theory(VP),
                          backend=backend)
    assert not ctx.confirm(parse("exists y P(y)", VP))
    assert backend.calls == 1 and not log.exists()
    verdict = decide_equivalence(forall, exists, Theory(VP), backend)
    assert verdict.counter is not None
    assert len(log.read_text().splitlines()) == 1


def test_unparsable_output_is_unknown(tmp_path):
    exe = make_prover(tmp_path, {"default": {"stdout": "segfault\n"}})
    backend = ExternalProverBackend(ProverConfig(executable=exe, modes=("vampire",)))
    result = backend.check_sat(query_for("forall x P(x)", "forall x P(x)"))
    assert result.status == "unknown"
    assert result.reason == "prover-error"


# bounded backend


def test_bounded_backend_sat_model():
    backend = BoundedSearchBackend()
    result = backend.check_sat(query_for("forall x P(x)", "exists x P(x)"))
    assert result.status == "sat"
    assert result.model is not None


def test_bounded_backend_unsat_with_bound():
    backend = BoundedSearchBackend()
    result = backend.check_sat(query_for("forall x P(x)", "forall x P(x)"))
    assert result.status == "unsat"
    assert result.bound >= 3


def test_bounded_backend_respects_budget(monkeypatch):
    monkeypatch.setattr(prover, "EXHAUSTIVE_BUDGET", 1)
    monkeypatch.setattr(prover, "SAMPLE_SIZES", (2,))
    monkeypatch.setattr(prover, "SAMPLES_PER_SIZE", 5)
    backend = BoundedSearchBackend()
    result = backend.check_sat(query_for("forall x P(x)", "forall x P(x)"))
    assert result.status == "unknown"
    assert result.reason == "resource"


def _with_constants(theory, k):
    """The theory's vocabulary plus k constants whose names sort between
    and before the theory's own, as closure constants such as c_x do."""
    first = min(theory.vocabulary.constants, default="c")
    return theory.vocabulary.extend(constants=[f"{first}_x", "A_y"][:k])


def _doubled_theories():
    """The theories of three Padoa queries: a constant of E-1, E of
    axiom-free E-6, and the star theory's congruence symbol for =."""
    e1, e6 = scenario("E-1"), scenario("E-6")
    sol = e1.solutions[1].formula
    star = star_transform(sol, e1.theory)
    return [encode_padoa(sol, e1.theory, {"c"}).theory,
            encode_padoa(e6.solutions[0].formula, e6.theory, {"E"}).theory,
            encode_padoa(star.formula, star.theory, {star.equality_symbol}).theory]


def test_theory_tables_keep_enumeration_order():
    # seven constants: 128 constant tuples at size 2, a mask wider than 64 bits
    many = Vocabulary(relations={"P": 1}, constants=set("abdefgh"))
    theories = [sc.theory for sc in load_scenarios()] + _doubled_theories()
    theories.append(Theory(many, (parse("P(a) & ~P(h) & (d = e)", many),)))
    theories.append(Theory(many))   # no axioms: every constant tuple is a model
    checked = 0
    for theory in theories:
        for size in (1, 2):
            for k in (0, 1, 2):
                vocab = _with_constants(theory, k)
                if count_structures(vocab, size) > ORACLE_BUDGET:
                    continue
                expected = [s for s in enumerate_structures(vocab, size)
                            if satisfies_all(s, theory.axioms)]
                query = SatQuery(axioms=theory.axioms, vocabulary=vocab, theory=theory)
                assert list(TheoryModels(theory, size).models(query)) == expected, \
                    (sorted(vocab.constants), size)
                checked += 1
    assert checked >= 80


def test_theory_table_resumes_after_an_early_stop(monkeypatch):
    # no random phase: the exhaustive sizes alone decide these queries
    monkeypatch.setattr(prover, "SAMPLE_SIZES", (1, 2))
    sc = next(sc for sc in load_scenarios() if sc.id == "E-1")
    sol = next(sol for sol in sc.solutions if sol.id == "E-1-2").formula
    sat = encode_equivalence(sol, mutate(sol, "negation-toggle"), sc.theory)
    unsat = encode_equivalence(sol, Not(Not(sol)), sc.theory)
    shared = BoundedSearchBackend()
    first = shared.check_sat(sat)
    table = shared._tables[next(key for key in shared._tables if key[-1] == 2)]
    models_after_sat = len(table._entries)
    second = shared.check_sat(unsat)
    assert first.status == "sat" and second.status == "unsat"
    assert models_after_sat < len(table._entries)
    assert first == BoundedSearchBackend().check_sat(sat)
    assert second == BoundedSearchBackend().check_sat(unsat)


def test_query_theory_must_extend_by_constants_only():
    th = Theory(VP, (parse("exists x P(x)", VP),))
    with pytest.raises(ValueError):
        SatQuery(axioms=(), vocabulary=VP, theory=th)
    with pytest.raises(ValueError):
        SatQuery(axioms=th.axioms, vocabulary=VP.extend(relations={"Q": 1}), theory=th)
    assert SatQuery(axioms=th.axioms, vocabulary=VP.extend(constants=["c"]),
                    theory=th).theory is th


# random phase: the shared lists of theory models among the draws


def _sampled_query(theory, n, k):
    """A query whose last axiom is a sampled formula over the theory, with
    up to k free variables closed by constants and the others quantified."""
    f = FormulaSampler(n, theory.vocabulary).formula(depth=2)
    for v in free_variables(f)[k:]:
        f = Forall(v, f)
    (closed,), vocab = close_formulas([f], theory.vocabulary)
    return SatQuery(axioms=theory.axioms + (closed,), vocabulary=vocab, theory=theory)


def test_shared_draws_match_a_plain_filter():
    # the sampler draws atoms of relations, which E-9 lacks
    theories = [th for th in [sc.theory for sc in load_scenarios()] + _doubled_theories()
                if th.vocabulary.relations]
    assert any(not th.axioms for th in theories)
    seen = {"models": 0, "constants": 0}

    @settings(max_examples=60, deadline=None, database=None)
    @seed(5)
    @given(st.sampled_from(theories), st.integers(0, 2), st.integers(1, 4),
           st.sampled_from(prover.TUPLE_PROBABILITIES), st.integers(1, 200),
           st.integers(0, 999))
    def walks_agree(theory, k, size, p, draws, n):
        one = _sampled_query(theory, n, k)
        two = SatQuery(axioms=theory.axioms + (Not(one.axioms[-1]),),
                       vocabulary=one.vocabulary, theory=theory)

        def plain(query):
            rng = random.Random(f"5:backend:{size}:{p}")
            return list(random_models(query.vocabulary, query.axioms, size, p, rng, draws))

        expected = [plain(one), plain(two)]
        seen["models"] += len(expected[0]) + len(expected[1])
        seen["constants"] += len(one.vocabulary.constants) > len(theory.vocabulary.constants)

        # the two queries walk one list, step by step in turn
        backend = BoundedSearchBackend(seed=5)
        walks = [backend._drawn(q, size, p, draws) for q in (one, two)]
        got = [[], []]
        for pair in itertools.zip_longest(*walks):
            for models, s in zip(got, pair):
                if s is not None:
                    models.append(s)
        assert got == expected and len(backend._draws) == 1
        assert list(backend._drawn(one, size, p, draws)) == expected[0]

        # and from more threads than cores at once, each query twice
        backend = BoundedSearchBackend(seed=5)
        got = [[], [], [], []]
        threads = [threading.Thread(target=models.extend,
                                    args=(backend._drawn(q, size, p, draws),))
                   for models, q in zip(got, (one, two, one, two))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected * 2

    walks_agree()
    assert seen["models"] and seen["constants"]


@settings(max_examples=100, deadline=None, database=None)
@seed(5)
@given(st.dictionaries(st.sampled_from("ABPQRT"), st.integers(0, 3), max_size=4),
       st.dictionaries(st.sampled_from("fgh"), st.integers(1, 2), max_size=2),
       st.sets(st.sampled_from("abc"), max_size=3), st.integers(1, 4),
       st.sampled_from(prover.TUPLE_PROBABILITIES), st.integers(0, 999))
def test_packed_draws_round_trip(relations, functions, constants, size, p, n):
    vocab = Vocabulary(relations=relations, functions=functions, constants=constants)
    draws = TheoryDraws(Theory(vocab), vocab, size, p, random.Random(n), 1)
    s = random_structure(vocab, size, p, random.Random(n))
    assert draws.unpack(draws.pack(s)) == s


# the pairs whose non-equivalence only the random phase finds (the
# exhaustive sizes alone leave each "equivalent"), with the size of the
# model it finds at seed 23
RANDOM_PHASE_PAIRS = {
    "E-4-3": {"quantifier-flip/1": 3, "implication-swap/0": 3,
              "argument-permutation/1": 3},
    "E-4-4": {"quantifier-flip/1": 3, "guard-drop/0": 3, "guard-drop/1": 3,
              "negation-toggle/2": 3, "negation-toggle/3": 3,
              "argument-permutation/1": 3, "argument-permutation/2": 3},
    "E-5-1": {"negation-toggle/0": 2},
    "E-5-2": {"guard-drop/1": 2, "guard-operator-flip/0": 2, "negation-toggle/0": 2},
    "E-5-3": {"guard-drop/0": 2, "guard-operator-flip/0": 2, "implication-swap/0": 3,
              "negation-toggle/0": 2},
    "E-5-4": {"guard-drop/0": 2, "guard-operator-flip/0": 2, "negation-toggle/0": 2},
    "E-5-5": {"quantifier-flip/0": 2, "guard-operator-flip/0": 3,
              "negation-toggle/0": 2, "negation-toggle/2": 2},
    "E-6-4": {"quantifier-flip/0": 4},
    "E-14-1": {"guard-drop/0": 3},
}


def test_random_phase_regression_set():
    check = _perfbench_check()
    backend = BoundedSearchBackend(seed=23)
    sizes = {}
    for sc, sol in all_solutions():
        for name, size in RANDOM_PHASE_PAIRS.get(sol.id, {}).items():
            family, index = name.split("/")
            attempt = mutate_all(sol.formula, family)[int(index)]
            verdict = decide_equivalence(sol.formula, attempt, sc.theory, backend)
            assert (verdict.status, verdict.method) == ("non-equivalent", "bounded"), name
            theirs = check.Pair(sc.vocabulary.to_json(),
                                [to_str(ax) for ax in sc.theory.axioms],
                                to_str(sol.formula), to_str(attempt))
            theirs.check_countermodel(verdict.counter.to_json(), verdict.direction)
            sizes[f"{sol.id}/{name}"] = verdict.counter.size
    assert sizes == {f"{sid}/{name}": size for sid, pairs in RANDOM_PHASE_PAIRS.items()
                     for name, size in pairs.items()}


# cache


def test_cache_symmetric_and_alpha_invariant(cache, backend):
    th = Theory(VP)
    psi = parse("forall x P(x)", VP)
    phi = parse("exists y P(y)", VP)
    decide_equivalence(psi, phi, th, backend, cache)
    calls = backend.calls
    v1 = decide_equivalence(phi, psi, th, backend, cache)
    v2 = decide_equivalence(parse("forall z P(z)", VP), phi, th, backend, cache)
    assert backend.calls == calls
    assert v1.method == v2.method == "cache"


def test_cache_never_stores_unknown(tmp_path):
    exe = make_prover(tmp_path, {"default": {"stdout": "garbage"}})
    backend = ExternalProverBackend(ProverConfig(executable=exe, modes=("vampire",)))
    cache = DecisionCache()
    th = Theory(VP)
    v = decide_equivalence(parse("forall x P(x)", VP), parse("exists x P(x)", VP),
                           th, backend, cache)
    assert v.status == "unknown"
    assert len(cache) == 0


def test_cache_persistence(tmp_path, backend):
    path = str(tmp_path / "cache.jsonl")
    cache = DecisionCache(path)
    th = Theory(VP)
    decide_equivalence(parse("forall x P(x)", VP), parse("exists x P(x)", VP),
                       th, cache=cache, backend=backend)
    reloaded = DecisionCache(path)
    assert len(reloaded) == 1
    fresh = BoundedSearchBackend()
    v = decide_equivalence(parse("exists x P(x)", VP), parse("forall x P(x)", VP),
                           th, fresh, reloaded)
    assert v.method == "cache"
    assert fresh.calls == 0


@pytest.mark.parametrize("cls, value", [
    (DecisionCache, Verdict(status="equivalent", method="bounded<=2")),
    (NecessityCache, NecessityReport({"P": NECESSARY}, {"P": "q1"})),
], ids=["decision", "necessity"])
def test_cache_file_with_a_torn_last_line(tmp_path, cls, value):
    # a process killed during a put leaves its line without an end
    path = tmp_path / "cache.jsonl"
    cls(str(path)).put("first", value)
    line = path.read_text()
    path.write_text(line + line[:len(line) // 2])
    torn = cls(str(path))
    assert len(torn) == 1 and torn.get("first") == value
    torn.put("second", value)
    reloaded = cls(str(path))
    assert len(reloaded) == 2 and reloaded.get("second") == value
    lines = path.read_text().splitlines()
    assert lines[:2] == [line[:-1], line[:len(line) // 2]]
    assert len(lines) == 3 and json.loads(lines[2])["key"] == "second"


def test_cache_serves_no_direction(tmp_path, backend):
    # the key sorts the pair, so a stored direction may be the wrong way round;
    # a hit recomputes it from the stored model for the pair as asked
    th = Theory(VP)
    forall, exists = parse("forall x P(x)", VP), parse("exists x P(x)", VP)
    assert decide_equivalence(exists, forall, th, backend).direction == "too-restrictive"
    path = tmp_path / "cache.jsonl"
    old_line = {"key": DecisionCache.key(forall, exists, th), "status": "non-equivalent",
                "direction": "too-permissive", "method": "bounded", "timestamp": 0}
    path.write_text(json.dumps(old_line) + "\n")
    old = DecisionCache(str(path))
    assert len(old) == 1
    calls = backend.calls
    cold = decide_equivalence(forall, exists, th, backend, old)
    assert cold.direction == "too-permissive" and backend.calls == calls + 1
    hit = decide_equivalence(exists, forall, th, backend, DecisionCache(str(path)))
    assert hit.method == "cache" and hit.direction == "too-restrictive"
    assert hit.counter == cold.counter
    assert backend.calls == calls + 1


def test_cache_file_keeps_counter_models(tmp_path):
    # E-12 has a function and a constant, so the stored model has every kind
    # of table; a fresh cache on the same file serves it without a backend
    sc = scenario("E-12")
    psi = parse("exists x (R(x) & (f(x) = v) & exists y E(x,y))", sc.vocabulary)
    phi = parse("exists x (R(x) & (f(x) = v))", sc.vocabulary)
    path = tmp_path / "cache.jsonl"
    first = decide_equivalence(psi, phi, sc.theory, BoundedSearchBackend(seed=3),
                               DecisionCache(str(path)))
    assert first.status == "non-equivalent"
    assert first.counter.functions and first.counter.constants
    assert json.loads(path.read_text())["counter"] == first.counter.to_json()
    fresh = BoundedSearchBackend(seed=3)
    hit = decide_equivalence(psi, phi, sc.theory, fresh, DecisionCache(str(path)))
    assert fresh.calls == 0 and hit.method == "cache"
    assert (hit.counter, hit.direction) == (first.counter, first.direction)


def test_cached_model_of_another_vocabulary_is_dropped(backend, cache):
    # the key ignores the vocabulary, so a record with one more relation hits
    # the entry of a record without it, whose model does not interpret it
    wide = Vocabulary(relations={"P": 1, "Q": 2})
    first = decide_equivalence(parse("forall x P(x)", VP), parse("exists x P(x)", VP),
                               Theory(VP), backend, cache)
    hit = decide_equivalence(parse("forall x P(x)", wide), parse("exists x P(x)", wide),
                             Theory(wide), backend, cache)
    assert first.counter is not None
    assert hit.method == "cache" and hit.status == "non-equivalent"
    assert hit.counter is None and hit.direction is None


def test_alpha_variant_pairs_decided_syntactically(backend):
    th = Theory(VP)
    verdict = decide_equivalence(parse("forall x P(x)", VP),
                                 parse("forall y P(y)", VP), th, backend)
    assert verdict.status == "equivalent"
    assert verdict.method == "syntactic"
    assert backend.calls == 0


def millisoft():
    from foleq.corpus import scenario
    return scenario("E-10")


def test_equivalence_modulo_bundled_theory(backend, cache):
    sc = millisoft()
    psi = parse("exists x M(x)", sc.vocabulary)
    phi = parse("exists x ~I(x)", sc.vocabulary)
    verdict = decide_equivalence(psi, phi, sc.theory, backend, cache)
    assert verdict.status == "equivalent"
    plain = decide_equivalence(psi, phi, Theory(sc.vocabulary), backend, cache)
    assert plain.status == "non-equivalent"


def test_alpha_renamed_solution_equivalent_modulo_theory(backend, cache):
    sc = millisoft()
    psi = parse("forall x (M(f(x)) -> (~(x = f(x)) -> ~M(x)))", sc.vocabulary)
    phi = parse("forall u (M(f(u)) -> (~(u = f(u)) -> ~M(u)))", sc.vocabulary)
    verdict = decide_equivalence(psi, phi, sc.theory, backend, cache)
    assert verdict.status == "equivalent"


# soundness against the brute-force oracle


def test_decide_never_contradicts_brute_force(backend, cache):
    sampler = FormulaSampler(seed=11)
    th = Theory(sampler.vocab)
    checked = 0
    for _ in range(40):
        f, g = sampler.formula(depth=2), sampler.formula(depth=2)
        oracle = brute_force_verdict(f, g, th, 2)
        verdict = decide_equivalence(f, g, th, backend, cache)
        if oracle.non_equivalent:
            checked += 1
            assert verdict.status != "equivalent"
    assert checked > 5
