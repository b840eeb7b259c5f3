import gc
import hashlib
import itertools
import json
import random
import stat
import sys
import threading
import time
import weakref
from array import array

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from foleq import countermodel, models, prover
from foleq.corpus import all_solutions, load_scenarios, scenario
from foleq.definability import (
    NECESSARY, NecessityCache, NecessityReport, encode_padoa, star_transform,
)
from foleq.explain import StrategyContext
from foleq.models import (
    SharedList, SharedLists, Structure, brute_force_verdict, close_formulas, count_structures,
    draw_layout, enumerate_structures, models_among, random_models, satisfies_all,
    vocabulary_key,
)
from foleq.mutate import MUTATIONS, mutate, mutate_all
from foleq.parser import parse
from foleq.prover import (
    BoundedSearchBackend, DecisionCache,
    ExternalProverBackend, ProverConfig, ProverError, SatQuery,
    decide_equivalence, encode_equivalence, mangle_table, parse_finite_model,
    TheoryModels, Verdict, parse_szs_status, to_tptp,
)
from foleq.syntax import Forall, Not, Vocabulary, VocabularyError, free_variables, to_str
from foleq.theory import Theory

from conftest import FormulaSampler
from test_acceptance import ORACLE_BUDGET, _perfbench_check
from test_models import MALFORMED_COUNTERS

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


def _nested(f, depth):
    """f under `depth` double negations: past what Python compiles."""
    for _ in range(depth):
        f = Not(Not(f))
    return f


def _level_theories():
    """Theories whose axioms are tested at every level of a table fill:
    after each relation (arities 0-2), after the function, and per
    constant tuple (an axiom with a constant, or with no symbol)."""
    vocab = Vocabulary(relations={"A": 0, "P": 1, "R": 2}, functions={"f": 1},
                       constants={"c"})
    theories = []
    for n in range(4):
        sampler = FormulaSampler(100 + n, vocab)
        theories.append(Theory(vocab, tuple(sampler.closed_formula(depth=2)
                                            for _ in range(2))))
    fixed = [parse(text, vocab) for text in (
        "forall x forall y x = y",              # reads no symbol
        "forall x f(f(x)) = x",                 # reads the last table only
        "forall x (R(x, f(x)) -> P(x))",
        "P(c) | A")]
    theories += [Theory(vocab, (ax,)) for ax in fixed] + [Theory(vocab, tuple(fixed[1:]))]
    constants = Vocabulary(constants={"a", "b"})
    theories += [Theory(constants, (parse(text, constants),))
                 for text in ("~(a = b)", "forall x forall y x = y")]
    return theories


def test_theory_tables_keep_enumeration_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was filled with eval_formula")

    # seven constants: 128 constant tuples at size 2, a mask wider than 64 bits
    many = Vocabulary(relations={"P": 1}, constants=set("abdefgh"))
    theories = [sc.theory for sc in load_scenarios()] + _doubled_theories()
    theories += _level_theories()
    theories.append(Theory(many, (parse("P(a) & ~P(h) & (d = e)", many),)))
    theories.append(Theory(many))   # no axioms: every constant tuple is a model
    checked = compiled = 0
    for n, theory in enumerate(theories):
        for size in (1, 2):
            for k in (0, 1, 2):
                vocab = _with_constants(theory, k)
                if count_structures(vocab, size) > ORACLE_BUDGET:
                    continue
                expected = [s for s in enumerate_structures(vocab, size)
                            if satisfies_all(s, theory.axioms)]
                # the theory's axioms are tested compiled, on the flat choices
                with monkeypatch.context() as patched:
                    patched.setattr(models, "eval_formula", refuse)
                    table = TheoryModels(theory, size)
                    list(table._found)
                # the query's own axioms: none, a sampled one, and the same
                # nested past what Python compiles, tested on the structure
                own = FormulaSampler(6 * n + 3 * size + k, vocab).closed_formula(depth=2)
                for rest in ((), (own,), (_nested(own, 150),)):
                    query = SatQuery(axioms=theory.axioms + rest, vocabulary=vocab,
                                     theory=theory)
                    assert list(table.models(query)) == [
                        s for s in expected if satisfies_all(s, rest)], \
                        (sorted(vocab.constants), size, rest)
                checked += 1
                # a walk past this many candidates tests compiled closures
                compiled += len(expected) > models.EVALUATED_BEFORE_COMPILING
    assert checked >= 80 and compiled >= 20


def test_theory_table_fill_skips_failing_subtrees(monkeypatch):
    """E-14's axioms read its tables only, so each is tested once the
    tables it reads are chosen, and a failure skips every choice of the
    later tables: the flat scan of all 65,536 choices called the
    closures 260,120 times. The axioms of one level are one closure, so
    each choice at a level is one call (one closure per axiom made
    4,212)."""
    calls = []
    check = models.DrawLayout.check

    def counted(layout, axioms):
        fn = check(layout, axioms)
        return lambda draw: calls.append(1) or fn(draw)

    monkeypatch.setattr(models.DrawLayout, "check", counted)
    table = TheoryModels(scenario("E-14").theory, 2)
    assert len(list(table._found)) == 16
    assert len(calls) == 3_428


def test_query_closures_are_not_kept(monkeypatch):
    """Only theory axioms stay compiled in the shared layouts: a query's
    own closures, compiled once its walk is long, go with the walk."""
    models._layout.cache_clear()
    compiled = []
    compile_ = models.DrawLayout.compile
    monkeypatch.setattr(models.DrawLayout, "compile",
                        lambda layout, *axioms: compiled.extend(axioms) or compile_(layout, *axioms))
    sc = scenario("E-2")
    backend = BoundedSearchBackend(seed=23)
    vocabularies = {repr(sc.vocabulary.to_json()): sc.vocabulary}
    for sol in sc.solutions:
        for family in MUTATIONS:
            for mutant in mutate_all(sol.formula, family):
                decide_equivalence(sol.formula, mutant, sc.theory, backend)
                vocab = encode_equivalence(sol.formula, mutant, sc.theory).vocabulary
                vocabularies[repr(vocab.to_json())] = vocab
    own = [f for f in compiled if f not in sc.theory.axioms]
    assert len(own) >= 10, len(own)
    for vocab in vocabularies.values():
        for size in prover.SAMPLE_SIZES:
            for axioms in draw_layout(vocab, size)._checks:
                assert set(axioms) <= set(sc.theory.axioms), axioms


def test_theory_table_resumes_after_an_early_stop(monkeypatch):
    # no random phase: the exhaustive sizes alone decide these queries
    monkeypatch.setattr(prover, "SAMPLE_SIZES", (1, 2))
    sc = next(sc for sc in load_scenarios() if sc.id == "E-1")
    sol = next(sol for sol in sc.solutions if sol.id == "E-1-2").formula
    sat = encode_equivalence(sol, mutate(sol, "negation-toggle"), sc.theory)
    unsat = encode_equivalence(sol, Not(Not(sol)), sc.theory)
    shared = BoundedSearchBackend()
    first = shared.check_sat(sat)
    tables = shared.store._values
    table = tables[next(key for key in tables if key[-1] == 2)]
    models_after_sat = len(table._found._entries)
    second = shared.check_sat(unsat)
    assert first.status == "sat" and second.status == "unsat"
    assert models_after_sat < len(table._found._entries)
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


@pytest.mark.parametrize("entries", [[], array("Q")])
def test_shared_list_reads_its_source_as_far_as_the_furthest_walk(entries):
    read = []

    def source():
        for n in range(5):
            read.append(n)
            yield n * n

    shared = SharedList(source(), entries)
    one, two = iter(shared), iter(shared)
    # two interleaved walks see the same sequence
    assert [next(one), next(two), next(one), next(one), next(two)] == [0, 0, 1, 4, 1]
    assert read == [0, 1, 2]
    # a walk that stops early reads no further than the furthest walk
    assert next(iter(shared)) == 0 and read == [0, 1, 2]
    assert list(itertools.islice(shared, 4)) == [0, 1, 4, 9] and read == [0, 1, 2, 3]
    # once the source is spent, every walk ends at the same length
    assert list(two) == [4, 9, 16] and read == [0, 1, 2, 3, 4]
    assert list(one) == [9, 16]
    assert list(shared) == list(shared) == [0, 1, 4, 9, 16]
    assert read == [0, 1, 2, 3, 4] and list(entries) == [0, 1, 4, 9, 16]


def test_shared_lists_drop_their_oldest_lists_past_the_cap(monkeypatch):
    # the cap counts bytes: a table entry weighs 8, a draw its length
    monkeypatch.setattr(models, "MAX_STORED_BYTES", 40)
    store, made = SharedLists(), []

    def make(name, n, entry_bytes):
        made.append(name)
        return SharedList(iter(range(n)), [], entry_bytes)

    def walked(name, n, entry_bytes=8):
        shared = store.get((name,), lambda: make(name, n, entry_bytes))
        return list(shared)

    assert walked("a", 3) == walked("a", 3) == [0, 1, 2] and made == ["a"]
    assert walked("b", 4) == [0, 1, 2, 3]       # 24 bytes kept: nothing dropped
    assert walked("c", 2) == [0, 1]             # 56 kept: "a" dropped first
    assert list(store._values) == [("b",), ("c",)]
    assert walked("a", 3) == [0, 1, 2]          # 48 kept: "b" dropped, "a" made again
    assert list(store._values) == [("c",), ("a",)] and made == ["a", "b", "c", "a"]
    # two entries of 20 bytes weigh as much as five table entries
    assert walked("d", 2, entry_bytes=20) == [0, 1]     # 40 kept: nothing dropped
    assert [v.nbytes for v in store._values.values()] == [16, 24, 40]
    assert walked("e", 1) == [0]                # 80 kept: "c" and "a" dropped
    assert list(store._values) == [("d",), ("e",)]
    # a list that alone weighs more than the cap is dropped before the next
    assert walked("f", 3, entry_bytes=50) == [0, 1, 2]  # 48 kept: "d" dropped
    assert walked("g", 1) == [0]                # 158 kept: "e" and "f" dropped
    assert list(store._values) == [("g",)]
    # theories are numbered by value, in the order first asked for
    assert [store.number(th) for th in (Theory(VP), Theory(VP.extend(constants=["c"])),
                                        Theory(VP))] == [0, 1, 0]


def _sampled_query(theory, n, k):
    """A query whose last axiom is a sampled formula over the theory, with
    up to k free variables closed by constants and the others quantified."""
    f = FormulaSampler(n, theory.vocabulary).formula(depth=2)
    for v in free_variables(f)[k:]:
        f = Forall(v, f)
    (closed,), vocab = close_formulas([f], theory.vocabulary)
    return SatQuery(axioms=theory.axioms + (closed,), vocabulary=vocab, theory=theory)


def no_new_list():
    raise AssertionError("the store made a list that the backend should have made")


def test_shared_draws_match_a_plain_filter(monkeypatch):
    theories = [sc.theory for sc in load_scenarios()] + _doubled_theories()
    assert any(not th.axioms for th in theories)
    assert any(not th.vocabulary.relations for th in theories)     # E-9
    seen = {"models": 0, "constants": 0, "relation-free": 0}

    @settings(max_examples=60, deadline=None, database=None)
    @seed(5)
    @given(st.sampled_from(theories), st.integers(0, 2), st.integers(1, 4),
           st.integers(1, 200), st.integers(0, 999))
    @example(scenario("E-9").theory, 1, 2, 50, 1)     # relation-free, with models
    def walks_agree(theory, k, size, draws, n):
        one = _sampled_query(theory, n, k)
        two = SatQuery(axioms=theory.axioms + (Not(one.axioms[-1]),),
                       vocabulary=one.vocabulary, theory=theory)

        def plain(query):
            # each tuple probability's stream in turn, each filtered alone
            return [s for p in prover.TUPLE_PROBABILITIES
                    for s in random_models(query.vocabulary, query.axioms, size, p,
                                           random.Random(f"5:backend:{size}:{p}"), draws)]

        expected = [plain(one), plain(two)]
        seen["models"] += len(expected[0]) + len(expected[1])
        seen["constants"] += len(one.vocabulary.constants) > len(theory.vocabulary.constants)
        seen["relation-free"] += not theory.vocabulary.relations and bool(expected[0])

        def walk(backend, q):
            # the list the backend made for the query: no other is made
            store = backend.store
            key = (store.number(q.theory), vocabulary_key(q.vocabulary), size)
            return models_among(draw_layout(q.vocabulary, size), q.axioms[len(theory.axioms):],
                                store.get(key, no_new_list))

        def filled():
            # the backend samples the size alone, `draws` draws per stream
            backend = BoundedSearchBackend(seed=5)
            with monkeypatch.context() as patched:
                patched.setattr(prover, "MAX_SIZE", 0)
                patched.setattr(prover, "SAMPLE_SIZES", (size,))
                patched.setattr(prover, "LARGE_SAMPLES", draws * len(prover.TUPLE_PROBABILITIES))
                result = backend.check_sat(one)
            assert result.model == (expected[0] or [None])[0]
            return backend

        # the two queries walk one list, step by step in turn
        backend = filled()
        walks = [walk(backend, q) for q in (one, two)]
        got = [[], []]
        for pair in itertools.zip_longest(*walks):
            for models, s in zip(got, pair):
                if s is not None:
                    models.append(s)
        assert got == expected and len(backend.store._values) == 1
        assert list(walk(backend, one)) == expected[0]

        # and from more threads than cores at once, each query twice
        backend = filled()
        got = [[], [], [], []]
        threads = [threading.Thread(target=models.extend, args=(walk(backend, q),))
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
    assert seen["models"] and seen["constants"] and seen["relation-free"]


def test_one_flat_draw_in_tables_lists_and_store(monkeypatch):
    """A candidate structure is one `bytes`, the relation flags and then
    the function values and constants, wherever it is held: in draws, in
    theory tables, in the backend's random-phase lists and in the random
    search's store."""
    vocab = Vocabulary(relations={"P": 1, "R": 2}, functions={"f": 1}, constants={"a", "b"})
    theory = Theory(vocab, (parse("forall x (P(x) -> R(x, f(x)))", vocab),))
    # the free x closes into a third constant, which the tables interleave;
    # the pair is equivalent, so the walk passes every size
    query = encode_equivalence(parse("R(x, f(a))", vocab),
                               parse("R(x, f(a)) & (P(b) | ~P(b))", vocab), theory)
    layout = draw_layout(query.vocabulary, 3)
    assert (layout.bits, layout.values) == (3 + 9, 3 + 3)
    drawn = list(layout.draws(0.5, random.Random(1), 20))
    assert all(type(d) is bytes and len(d) == layout.bits + layout.values for d in drawn)

    walked = []
    among = prover.models_among

    def flat(layout, axioms, candidates):
        candidates = list(candidates)
        walked.append((layout.size, len(candidates)))
        assert all(type(c) is bytes and len(c) == layout.bits + layout.values
                   for c in candidates)
        return among(layout, axioms, candidates)

    monkeypatch.setattr(prover, "models_among", flat)
    assert BoundedSearchBackend(seed=3).check_sat(query).status == "unsat"
    # theory tables at sizes 1 and 2, random-phase lists at 3 to 6
    assert [size for size, _ in walked] == [1, 2, 3, 4, 5, 6] and all(n for _, n in walked)

    monkeypatch.setattr(countermodel, "DRAWS_PER_ELEMENT", 20)
    store = SharedLists()
    assert countermodel.search_countermodel(parse("R(x, f(a))", vocab),
                                            parse("R(x, f(a)) & (P(b) | ~P(b))", vocab),
                                            theory, 5, store) is None
    assert [key[-1] for key in store._values] == list(countermodel.SIZES)
    for (_, _, _, size), kept in store._values.items():
        fresh = draw_layout(query.vocabulary, size).draws(
            countermodel.TUPLE_PROBABILITY, random.Random(f"5:search:{size}"), 20 * size,
            theory.axioms)
        assert list(kept) == list(fresh) != []


def test_bounded_backend_is_freed_by_reference_counting():
    # a list whose source held the backend, or a table whose fill held the
    # table, would stay alive until the garbage collector runs
    sc, sol = next((sc, sol) for sc, sol in all_solutions() if sol.id == "E-5-1")
    found = mutate_all(sol.formula, "negation-toggle")[0]      # at size 2, by a draw
    gc.disable()
    try:
        backend = BoundedSearchBackend(seed=23)
        # the walk stops inside the size-2 list, whose source stays open
        result = backend.check_sat(encode_equivalence(sol.formula, found, sc.theory))
        assert result.status == "sat" and result.model.size == 2
        kept = backend.store._values.values()
        assert {type(value) for value in kept} == {TheoryModels, SharedList}
        values = [weakref.ref(value) for value in kept]
        freed, store = weakref.ref(backend), weakref.ref(backend.store)
        del backend, kept
        assert freed() is None and store() is None and all(ref() is None for ref in values)
    finally:
        gc.enable()


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


# sha256 over the decisions of every mutate_all mutant of every corpus
# solution, one JSON line each (verdict, direction, counter model), from
# one BoundedSearchBackend(seed=23) without a cache. A change that means
# to change answers updates it; any other change keeps it.
MUTATE_ALL_DECISIONS = (568, "49fbece800d4c942d8ac0633968de85786d1fb6fb14aa463d54d5b2c2b10b2ed")


def test_mutate_all_decisions_are_pinned():
    backend = BoundedSearchBackend(seed=23)
    digest, pairs = hashlib.sha256(), 0
    for sc, sol in all_solutions():
        for family in MUTATIONS:
            for mutant in mutate_all(sol.formula, family):
                verdict = decide_equivalence(sol.formula, mutant, sc.theory, backend)
                counter = verdict.counter.to_json() if verdict.counter else None
                digest.update(json.dumps({"verdict": verdict.to_json(), "counter": counter,
                                          "direction": verdict.direction},
                                         sort_keys=True).encode() + b"\n")
                pairs += 1
    assert (pairs, digest.hexdigest()) == MUTATE_ALL_DECISIONS


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


def test_only_a_top_level_cache_hit_revalidates_its_model(monkeypatch, cache, backend):
    th = Theory(VP)
    forall, exists = parse("forall x P(x)", VP), parse("exists x P(x)", VP)
    first = decide_equivalence(forall, exists, th, backend, cache)
    assert first.counter is not None and backend.calls == 1
    revalidated = []
    revalidate = prover.revalidate_counter
    monkeypatch.setattr(prover, "revalidate_counter",
                        lambda *args: revalidated.append(args) or revalidate(*args))
    # a confirmation reads the status only, so its hit revalidates nothing
    ctx = StrategyContext(solution=forall, attempt=parse("P(x)", VP), theory=th,
                          backend=backend, cache=cache)
    assert not ctx.confirm(parse("exists y P(y)", VP))
    candidate = decide_equivalence(forall, exists, th, backend, cache,
                                   origin="strategy-candidate")
    assert (candidate.status, candidate.method, candidate.counter) == (
        "non-equivalent", "cache", None)
    assert revalidated == [] and backend.calls == 1
    # a top-level hit revalidates the stored model against the pair as asked
    swapped = decide_equivalence(exists, forall, th, backend, cache)
    assert len(revalidated) == 1 and swapped.method == "cache"
    assert swapped.counter == first.counter and swapped.direction == "too-restrictive"
    # and drops a model on which the pair agrees
    agreeing = Structure(1, {"P": frozenset({(0,)})}, {}, {})
    cache.put(prover.backend_key(backend, DecisionCache.key(forall, exists, th)),
              Verdict(status="non-equivalent", counter=agreeing, method="bounded"))
    dropped = decide_equivalence(forall, exists, th, backend, cache)
    assert len(revalidated) == 2 and backend.calls == 1
    assert (dropped.status, dropped.counter, dropped.direction) == (
        "non-equivalent", None, None)


def test_decision_cache_keeps_solution_facts_by_value_up_to_its_bound(monkeypatch):
    cache = DecisionCache()
    normalized = []
    normalize = prover.alpha_normalize
    monkeypatch.setattr(prover, "alpha_normalize",
                        lambda f: normalized.append(f) or normalize(f))

    def computed(text: str) -> bool:
        # each call parses its own copy of the solution, equal by value only
        before = len(normalized)
        normal, key_text = cache.normal_form(parse(text, VP))
        assert key_text == to_str(normal) == to_str(normalize(parse(text, VP)))
        return len(normalized) > before

    assert computed("forall x P(x)")
    assert not computed("forall x P(x)")
    assert computed("forall y P(y)")        # other names: another solution
    monkeypatch.setattr(prover, "MAX_FACTS", 2)
    assert computed("exists x P(x)")        # drops the oldest, forall x P(x)
    assert not computed("forall y P(y)")
    assert computed("forall x P(x)")
    assert len(cache._facts) == 2 and len(cache) == 0


def test_decision_cache_solution_facts_under_threads(monkeypatch):
    # more threads than cores, switching often: every caller gets the right
    # value, and the cache never keeps more than its bound
    monkeypatch.setattr(prover, "MAX_FACTS", 6)
    texts = [f"forall x (P(x) -> {'~' * i}P(x))" for i in range(8)]
    cache, got, errors = DecisionCache(), [], []

    def work():
        try:
            for _ in range(20):
                for text in texts:
                    got.append((text, cache.normal_form(parse(text, VP))))
                    assert len(cache._facts) <= 6
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(got) == 8 * 20 * len(texts)
    for text, (normal, key_text) in got:
        assert normal == prover.alpha_normalize(parse(text, VP)) and key_text == to_str(normal)
    assert 0 < len(cache._facts) <= 6


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


@pytest.mark.parametrize("cls, value", [
    (DecisionCache, Verdict(status="equivalent", method="bounded<=2")),
    (NecessityCache, NecessityReport({"P": NECESSARY}, {"P": "q1"})),
], ids=["decision", "necessity"])
def test_cache_file_with_lines_that_are_not_records(tmp_path, cls, value):
    path = tmp_path / "cache.jsonl"
    cls(str(path)).put("first", value)
    strays = [b'{"status": "equivalent", "method": "bounded<=2"}', b"[1, 2]", b'"text"',
              b"3", b"null", b'{"key": "second"}', b'{"key": "third", "counter": 7}',
              b'{"key": "fourth", "status": "non-equivalent", "counter": {"size": 2, '
              b'"relations": {"P": 5}}}', b"\xff\xfe"]
    with open(path, "ab") as fh:
        fh.write(b"\n".join(strays) + b"\n")
    loaded = cls(str(path))
    assert len(loaded) == 1 and loaded.get("first") == value
    loaded.put("fifth", value)
    assert cls(str(path)).get("fifth") == value


MALFORMED_RECORDS = [
    pytest.param(DecisionCache, {"status": "maybe", "method": 7}, id="decision-status-maybe"),
    pytest.param(DecisionCache, {"status": "maybe", "method": "bounded"},
                 id="decision-status-maybe-method-string"),
    pytest.param(DecisionCache, {"status": "equivalent", "method": 7},
                 id="decision-method-number"),
    pytest.param(DecisionCache, {"status": "non-equivalent", "method": "bounded",
                                 "counter": False}, id="decision-counter-false"),
    *(pytest.param(DecisionCache, {"status": "non-equivalent", "method": "bounded",
                                   "counter": counter}, id=f"decision-counter-{case}")
      for case, counter in MALFORMED_COUNTERS.items()),
    pytest.param(NecessityCache, {"statuses": "abc"}, id="necessity-statuses-string"),
    pytest.param(NecessityCache, {"statuses": ["P"]}, id="necessity-statuses-list"),
    pytest.param(NecessityCache, {"statuses": {"P": "maybe"}},
                 id="necessity-status-maybe"),
    pytest.param(NecessityCache, {"statuses": {"P": NECESSARY}, "queries": "abc"},
                 id="necessity-queries-string"),
]


@pytest.mark.parametrize("cls, record", MALFORMED_RECORDS)
def test_cache_file_skips_malformed_records(tmp_path, cls, record):
    # a record of the cache's shape whose values are not a decision or a
    # report is skipped, never served
    good = {DecisionCache: Verdict(status="equivalent", method="bounded<=2"),
            NecessityCache: NecessityReport({"P": NECESSARY}, {"P": "q1"})}[cls]
    path = tmp_path / "cache.jsonl"
    cls(str(path)).put("first", good)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": "second", **record}) + "\n")
    loaded = cls(str(path))
    assert len(loaded) == 1 and loaded.get("first") == good and loaded.get("second") is None


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
