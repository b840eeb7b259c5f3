"""Acceptance criteria, one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Several
criteria are statistical or corpus-wide; all random inputs are seeded, so
every run checks the identical workload.
"""

import hashlib
import importlib.util
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from foleq.corpus import all_solutions, load_scenarios
from foleq.countermodel import random_structure, search_countermodel
from foleq.definability import (
    NECESSARY, NOT_SHOWN, NecessityCache, symbol_necessity,
)
from foleq.explain import explain_nonequivalence
from foleq.harness import Engine, run_batch, run_pair
from foleq.models import (
    brute_force_verdict, close_formulas, count_structures, enumerate_structures,
    eval_formula, satisfies_all,
)
from foleq.mutate import INTENDED_STRATEGIES, MUTATIONS, mutate, mutate_all
from foleq.parser import parse
from foleq.profiles import EXISTS, FORALL, PrefixEntry, extract_guards
from foleq.prover import (
    BoundedSearchBackend, DecisionCache, decide_equivalence,
)
from foleq.syntax import Atom, Vocabulary, alpha_normalize, atoms_of, free_variables, to_str
from foleq.theory import Theory

from conftest import FormulaSampler
from test_profiles import atom_quantifier_prefix, core_profile


def ok(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_01_profile_exactness():
    start = time.perf_counter()
    v = Vocabulary(relations={"S": 1, "T": 3})
    f = parse("exists y (S(y) & forall x ~forall y (T(x,y,x) | S(y)))", v)
    e = lambda kind, *pos: PrefixEntry(kind, frozenset(pos))
    assert core_profile(f) == {
        ("S", "+", (e(EXISTS, 1),)),
        ("S", "-", (e(EXISTS, 1),)),
        ("T", "-", (e(FORALL, 1, 3), e(EXISTS, 2))),
    }
    t_addr = next(a for a, n in atoms_of(f) if isinstance(n, Atom) and n.rel == "T")
    assert atom_quantifier_prefix(f, t_addr) == ((FORALL, "x"), (EXISTS, "y"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"formula profile and atom prefix exact ({elapsed * 1000:.0f} ms)")


def test_criterion_02_guard_exactness():
    v = Vocabulary(relations={"S": 1, "R": 3})
    guarded, wrong = extract_guards(
        parse("forall y exists x (S(x) & exists z R(x,y,z))", v))
    assert len(guarded) == 1 and not wrong
    record = next(iter(guarded))
    assert record.variable == "x" and record.kind == "guarded"
    guarded2, wrong2 = extract_guards(
        parse("forall y exists x (S(x) -> exists z R(x,y,z))", v))
    assert not guarded2 and len(wrong2) == 1
    record2 = next(iter(wrong2))
    assert record2.variable == "x" and record2.kind == "wrongly-guarded"
    ok(2, "guard examples classified guarded / wrongly guarded")


def test_criterion_03_oracle_agreement():
    start = time.perf_counter()
    backend = BoundedSearchBackend(seed=17)
    cache = DecisionCache()
    sampler = FormulaSampler(seed=31)
    theory = Theory(sampler.vocab)
    pairs = 0
    nonequivalent = 0
    violations = 0
    while pairs < 500:
        f = sampler.formula(depth=3, quant_budget=2)
        g = sampler.formula(depth=3, quant_budget=2)
        pairs += 1
        oracle = brute_force_verdict(f, g, theory, max_size=3)
        if not oracle.non_equivalent:
            continue
        nonequivalent += 1
        verdict = decide_equivalence(f, g, theory, backend, cache)
        if verdict.status == "equivalent":
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 300
    ok(3, f"0 violations on {pairs} seeded pairs "
          f"({nonequivalent} oracle-non-equivalent, {elapsed:.0f} s)")


CATALOGUE = [
    ("S-1", {"Q": 1, "P": 1}, {}, "forall x (Q(x) -> P(x))", "forall x P(x)"),
    ("S-2", {"R": 2}, {}, "forall x exists y R(x,y)", "forall x exists y R(y,x)"),
    ("S-3", {"P": 1, "Q": 1}, {}, "exists x P(x)", "exists x Q(x)"),
    ("S-4", {"P": 1}, {"f": 1}, "exists x P(f(x))", "exists x P(x)"),
    ("Q-1", {"P": 1, "G": 2}, {}, "forall x exists y (P(x) -> G(x,y))",
     "forall x forall y (P(x) -> G(x,y))"),
    ("Q-2", {"S": 1, "R": 3}, {}, "forall x (S(x) -> exists y forall z R(x,y,z))",
     "forall x exists y exists z (S(x) -> R(x,y,z))"),
    ("Q-3", {"P": 1}, {}, "forall x P(x)", "P(x)"),
    ("G-1", {"P": 1, "Q": 1}, {}, "forall x (P(x) -> Q(x))", "forall x Q(x)"),
    ("G-1", {"P": 1, "Q": 1}, {}, "exists x Q(x)", "exists x (P(x) & Q(x))"),
    ("G-2", {"P": 1, "Q": 1}, {}, "forall x (P(x) -> Q(x))", "forall x (P(x) & Q(x))"),
    ("B-1", {"P": 1}, {}, "forall x P(x)", "forall x ~P(x)"),
    ("B-2", {"P": 1, "Q": 1}, {}, "forall x (P(x) -> Q(x))", "forall x (Q(x) -> P(x))"),
]


def test_criterion_04_catalogue_round_trip():
    start = time.perf_counter()
    backend = BoundedSearchBackend(seed=4)
    cache, ncache = DecisionCache(), NecessityCache()
    hits = 0
    for strategy, rels, funcs, psi, phi in CATALOGUE:
        v = Vocabulary(relations=rels, functions=funcs)
        bundle = explain_nonequivalence(parse(psi, v), parse(phi, v), Theory(v),
                                        backend, cache, ncache)
        assert bundle.verdict.status == "non-equivalent", (strategy, psi, phi)
        assert strategy in bundle.strategies(), (strategy, bundle.strategies())
        hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 12
    assert elapsed < 120
    ok(4, f"12/12 catalogue rows matched their strategy ({elapsed:.0f} s)")


# sha256 over the JSON list of criterion 05's bundles, one per mutant
# (equivalent ones too), in loop order. A change that means to change
# answers updates it; any other change keeps it.
CRITERION_05_BUNDLES = (280, "cb4e5849e2ec4022418c94bec384e07ed8f22201fb955783bfe251493f905406")


def test_criterion_05_mutation_recall():
    start = time.perf_counter()
    engine = Engine.make(seed=23, strategy_timeout_ms=30_000)
    pairs = 0
    explained = 0
    intended = 0
    per_family = {}
    bundles = []
    for sc, sol in all_solutions():
        for family in MUTATIONS:
            mutant = mutate(sol.formula, family)
            if mutant is None:
                continue
            bundle = explain_nonequivalence(
                sol.formula, mutant, sc.theory, engine.backend, engine.cache,
                engine.necessity_cache, prover_config=engine.prover_config,
                with_countermodel=False)
            bundles.append(bundle.to_json())
            if bundle.verdict.status != "non-equivalent":
                continue
            pairs += 1
            strategies = bundle.strategies()
            stats = per_family.setdefault(family, [0, 0, 0])
            stats[0] += 1
            if strategies:
                explained += 1
                stats[1] += 1
            if strategies & INTENDED_STRATEGIES[family]:
                intended += 1
                stats[2] += 1
    elapsed = time.perf_counter() - start
    explained_ratio = explained / pairs
    intended_ratio = intended / pairs
    detail = ", ".join(
        f"{fam}: {c[1]}/{c[0]} explained, {c[2]}/{c[0]} intended"
        for fam, c in sorted(per_family.items()))
    assert explained_ratio >= 0.80, detail
    assert intended_ratio >= 0.70, detail
    digest = hashlib.sha256(json.dumps(bundles, sort_keys=True).encode()).hexdigest()
    assert (len(bundles), digest) == CRITERION_05_BUNDLES
    ok(5, f"mutation recall over {pairs} non-equivalent mutants: "
          f"{explained_ratio:.1%} explained, {intended_ratio:.1%} by the "
          f"intended family ({elapsed:.0f} s)\n      {detail}")


def test_criterion_06_generator_statistics():
    v = Vocabulary(relations={"R": 2}, functions={"f": 1})
    rng = random.Random("statistics")
    n = 10_000
    tuple_counts = {t: 0 for t in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    output_counts = {(arg, val): 0 for arg in (0, 1) for val in (0, 1)}
    for _ in range(n):
        s = random_structure(v, 2, 0.5, rng)
        for t in s.relations["R"]:
            tuple_counts[t] += 1
        for (arg,), val in s.functions["f"].items():
            output_counts[(arg, val)] += 1
    for t, c in tuple_counts.items():
        assert abs(c / n - 0.5) <= 0.02, (t, c / n)
    for key, c in output_counts.items():
        assert abs(c / n - 0.5) <= 0.02, (key, c / n)
    ok(6, f"tuple inclusion and function outputs within 0.5 +/- 0.02 over {n} samples")


def test_criterion_07_countermodel_search():
    v = Vocabulary(relations={"P": 1})
    th = Theory(v)
    psi, phi = parse("forall x P(x)", v), parse("exists x P(x)", v)
    hits = 0
    for seed in range(100):
        hit = search_countermodel(psi, phi, th, seed=seed)
        if hit is None:
            continue
        assert hit.direction == "too-permissive"
        assert satisfies_all(hit.structure, th.axioms)
        assert (eval_formula(hit.structure, psi) is False and
                eval_formula(hit.structure, phi) is True)
        hits += 1
    assert hits >= 99
    ok(7, f"{hits}/100 seeded searches found a revalidated too-permissive witness")


def test_criterion_08_padoa_cases():
    backend = BoundedSearchBackend(seed=8)
    v = Vocabulary(relations={"P": 1, "Q": 1})
    psi = parse("forall x (Q(x) -> P(x))", v)
    assert symbol_necessity(psi, Theory(v), "Q", backend) == NECESSARY
    th = Theory(v, (parse("forall x P(x)", v),))
    assert symbol_necessity(psi, th, "Q", backend) == NOT_SHOWN
    ve = Vocabulary()
    psi_eq = parse("exists x exists y ~(x = y)", ve)
    assert symbol_necessity(psi_eq, Theory(ve), "=", backend) == NECESSARY
    ok(8, "3/3 necessity cases (necessary / not shown / equality)")


def test_criterion_09_cache_contract(tmp_path, monkeypatch):
    backend = BoundedSearchBackend(seed=9)
    cache = DecisionCache()
    v = Vocabulary(relations={"P": 1})
    th = Theory(v)
    decide_equivalence(parse("forall x P(x)", v), parse("exists x P(x)", v),
                       th, backend, cache)
    before = backend.calls
    verdict = decide_equivalence(parse("forall z P(z)", v),
                                 parse("exists w P(w)", v), th, backend, cache)
    assert backend.calls == before
    assert verdict.method == "cache"

    import json
    objs = [{"id": "a", "vocabulary": {"relations": {"P": 1}}, "gamma": [],
             "psi": "forall x P(x)", "phi": "exists x P(x)"},
            {"id": "b", "vocabulary": {"relations": {"P": 1}}, "gamma": [],
             "psi": "forall x P(x)", "phi": "forall y P(y)"}]
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
    from foleq.harness import load_dataset
    records, _ = load_dataset(str(path))
    import foleq.harness as harness
    outs = []

    def recording(record, *args, **kwargs):
        out = run_pair(record, *args, **kwargs)
        outs.append({k: v for k, v in out.items() if k != "timing_ms"})
        return out

    monkeypatch.setattr(harness, "run_pair", recording)
    engine = Engine.make(seed=9)
    cold = run_batch(records, engine).to_json()
    cold_outs = list(outs)
    outs.clear()
    before = engine.backend.calls
    warm = run_batch(records, engine).to_json()
    assert engine.backend.calls == before
    assert cold["total"] == warm["total"]
    assert cold["distinct"] == warm["distinct"]
    # a warm record is its cold run's output, served from the cache
    for c, w in zip(cold_outs, outs, strict=True):
        decided_by = c["verdict"].get("cached_method", c["verdict"]["method"])
        assert w["verdict"] == {"status": c["verdict"]["status"], "method": "cache",
                                "cached_method": decided_by}
        assert {**w, "verdict": None} == {**c, "verdict": None}
    ok(9, "alpha-variant rerun used 0 backend calls; warm batch rerun used 0 "
          "backend calls and repeated the cold per-record outputs")


def test_criterion_10_corpus_integrity():
    start = time.perf_counter()
    count = 0
    for sc in load_scenarios():
        for ax in sc.theory.axioms:
            assert not free_variables(ax)
            assert parse(to_str(ax), sc.vocabulary) == ax
        for sol in sc.solutions:
            count += 1
            assert parse(to_str(sol.formula), sc.vocabulary) == sol.formula
    elapsed = time.perf_counter() - start
    assert count == 62
    assert elapsed < 5.0
    ok(10, f"all 62 formulas and every axiom round-trip; axioms closed "
           f"({elapsed * 1000:.0f} ms)")


def _perfbench_check():
    """perfbench/check.py, which shares no code with foleq, by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE_BUDGET = 20_000        # structures brute force may enumerate per size


def test_criterion_11_theory_oracle():
    start = time.perf_counter()
    check = _perfbench_check()
    scenarios = [sc for sc in load_scenarios() if sc.theory.axioms]
    pairs = [(sc, sol.formula, mutant) for sc in scenarios for sol in sc.solutions
             for family in MUTATIONS for mutant in mutate_all(sol.formula, family)]
    backend = BoundedSearchBackend(seed=11)
    seen = {"structures": 0, "equivalent": 0, "brute-forced": 0, "counter": 0, "keys": 0}

    def check_formula(sc, f):
        return check.parse(to_str(f), sc.vocabulary.to_json())

    @settings(max_examples=200, deadline=None, database=None)
    @seed(11)
    @given(st.sampled_from(scenarios), st.integers(1, 3), st.sampled_from((0.1, 0.5, 0.9)),
           st.integers(0, 499), st.booleans())
    def evaluators_agree(sc, size, p, n, enumerated):
        if enumerated:
            size = min(size, 2)
            count = count_structures(sc.vocabulary, size)
            s = next(itertools.islice(enumerate_structures(sc.vocabulary, size, count),
                                      n % count, None))
        else:
            s = random_structure(sc.vocabulary, size, p, random.Random(n))
        theirs = check.structure_from_json(s.to_json(), sc.vocabulary.to_json())
        sampled = FormulaSampler(n, sc.vocabulary).closed_formula()
        for f in (*sc.theory.axioms, *(sol.formula for sol in sc.solutions), sampled):
            env = {v: n % size for v in free_variables(f)}
            assert eval_formula(s, f, env) == check.holds(theirs, check_formula(sc, f), env)
        seen["structures"] += 1

    @settings(max_examples=20, deadline=None, database=None)
    @seed(11)
    @given(st.sampled_from(pairs), st.sampled_from((None, *MUTATIONS)), st.integers(0, 99))
    def verdicts_hold(pair, second, n):
        sc, solution, attempt = pair
        if second is not None:
            chained = mutate_all(attempt, second)
            attempt = chained[n % len(chained)] if chained else attempt
        verdict = decide_equivalence(solution, attempt, sc.theory, backend)
        bound = check.bound_of(verdict.method)
        if verdict.status == "equivalent" and bound is not None:
            seen["equivalent"] += 1
            (_, _), vocab = close_formulas([solution, attempt], sc.vocabulary)
            if count_structures(vocab, bound) <= ORACLE_BUDGET:
                oracle = brute_force_verdict(solution, attempt, sc.theory, bound,
                                             ORACLE_BUDGET)
                assert not oracle.non_equivalent
                seen["brute-forced"] += 1
        elif verdict.status == "non-equivalent":
            # every "sat" of the bounded backend comes with a model, which
            # decide_equivalence drops only when it fails revalidation
            assert verdict.counter is not None
            theirs = check.Pair(sc.vocabulary.to_json(),
                                [to_str(ax) for ax in sc.theory.axioms],
                                to_str(solution), to_str(attempt))
            theirs.check_countermodel(verdict.counter.to_json(), verdict.direction)
            seen["counter"] += 1

    @settings(max_examples=200, deadline=None, database=None)
    @seed(11)
    @given(st.sampled_from(pairs), st.integers(0, 9999))
    def key_invariant(pair, n):
        sc, solution, attempt = pair
        rng = random.Random(n)
        taken = (set(sc.vocabulary.relations) | set(sc.vocabulary.functions)
                 | set(sc.vocabulary.constants))

        def renamed(f):
            theirs = check_formula(sc, f)
            taken_here = taken | set(check.free_variables(theirs))
            return parse(check.to_text(check.rename_bound(theirs, rng, taken_here)),
                         sc.vocabulary)

        axioms = [renamed(ax) for ax in sc.theory.axioms]
        rng.shuffle(axioms)
        assert DecisionCache().key(renamed(attempt), alpha_normalize(renamed(solution)),
                                   Theory(sc.vocabulary, tuple(axioms))) == \
            DecisionCache().key(solution, alpha_normalize(attempt), sc.theory)
        seen["keys"] += 1

    evaluators_agree()
    verdicts_hold()
    key_invariant()
    elapsed = time.perf_counter() - start
    assert seen["equivalent"] and seen["brute-forced"] and seen["counter"]
    assert elapsed < 20
    ok(11, f"{len(scenarios)} scenarios with axioms: eval_formula agrees with "
           f"perfbench's evaluator on {seen['structures']} structures; "
           f"{seen['counter']} counter models checked, {seen['brute-forced']} of "
           f"{seen['equivalent']} bounded equivalences brute-forced; "
           f"{seen['keys']} cache keys invariant ({elapsed:.0f} s)")
