import pytest

from foleq import models, prover
from foleq.corpus import load_scenarios, scenario
from foleq.definability import (
    EQUALITY, NECESSARY, NOT_SHOWN, NecessityCache, congruence_axioms, encode_padoa,
    necessary_symbols, star_transform, symbol_necessity,
)
from foleq.models import (
    brute_force_verdict, count_structures, enumerate_structures, eval_formula, satisfies_all,
)
from foleq.mutate import mutate
from foleq.parser import parse
from foleq.prover import BoundedSearchBackend, backend_key, decide_equivalence
from foleq.syntax import Eq, Vocabulary, free_variables, subformulas, symbols_of, to_str
from foleq.theory import Theory

from test_acceptance import ORACLE_BUDGET

VPQ = Vocabulary(relations={"P": 1, "Q": 1})


def test_padoa_query_shape():
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    q = encode_padoa(psi, th, {"Q"})
    assert q.origin == "definability"
    assert "Q_1" in q.vocabulary.relations and "Q_2" in q.vocabulary.relations
    assert "P" in q.vocabulary.relations
    assert len(q.axioms) == 1  # empty theory: only the disagreement axiom


def test_padoa_query_extends_the_doubled_theory():
    v = Vocabulary(relations={"P": 1, "Q": 1}, constants={"a"})
    th = Theory(v, (parse("forall x (P(x) -> Q(x))", v), parse("exists x P(x)", v)))
    q = encode_padoa(parse("P(x) & Q(a)", v), th, {"Q"})
    doubled = q.theory
    assert doubled.axioms == q.axioms[:-1] and len(doubled.axioms) == 3
    assert set(doubled.vocabulary.relations) == {"P", "Q_1", "Q_2"}
    assert doubled.vocabulary.constants == {"a"}
    assert q.vocabulary.constants - doubled.vocabulary.constants == {"c_x"}


def test_padoa_rejects_empty_or_foreign_symbols():
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    with pytest.raises(ValueError):
        encode_padoa(psi, th, set())
    with pytest.raises(ValueError):
        encode_padoa(psi, th, {"W"})


def test_padoa_free_variables_become_shared_constants():
    th = Theory(VPQ)
    psi = parse("Q(x) -> P(x)", VPQ)
    q = encode_padoa(psi, th, {"Q"})
    assert any(c.startswith("c_x") for c in q.vocabulary.constants)
    for ax in q.axioms:
        assert not free_variables(ax)


def test_closure_constants_avoid_the_tested_symbols_name(backend):
    """A free variable x closes to a constant other than c_x when c_x is
    itself a symbol, so the closure is not renamed with the tested symbol."""
    v = Vocabulary(relations={"P": 1}, constants={"c_x"})
    psi = parse("P(x) <-> P(c_x)", v)
    q = encode_padoa(psi, Theory(v), {"c_x"})
    # x closes to c_x_1, so the copies of c_x are c_x_1_1 and c_x_2
    assert q.theory.vocabulary.constants == {"c_x_1_1", "c_x_2"}
    assert q.vocabulary.constants == {"c_x_1", "c_x_1_1", "c_x_2"}
    assert symbol_necessity(psi, Theory(v), "c_x", backend) == NECESSARY
    w = Vocabulary(relations={"c_x": 1})
    assert symbol_necessity(parse("c_x(x)", w), Theory(w), "c_x", backend) == NECESSARY


def test_q_necessary_without_theory(backend):
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    assert symbol_necessity(psi, th, "Q", backend) == NECESSARY
    # explicit witness pair: Q empty vs Q full on one element with P empty
    q = encode_padoa(psi, th, {"Q"})
    model = backend.check_sat(q).model
    assert model is not None


def test_q_not_necessary_under_all_p_theory(backend):
    th = Theory(VPQ, (parse("forall x P(x)", VPQ),))
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    assert symbol_necessity(psi, th, "Q", backend) == NOT_SHOWN


def test_only_symbol_still_nontrivial(backend):
    v = Vocabulary(relations={"P": 1})
    psi = parse("exists x P(x)", v)
    assert symbol_necessity(psi, Theory(v), "P", backend) == NECESSARY


def test_equality_necessary(backend):
    v = Vocabulary()
    psi = parse("exists x exists y ~(x = y)", v)
    assert symbol_necessity(psi, Theory(v), "=", backend) == NECESSARY


def test_star_transform_replaces_equations():
    v = Vocabulary()
    psi = parse("exists x exists y ~(x = y)", v)
    star = star_transform(psi, Theory(v))
    for _, node in subformulas(star.formula):
        assert not isinstance(node, Eq)
    # only the equivalence axioms remain over an empty signature
    assert len(star.congruence_axioms) == 3
    assert not star.theory.vocabulary.with_equality


def test_star_transform_congruence_schemes():
    v = Vocabulary(relations={"G": 2}, functions={"f": 1})
    th = Theory(v, (parse("forall x forall y (G(x,y) <-> (f(x) = f(y)))", v),))
    star = star_transform(parse("exists x (f(x) = x)", v), th)
    # reflexivity+symmetry+transitivity, one scheme for G, one for f
    assert len(star.congruence_axioms) == 5
    starred_axiom = star.theory.axioms[0]
    text = to_str(starred_axiom)
    assert star.equality_symbol in text and "=" not in text


def test_star_transform_requires_equality():
    v = Vocabulary(relations={"P": 1})
    with pytest.raises(ValueError):
        star_transform(parse("forall x P(x)", v), Theory(v))


def test_padoa_witness_split_validates(backend):
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    q = encode_padoa(psi, th, {"Q"})
    model = backend.check_sat(q).model
    assert model is not None
    first = parse("forall x (Q_1(x) -> P(x))", q.vocabulary)
    second = parse("forall x (Q_2(x) -> P(x))", q.vocabulary)
    assert eval_formula(model, first) != eval_formula(model, second)


def test_necessity_invariant_under_alpha(backend):
    from foleq.syntax import alpha_normalize
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    assert (symbol_necessity(psi, th, "Q", backend) ==
            symbol_necessity(alpha_normalize(psi), th, "Q", backend))


def test_report_covers_used_symbols(backend):
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    report = necessary_symbols(psi, th, backend)
    assert report.statuses == {"P": NECESSARY, "Q": NECESSARY}


def test_report_caches_by_formula_and_theory(backend, necessity_cache):
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    necessary_symbols(psi, th, backend, cache=necessity_cache)
    calls = backend.calls
    necessary_symbols(psi, th, backend, cache=necessity_cache)
    assert backend.calls == calls


def test_necessity_cache_persists_through_file(tmp_path, backend):
    path = str(tmp_path / "cache.jsonl.necessity")
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    report = necessary_symbols(psi, th, backend, cache=NecessityCache(path))
    reloaded = NecessityCache(path)
    assert len(reloaded) == 1
    assert reloaded.get(backend_key(backend, NecessityCache.key(psi, th))) == report
    calls = backend.calls
    assert necessary_symbols(psi, th, backend, cache=reloaded) == report
    assert backend.calls == calls


def test_necessity_file_grows_only_when_a_status_is_computed(tmp_path):
    from foleq.harness import Engine
    engine = Engine.make(cache_path=str(tmp_path / "cache.jsonl"))
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    reports = [necessary_symbols(psi, th, engine.backend, cache=engine.necessity_cache)
               for _ in range(5)]
    assert all(r == reports[0] for r in reports)
    assert engine.backend.calls == 2
    with open(tmp_path / "cache.jsonl.necessity", encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1


def test_report_restricted_to_symbols(backend):
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    report = necessary_symbols(psi, th, backend, symbols={"Q"})
    assert set(report.statuses) == {"Q"}


def test_congruence_reduction_consistency(backend):
    # a formula with equality and an equality-free equivalent agree on all
    # small structures exactly when the starred sides agree on all small
    # congruence models
    v = Vocabulary(relations={"P": 1})
    th = Theory(v)
    psi = parse("forall x forall y ((x = y) | P(x) | ~P(x))", v)  # tautology
    phi = parse("forall x (P(x) -> P(x))", v)                     # tautology
    assert not brute_force_verdict(psi, phi, th, 3).non_equivalent
    star = star_transform(psi, th)
    phi_star = parse(to_str(phi), star.theory.vocabulary)
    assert not brute_force_verdict(star.formula, phi_star, star.theory,
                                   3).non_equivalent


def test_millisoft_style_defined_symbol_not_necessary(backend):
    v = Vocabulary(relations={"M": 1, "I": 1})
    th = Theory(v, (parse("forall x (M(x) <-> ~I(x))", v),))
    psi = parse("exists x M(x)", v)
    assert symbol_necessity(psi, th, "M", backend) == NOT_SHOWN


def _padoa_query(solution, theory, symbol):
    if symbol == EQUALITY:
        star = star_transform(solution, theory)
        return encode_padoa(star.formula, star.theory, {star.equality_symbol})
    return encode_padoa(solution, theory, {symbol})


def _symbols(solution, theory):
    rels, funcs, consts, uses_eq = symbols_of(solution)
    return sorted(rels | funcs | consts) + \
        ([EQUALITY] if uses_eq and theory.vocabulary.with_equality else [])


def _plain_filter(query):
    """The exhaustive phase of the bounded backend as a filter over
    `enumerate_structures`: (status, bound, first model)."""
    exhausted = 0
    for size in range(1, prover.MAX_SIZE + 1):
        if count_structures(query.vocabulary, size) > prover.EXHAUSTIVE_BUDGET:
            break
        for s in enumerate_structures(query.vocabulary, size):
            if satisfies_all(s, query.axioms):
                return "sat", None, s
        exhausted = size
    return ("unsat", exhausted, None) if exhausted else ("unknown", None, None)


def test_padoa_answers_are_those_of_a_plain_filter(monkeypatch):
    # no random phase, and a budget that keeps the plain filter fast; the
    # backend and the filter both stop at it
    monkeypatch.setattr(prover, "SAMPLE_SIZES", ())
    monkeypatch.setattr(prover, "EXHAUSTIVE_BUDGET", ORACLE_BUDGET)
    backend = BoundedSearchBackend()
    answers = set()
    for sc in load_scenarios():
        sol = sc.solutions[0].formula
        for symbol in _symbols(sol, sc.theory):
            query = _padoa_query(sol, sc.theory, symbol)
            result = backend.check_sat(query)
            assert (result.status, result.bound, result.model) == _plain_filter(query), \
                (sc.id, symbol)
            answers.add((result.status, result.bound))
    assert {("sat", None), ("unsat", 1), ("unsat", 2)} <= answers


def test_padoa_queries_of_one_symbol_share_a_table(monkeypatch):
    monkeypatch.setattr(prover, "SAMPLE_SIZES", ())
    sc = scenario("E-1")
    backend = BoundedSearchBackend()
    first, second = (encode_padoa(sol.formula, sc.theory, {"B"}) for sol in sc.solutions[1:3])
    assert first.theory == second.theory
    backend.check_sat(first)
    tables = dict(backend.store._values)
    backend.check_sat(second)
    assert backend.store._values == tables
    assert sorted(key[-1] for key in tables) == [1, 2]


def test_no_query_uses_the_reference_enumerator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bounded backend enumerated plainly")

    monkeypatch.setattr(models, "enumerate_structures", refuse)
    monkeypatch.setattr(prover, "SAMPLE_SIZES", ())
    assert not hasattr(prover, "enumerate_structures")
    sc = scenario("E-6")
    sol = sc.solutions[0].formula
    backend = BoundedSearchBackend()
    verdict = decide_equivalence(sol, mutate(sol, "negation-toggle"), sc.theory, backend)
    assert verdict.status == "non-equivalent" and verdict.counter is not None
    assert symbol_necessity(sol, sc.theory, "E", backend) == NECESSARY
