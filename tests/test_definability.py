import pytest

from foleq.definability import (
    NECESSARY, NOT_SHOWN, NecessityCache, congruence_axioms, encode_padoa, necessary_symbols,
    star_transform, symbol_necessity,
)
from foleq.models import brute_force_verdict, eval_formula
from foleq.parser import parse
from foleq.prover import backend_key
from foleq.syntax import Eq, Vocabulary, free_variables, subformulas, to_str
from foleq.theory import Theory

VPQ = Vocabulary(relations={"P": 1, "Q": 1})


def test_padoa_query_shape():
    th = Theory(VPQ)
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    q = encode_padoa(psi, th, {"Q"})
    assert q.origin == "definability"
    assert "Q_1" in q.vocabulary.relations and "Q_2" in q.vocabulary.relations
    assert "P" in q.vocabulary.relations
    assert len(q.axioms) == 1  # empty theory: only the disagreement axiom


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
