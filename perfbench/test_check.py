"""Tests of the benchmark's own answer checks.

    python3 -m pytest perfbench/test_check.py

The checks must reject wrong answers, or a benchmark that reports
`correct: true` shows nothing.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402

VOCAB = {"relations": {"P": 1, "Q": 1}, "functions": {}, "constants": []}


def pair(solution="forall x P(x)", attempt="exists x P(x)", axioms=()):
    return check.Pair(VOCAB, list(axioms), solution, attempt)


def model(p_rows, q_rows=()):
    return {"size": 2, "relations": {"P": [list(r) for r in p_rows],
                                     "Q": [list(r) for r in q_rows]},
            "functions": {}, "constants": {}}


def test_genuine_countermodel_is_accepted():
    counter = {"direction": "too-permissive", "structure": model([(1,)])}
    check.check_answer(pair(), {"status": "non-equivalent", "method": "bounded"},
                       counter, [], random.Random(0))


@pytest.mark.parametrize("tampered", [
    model([(1,), (2,)]),      # both formulas true
    model([]),                # both formulas false
])
def test_tampered_countermodel_is_rejected(tampered):
    counter = {"direction": "too-permissive", "structure": tampered}
    with pytest.raises(check.CheckError, match="does not separate"):
        check.check_answer(pair(), {"status": "non-equivalent"}, counter, [],
                           random.Random(0))


def test_countermodel_violating_an_axiom_is_rejected():
    counter = {"direction": "too-permissive", "structure": model([(1,)])}
    with pytest.raises(check.CheckError, match="violates an axiom"):
        check.check_answer(pair(axioms=["forall x Q(x)"]), {"status": "non-equivalent"},
                           counter, [], random.Random(0))


def test_wrong_direction_and_malformed_models_are_rejected():
    with pytest.raises(check.CheckError, match="reported too-restrictive"):
        pair().check_countermodel(model([(1,)]), "too-restrictive")
    with pytest.raises(check.CheckError, match="outside"):
        pair().check_countermodel(model([(3,)]), "too-permissive")


def test_bounded_equivalent_verdict_for_forall_against_exists_is_rejected():
    with pytest.raises(check.CheckError, match="refuted"):
        check.check_answer(pair(), {"status": "equivalent", "method": "bounded<=2"},
                           None, [], random.Random(0))


def test_syntactic_verdict_needs_alpha_equivalence():
    with pytest.raises(check.CheckError, match="not alpha-equivalent"):
        check.check_answer(pair(), {"status": "equivalent", "method": "syntactic"},
                           None, [], random.Random(0))
    check.check_answer(pair(attempt="forall y P(y)"),
                       {"status": "equivalent", "method": "syntactic"}, None, [],
                       random.Random(0))


def test_true_equivalence_is_not_refuted():
    p = pair("forall x (P(x) -> Q(x))", "~exists y (P(y) & ~Q(y))")
    check.check_answer(p, {"status": "equivalent", "method": "bounded<=3"}, None, [],
                       random.Random(0))


def test_bugfix_disagreeing_with_the_solution_is_rejected():
    counter = {"direction": "too-permissive", "structure": model([(1,)])}
    answer = {"status": "non-equivalent", "method": "bounded"}
    check.check_answer(pair(), answer, counter, ["forall x P(x)"], random.Random(0))
    with pytest.raises(check.CheckError, match="disagrees with the solution"):
        check.check_answer(pair(), answer, counter, ["exists y P(y)"], random.Random(0))


def test_free_variables_are_read_from_closure_constants():
    p = check.Pair(VOCAB, [], "P(x)", "Q(x)")
    s = {"size": 2, "relations": {"P": [[1]], "Q": []}, "functions": {},
         "constants": {"c_x": 1}}
    p.check_countermodel(s, "too-restrictive")
    del s["constants"]["c_x"]
    with pytest.raises(check.CheckError, match="lacks the constants"):
        p.check_countermodel(s, "too-restrictive")


def test_parser_and_renaming_agree_with_foleq_on_the_corpus():
    from foleq.corpus import load_scenarios
    from foleq.parser import parse
    from foleq.syntax import alpha_normalize, to_str
    rng = random.Random(1)
    for sc in load_scenarios():
        vocab = sc.vocabulary.to_json()
        for sol in sc.solutions:
            own = check.parse(to_str(sol.formula), vocab)
            assert check.canonical(own) == check.canonical(check.parse(sol.text, vocab))
            renamed = check.to_text(check.rename_bound(own, rng, {"x", "y", "z"}))
            assert check.canonical(check.parse(renamed, vocab)) == check.canonical(own)
            assert (alpha_normalize(parse(renamed, sc.vocabulary))
                    == alpha_normalize(sol.formula))


def test_benchmark_json_names_the_printed_per_layer_metrics():
    from spans import PER_LAYER
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
