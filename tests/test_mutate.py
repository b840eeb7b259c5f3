import hashlib

import pytest

from foleq.corpus import all_solutions
from foleq.models import brute_force_verdict
from foleq.mutate import (
    ARGUMENT_PERMUTATION, GUARD_DROP, GUARD_OPERATOR_FLIP, IMPLICATION_SWAP,
    MUTATIONS, NEGATION_TOGGLE, QUANTIFIER_FLIP, mutate, mutate_all,
)
from foleq.parser import parse
from foleq.syntax import Vocabulary, to_str
from foleq.theory import Theory

V = Vocabulary(relations={"P": 1, "Q": 1, "R": 2})


def test_quantifier_flip():
    f = parse("forall x exists y R(x,y)", V)
    mutants = mutate_all(f, QUANTIFIER_FLIP)
    assert parse("exists x exists y R(x,y)", V) in mutants
    assert parse("forall x forall y R(x,y)", V) in mutants


def test_guard_drop():
    f = parse("forall x (P(x) -> Q(x))", V)
    assert mutate(f, GUARD_DROP) == parse("forall x Q(x)", V)
    g = parse("exists x (P(x) & Q(x))", V)
    mutants = mutate_all(g, GUARD_DROP)
    assert parse("exists x Q(x)", V) in mutants


def test_guard_operator_flip():
    f = parse("forall x (P(x) -> Q(x))", V)
    assert mutate(f, GUARD_OPERATOR_FLIP) == parse("forall x (P(x) & Q(x))", V)
    g = parse("exists x (P(x) & Q(x))", V)
    flips = mutate_all(g, GUARD_OPERATOR_FLIP)
    assert parse("exists x (P(x) -> Q(x))", V) in flips


def test_implication_swap():
    f = parse("forall x (P(x) -> Q(x))", V)
    assert mutate(f, IMPLICATION_SWAP) == parse("forall x (Q(x) -> P(x))", V)


def test_negation_toggle():
    f = parse("forall x ~P(x)", V)
    assert mutate(f, NEGATION_TOGGLE) == parse("forall x P(x)", V)
    g = parse("forall x P(x)", V)
    assert mutate(g, NEGATION_TOGGLE) == parse("forall x ~P(x)", V)


def test_argument_permutation():
    f = parse("forall x exists y R(x,y)", V)
    assert mutate(f, ARGUMENT_PERMUTATION) == parse("forall x exists y R(y,x)", V)


def test_argument_permutation_skips_identical_arguments():
    f = parse("forall x R(x,x)", V)
    assert mutate(f, ARGUMENT_PERMUTATION) is None


def test_inapplicable_families_return_none():
    f = parse("forall x P(x)", V)
    assert mutate(f, GUARD_DROP) is None
    assert mutate(f, IMPLICATION_SWAP) is None
    assert mutate(f, ARGUMENT_PERMUTATION) is None


def test_mutants_differ_from_original():
    f = parse("forall x ((P(x) & Q(x)) -> exists y R(x,y))", V)
    for family in MUTATIONS:
        for m in mutate_all(f, family):
            assert m != f


def test_mutants_usually_change_meaning():
    f = parse("forall x (P(x) -> exists y R(x,y))", V)
    th = Theory(V)
    changed = 0
    total = 0
    for family in MUTATIONS:
        m = mutate(f, family)
        if m is None:
            continue
        total += 1
        if brute_force_verdict(f, m, th, 3).non_equivalent:
            changed += 1
    assert total >= 4
    assert changed >= total - 1


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        mutate(parse("forall x P(x)", V), "nonsense")


def test_corpus_mutants_are_pinned():
    # the benchmark's workloads and criterion 05 are built from these mutants
    solutions = all_solutions()
    lines = [f"{family}\t{to_str(m)}\n" for _, sol in solutions
             for family in MUTATIONS for m in mutate_all(sol.formula, family)]
    assert len(solutions) == 62 and len(lines) == 568
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "7aede781eb3f377d19e7de63e0b18de3ab8570bb565c5572e1d21cf4d5d9c730")
