import itertools

import pytest
from hypothesis import given, settings, strategies as st

from foleq.models import enumerate_structures, eval_formula
from foleq.parser import parse
from foleq.syntax import (
    QUANTIFIERS, AddressError, Atom, Eq, Exists, Forall, Implies, Not, Var, Vocabulary,
    alpha_normalize, drop_vacuous, free_variables, nnf, prenex_decompose,
    prenex_recompose, rewrite_at, subformula_at, subformulas, substitute_variables,
    to_str,
)

from conftest import FormulaSampler

V = Vocabulary(relations={"P": 1, "Q": 1, "R": 2, "T": 3, "S": 1},
               functions={"f": 1}, constants={"c"})
SMALL = Vocabulary(relations={"P": 1, "Q": 1, "R": 2})


def sampled_formulas():
    sampler = FormulaSampler(seed=99)
    return st.builds(lambda n: FormulaSampler(seed=n).formula(depth=3),
                     st.integers(min_value=0, max_value=10_000))


def assignments_for(f, size):
    free = free_variables(f)
    if not free:
        yield {}
        return
    for combo in itertools.product(range(size), repeat=len(free)):
        yield dict(zip(free, combo))


def agree_on_small_structures(f, g, max_size=2, vocab=SMALL):
    for size in range(1, max_size + 1):
        for s in enumerate_structures(vocab, size):
            for env in assignments_for(f, size):
                if eval_formula(s, f, env) != eval_formula(s, g, env):
                    return False
    return True


# free variables

def test_free_variables_closed():
    assert free_variables(parse("forall x P(x)", V)) == []


def test_free_variables_single():
    assert free_variables(parse("P(x)", V)) == ["x"]


def test_free_variables_mixed_binding():
    assert free_variables(parse("forall x R(x,y)", V)) == ["y"]


def test_free_variables_first_occurrence_order():
    f = parse("R(y,z) & R(z,x)", V)
    assert free_variables(f) == ["y", "z", "x"]


# nnf

def test_nnf_running_example():
    f = parse("~forall y (T(x,y,x) | S(y))", V)
    assert to_str(nnf(f)) == "exists y ~T(x, y, x) & ~S(y)"


def test_nnf_atom_identity():
    f = parse("P(x)", V)
    assert nnf(f) == f


def test_nnf_negated_implication():
    # derived by truth table over the four valuations of (P(x), Q(x))
    f = parse("~(P(x) -> Q(x))", V)
    expected = parse("P(x) & ~Q(x)", V)
    assert nnf(f) == expected
    for pv in (False, True):
        for qv in (False, True):
            s_rel = {"P": frozenset([(0,)] if pv else []),
                     "Q": frozenset([(0,)] if qv else []),
                     "R": frozenset()}
            from foleq.models import Structure
            s = Structure(size=1, relations=s_rel, functions={}, constants={})
            assert (eval_formula(s, f, {"x": 0}) ==
                    eval_formula(s, expected, {"x": 0}) == (pv and not qv))


def test_nnf_only_atomic_negations_and_no_arrows():
    sampler = FormulaSampler(seed=5)
    from foleq.syntax import subformulas, Iff as IffNode, Implies as ImpliesNode
    for _ in range(200):
        g = nnf(sampler.formula(depth=4))
        for _, node in subformulas(g):
            assert not isinstance(node, (IffNode, ImpliesNode))
            if isinstance(node, Not):
                assert isinstance(node.sub, (Atom, Eq))


@settings(max_examples=60, deadline=None)
@given(sampled_formulas())
def test_nnf_preserves_evaluation(f):
    assert agree_on_small_structures(f, nnf(f))


# vacuous quantifiers

def test_drop_vacuous_drops_only_quantifiers_that_bind_nothing():
    # the outer forall y binds nothing: the inner one rebinds y
    f = parse("exists x forall y ((forall y P(y)) & exists z R(z, x))", V)
    assert drop_vacuous(f) == (parse("exists x ((forall y P(y)) & exists z R(z, x))", V), [])
    g = parse("forall x R(x, y) | exists y P(y) & R(z, y)", V)
    assert drop_vacuous(g)[0] is g and drop_vacuous(g)[1] == ["y", "z"]
    run = parse("forall y " * 10 + "P(x)", V)
    assert drop_vacuous(run) == (parse("P(x)", V), ["x"])


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 60), max_size=3),
       st.booleans())
def test_drop_vacuous_preserves_truth(n, places, universal):
    # sampled formulas have vacuous quantifiers of their own (x, y and z are
    # drawn at random); w, which nothing uses, adds more at sampled places
    f = FormulaSampler(seed=n).formula(depth=3, quant_budget=3)
    for place in places:
        nodes = list(subformulas(f))
        address, node = nodes[place % len(nodes)]
        f = rewrite_at(f, address, (Forall if universal else Exists)("w", node))
    g, free = drop_vacuous(f)
    assert agree_on_small_structures(f, g)
    assert free_variables(g) == free_variables(f) == free
    assert all(node.var in free_variables(node.body)
               for _, node in subformulas(g) if isinstance(node, QUANTIFIERS))


# alpha normalization

def test_alpha_identifies_alpha_equivalent():
    f = alpha_normalize(parse("forall x P(x)", V))
    g = alpha_normalize(parse("forall z P(z)", V))
    assert f == g == parse("forall v0 P(v0)", V)


def test_alpha_encounter_order():
    f = alpha_normalize(parse("exists y forall x R(x,y)", V))
    assert to_str(f) == "exists v0 forall v1 R(v1, v0)"


def test_alpha_preserves_free_variables():
    f = parse("P(x)", V)
    assert alpha_normalize(f) == f


def test_alpha_avoids_free_canonical_names():
    f = parse("forall x R(x, v0)", V)
    g = alpha_normalize(f)
    assert free_variables(g) == ["v0"]
    assert g != f or to_str(g) != "forall v0 R(v0, v0)"


def test_alpha_avoids_constant_names():
    # with a constant v0, renaming the binder of "forall x P(v0)" to v0
    # printed it as "forall v0 P(v0)", the text of "forall x P(x)"
    v = Vocabulary(relations={"P": 1}, constants={"v0"})
    bound, constant = (alpha_normalize(parse(text, v))
                       for text in ("forall x P(x)", "forall x P(v0)"))
    assert (to_str(bound), to_str(constant)) == ("forall v0 P(v0)", "forall v1 P(v0)")
    assert alpha_normalize(constant) == constant


@settings(max_examples=60, deadline=None)
@given(sampled_formulas())
def test_alpha_idempotent_and_semantics_preserving(f):
    once = alpha_normalize(f)
    assert alpha_normalize(once) == once
    assert agree_on_small_structures(f, once)


# prenex

def test_prenex_decompose_basic():
    f = parse("forall x exists y (P(x) -> R(x,y))", V)
    prefix, matrix = prenex_decompose(f)
    assert prefix == (("forall", "x"), ("exists", "y"))
    assert matrix == parse("P(x) -> R(x,y)", V)
    assert prenex_recompose(prefix, matrix) == f


def test_prenex_empty_prefix():
    f = parse("P(c)", V)
    assert prenex_decompose(f) == ((), f)


def test_prenex_inner_quantifier_absent():
    assert prenex_decompose(parse("forall x (S(x) -> exists y R(x,y))", V)) is None


@settings(max_examples=60, deadline=None)
@given(sampled_formulas())
def test_prenex_recomposition_round_trip(f):
    result = prenex_decompose(f)
    if result is not None:
        prefix, matrix = result
        assert prenex_recompose(prefix, matrix) == f


# addresses and rewriting

def test_rewrite_at_child():
    f = parse("forall x (P(x) & Q(x))", V)
    g = rewrite_at(f, (0, 1), parse("R(x,x)", V))
    assert g == parse("forall x (P(x) & R(x,x))", V)


def test_rewrite_at_root():
    f = parse("P(x)", V)
    assert rewrite_at(f, (), parse("Q(x)", V)) == parse("Q(x)", V)


def test_rewrite_inserts_guard():
    f = parse("forall x Q(x)", V)
    g = rewrite_at(f, (0,), Implies(parse("P(x)", V), parse("Q(x)", V)))
    assert g == parse("forall x (P(x) -> Q(x))", V)


def test_invalid_address():
    with pytest.raises(AddressError):
        subformula_at(parse("P(x)", V), (0,))
    with pytest.raises(AddressError):
        rewrite_at(parse("P(x) & Q(x)", V), (2,), parse("P(x)", V))


# substitution

def test_substitution_capture_avoiding():
    f = parse("exists y R(x,y)", V)
    g = substitute_variables(f, {"x": Var("y")})
    assert free_variables(g) == ["y"]
    assert isinstance(g, Exists)
    assert g.var != "y"


def test_substitution_under_shadowing():
    f = parse("P(x) & forall x Q(x)", V)
    g = substitute_variables(f, {"x": parse_term("c")})
    assert g == parse("P(c) & forall x Q(x)", V)


def parse_term(name):
    from foleq.syntax import Const
    return Const(name)


# printing round trip on generated formulas

@settings(max_examples=100, deadline=None)
@given(sampled_formulas())
def test_print_parse_round_trip_generated(f):
    assert parse(to_str(f), SMALL) == f
