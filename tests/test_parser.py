import pytest

from foleq.parser import MAX_DEPTH, ParseError, parse, tokenize
from foleq.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Func, Iff, Implies, Not, Or, Var,
    Vocabulary, VocabularyError, to_str,
)

V = Vocabulary(relations={"P": 1, "Q": 1, "T": 3, "S": 1, "Z": 0},
               functions={"f": 1, "g": 2}, constants={"c"})


def test_quantified_implication():
    f = parse("forall x (Q(x) -> P(x))", V)
    assert f == Forall("x", Implies(Atom("Q", (Var("x"),)), Atom("P", (Var("x"),))))


def test_single_atom_with_free_variable():
    f = parse("P(x)", V)
    assert f == Atom("P", (Var("x"),))


def test_running_example_structure():
    f = parse("exists y (S(y) & forall x ~forall y (T(x,y,x) | S(y)))", V)
    assert f == Exists("y", And(
        Atom("S", (Var("y"),)),
        Forall("x", Not(Forall("y", Or(
            Atom("T", (Var("x"), Var("y"), Var("x"))),
            Atom("S", (Var("y"),))))))))


def test_quantifier_body_extends_right():
    f = parse("forall x Q(x) -> P(x)", V)
    assert isinstance(f, Forall)
    assert isinstance(f.body, Implies)


def test_connective_precedence_and_associativity():
    f = parse("P(x) & Q(x) & S(x)", V)
    assert f == And(And(Atom("P", (Var("x"),)), Atom("Q", (Var("x"),))),
                    Atom("S", (Var("x"),)))
    g = parse("P(x) -> Q(x) -> S(x)", V)
    assert g == Implies(Atom("P", (Var("x"),)),
                        Implies(Atom("Q", (Var("x"),)), Atom("S", (Var("x"),))))
    h = parse("P(x) | Q(x) & S(x)", V)
    assert h == Or(Atom("P", (Var("x"),)),
                   And(Atom("Q", (Var("x"),)), Atom("S", (Var("x"),))))
    i = parse("P(x) <-> Q(x) -> S(x)", V)
    assert i == Iff(Atom("P", (Var("x"),)),
                    Implies(Atom("Q", (Var("x"),)), Atom("S", (Var("x"),))))


def test_terms_and_equality():
    f = parse("f(c) = x", V)
    assert f == Eq(Func("f", (Const("c"),)), Var("x"))
    g = parse("g(f(x), c) = c", V)
    assert g == Eq(Func("g", (Func("f", (Var("x"),)), Const("c"))), Const("c"))


def test_zero_arity_relation():
    f = parse("Z & P(x)", V)
    assert f == And(Atom("Z"), Atom("P", (Var("x"),)))


def test_syntax_error_has_position():
    with pytest.raises(ParseError, match="position"):
        parse("forall x (P(x) &)", V)
    with pytest.raises(ParseError, match="position 0"):
        parse("& P(x)", V)


def test_undeclared_symbol_error():
    with pytest.raises(VocabularyError, match="undeclared symbol W"):
        parse("W(x)", V)


def test_arity_mismatch_error():
    with pytest.raises(VocabularyError, match="arity"):
        parse("P(x, y)", V)
    with pytest.raises(VocabularyError, match="arity"):
        parse("f(x, y) = x", V)


def test_equality_requires_equality_vocabulary():
    no_eq = Vocabulary(relations={"P": 1}, with_equality=False)
    with pytest.raises(VocabularyError, match="equality"):
        parse("x = y", no_eq)


def test_declared_symbol_cannot_be_bound():
    with pytest.raises(VocabularyError, match="cannot be bound"):
        parse("forall c P(c)", V)


def test_relation_not_usable_as_term():
    with pytest.raises(VocabularyError, match="as a term"):
        parse("f(P) = x", V)


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse("P(x) P(y)", V)


def test_tokenizer_rejects_garbage():
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize("P(x) $ Q(x)")


def test_shadowing_is_allowed():
    f = parse("forall x (P(x) & exists x Q(x))", V)
    assert isinstance(f, Forall)


@pytest.mark.parametrize("text", [
    "forall x (Q(x) -> P(x))",
    "exists y (S(y) & forall x ~forall y (T(x,y,x) | S(y)))",
    "~(f(x) = c)",
    "P(x) <-> Q(x) <-> S(x)",
    "(P(x) -> Q(x)) -> S(x)",
    "Z",
    "forall x (P(x) & (exists y Q(y)) & S(x))",
])
def test_print_parse_round_trip(text):
    f = parse(text, V)
    assert parse(to_str(f), V) == f


NESTED = {
    "parentheses": lambda n: "(" * n + "P(x)" + ")" * n,
    "negations": lambda n: "~" * (n - 1) + "P(x)",
    "conjunction chain": lambda n: " & ".join(["P(x)"] * n),
    "implication chain": lambda n: " -> ".join(["P(x)"] * n),
    "quantifiers": lambda n: "forall x " * (n - 1) + "P(x)",
    "function terms": lambda n: "P(" + "f(" * n + "x" + ")" * n + ")",
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_is_capped(kind):
    """`MAX_DEPTH` levels of each kind parse; one more is a ParseError,
    raised before any walk over the tree could overflow the stack."""
    nested = NESTED[kind]
    assert parse(nested(MAX_DEPTH), V) is not None
    for n in (MAX_DEPTH + 1, 1000, 5000):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse(nested(n), V)
