import random

import pytest

from foleq.parser import ParseError, parse
from foleq.prover import BoundedSearchBackend, DecisionCache
from foleq.definability import NecessityCache
from foleq.syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, Func, Iff, Implies, Not, Or,
    Term, Var, Vocabulary, to_str,
)
from foleq.theory import Theory


@pytest.fixture
def small_vocab():
    return Vocabulary(relations={"P": 1, "Q": 1, "R": 2})


@pytest.fixture
def rich_vocab():
    return Vocabulary(relations={"P": 1, "Q": 1, "R": 2, "S": 1, "T": 3, "G": 2,
                                 "D": 2},
                      functions={"f": 1}, constants={"c"})


@pytest.fixture
def backend():
    return BoundedSearchBackend(seed=7)


@pytest.fixture
def cache():
    return DecisionCache()


@pytest.fixture
def necessity_cache():
    return NecessityCache()


def p(text, vocab):
    return parse(text, vocab)


class FormulaSampler:
    """Seeded random formulas over at most 2 unary + 1 binary relation.

    Quantifier depth is at most 2 and the variable pool is small, so the
    brute-force oracle stays cheap on everything generated here. Atoms are
    relation atoms over variables; a vocabulary without relations gets
    equations between variables, constants and function terms instead.
    """

    def __init__(self, seed: int, vocab: Vocabulary | None = None):
        self.rng = random.Random(seed)
        self.vocab = vocab or Vocabulary(relations={"P": 1, "Q": 1, "R": 2})
        self.variables = ["x", "y", "z"]

    def atom(self) -> Formula:
        if not self.vocab.relations:
            return Eq(self.term(), self.term())
        rel = self.rng.choice(sorted(self.vocab.relations))
        arity = self.vocab.relations[rel]
        return Atom(rel, tuple(Var(self.rng.choice(self.variables))
                               for _ in range(arity)))

    def term(self, depth: int = 1) -> Term:
        choices = [Var(v) for v in self.variables]
        choices += [Const(c) for c in sorted(self.vocab.constants)]
        if depth > 0:
            choices += sorted(self.vocab.functions)
        pick = self.rng.choice(choices)
        if isinstance(pick, str):
            return Func(pick, tuple(self.term(depth - 1)
                                    for _ in range(self.vocab.functions[pick])))
        return pick

    def formula(self, depth: int = 3, quant_budget: int = 2) -> Formula:
        if depth <= 0:
            return self.atom()
        kinds = ["atom", "not", "and", "or", "implies", "iff"]
        if quant_budget > 0:
            kinds += ["forall", "exists", "forall", "exists"]
        kind = self.rng.choice(kinds)
        if kind == "atom":
            return self.atom()
        if kind == "not":
            return Not(self.formula(depth - 1, quant_budget))
        if kind in ("and", "or", "implies", "iff"):
            cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
            return cls(self.formula(depth - 1, quant_budget),
                       self.formula(depth - 1, quant_budget))
        var = self.rng.choice(self.variables)
        cls = Forall if kind == "forall" else Exists
        return cls(var, self.formula(depth - 1, quant_budget - 1))

    def near_cap(self) -> Formula:
        """A formula nested about as deep as `parse` accepts its text
        (`to_str`): small sampled formulas joined by `<->` on either side,
        under negations and runs of vacuous quantifiers (of `w`, which no
        sampled formula uses), grown a level at a time until the parser
        rejects the next level."""
        f = self.formula(2)
        while True:
            step = self.rng.choice(["iff", "iff", "not", "vacuous"])
            for _ in range(self.rng.randint(1, 8) if step == "vacuous" else 1):
                if step == "iff":
                    link = self.formula(1)
                    grown = Iff(link, f) if self.rng.random() < 0.5 else Iff(f, link)
                elif step == "not":
                    grown = Not(f)
                else:
                    grown = self.rng.choice([Forall, Exists])("w", f)
                try:
                    parse(to_str(grown), self.vocab)
                except ParseError:
                    return f
                f = grown

    def closed_formula(self, depth: int = 3) -> Formula:
        f = self.formula(depth)
        from foleq.syntax import free_variables
        for v in free_variables(f):
            f = Forall(v, f)
        return f


@pytest.fixture
def sampler():
    return FormulaSampler(seed=2024)


@pytest.fixture
def empty_theory(small_vocab):
    return Theory(small_vocab)
