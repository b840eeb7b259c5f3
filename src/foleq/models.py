"""Finite structures, Tarskian evaluation, random structures, and the
brute-force oracle.

The universe of a size-n structure is {0, ..., n-1}; reports render
elements 1-based for readability. The enumerator yields every structure
of a given size exactly once in a fixed order, which makes it usable as
ground truth for small instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, FoleqError, Func, Iff,
    Implies, Not, Or, Term, Var, Vocabulary, fresh_name, free_variables,
    substitute_variables,
)
from .theory import Theory


class EvalError(FoleqError):
    """A free variable had no assignment or a symbol no interpretation."""


class BudgetExceededError(FoleqError):
    """Exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class Structure:
    """A structure over {0, ..., size-1}. Its tables are used as given,
    not copied: relations map to frozensets of int tuples, functions to
    dicts from int tuples to ints, constants to ints, and nobody mutates
    them (enumerated structures share their function tables)."""

    size: int
    relations: Mapping[str, frozenset[tuple[int, ...]]]
    functions: Mapping[str, Mapping[tuple[int, ...], int]]
    constants: Mapping[str, int]

    def to_json(self) -> dict:
        """1-based rendering used in counter-model output."""
        return {
            "size": self.size,
            "relations": {r: sorted([e + 1 for e in t] for t in ts)
                          for r, ts in sorted(self.relations.items())},
            "functions": {f: sorted([*(a + 1 for a in args), val + 1]
                                    for args, val in m.items())
                          for f, m in sorted(self.functions.items())},
            "constants": {c: v + 1 for c, v in sorted(self.constants.items())},
        }

    @staticmethod
    def from_json(obj: dict) -> "Structure":
        return Structure(
            size=obj["size"],
            relations={r: frozenset(tuple(e - 1 for e in t) for t in ts)
                       for r, ts in obj.get("relations", {}).items()},
            functions={f: {tuple(a - 1 for a in row[:-1]): row[-1] - 1 for row in rows}
                       for f, rows in obj.get("functions", {}).items()},
            constants={c: v - 1 for c, v in obj.get("constants", {}).items()},
        )


Assignment = dict[str, int]


def eval_term(s: Structure, t: Term, env: Assignment) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unassigned free variable {t.name}") from None
    if isinstance(t, Const):
        try:
            return s.constants[t.name]
        except KeyError:
            raise EvalError(f"no interpretation for constant {t.name}") from None
    if isinstance(t, Func):
        table = s.functions.get(t.name)
        if table is None:
            raise EvalError(f"no interpretation for function {t.name}")
        return table[tuple(eval_term(s, a, env) for a in t.args)]
    raise TypeError(f"not a term: {t!r}")


def eval_formula(s: Structure, f: Formula, assignment: Assignment | None = None) -> bool:
    """Standard satisfaction; equality is identity of universe elements."""
    env: Assignment = dict(assignment) if assignment else {}

    def ev(g: Formula) -> bool:
        if isinstance(g, Atom):
            table = s.relations.get(g.rel)
            if table is None:
                raise EvalError(f"no interpretation for relation {g.rel}")
            return tuple(eval_term(s, t, env) for t in g.args) in table
        if isinstance(g, Eq):
            return eval_term(s, g.left, env) == eval_term(s, g.right, env)
        if isinstance(g, Not):
            return not ev(g.sub)
        if isinstance(g, And):
            return ev(g.left) and ev(g.right)
        if isinstance(g, Or):
            return ev(g.left) or ev(g.right)
        if isinstance(g, Implies):
            return (not ev(g.left)) or ev(g.right)
        if isinstance(g, Iff):
            return ev(g.left) == ev(g.right)
        if isinstance(g, (Forall, Exists)):
            want_all = isinstance(g, Forall)
            outer = env.get(g.var)
            had = g.var in env
            try:
                for e in range(s.size):
                    env[g.var] = e
                    val = ev(g.body)
                    if want_all and not val:
                        return False
                    if not want_all and val:
                        return True
                return want_all
            finally:
                if had:
                    env[g.var] = outer
                else:
                    env.pop(g.var, None)
        raise TypeError(f"not a formula: {g!r}")

    return ev(f)


def satisfies_all(s: Structure, formulas, assignment: Assignment | None = None) -> bool:
    return all(eval_formula(s, f, assignment) for f in formulas)


def count_structures(vocab: Vocabulary, size: int) -> int:
    total = 1
    for arity in vocab.relations.values():
        total *= 2 ** (size ** arity)
    for arity in vocab.functions.values():
        total *= size ** (size ** arity)
    total *= size ** len(vocab.constants)
    return total


def symbol_choices(vocab: Vocabulary, size: int
                   ) -> tuple[dict[str, list], dict[str, list]]:
    """Every interpretation over {0, ..., size-1} of each relation and of
    each function, keyed by name in sorted order, each list in the order
    `enumerate_structures` varies it."""
    universe = range(size)
    relations = {}
    for r in sorted(vocab.relations):
        tuples = list(itertools.product(universe, repeat=vocab.relations[r]))
        relations[r] = [frozenset(itertools.compress(tuples, mask))
                        for mask in itertools.product((0, 1), repeat=len(tuples))]
    functions = {}
    for f in sorted(vocab.functions):
        tuples = list(itertools.product(universe, repeat=vocab.functions[f]))
        functions[f] = [dict(zip(tuples, outputs))
                        for outputs in itertools.product(universe, repeat=len(tuples))]
    return relations, functions


def enumerate_structures(vocab: Vocabulary, size: int,
                         budget: int = 1_000_000) -> Iterator[Structure]:
    """Every structure of exactly `size`, in a fixed deterministic order:
    the product of the relation, function and constant choices (see
    `symbol_choices`), the last constant varying fastest."""
    if size < 1:
        raise ValueError("size must be >= 1")
    total = count_structures(vocab, size)
    if total > budget:
        raise BudgetExceededError(
            f"{total} structures of size {size} exceed the budget of {budget}")

    relations, functions = symbol_choices(vocab, size)
    rel_names, func_names = list(relations), list(functions)
    const_names = sorted(vocab.constants)
    nr, nf = len(rel_names), len(func_names)
    for combo in itertools.product(*relations.values(), *functions.values(),
                                   *[range(size)] * len(const_names)):
        yield Structure(
            size=size,
            relations=dict(zip(rel_names, combo[:nr])),
            functions=dict(zip(func_names, combo[nr:nr + nf])),
            constants=dict(zip(const_names, combo[nr + nf:])),
        )


def random_structure(vocab: Vocabulary, size: int, p: float,
                     rng: random.Random) -> Structure:
    """One random structure; deterministic given the rng state.

    Every relation tuple is included independently with probability p;
    function outputs and constants are drawn uniformly. Draw order is
    fixed: relations, functions, constants, each sorted by name, tuples
    in lexicographic order.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    universe = range(size)
    relations = {}
    for name in sorted(vocab.relations):
        tuples = itertools.product(universe, repeat=vocab.relations[name])
        relations[name] = frozenset(t for t in tuples if rng.random() < p)
    functions = {}
    for name in sorted(vocab.functions):
        functions[name] = {tup: rng.randrange(size) for tup
                           in itertools.product(universe, repeat=vocab.functions[name])}
    constants = {name: rng.randrange(size) for name in sorted(vocab.constants)}
    return Structure(size=size, relations=relations, functions=functions,
                     constants=constants)


def random_models(vocab: Vocabulary, axioms, size: int, p: float,
                  rng: random.Random, draws: int) -> Iterator[Structure]:
    """The structures among `draws` random ones that satisfy every axiom,
    in draw order; the rng is advanced by the draws consumed only."""
    for _ in range(draws):
        s = random_structure(vocab, size, p, rng)
        if satisfies_all(s, axioms):
            yield s


# ---------------------------------------------------------------------------
# Closing open formulas

def close_formulas(formulas: list[Formula], vocab: Vocabulary
                   ) -> tuple[list[Formula], Vocabulary]:
    """Replace free variables by fresh constants, shared across the list.

    Two open formulas agree on all models and assignments exactly when
    their closures agree on all models of the extended vocabulary, so
    equivalence and counter-model work runs on the closed pair.
    """
    order: list[str] = []
    for f in formulas:
        for v in free_variables(f):
            if v not in order:
                order.append(v)
    if not order:
        return list(formulas), vocab
    taken = set(vocab.relations) | set(vocab.functions) | set(vocab.constants)
    mapping: dict[str, Term] = {}
    names = []
    for v in order:
        name = fresh_name(f"c_{v}", taken)
        taken.add(name)
        names.append(name)
        mapping[v] = Const(name)
    closed = [substitute_variables(f, mapping) for f in formulas]
    return closed, vocab.extend(constants=names)


# ---------------------------------------------------------------------------
# Brute-force verdict


@dataclass(frozen=True)
class BoundedVerdict:
    """Outcome of exhaustive search over all models up to max_size.

    witness is a structure satisfying the theory on which the two
    formulas disagree, or None when they agree on every model up to
    max_size.
    """

    max_size: int
    witness: Structure | None = None

    @property
    def non_equivalent(self) -> bool:
        return self.witness is not None


def brute_force_verdict(solution: Formula, attempt: Formula, theory: Theory,
                        max_size: int, budget: int = 1_000_000) -> BoundedVerdict:
    """Exhaustively compare the pair on every theory model up to max_size."""
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    for size in range(1, max_size + 1):
        for s in enumerate_structures(vocab, size, budget):
            if not satisfies_all(s, theory.axioms):
                continue
            if eval_formula(s, sol) != eval_formula(s, att):
                return BoundedVerdict(max_size=max_size, witness=s)
    return BoundedVerdict(max_size=max_size)
