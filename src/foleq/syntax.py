"""First-order vocabulary, terms, formulas, and syntactic transformations.

Everything here is immutable: formulas are frozen dataclasses built from
tuples, so they can be hashed, compared structurally, and shared freely
across threads. Formula nodes are addressed by paths of child indices
(counting formula children only; terms are not addressable).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class FoleqError(Exception):
    """Base class for all errors raised by this package."""


# What reading a dataset line, a pair file or a cache line raises when it is
# malformed: bad JSON or UTF-8, JSON nested too deep, a bad field or formula
MALFORMED_INPUT = (ValueError, LookupError, TypeError, AttributeError, RecursionError, FoleqError)

# the grammar's identifiers (`parser`) and the words that no symbol may be named
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
KEYWORDS = frozenset({"forall", "exists"})


class VocabularyError(FoleqError):
    """A symbol is undeclared, clashes, or is used with the wrong arity."""


class AddressError(FoleqError):
    """A node address does not exist in the formula."""


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class Vocabulary:
    """A first-order signature: relation, function, and constant symbols.

    Relation arities may be 0 (propositional atoms); function arities are
    at least 1. Names must be distinct across the three kinds.
    """

    relations: Mapping[str, int] = field(default_factory=dict)
    functions: Mapping[str, int] = field(default_factory=dict)
    constants: frozenset[str] = frozenset()
    with_equality: bool = True

    def __post_init__(self):
        object.__setattr__(self, "relations", dict(self.relations))
        object.__setattr__(self, "functions", dict(self.functions))
        object.__setattr__(self, "constants", frozenset(self.constants))
        names = list(self.relations) + list(self.functions) + list(self.constants)
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise VocabularyError(f"symbol declared more than once: {', '.join(dupes)}")
        for name, arity in self.relations.items():
            if arity < 0:
                raise VocabularyError(f"relation {name} has negative arity")
        for name, arity in self.functions.items():
            if arity < 1:
                raise VocabularyError(f"function {name} must have arity >= 1")

    def declares(self, name: str) -> bool:
        return name in self.relations or name in self.functions or name in self.constants

    def extend(self, *, relations: Mapping[str, int] = (), functions: Mapping[str, int] = (),
               constants=()) -> "Vocabulary":
        """A copy with extra symbols (names must be fresh)."""
        return Vocabulary(
            relations={**self.relations, **dict(relations)},
            functions={**self.functions, **dict(functions)},
            constants=self.constants | set(constants),
            with_equality=self.with_equality,
        )

    def to_json(self) -> dict:
        return {
            "relations": dict(sorted(self.relations.items())),
            "functions": dict(sorted(self.functions.items())),
            "constants": sorted(self.constants),
            "with_equality": self.with_equality,
        }

    @staticmethod
    def from_json(obj: dict) -> "Vocabulary":
        """The vocabulary of `to_json`'s form; VocabularyError names the
        first field of another type, or a name the grammar cannot write."""
        if not isinstance(obj, dict):
            raise VocabularyError("a vocabulary must be an object")
        arities = {}
        for kind, least in (("relations", 0), ("functions", 1)):
            symbols = obj.get(kind, {})
            if not isinstance(symbols, dict):
                raise VocabularyError(f"{kind} must be an object of arities")
            for name, arity in symbols.items():
                # bool is an int subclass, and no arity
                if type(arity) is not int or arity < least:
                    raise VocabularyError(f"{kind[:-1]} {name} must have an integer "
                                          f"arity >= {least}, not {arity!r}")
            arities[kind] = symbols
        constants = obj.get("constants", [])
        if not (isinstance(constants, list) and all(isinstance(c, str) for c in constants)):
            raise VocabularyError("constants must be a list of names")
        with_equality = obj.get("with_equality", True)
        if not isinstance(with_equality, bool):
            raise VocabularyError("with_equality must be true or false")
        for name in [*arities["relations"], *arities["functions"], *constants]:
            if not IDENTIFIER.fullmatch(name) or name in KEYWORDS:
                raise VocabularyError(f"symbol name {name!r} is not an identifier")
        return Vocabulary(constants=frozenset(constants), with_equality=with_equality,
                          **arities)


def fresh_name(base: str, taken) -> str:
    """The first of base, base_1, base_2, ... not contained in `taken`."""
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Func(Term):
    name: str
    args: tuple[Term, ...]

    def __str__(self):
        return f"{self.name}({', '.join(map(str, self.args))})"


def term_variables(t: Term) -> list[str]:
    """Variable names occurring in t, in left-to-right order, with repeats."""
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, Func):
        out: list[str] = []
        for a in t.args:
            out.extend(term_variables(a))
        return out
    return []


def map_term_variables(t: Term, mapping: Mapping[str, Term]) -> Term:
    """t with every variable replaced according to mapping (missing = keep)."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Func):
        return Func(t.name, tuple(map_term_variables(a, mapping) for a in t.args))
    return t


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


BINARY = (And, Or, Implies, Iff)
QUANTIFIERS = (Forall, Exists)

Address = tuple[int, ...]


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, Not):
        return (f.sub,)
    if isinstance(f, QUANTIFIERS):
        return (f.body,)
    return ()


def with_children(f: Formula, new: tuple[Formula, ...]) -> Formula:
    if isinstance(f, BINARY):
        return type(f)(new[0], new[1])
    if isinstance(f, Not):
        return Not(new[0])
    if isinstance(f, QUANTIFIERS):
        return type(f)(f.var, new[0])
    return f


def subformulas(f: Formula, address: Address = ()) -> Iterator[tuple[Address, Formula]]:
    """All (address, node) pairs in depth-first, left-to-right order."""
    yield address, f
    for i, c in enumerate(children(f)):
        yield from subformulas(c, address + (i,))


def subformula_at(f: Formula, address: Address) -> Formula:
    node = f
    for step, i in enumerate(address):
        kids = children(node)
        if i < 0 or i >= len(kids):
            raise AddressError(f"no child {i} at depth {step} of {address}")
        node = kids[i]
    return node


def rewrite_at(f: Formula, address: Address, replacement: Formula) -> Formula:
    """f with the subtree at `address` replaced.

    Purely structural: variables of the replacement refer to whatever
    binders are in scope at the address (that is what guard insertion and
    the other edits rely on).
    """
    if not address:
        return replacement
    i, rest = address[0], address[1:]
    kids = children(f)
    if i < 0 or i >= len(kids):
        raise AddressError(f"no child {i} in {type(f).__name__}")
    new = list(kids)
    new[i] = rewrite_at(kids[i], rest, replacement)
    return with_children(f, tuple(new))


def atoms_of(f: Formula) -> Iterator[tuple[Address, Formula]]:
    """All atom and equality occurrences with their addresses."""
    for addr, node in subformulas(f):
        if isinstance(node, (Atom, Eq)):
            yield addr, node


def formula_terms(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, Atom):
        return f.args
    if isinstance(f, Eq):
        return (f.left, f.right)
    return ()


def map_atom_variables(atom: Formula, mapping: Mapping[str, Term]) -> Formula:
    """The atom or equation with its variables replaced according to
    mapping (missing = keep)."""
    if isinstance(atom, Eq):
        return Eq(map_term_variables(atom.left, mapping),
                  map_term_variables(atom.right, mapping))
    return Atom(atom.rel, tuple(map_term_variables(t, mapping) for t in atom.args))


def free_variables(f: Formula) -> list[str]:
    """Free variable names, ordered by first occurrence."""
    out: list[str] = []

    def walk(g: Formula, bound: frozenset[str]):
        if isinstance(g, (Atom, Eq)):
            for t in formula_terms(g):
                for v in term_variables(t):
                    if v not in bound and v not in out:
                        out.append(v)
        elif isinstance(g, QUANTIFIERS):
            walk(g.body, bound | {g.var})
        else:
            for c in children(g):
                walk(c, bound)

    walk(f, frozenset())
    return out


def symbols_of(f: Formula) -> tuple[set[str], set[str], set[str], bool]:
    """(relations, functions, constants, uses_equality) occurring in f;
    a walk of explicit stacks, as `alpha_normalize` calls it on each input."""
    rels: set[str] = set()
    funcs: set[str] = set()
    consts: set[str] = set()
    uses_eq = False
    nodes, terms = [f], []
    while nodes:
        node = nodes.pop()
        if isinstance(node, Atom):
            rels.add(node.rel)
        uses_eq = uses_eq or isinstance(node, Eq)
        terms.extend(formula_terms(node))
        nodes.extend(children(node))
    while terms:
        t = terms.pop()
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, Func):
            funcs.add(t.name)
            terms.extend(t.args)
    return rels, funcs, consts, uses_eq


def check_vocabulary(f: Formula, vocab: Vocabulary) -> None:
    """Raise VocabularyError unless every symbol use matches its declaration."""

    def check_term(t: Term):
        if isinstance(t, Var):
            if vocab.declares(t.name):
                raise VocabularyError(f"declared symbol {t.name} used as a variable")
        elif isinstance(t, Const):
            if t.name not in vocab.constants:
                raise VocabularyError(f"undeclared constant {t.name}")
        elif isinstance(t, Func):
            arity = vocab.functions.get(t.name)
            if arity is None:
                raise VocabularyError(f"undeclared function {t.name}")
            if arity != len(t.args):
                raise VocabularyError(
                    f"function {t.name} has arity {arity}, used with {len(t.args)} arguments")
            for a in t.args:
                check_term(a)

    for _, node in subformulas(f):
        if isinstance(node, Atom):
            arity = vocab.relations.get(node.rel)
            if arity is None:
                raise VocabularyError(f"undeclared relation {node.rel}")
            if arity != len(node.args):
                raise VocabularyError(
                    f"relation {node.rel} has arity {arity}, used with {len(node.args)} arguments")
        elif isinstance(node, Eq) and not vocab.with_equality:
            raise VocabularyError("equality used over an equality-free vocabulary")
        elif isinstance(node, QUANTIFIERS) and vocab.declares(node.var):
            raise VocabularyError(f"declared symbol {node.var} used as a bound variable")
        for t in formula_terms(node):
            check_term(t)


# ---------------------------------------------------------------------------
# Printing

_PREC_QUANT = 0
_PREC_IFF = 1
_PREC_IMPL = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def to_str(f: Formula) -> str:
    """Render in the concrete grammar; `parse(to_str(f))` rebuilds f."""
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    if isinstance(f, Atom):
        s = f.rel if not f.args else f"{f.rel}({', '.join(map(str, f.args))})"
        prec = _PREC_ATOM
    elif isinstance(f, Eq):
        s = f"{f.left} = {f.right}"
        prec = _PREC_ATOM
    elif isinstance(f, Not):
        # equalities are parenthesized under ~ for readability
        inner = _render(f.sub, _PREC_UNARY)
        if isinstance(f.sub, Eq):
            inner = f"({inner})"
        s = f"~{inner}"
        prec = _PREC_UNARY
    elif isinstance(f, And):
        s = f"{_render(f.left, _PREC_AND)} & {_render(f.right, _PREC_UNARY)}"
        prec = _PREC_AND
    elif isinstance(f, Or):
        s = f"{_render(f.left, _PREC_OR)} | {_render(f.right, _PREC_AND)}"
        prec = _PREC_OR
    elif isinstance(f, Implies):
        # right-associative
        s = f"{_render(f.left, _PREC_OR)} -> {_render(f.right, _PREC_IMPL)}"
        prec = _PREC_IMPL
    elif isinstance(f, Iff):
        s = f"{_render(f.left, _PREC_IFF)} <-> {_render(f.right, _PREC_IMPL)}"
        prec = _PREC_IFF
    elif isinstance(f, Forall):
        s = f"forall {f.var} {_render(f.body, _PREC_QUANT)}"
        prec = _PREC_QUANT
    elif isinstance(f, Exists):
        s = f"exists {f.var} {_render(f.body, _PREC_QUANT)}"
        prec = _PREC_QUANT
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if prec < ctx else s


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(f: Formula) -> Formula:
    """Equivalent formula with negation only directly above atoms.

    Implication and biconditional are eliminated; quantifiers are dualized
    when a negation moves across them.
    """
    return _nnf(f, positive=True)


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, (Atom, Eq)):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return _nnf(f.sub, not positive)
    if isinstance(f, And):
        l, r = _nnf(f.left, positive), _nnf(f.right, positive)
        return And(l, r) if positive else Or(l, r)
    if isinstance(f, Or):
        l, r = _nnf(f.left, positive), _nnf(f.right, positive)
        return Or(l, r) if positive else And(l, r)
    if isinstance(f, Implies):
        if positive:
            return Or(_nnf(f.left, False), _nnf(f.right, True))
        return And(_nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        if positive:
            return And(Or(_nnf(f.left, False), _nnf(f.right, True)),
                       Or(_nnf(f.right, False), _nnf(f.left, True)))
        return Or(And(_nnf(f.left, True), _nnf(f.right, False)),
                  And(_nnf(f.right, True), _nnf(f.left, False)))
    if isinstance(f, Forall):
        body = _nnf(f.body, positive)
        return Forall(f.var, body) if positive else Exists(f.var, body)
    if isinstance(f, Exists):
        body = _nnf(f.body, positive)
        return Exists(f.var, body) if positive else Forall(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Prenex decomposition

Prefix = tuple[tuple[str, str], ...]  # ("forall" | "exists", variable)


def prenex_decompose(f: Formula) -> tuple[Prefix, Formula] | None:
    """(prefix, matrix) when f is a quantifier block over a quantifier-free
    matrix, else None."""
    prefix: list[tuple[str, str]] = []
    node = f
    while isinstance(node, QUANTIFIERS):
        prefix.append(("forall" if isinstance(node, Forall) else "exists", node.var))
        node = node.body
    if any(isinstance(sub, QUANTIFIERS) for _, sub in subformulas(node)):
        return None
    return tuple(prefix), node


def prenex_recompose(prefix: Prefix, matrix: Formula) -> Formula:
    f = matrix
    for kind, var in reversed(prefix):
        f = Forall(var, f) if kind == "forall" else Exists(var, f)
    return f


# ---------------------------------------------------------------------------
# Alpha normalization and substitution


def alpha_normalize(f: Formula) -> Formula:
    """Rename bound variables to v0, v1, ... in binder-encounter order.

    Free variables are untouched; canonical names that would collide with
    a free variable or a constant are skipped, so alpha-equivalent inputs
    still map to identical outputs (they share their free names and
    constants), and the printed output tells a bound variable from a constant.
    """
    taken = {*free_variables(f), *symbols_of(f)[2]}
    counter = [0]

    def next_name() -> str:
        while True:
            name = f"v{counter[0]}"
            counter[0] += 1
            if name not in taken:
                return name

    def walk(g: Formula, env: dict[str, Var]) -> Formula:
        if isinstance(g, (Atom, Eq)):
            return map_atom_variables(g, env)
        if isinstance(g, QUANTIFIERS):
            name = next_name()
            return type(g)(name, walk(g.body, {**env, g.var: Var(name)}))
        if isinstance(g, Not):
            return Not(walk(g.sub, env))
        return type(g)(walk(g.left, env), walk(g.right, env))

    return walk(f, {})


def drop_vacuous(f: Formula) -> tuple[Formula, list[str]]:
    """f without the quantifiers whose variable is not free in their body,
    and its free variables as `free_variables` orders them, from one walk;
    unchanged subtrees are kept as they are. Domains are non-empty, so
    such a quantifier changes no truth value, while a run of them
    multiplies the instances an evaluation walks."""

    def walk(g: Formula) -> tuple[Formula, list[str]]:
        if isinstance(g, QUANTIFIERS):
            body, free = walk(g.body)
            if g.var not in free:
                return body, free
            return ((g if body is g.body else type(g)(g.var, body)),
                    [v for v in free if v != g.var])
        if isinstance(g, Not):
            sub, free = walk(g.sub)
            return (g if sub is g.sub else Not(sub)), free
        if isinstance(g, BINARY):
            left, free = walk(g.left)
            right, more = walk(g.right)
            if more:
                free = free + [v for v in more if v not in free]
            if left is g.left and right is g.right:
                return g, free
            return type(g)(left, right), free
        free = []
        for t in formula_terms(g):
            for v in term_variables(t):
                if v not in free:
                    free.append(v)
        return g, free

    return walk(f)


def rename_symbols(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """f with relation, function, and constant names replaced wholesale."""

    def walk_term(t: Term) -> Term:
        if isinstance(t, Const):
            return Const(mapping.get(t.name, t.name))
        if isinstance(t, Func):
            return Func(mapping.get(t.name, t.name), tuple(map(walk_term, t.args)))
        return t

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(mapping.get(g.rel, g.rel), tuple(map(walk_term, g.args)))
        if isinstance(g, Eq):
            return Eq(walk_term(g.left), walk_term(g.right))
        return with_children(g, tuple(map(walk, children(g))))

    return walk(f)


def substitute_variables(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables.

    Binders whose variable would capture a free variable of a substituted
    term are renamed to a fresh name.
    """

    def walk(g: Formula, env: dict[str, Term]) -> Formula:
        if isinstance(g, (Atom, Eq)):
            return map_atom_variables(g, env)
        if isinstance(g, QUANTIFIERS):
            env = {v: t for v, t in env.items() if v != g.var}
            incoming = {name for t in env.values() for name in term_variables(t)}
            var, body = g.var, g.body
            if var in incoming:
                taken = incoming | set(env) | set(free_variables(body))
                renamed = fresh_name(var, taken)
                env = {**env, var: Var(renamed)}
                var = renamed
            return type(g)(var, walk(body, env))
        return with_children(g, tuple(walk(c, env) for c in children(g)))

    return walk(f, dict(mapping))
