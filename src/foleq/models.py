"""Finite structures, Tarskian evaluation, random structures, and the
brute-force oracle.

The universe of a size-n structure is {0, ..., n-1}; reports render
elements 1-based for readability. The enumerator yields every structure
of a given size exactly once in a fixed order, which makes it usable as
ground truth for small instances.

Random structures are read from a `random.Random` stream in bulk: one
`getrandbits` call per draw reads the words that one `random() < p` test
per relation tuple and one `randrange(size)` per function value and
constant would read (`DrawLayout.draws`). A table over each tuple's high
byte decides all but about one tuple in 256. A value is the top
`size.bit_length()` bits of one word; a word that gives `size` or more is
rejected and the next word read instead, as CPython's `randrange` does
(checked on 3.10 to 3.13), so a draw with rejected words reads one more
word per missing value until none is missing. A draw is one `bytes`,
its relation flags and then its function values and constants, in the
format `DrawLayout` alone defines. `DrawLayout.draws` tests the axioms
it is given on the draw with one closure, compiled once per vocabulary,
size and axiom set (early-exit loops and ground chains of Python, see
`DrawLayout`), and `random_models` builds a `Structure` only for a
model. Enumerated structures share the flat layout
(`DrawLayout.choices`), and `models_among` tests a query's own axioms on
flat candidates, compiling them only for a long walk.
`eval_formula` stays the evaluator of one structure and the reference
the compiled closures are tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping

from .syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, FoleqError, Func, Iff,
    Implies, Not, Or, Term, Var, Vocabulary, drop_vacuous, fresh_name, free_variables,
    subformulas, substitute_variables,
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
        """The structure `to_json` rendered; a `ValueError` for a size
        below 1, an element outside 1..size, one symbol's tuples of
        different lengths or a function table that is not total."""
        size = obj["size"]
        if type(size) is not int or size < 1:
            raise ValueError(f"not a structure size: {size!r}")

        def elements(name: str, rows) -> list[tuple[int, ...]]:
            rows = [tuple(row) for row in rows]
            if len(set(map(len, rows))) > 1:
                raise ValueError(f"{name} has tuples of different lengths")
            if not all(type(e) is int and 1 <= e <= size for row in rows for e in row):
                raise ValueError(f"{name} has an element outside 1..{size}")
            return [tuple(e - 1 for e in row) for row in rows]

        functions = {}
        for f, rows in obj.get("functions", {}).items():
            rows = elements(f, rows)
            arity = len(rows[0]) - 1 if rows else 0
            if arity < 1 or not len({row[:-1] for row in rows}) == len(rows) == size ** arity:
                raise ValueError(f"the table of {f} is not total")
            functions[f] = {row[:-1]: row[-1] for row in rows}
        constants = obj.get("constants", {})
        [values] = elements("a constant", [constants.values()])
        return Structure(
            size=size,
            relations={r: frozenset(elements(r, ts))
                       for r, ts in obj.get("relations", {}).items()},
            functions=functions,
            constants=dict(zip(constants, values)),
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


def _powers(vocab: Vocabulary, size: int) -> list[tuple[int, int]]:
    """(base, exponent) per kind of choice: a structure of the size is one
    of the product of the `base ** exponent`s."""
    return [*((2, size ** a) for a in vocab.relations.values()),
            *((size, size ** a) for a in vocab.functions.values()),
            (size, len(vocab.constants))]


def count_structures(vocab: Vocabulary, size: int) -> int:
    return math.prod(base ** exponent for base, exponent in _powers(vocab, size))


def count_exceeds(vocab: Vocabulary, size: int, budget: int) -> bool:
    """Whether `count_structures(vocab, size)` exceeds the budget, decided
    without building a count too large to hold: a 36-ary relation has
    2 ** 2 ** 36 interpretations at size 2."""
    total = 1
    for base, exponent in _powers(vocab, size):
        if base > 1 and exponent >= budget.bit_length():
            return True                 # base ** exponent > budget
        total *= base ** exponent
        if total > budget:
            return True
    return False


def enumerate_structures(vocab: Vocabulary, size: int,
                         budget: int = 1_000_000) -> Iterator[Structure]:
    """Every structure of exactly `size`, in a fixed deterministic order:
    the product of the relation and function choices (see
    `DrawLayout.choices`) and the constants' values, the last constant
    varying fastest."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if count_exceeds(vocab, size, budget):
        raise BudgetExceededError(
            f"the structures of size {size} exceed the budget of {budget}")

    layout = draw_layout(vocab, size)
    relations, functions = layout.choices()
    # each choice becomes its table once; the structures share them
    tables = [[frozenset(itertools.compress(tuples, flags)) for flags in choices]
              for (_, tuples), choices in zip(layout.relations, relations)]
    tables += [[dict(zip(tuples, values)) for values in choices]
               for (_, tuples), choices in zip(layout.functions, functions)]
    rel_names = [name for name, _ in layout.relations]
    func_names = [name for name, _ in layout.functions]
    nr, nf = len(rel_names), len(func_names)
    for combo in itertools.product(*tables, *[range(size)] * len(layout.constants)):
        yield Structure(
            size=size,
            relations=dict(zip(rel_names, combo[:nr])),
            functions=dict(zip(func_names, combo[nr:nr + nf])),
            constants=dict(zip(layout.constants, combo[nr + nf:])),
        )


def vocabulary_key(vocab: Vocabulary) -> tuple:
    """The vocabulary's symbols as a hashable value, each kind sorted."""
    return (tuple(sorted(vocab.relations.items())),
            tuple(sorted(vocab.functions.items())), tuple(sorted(vocab.constants)))


_REJECTED = b"\xff"


@functools.lru_cache(maxsize=None)
def _value_table(size: int) -> bytes:
    """`randrange(size)` from the high byte of the 32-bit word it reads.

    CPython's `randrange(n)` (`_randbelow_with_getrandbits`, the same in
    3.10 to 3.13) keeps the top k = n.bit_length() bits of one word and
    reads another word while they give n or more. For n <= 255 those bits
    lie in the high byte: the table maps it to the value, or to
    `_REJECTED` (255, never a value)."""
    shift = 8 - size.bit_length()
    return bytes(h >> shift if h >> shift < size else _REJECTED[0] for h in range(256))


@functools.lru_cache(maxsize=64)
def _inclusion_test(p: float) -> tuple[bytes, int]:
    """`random() < p` for one relation tuple, from the high byte of the
    first of the two 32-bit words that `random()` reads.

    `random()` returns x / 2**53, x = (a >> 5) * 2**26 + (b >> 6) for the
    words a and b, so the test is x < t = ceil(p * 2**53), exactly. The
    high byte of a is x >> 45: below t >> 45 it passes, above it fails.
    The table maps each high byte to 1 or 0, or to 2 when it is t >> 45
    and only both words tell."""
    t = 0 if not p > 0 else 2 ** 53 if p >= 1 else math.ceil(p * 2 ** 53)
    edge = t >> 45 if t % 2 ** 45 else 256
    return bytes(2 if h == edge else int(h < t >> 45) for h in range(256)), t


# The most instances of an innermost run that `DrawLayout` grounds. Caps of
# 16, 64 and 256 decided pairs equally fast; the smallest keeps the source
# and each walk's compile cost of its query the smallest.
GROUNDED_INSTANCES = 16


class DrawLayout:
    """Where one vocabulary's symbols sit in a flat random draw at one size.

    A draw is what `random_structure` reads from its stream, in its order,
    as one `bytes`: first `bits` flags, one per relation tuple (relations
    sorted by name, tuples in lexicographic order), 1 when the tuple is
    in; then `values` values, those of the functions (sorted by name, the
    same tuple order) followed by the constants, sorted by name. Every
    value is below `MAX_DRAW_SIZE`, so each fits in its byte.

    The same layout holds an enumerated structure: `choices` lists each
    symbol's interpretations in `enumerate_structures`' order.

    `compile` turns axioms into one closure over a draw, the `and` of
    them in order, and `check` keeps the closures of theory axiom sets for
    every later caller. In the `source`, a quantifier run is nested loops
    over `range(size)` in a def `_q<n>` that returns at the first instance
    that decides it and takes the outer loop variables as parameters; a
    nested run is a plain call of its def. An innermost run (no
    quantifier in its body) of at most `GROUNDED_INSTANCES` instances is
    grounded instead: one `and`/`or` chain of its instances, indices and
    equalities of elements folded to constants. The source holds only
    integers, the loop variables v0, v1, ... by depth and the helpers'
    names `_q<n>`, each of which takes the draw as `F`; no symbol name
    from the input reaches it."""

    def __init__(self, key: tuple, size: int):
        relations, functions, constants = key       # `vocabulary_key`'s
        self.size = size
        self.relations = [(r, _tuples(size, a)) for r, a in relations]
        self.functions = [(f, _tuples(size, a)) for f, a in functions]
        self.constants = list(constants)
        self._at: dict[str, tuple[int, int]] = {}     # symbol -> offset, arity
        self.bits = self._place(relations, 0)
        self.values = self._place([*functions, *((c, 0) for c in constants)],
                                  self.bits) - self.bits
        self._checks: dict[tuple[Formula, ...], object] = {}
        self._names = {"__builtins__": {}, "U": tuple(range(size))}

    def _place(self, symbols, offset: int) -> int:
        for name, arity in symbols:
            self._at[name] = offset, arity
            offset += self.size ** arity
        return offset

    def draws(self, p: float, rng: random.Random, count: int, axioms=()
              ) -> Iterator[bytes]:
        """The draws among the stream's next `count` that satisfy every
        axiom, in draw order, each made when asked for and tested as it is
        read, by the closure `check` keeps; the stream is advanced by the
        draws consumed only.

        A draw is one `getrandbits` read of the words that one `random()`
        per relation tuple and one `randrange(size)` per function value
        and constant read (`_inclusion_test`, `_value_table`). Each word
        that `randrange` would reject shifts the later values by one
        word, so while values are missing the draw reads one more word
        per missing value: never a word of the next draw."""
        test = self.check(tuple(axioms)) if axioms else None
        table, t = _inclusion_test(p)
        pick = _value_table(self.size)
        getrandbits, wanted = rng.getrandbits, self.values
        split = 8 * self.bits                 # the value words start here
        nbytes = split + 4 * wanted
        nbits = 8 * nbytes
        for _ in range(count):
            raw = getrandbits(nbits).to_bytes(nbytes, "little")
            flags = raw[3:split:8].translate(table)
            if 2 in flags:
                flags = bytearray(flags)
                i = flags.find(2)
                while i >= 0:
                    a = int.from_bytes(raw[8 * i:8 * i + 4], "little")
                    b = int.from_bytes(raw[8 * i + 4:8 * i + 8], "little")
                    flags[i] = (a >> 5 << 26 | b >> 6) < t
                    i = flags.find(2, i + 1)
                flags = bytes(flags)
            values = raw[split + 3::4].translate(pick).replace(_REJECTED, b"")
            while len(values) < wanted:
                missing = wanted - len(values)
                more = getrandbits(32 * missing).to_bytes(4 * missing, "little")
                values += more[3::4].translate(pick).replace(_REJECTED, b"")
            draw = flags + values
            if test is None or test(draw):
                yield draw

    def choices(self) -> tuple[list[list[bytes]], list[list[bytes]]]:
        """Every interpretation of each relation, as the `bytes` of its
        flags, and of each function, as the `bytes` of its values, each
        list in the order `enumerate_structures` varies it. A structure's
        draw is its relations' and then its functions' choices joined,
        followed by the constants' values."""
        relations = [[bytes(mask) for mask in itertools.product((0, 1), repeat=len(tuples))]
                     for _, tuples in self.relations]
        functions = [[bytes(v) for v in itertools.product(range(self.size), repeat=len(tuples))]
                     for _, tuples in self.functions]
        return relations, functions

    def structure(self, draw: bytes) -> Structure:
        relations, functions, at = {}, {}, 0
        for name, tuples in self.relations:
            relations[name] = frozenset(itertools.compress(tuples, draw[at:at + len(tuples)]))
            at += len(tuples)
        for name, tuples in self.functions:
            functions[name] = dict(zip(tuples, draw[at:at + len(tuples)]))
            at += len(tuples)
        return Structure(self.size, relations, functions,
                         dict(zip(self.constants, draw[at:])))

    def check(self, axioms: tuple[Formula, ...]):
        """`compile`'s closure for the axioms, kept by the layout: for
        theory axioms, which every query over the theory tests again."""
        fn = self._checks.get(axioms)
        if fn is None:
            fn = self._checks[axioms] = self.compile(*axioms)
        return fn

    def compile(self, *axioms: Formula):
        """A function of a draw: whether the structure it stands for
        satisfies every closed axiom."""
        try:
            namespace = dict(self._names)
            exec(self.source(*axioms), namespace)
            return namespace["_q0"]
        except (SyntaxError, RecursionError, MemoryError):
            # nested past what Python compiles (20 loops in a def, or a parser
            # stack overflow on about 200 nested operators): walk the structure
            def fn(draw):
                return satisfies_all(self.structure(draw), axioms)
            return fn

    def source(self, *axioms: Formula) -> str:
        """The Python source `compile` executes: `_q0(F)`, the `and` of
        the axioms' expressions (`True` for none), and the defs it calls."""
        defs = [""]
        expr = " and ".join(self._formula(ax, {}, 0, defs) for ax in axioms) or "True"
        defs[0] = f"def _q0(F):\n    return {expr}\n"
        return "".join(defs)

    def _formula(self, g: Formula, scope: dict[str, int | str], depth: int,
                 defs: list[str]) -> str:
        """The expression of g; scope maps each bound variable to its
        loop variable or, in a grounded run, its element."""
        if isinstance(g, Atom):
            return f"F[{self._index(g.rel, g.args, scope)}]"
        if isinstance(g, Eq):
            left, right = self._term(g.left, scope), self._term(g.right, scope)
            if isinstance(left, int) and isinstance(right, int):
                return str(left == right)
            return f"({left} == {right})"
        if isinstance(g, Not):
            return f"(not {self._formula(g.sub, scope, depth, defs)})"
        if isinstance(g, (And, Or, Implies, Iff)):
            left = self._formula(g.left, scope, depth, defs)
            right = self._formula(g.right, scope, depth, defs)
            if isinstance(g, And):
                return f"({left} and {right})"
            if isinstance(g, Or):
                return f"({left} or {right})"
            if isinstance(g, Implies):
                return f"(not {left} or {right})"
            return f"((not {left}) == (not {right}))"
        if isinstance(g, (Forall, Exists)):
            kind, run, whole = type(g), [], g
            while isinstance(g, kind):
                run.append(g.var)
                g = g.body
            if self.size ** len(run) > GROUNDED_INSTANCES or any(
                    isinstance(h, (Forall, Exists)) for _, h in subformulas(g)):
                return self._loops(whole, run, g, scope, depth, defs)
            # grounded: one instance of the body per tuple of elements
            tuples = itertools.product(range(self.size), repeat=len(run))
            instances = [self._formula(g, {**scope, **dict(zip(run, t))}, depth, defs)
                         for t in tuples]
            return f"({(' and ' if kind is Forall else ' or ').join(instances)})"
        raise TypeError(f"not a formula: {g!r}")

    def _loops(self, whole: Formula, run: list[str], body: Formula,
               scope: dict[str, int | str], depth: int, defs: list[str]) -> str:
        """A call of a new def: loops over the run's variables that return
        at the first instance that decides the run, with the outer loop
        variables the run reads as parameters."""
        at, forall = len(defs), isinstance(whole, Forall)
        outer = [scope[v] for v in free_variables(whole) if v in scope]
        params = ", ".join(["F", *outer])
        defs.append("")
        lines, scope = [f"def _q{at}({params}):"], dict(scope)
        for k, var in enumerate(run):
            scope[var] = loop = f"v{depth + k}"
            lines.append(f"{'    ' * (k + 1)}for {loop} in U:")
        test = self._formula(body, scope, depth + len(run), defs)
        lines += [f"{'    ' * (len(run) + 1)}if {'not ' * forall}{test}: return {not forall}",
                  f"    return {forall}\n"]
        defs[at] = "\n".join(lines)
        return f"_q{at}({params})"

    def _term(self, t: Term, scope: dict[str, int | str]) -> int | str:
        """An element, when the term names a known one, or its expression."""
        if isinstance(t, Var):
            if t.name not in scope:
                raise EvalError(f"unassigned free variable {t.name}")
            return scope[t.name]
        if isinstance(t, (Const, Func)):
            return f"F[{self._index(t.name, t.args if isinstance(t, Func) else (), scope)}]"
        raise TypeError(f"not a term: {t!r}")

    def _index(self, name: str, args, scope: dict[str, int | str]) -> str:
        """The index of the symbol's entry for the arguments, its known
        part folded into one integer."""
        offset, arity = self._at.get(name, (0, None))
        if arity != len(args):
            raise EvalError(f"no interpretation for {name}/{len(args)}")
        parts = []
        for k, arg in enumerate(args):
            stride = self.size ** (arity - 1 - k)
            term = self._term(arg, scope)
            if isinstance(term, int):
                offset += term * stride
            else:
                parts.append(term if stride == 1 else f"{term} * {stride}")
        if offset or not parts:
            parts.insert(0, str(offset))
        return " + ".join(parts)


@functools.lru_cache(maxsize=None)
def _tuples(size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(size), repeat=arity))


# a draw's values are decoded from one byte of each word (`_value_table`)
MAX_DRAW_SIZE = 255

# The most flags and values (relation tuples, function values and constants)
# of one draw at a size that is sampled (`drawable`). The corpus's largest
# draws hold 1,141 (a closed pair at size 10) and 493 (a Padoa query's
# doubled vocabulary at size 6); an 8-ary relation's holds 1.7 million at
# size 6.
MAX_DRAW_ENTRIES = 4096


@functools.lru_cache(maxsize=512)
def _layout(key: tuple, size: int) -> DrawLayout:
    return DrawLayout(key, size)


def drawable(vocab: Vocabulary, size: int) -> bool:
    """Whether one draw at the size holds at most `MAX_DRAW_ENTRIES` flags
    and values."""
    return (sum(size ** a for a in vocab.relations.values())
            + sum(size ** a for a in vocab.functions.values())
            + len(vocab.constants)) <= MAX_DRAW_ENTRIES


def draw_layout(vocab: Vocabulary, size: int) -> DrawLayout:
    """The layout of the vocabulary's draws at the size, shared by every
    caller (with its compiled axioms)."""
    if not 1 <= size <= MAX_DRAW_SIZE:
        raise ValueError(f"size must be between 1 and {MAX_DRAW_SIZE}")
    return _layout(vocabulary_key(vocab), size)


def random_structure(vocab: Vocabulary, size: int, p: float,
                     rng: random.Random) -> Structure:
    """One random structure; deterministic given the rng state.

    Every relation tuple is included independently with probability p;
    function outputs and constants are drawn uniformly. Draw order is
    fixed: relations, functions, constants, each sorted by name, tuples
    in lexicographic order. A tuple is in when `rng.random() < p` would
    have been true at its turn, and a value is what `rng.randrange(size)`
    would have returned at its turn; the whole draw is read in one bulk
    read of the same words, with more words read only for values whose
    word was rejected (`DrawLayout.draws`).
    """
    layout = draw_layout(vocab, size)
    return layout.structure(next(layout.draws(p, rng, 1)))


def random_models(vocab: Vocabulary, axioms, size: int, p: float,
                  rng: random.Random, draws: int) -> Iterator[Structure]:
    """The structures among `draws` random ones that satisfy every axiom,
    in draw order; the rng is advanced by the draws consumed only.

    The axioms are tested on the flat draw by one closure compiled once
    per vocabulary and size; a `Structure` is built for a model only."""
    layout = draw_layout(vocab, size)
    for draw in layout.draws(p, rng, draws, axioms):
        yield layout.structure(draw)


class SharedList:
    """The entries of `source`, taken lazily and shared by every walk.
    `entries` grows only as far as the furthest walk has gone; a lock
    guards the growth, as threads share one backend or engine. Each entry
    weighs `entry_bytes` in a store: a table entry 8, a draw its length."""

    def __init__(self, source: Iterator, entries, entry_bytes: int = 8):
        self._source = source
        self._entries = entries
        self._entry_bytes = entry_bytes
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator:
        entries, pos = self._entries, 0
        while True:
            with self._lock:
                if pos == len(entries):
                    entry = next(self._source, None)
                    if entry is None:
                        return
                    entries.append(entry)
                entry = entries[pos]
            pos += 1
            yield entry

    @property
    def nbytes(self) -> int:
        """The bytes the entries taken so far hold."""
        return len(self._entries) * self._entry_bytes


# The most bytes of entries (`SharedList.nbytes`) a `SharedLists` store keeps:
# making a list first drops the oldest whole lists past it, and a dropped list
# is made again as it was. A batch of the corpus's 280 mutants keeps 0.72 MB in
# its backend's store and 0.06 MB in its search store, a benchmark round at
# most 0.1 MB; a full miss over an axiom-free corpus theory (E-6, E-9, E-11)
# keeps 3.0-5.1 MB, and a 4-ary relation's, 61.8 MB.
MAX_STORED_BYTES = 16 << 20


class SharedLists:
    """Lazily grown lists (`SharedList`s, or values that hold one and
    give its `nbytes`), each made once per key and kept for every later
    caller, under one lock, as threads share one backend or engine.
    `number` numbers a theory, for keys: a theory holds dicts, so it is
    keyed by value, and hashing its axioms costs as much as testing a few
    candidates."""

    def __init__(self):
        self._values: dict = {}
        self._theories: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def number(self, theory: Theory) -> int:
        key = (theory.axioms, vocabulary_key(theory.vocabulary))
        with self._lock:
            return self._theories.setdefault(key, len(self._theories))

    def get(self, key: tuple, make):
        """The value of the key, made by `make()` when the store has none;
        before making it, the oldest values are dropped while the store
        keeps more than `MAX_STORED_BYTES` bytes of entries."""
        with self._lock:
            value = self._values.get(key)
            if value is None:
                kept = sum(v.nbytes for v in self._values.values())
                while kept > MAX_STORED_BYTES:
                    kept -= self._values.pop(next(iter(self._values))).nbytes
                value = self._values[key] = make()
        return value


def theory_draws(theory: Theory, vocab: Vocabulary, size: int, streams) -> SharedList:
    """The theory's models among the draws of the `(p, stream name,
    count)` streams, taken in turn, each kept as `DrawLayout.draws` yields
    it. The list holds no caller, only its streams."""
    layout = draw_layout(vocab, size)
    return SharedList(itertools.chain.from_iterable(
        layout.draws(p, random.Random(name), count, theory.axioms)
        for p, name, count in streams), [], layout.bits + layout.values)


# Compiling a query's own axioms costs about as much as 12 `eval_formula`
# calls (0.3-0.4 ms for a pair's negated biconditional at sizes 2-4), and
# most walks end within a few candidates: compiling every query at once
# made the median decision 25% slower. So a walk compiles only once it has
# tested this many candidates on their `Structure`s (12 and 48 did no
# better on the decide benchmark).
EVALUATED_BEFORE_COMPILING = 24


def models_among(layout: DrawLayout, axioms, candidates) -> Iterator[Structure]:
    """The candidate draws that satisfy every axiom, in order, as
    `Structure`s. The first `EVALUATED_BEFORE_COMPILING` are
    tested with `satisfies_all`; past them, the axioms are compiled into
    one closure, for this walk only, and tested on the flat draw, so only
    models are built. A query's closure is not kept: a dataset has as many
    distinct queries as pairs."""
    candidates = iter(candidates)
    for draw in itertools.islice(candidates, EVALUATED_BEFORE_COMPILING):
        s = layout.structure(draw)
        if satisfies_all(s, axioms):
            yield s
    following = next(candidates, None)
    if following is None:
        return
    test = layout.compile(*axioms)
    for draw in itertools.chain((following,), candidates):
        if test(draw):
            yield layout.structure(draw)


# ---------------------------------------------------------------------------
# Closing open formulas

def close_formulas(formulas: list[Formula], vocab: Vocabulary
                   ) -> tuple[list[Formula], Vocabulary]:
    """Replace free variables by fresh constants, shared across the list,
    and drop vacuous quantifiers (`drop_vacuous`).

    Two open formulas agree on all models and assignments exactly when
    their closures agree on all models of the extended vocabulary, so
    equivalence and counter-model work runs on the closed pair.
    """
    walked = [drop_vacuous(f) for f in formulas]
    formulas = [f for f, _ in walked]
    order: list[str] = []
    for _, free in walked:
        for v in free:
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
