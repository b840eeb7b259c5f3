"""Independent checks of foleq's answers.

The checks read answers in their printed form (formula text, counter
models in their 1-based JSON form) and judge them with a parser and a
Tarskian evaluator of their own. Nothing here imports foleq, so a fault
in `foleq.parser` or `foleq.models` cannot hide itself by agreeing with
the check.

Formulas follow the grammar in foleq's README: `forall x F`,
`exists x F`, `<->`, `->` (right associative), `|`, `&`, `~`, `t = u`,
`R(t, ...)`, `R`; whether an identifier is a relation, function or
constant is decided by the vocabulary, and undeclared identifiers are
variables.
"""

from __future__ import annotations

import itertools
import random
import re

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(<->|->|[()~&|,=]))")


class CheckError(Exception):
    """An answer failed an independent check."""


# ---------------------------------------------------------------------------
# Parsing into tuples:
#   ("R", name, args) ("=", t, u) ("~", f) ("&"|"|"|"->"|"<->", f, g)
#   ("A"|"E", var, body); terms ("v", name) ("c", name) ("f", name, args)


def parse(text: str, vocab: dict):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise CheckError(f"cannot read {text!r} at {pos}")
            break
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    relations = vocab.get("relations", {})
    functions = vocab.get("functions", {})
    constants = set(vocab.get("constants", ()))
    at = [0]

    def peek():
        return tokens[at[0]] if at[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise CheckError(f"expected {expected or 'a token'} in {text!r}")
        at[0] += 1
        return tok

    def formula():
        if peek() in ("forall", "exists"):
            kind = "A" if take() == "forall" else "E"
            var = take()
            return (kind, var, formula())
        f = implication()
        while peek() == "<->":
            take()
            f = ("<->", f, implication())
        return f

    def implication():
        parts = [binary("|", lambda: binary("&", unary))]
        while peek() == "->":
            take()
            parts.append(binary("|", lambda: binary("&", unary)))
        f = parts[-1]
        for left in reversed(parts[:-1]):
            f = ("->", left, f)
        return f

    def binary(op, operand):
        f = operand()
        while peek() == op:
            take()
            f = (op, f, operand())
        return f

    def unary():
        tok = peek()
        if tok == "~":
            take()
            return ("~", unary())
        if tok == "(":
            take()
            f = formula()
            take(")")
            return f
        if tok in ("forall", "exists"):
            return formula()
        if tok in relations:
            take()
            args = arguments() if peek() == "(" else ()
            if len(args) != relations[tok]:
                raise CheckError(f"arity of {tok} in {text!r}")
            return ("R", tok, args)
        left = term()
        take("=")
        return ("=", left, term())

    def arguments():
        take("(")
        args = [term()]
        while peek() == ",":
            take()
            args.append(term())
        take(")")
        return tuple(args)

    def term():
        name = take()
        if name in functions:
            return ("f", name, arguments())
        if name in constants:
            return ("c", name)
        if not name[0].isalpha() and name[0] != "_":
            raise CheckError(f"expected a term in {text!r}")
        return ("v", name)

    f = formula()
    if peek() is not None:
        raise CheckError(f"trailing input in {text!r}")
    return f


def free_variables(f) -> list[str]:
    """Free variables in order of first occurrence."""
    out: list[str] = []

    def term(t, bound):
        if t[0] == "v":
            if t[1] not in bound and t[1] not in out:
                out.append(t[1])
        elif t[0] == "f":
            for a in t[2]:
                term(a, bound)

    def walk(g, bound):
        op = g[0]
        if op == "R":
            for a in g[2]:
                term(a, bound)
        elif op == "=":
            term(g[1], bound)
            term(g[2], bound)
        elif op == "~":
            walk(g[1], bound)
        elif op in ("A", "E"):
            walk(g[2], bound | {g[1]})
        else:
            walk(g[1], bound)
            walk(g[2], bound)

    walk(f, frozenset())
    return out


def rename_binders(f, fresh):
    """f with each binder, in binder order, renamed to the name fresh()
    returns; the names must differ from f's free variables."""
    def term(t, env):
        if t[0] == "v":
            return ("v", env.get(t[1], t[1]))
        if t[0] == "f":
            return ("f", t[1], tuple(term(a, env) for a in t[2]))
        return t

    def walk(g, env):
        op = g[0]
        if op == "R":
            return ("R", g[1], tuple(term(a, env) for a in g[2]))
        if op == "=":
            return ("=", term(g[1], env), term(g[2], env))
        if op == "~":
            return ("~", walk(g[1], env))
        if op in ("A", "E"):
            name = fresh()
            return (op, name, walk(g[2], {**env, g[1]: name}))
        return (op, walk(g[1], env), walk(g[2], env))

    return walk(f, {})


def canonical(f) -> tuple:
    """f with bound variables renamed by binder order; alpha-equivalent
    formulas, and only those, get equal results."""
    free = set(free_variables(f))
    names = (n for n in (f"_{i}" for i in itertools.count()) if n not in free)
    return rename_binders(f, lambda: next(names))


# ---------------------------------------------------------------------------
# Structures and Tarskian evaluation


def structure_from_json(obj: dict, vocab: dict) -> dict:
    """A counter model in foleq's 1-based JSON form, validated against the
    vocabulary (extra constants are allowed: they name free variables)."""
    size = obj["size"]
    if not isinstance(size, int) or size < 1:
        raise CheckError(f"bad domain size {size!r}")

    def element(e):
        if not isinstance(e, int) or not 1 <= e <= size:
            raise CheckError(f"element {e!r} outside 1..{size}")
        return e - 1

    relations = {}
    for name, arity in vocab.get("relations", {}).items():
        rows = obj.get("relations", {}).get(name)
        if rows is None:
            raise CheckError(f"no table for relation {name}")
        if any(len(row) != arity for row in rows):
            raise CheckError(f"row of wrong arity in relation {name}")
        relations[name] = {tuple(element(e) for e in row) for row in rows}
    functions = {}
    for name, arity in vocab.get("functions", {}).items():
        table = {}
        for row in obj.get("functions", {}).get(name, ()):
            if len(row) != arity + 1:
                raise CheckError(f"row of wrong arity in function {name}")
            table[tuple(element(e) for e in row[:-1])] = element(row[-1])
        if len(table) != size ** arity:
            raise CheckError(f"function {name} is not total")
        functions[name] = table
    constants = {name: element(v) for name, v in obj.get("constants", {}).items()}
    for name in vocab.get("constants", ()):
        if name not in constants:
            raise CheckError(f"no value for constant {name}")
    return {"size": size, "relations": relations, "functions": functions,
            "constants": constants}


def _term_value(s: dict, t, env: dict) -> int:
    if t[0] == "v":
        if t[1] not in env:
            raise CheckError(f"free variable {t[1]} has no value")
        return env[t[1]]
    if t[0] == "c":
        return s["constants"][t[1]]
    return s["functions"][t[1]][tuple(_term_value(s, a, env) for a in t[2])]


def holds(s: dict, f, env: dict | None = None) -> bool:
    env = dict(env or {})

    def ev(g) -> bool:
        op = g[0]
        if op == "R":
            return tuple(_term_value(s, a, env) for a in g[2]) in s["relations"][g[1]]
        if op == "=":
            return _term_value(s, g[1], env) == _term_value(s, g[2], env)
        if op == "~":
            return not ev(g[1])
        if op == "&":
            return ev(g[1]) and ev(g[2])
        if op == "|":
            return ev(g[1]) or ev(g[2])
        if op == "->":
            return not ev(g[1]) or ev(g[2])
        if op == "<->":
            return ev(g[1]) == ev(g[2])
        var, body, universal = g[1], g[2], op == "A"
        outer = env.get(var)
        value = universal
        for e in range(s["size"]):
            env[var] = e
            if ev(body) != universal:
                value = not universal
                break
        if outer is None:
            del env[var]
        else:
            env[var] = outer
        return value

    return ev(f)


def closure_constants(formulas, vocab: dict) -> dict[str, str]:
    """Free variable -> the constant that names it in a counter model: the
    first of c_<v>, c_<v>_1, ... not already a symbol, in order of first
    occurrence across the formulas."""
    taken = (set(vocab.get("relations", {})) | set(vocab.get("functions", {}))
             | set(vocab.get("constants", ())))
    names = {}
    for f in formulas:
        for v in free_variables(f):
            if v in names:
                continue
            name, i = f"c_{v}", 0
            while name in taken:
                i += 1
                name = f"c_{v}_{i}"
            taken.add(name)
            names[v] = name
    return names


def random_structure(vocab: dict, size: int, p: float, rng: random.Random) -> dict:
    universe = range(size)
    return {
        "size": size,
        "relations": {r: {t for t in itertools.product(universe, repeat=a)
                          if rng.random() < p}
                      for r, a in sorted(vocab.get("relations", {}).items())},
        "functions": {f: {t: rng.randrange(size)
                          for t in itertools.product(universe, repeat=a)}
                      for f, a in sorted(vocab.get("functions", {}).items())},
        "constants": {c: rng.randrange(size) for c in sorted(vocab.get("constants", ()))},
    }


# ---------------------------------------------------------------------------
# The three answer checks


class Pair:
    """One solution/attempt pair over a theory, parsed by this module."""

    def __init__(self, vocab: dict, axioms: list[str], solution: str, attempt: str):
        self.vocab = vocab
        self.axioms = [parse(a, vocab) for a in axioms]
        self.solution = parse(solution, vocab)
        self.attempt = parse(attempt, vocab)
        self.free = closure_constants([self.solution, self.attempt], vocab)

    def _env(self, s: dict) -> dict:
        missing = [c for c in self.free.values() if c not in s["constants"]]
        if missing:
            raise CheckError(f"counter model lacks the constants {missing}")
        return {v: s["constants"][c] for v, c in self.free.items()}

    def check_countermodel(self, model_json: dict, direction: str) -> dict:
        """The counter model satisfies the axioms and separates the pair in
        the stated direction; returns the structure read back."""
        s = structure_from_json(model_json, self.vocab)
        if not all(holds(s, ax) for ax in self.axioms):
            raise CheckError("counter model violates an axiom")
        env = self._env(s)
        sol, att = holds(s, self.solution, env), holds(s, self.attempt, env)
        if sol == att:
            raise CheckError("counter model does not separate solution and attempt")
        stated = direction if direction != "both" else None
        actual = "too-restrictive" if sol else "too-permissive"
        if stated is not None and stated != actual:
            raise CheckError(f"counter model is {actual}, reported {direction}")
        return s

    def check_bugfix(self, structure: dict, modified: str) -> None:
        """A confirmed bugfix agrees with the solution on the counter model."""
        fixed = parse(modified, self.vocab)
        env = self._env(structure)
        # a free variable the pair lacks cannot matter to a formula proven
        # equivalent to the solution; any value will do
        env.update({v: 0 for v in free_variables(fixed) if v not in env})
        if holds(structure, fixed, env) != holds(structure, self.solution, env):
            raise CheckError(f"bugfix {modified!r} disagrees with the solution "
                             f"on the counter model")

    def refute_equivalence(self, bound: int, rng: random.Random,
                           samples_per_size: int = 40) -> dict | None:
        """A random theory model of size <= bound on which the pair differs,
        or None when the seeded search finds none."""
        extended = dict(self.vocab)
        extended["constants"] = sorted(set(self.vocab.get("constants", ()))
                                       | set(self.free.values()))
        for size in range(1, bound + 1):
            for i in range(samples_per_size):
                p = (0.5, 0.2, 0.8)[i % 3]
                s = random_structure(extended, size, p, rng)
                if not all(holds(s, ax) for ax in self.axioms):
                    continue
                env = self._env(s)
                if holds(s, self.solution, env) != holds(s, self.attempt, env):
                    return s
        return None


def bound_of(method: str | None) -> int | None:
    """k of a `bounded<=k` method, else None."""
    m = re.fullmatch(r"bounded<=(\d+)", method or "")
    return int(m.group(1)) if m else None


def check_answer(pair: Pair, verdict: dict, counterexample: dict | None,
                 bugfixes: list[str], rng: random.Random) -> None:
    """Every check that applies to one answer; raises CheckError.

    An "equivalent" verdict is searched for a refutation up to its bound
    (a cached verdict has lost its bound, so only size 1, which every
    decisive bounded search exhausts, is searched); a "syntactic" one
    must be alpha-equivalent. A counter model must be a separating
    theory model and every confirmed bugfix must agree with the solution
    on it.
    """
    status, method = verdict["status"], verdict.get("method")
    if status == "equivalent":
        if method == "syntactic":
            if canonical(pair.solution) != canonical(pair.attempt):
                raise CheckError("syntactic verdict on formulas that are not "
                                 "alpha-equivalent")
            return
        bound = bound_of(method) or 1
        witness = pair.refute_equivalence(bound, rng)
        if witness is not None:
            raise CheckError(f"equivalent ({method}) refuted by a structure of "
                             f"size {witness['size']}")
    elif status == "non-equivalent" and counterexample is not None:
        s = pair.check_countermodel(counterexample["structure"],
                                    counterexample["direction"])
        for modified in bugfixes:
            pair.check_bugfix(s, modified)


# ---------------------------------------------------------------------------
# Printing and renaming, for generated inputs and tampered answers


def to_text(f) -> str:
    """Fully parenthesised text that `parse` (and foleq's parser) reads back."""
    def term(t):
        if t[0] == "f":
            return f"{t[1]}({', '.join(map(term, t[2]))})"
        return t[1]

    op = f[0]
    if op == "R":
        return f"{f[1]}({', '.join(map(term, f[2]))})" if f[2] else f[1]
    if op == "=":
        return f"({term(f[1])} = {term(f[2])})"
    if op == "~":
        return f"~{to_text(f[1])}"
    if op in ("A", "E"):
        return f"({'forall' if op == 'A' else 'exists'} {f[1]} {to_text(f[2])})"
    return f"({to_text(f[1])} {op} {to_text(f[2])})"


def rename_bound(f, rng: random.Random, taken: set[str]):
    """f with every binder renamed to a fresh name drawn from rng; names in
    `taken` and names already drawn are avoided, so nothing is captured."""
    used = set(taken)

    def fresh():
        while True:
            name = f"{rng.choice('uvwxyz')}{rng.randrange(100)}"
            if name not in used:
                used.add(name)
                return name

    return rename_binders(f, fresh)
