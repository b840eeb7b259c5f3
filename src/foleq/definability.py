"""Detecting symbols that are necessary to express a property.

A symbol is necessary for a formula modulo a theory when no equivalent
formula avoiding the symbol exists. By the projective Beth
characterization this holds exactly when two theory models exist that
agree on every other symbol yet disagree on the formula; Padoa's method
turns that into one first-order satisfiability query: duplicate the
tested symbols into two renamed copies, keep the rest shared, replace
free variables by shared fresh constants, and assert that the two
renamed variants of the formula disagree.

Equality cannot be renamed, so its necessity is reduced to that of an
ordinary binary symbol first: replace every equation by a fresh binary
relation and add axioms making that relation a congruence; equality is
necessary in the original exactly when the fresh symbol is necessary in
the rewrite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .syntax import (
    And, Atom, Eq, Forall, Formula, Func, Implies, Not, Iff, Var, Vocabulary,
    alpha_normalize, check_vocabulary, fresh_name, rename_symbols, symbols_of,
    to_str, with_children, children,
)
from .theory import Theory
from .models import close_formulas
from .prover import JsonlCache, SatQuery, axiom_text, backend_key

NECESSARY = "necessary"
NOT_SHOWN = "not-shown-necessary"
UNKNOWN = "unknown"

EQUALITY = "="


@dataclass(frozen=True)
class NecessityReport:
    """Per-symbol necessity statuses for one (formula, theory) pair."""

    statuses: dict[str, str]
    query_ids: dict[str, str] = field(default_factory=dict)

    def status(self, symbol: str) -> str:
        return self.statuses.get(symbol, UNKNOWN)

    def to_json(self) -> dict:
        return {"statuses": dict(sorted(self.statuses.items())),
                "queries": dict(sorted(self.query_ids.items()))}


@dataclass(frozen=True)
class StarTransform:
    """Equality-free rewrite of a formula and theory.

    Every equation t1 = t2 becomes congruence(t1, t2) for a fresh binary
    relation; the congruence axioms assert reflexivity, symmetry,
    transitivity, and compatibility with every relation and function.
    """

    formula: Formula
    theory: Theory                      # starred axioms + congruence axioms
    congruence_axioms: tuple[Formula, ...]
    equality_symbol: str


def _star(f: Formula, symbol: str) -> Formula:
    if isinstance(f, Eq):
        return Atom(symbol, (f.left, f.right))
    return with_children(f, tuple(_star(c, symbol) for c in children(f)))


def congruence_axioms(symbol: str, vocab: Vocabulary) -> tuple[Formula, ...]:
    """Equivalence + compatibility axioms for a binary relation symbol."""
    E = lambda a, b: Atom(symbol, (Var(a), Var(b)))
    axioms: list[Formula] = [
        Forall("x", E("x", "x")),
        Forall("x", Forall("y", Implies(E("x", "y"), E("y", "x")))),
        Forall("x", Forall("y", Forall("z", Implies(And(E("x", "y"), E("y", "z")),
                                                    E("x", "z"))))),
    ]

    def chain(parts):
        out = parts[0]
        for p in parts[1:]:
            out = And(out, p)
        return out

    def close(body: Formula, names: list[str]) -> Formula:
        for name in reversed(names):
            body = Forall(name, body)
        return body

    for rel in sorted(vocab.relations):
        arity = vocab.relations[rel]
        if arity == 0 or rel == symbol:
            continue
        xs = [f"x{i}" for i in range(arity)]
        ys = [f"y{i}" for i in range(arity)]
        agree = chain([E(x, y) for x, y in zip(xs, ys)])
        before = Atom(rel, tuple(Var(x) for x in xs))
        after = Atom(rel, tuple(Var(y) for y in ys))
        axioms.append(close(Implies(And(agree, before), after), xs + ys))
    for fn in sorted(vocab.functions):
        arity = vocab.functions[fn]
        xs = [f"x{i}" for i in range(arity)]
        ys = [f"y{i}" for i in range(arity)]
        agree = chain([E(x, y) for x, y in zip(xs, ys)])
        fx = Func(fn, tuple(Var(x) for x in xs))
        fy = Func(fn, tuple(Var(y) for y in ys))
        axioms.append(close(Implies(agree, Atom(symbol, (fx, fy))), xs + ys))
    return tuple(axioms)


def star_transform(solution: Formula, theory: Theory) -> StarTransform:
    """Rewrite formula and theory over a congruence symbol instead of =."""
    _, _, _, f_uses = symbols_of(solution)
    th_uses = any(symbols_of(ax)[3] for ax in theory.axioms)
    if not (f_uses or th_uses):
        raise ValueError("neither the formula nor the theory uses equality")
    vocab = theory.vocabulary
    taken = set(vocab.relations) | set(vocab.functions) | set(vocab.constants)
    symbol = fresh_name("E", taken)
    star_vocab = Vocabulary(
        relations={**vocab.relations, symbol: 2},
        functions=vocab.functions,
        constants=vocab.constants,
        with_equality=False,
    )
    congruence = congruence_axioms(symbol, vocab)
    starred = tuple(_star(ax, symbol) for ax in theory.axioms)
    return StarTransform(
        formula=_star(solution, symbol),
        theory=Theory(star_vocab, starred + congruence),
        congruence_axioms=congruence,
        equality_symbol=symbol,
    )


def encode_padoa(solution: Formula, theory: Theory, tested: set[str]) -> SatQuery:
    """Satisfiability query that holds iff the tested symbols are jointly
    necessary for the formula modulo the theory.

    The query duplicates each tested symbol into two copies, extends the
    theory doubled for both copies (its `theory`, shared by every query
    on these symbols), and asserts the two copies of the formula
    disagree at shared fresh constants standing for the free variables.
    """
    if not tested:
        raise ValueError("tested symbol set must not be empty")
    vocab = theory.vocabulary
    rels, funcs, consts, _ = symbols_of(solution)
    occurring = rels | funcs | consts
    for ax in theory.axioms:
        r, f, c, _ = symbols_of(ax)
        occurring |= r | f | c
    missing = tested - occurring
    if missing:
        raise ValueError(f"tested symbols do not occur: {', '.join(sorted(missing))}")

    (closed,), base_vocab = close_formulas([solution], vocab)
    taken = set(base_vocab.relations) | set(base_vocab.functions) | set(base_vocab.constants)
    first: dict[str, str] = {}
    second: dict[str, str] = {}
    for s in sorted(tested):
        a = fresh_name(f"{s}_1", taken)
        taken.add(a)
        b = fresh_name(f"{s}_2", taken)
        taken.add(b)
        first[s] = a
        second[s] = b

    def copy_decls(decls: dict[str, int]) -> dict[str, int]:
        out = {}
        for name, arity in decls.items():
            if name in tested:
                out[first[name]] = arity
                out[second[name]] = arity
            else:
                out[name] = arity
        return out

    doubled_vocab = Vocabulary(
        relations=copy_decls(dict(vocab.relations)),
        functions=copy_decls(dict(vocab.functions)),
        constants=frozenset(
            name for c in vocab.constants
            for name in ((first[c], second[c]) if c in tested else (c,))),
        with_equality=vocab.with_equality,
    )
    axioms: list[Formula] = []
    for ax in theory.axioms:
        for mapping in (first, second):
            renamed = rename_symbols(ax, mapping)
            if renamed not in axioms:
                axioms.append(renamed)
    doubled = Theory(doubled_vocab, tuple(axioms))

    query_vocab = doubled_vocab.extend(constants=sorted(base_vocab.constants - vocab.constants))
    disagreement = Iff(rename_symbols(closed, first),
                       Not(rename_symbols(closed, second)))
    check_vocabulary(disagreement, query_vocab)
    return SatQuery(axioms=doubled.axioms + (disagreement,), vocabulary=query_vocab,
                    origin="definability", theory=doubled)


class NecessityCache(JsonlCache):
    """Necessity reports keyed by the canonicalized (formula, theory) pair;
    `necessary_symbols` files them under the backend's kind. A line whose
    statuses are not an object of the three statuses is skipped."""

    def _decode(self, record: dict) -> NecessityReport:
        statuses, queries = record["statuses"], record.get("queries", {})
        if not isinstance(statuses, dict) or not isinstance(queries, dict) or any(
                status not in (NECESSARY, NOT_SHOWN, UNKNOWN) for status in statuses.values()):
            raise ValueError(f"not a necessity report: {statuses!r}")
        return NecessityReport(statuses=statuses, query_ids=queries)

    def _encode(self, report: NecessityReport) -> dict:
        return report.to_json()

    @staticmethod
    def key(solution: Formula, theory: Theory) -> str:
        return json.dumps({"formula": to_str(alpha_normalize(solution)),
                           "axioms": sorted(map(axiom_text, theory.axioms))}, sort_keys=True)


def symbol_necessity(solution: Formula, theory: Theory, symbol: str, backend,
                     timeout_ms: int | None = None) -> str:
    """Necessity status of one symbol ("=" handled via the congruence
    reduction): the status of its Padoa query, which asks for no model."""
    if symbol == EQUALITY:
        star = star_transform(solution, theory)
        return symbol_necessity(star.formula, star.theory, star.equality_symbol,
                                backend, timeout_ms)
    query = encode_padoa(solution, theory, {symbol})
    result = backend.check_sat(query, timeout_ms=timeout_ms)
    if result.status == "sat":
        return NECESSARY
    if result.status == "unsat":
        return NOT_SHOWN
    return UNKNOWN


def necessary_symbols(solution: Formula, theory: Theory, backend,
                      cache: NecessityCache | None = None,
                      timeout_ms: int | None = None,
                      symbols: set[str] | None = None) -> NecessityReport:
    """Necessity report for every non-logical symbol used by the formula.

    `symbols` restricts the report to a subset (used to test lazily only
    the symbols a strategy actually cares about); restricted reports are
    merged into the cache incrementally, and only when a status was
    computed. Without a cache, the call makes an in-memory one of its own.
    """
    cache = NecessityCache() if cache is None else cache
    key = backend_key(backend, NecessityCache.key(solution, theory))
    cached = cache.get(key)

    rels, funcs, consts, uses_eq = symbols_of(solution)
    wanted = set(rels | funcs | consts)
    if uses_eq and theory.vocabulary.with_equality:
        wanted.add(EQUALITY)
    if symbols is not None:
        wanted &= symbols

    statuses: dict[str, str] = dict(cached.statuses) if cached else {}
    query_ids: dict[str, str] = dict(cached.query_ids) if cached else {}
    fresh = [s for s in sorted(wanted) if statuses.get(s) not in (NECESSARY, NOT_SHOWN)]
    for s in fresh:
        statuses[s] = symbol_necessity(solution, theory, s, backend, timeout_ms)
        query_ids[s] = f"padoa:{s}"
    report = NecessityReport(statuses=statuses, query_ids=query_ids)
    if fresh:
        cache.put(key, report)
    return report
