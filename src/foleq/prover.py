"""Satisfiability backends and the equivalence decision procedure.

Two formulas are equivalent modulo a background theory exactly when the
theory's axioms conjoined with the negated biconditional of the pair are
unsatisfiable, so deciding equivalence reduces to one satisfiability
query.

Two backends implement the query contract, `check_sat(query, timeout_ms)`;
a "sat" answer needs a model only for a query of origin "equivalence":

* ExternalProverBackend drives an external first-order prover
  (e.g. Vampire) over the TPTP FOF format, racing one subprocess per
  configured mode and taking the first decisive SZS status. Finite
  models are extracted by a second run in finite-model-builder mode.
  The accepted model output format is pinned below; anything else is
  reported as an error rather than guessed at.

* BoundedSearchBackend searches all structures of small sizes
  exhaustively (and randomly samples larger ones), which makes it sound
  for satisfiability and sound "up to size k" for unsatisfiability. It
  keeps the package fully functional without any external prover; its
  equivalence verdicts carry the bound they were established under.
  A query walks lazily grown lists kept in the backend's store
  (`models.SharedLists`) per theory and size. At an exhaustive size it
  walks a table of the theory's models (TheoryModels), filled in
  enumeration order one symbol's tables at a time, each axiom tested
  once the tables it reads are chosen and a failure skipping the
  choices below it; the answers are those of filtering
  `models.enumerate_structures`. At a sampled size it walks, per closed
  query vocabulary too, the theory's models among the draws of one
  stream per tuple probability, taken in turn (`models.theory_draws`);
  the answers are those of filtering `models.random_models` on each
  stream in turn. Both hold each candidate as one draw of
  `models.DrawLayout` (one `bytes`), test axioms with its compiled
  closures, and build a `Structure` only for a model returned.

`decide_equivalence` reads and feeds a `DecisionCache`, whose one key
(`DecisionCache.key`) names a pair up to bound-variable names, pair order
and axiom order. The key reads the solution's normal form from the
cache's memo of what derives from a solution alone, so that the
decisions of an exercise's submissions, and a batch's duplicate groups,
normalize the solution once per engine.

Pinned finite-model output format (a subset of Vampire's fmb output)::

    % SZS output start FiniteModel ...
    tff(declare_$i1,type,fmb_$i_1:$i).
    ...
    tff(p_definition,axiom, p(fmb_$i_1) & ~p(fmb_$i_2)).
    tff(f_definition,axiom, f(fmb_$i_1) = fmb_$i_2 & ...).
    tff(c_definition,axiom, c = fmb_$i_1).
    % SZS output end FiniteModel

Domain size is the number of declared elements; relation tuples not
listed positively are false; function and constant tables must be total.
Distinctness literals (fmb_$i_j != fmb_$i_k) are ignored.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import subprocess
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Iterator

from .syntax import (
    MALFORMED_INPUT, And, Atom, Const, Eq, Exists, Forall, Formula, FoleqError, Func,
    Iff, Implies, Not, Or, Var, Vocabulary, alpha_normalize, check_vocabulary,
    symbols_of, to_str,
)
from .theory import Theory
from .models import (
    SharedList, SharedLists, Structure, close_formulas, count_exceeds, draw_layout,
    drawable, eval_formula, models_among, satisfies_all, theory_draws, vocabulary_key,
)


class ProverError(FoleqError):
    pass


@dataclass(frozen=True)
class SatQuery:
    """A pure satisfiability check over closed axioms.

    `theory` names the background theory the query extends (unset, the
    empty theory over its vocabulary): its axioms come first among the
    query's, and the query's vocabulary adds constants only. The bounded
    backend walks its tables and lists of the theory's models.
    """

    axioms: tuple[Formula, ...]
    vocabulary: Vocabulary
    origin: str = "equivalence"  # "equivalence" | "definability" | "strategy-candidate"
    theory: Theory | None = None

    def __post_init__(self):
        th = self.theory or Theory(self.vocabulary)
        object.__setattr__(self, "theory", th)
        if not (
                self.axioms[:len(th.axioms)] == th.axioms
                and self.vocabulary.relations == th.vocabulary.relations
                and self.vocabulary.functions == th.vocabulary.functions
                and self.vocabulary.constants >= th.vocabulary.constants):
            raise ValueError("a query's theory must be a prefix of its axioms "
                             "and its vocabulary up to constants")


@dataclass(frozen=True)
class ProverConfig:
    executable: str | None = None
    modes: tuple[str, ...] = ("vampire", "casc", "casc_sat")
    timeout_ms: int = 20_000            # top-level equivalence checks
    strategy_timeout_ms: int = 30_000   # calls made from inside strategies

    def __post_init__(self):
        if self.timeout_ms <= 0 or self.strategy_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if not self.modes:
            raise ValueError("at least one prover mode is required")


@dataclass(frozen=True)
class SatResult:
    status: str                      # "sat" | "unsat" | "unknown"
    model: Structure | None = None
    reason: str | None = None        # unknown: "timeout" | "prover-error" | "resource"
    bound: int | None = None         # unsat via bounded search: largest exhausted size

    @property
    def decisive(self) -> bool:
        return self.status in ("sat", "unsat")


@dataclass(frozen=True)
class Verdict:
    status: str                      # "equivalent" | "non-equivalent" | "unknown"
    counter: Structure | None = None
    direction: str | None = None     # "too-restrictive" | "too-permissive"
    reason: str | None = None
    method: str | None = None        # "prover" | "bounded<=k" | "syntactic" | "cache"
    cached_method: str | None = None  # on a cache hit: the stored verdict's method

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.method:
            out["method"] = self.method
        if self.cached_method:
            out["cached_method"] = self.cached_method
        if self.reason:
            out["reason"] = self.reason
        return out


# ---------------------------------------------------------------------------
# Reduction and TPTP encoding


def encode_equivalence(solution: Formula, attempt: Formula, theory: Theory,
                       origin: str = "equivalence") -> SatQuery:
    """Axioms whose satisfiability is exactly non-equivalence of the pair.

    Free variables are first replaced by shared fresh constants, so the
    query is well-formed for open formulas too.
    """
    check_vocabulary(solution, theory.vocabulary)
    check_vocabulary(attempt, theory.vocabulary)
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    return SatQuery(axioms=theory.axioms + (Not(Iff(sol, att)),),
                    vocabulary=vocab, origin=origin, theory=theory)


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        if ch.isascii() and (ch.isalnum() or ch == "_"):
            out.append(ch)
        else:
            out.append(f"u{ord(ch):x}")
    s = "".join(out)
    if s[0].isupper():
        s = s[0].lower() + s[1:]
    if not ("a" <= s[0] <= "z"):
        s = "s" + s
    return s


def mangle_table(vocab: Vocabulary) -> dict[str, str]:
    """Deterministic, injective map from symbol names to TPTP names.

    First letter is lowercased; a collision appends "_u" plus the hex of
    the original name, which keeps the map invertible.
    """
    table: dict[str, str] = {}
    used: set[str] = set()
    for name in sorted(set(vocab.relations) | set(vocab.functions) | set(vocab.constants)):
        cand = _sanitize(name)
        if cand in used:
            cand = f"{cand}_u{name.encode().hex()}"
        table[name] = cand
        used.add(cand)
    return table


def _tptp_term(t, table, env) -> str:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return table[t.name]
    if isinstance(t, Func):
        return f"{table[t.name]}({','.join(_tptp_term(a, table, env) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def _tptp(g: Formula, table: dict[str, str], env: dict[str, str], counter: list[int],
          top: bool = False) -> str:
    if isinstance(g, Atom):
        if not g.args:
            return table[g.rel]
        return f"{table[g.rel]}({','.join(_tptp_term(t, table, env) for t in g.args)})"
    if isinstance(g, Eq):
        s = f"{_tptp_term(g.left, table, env)} = {_tptp_term(g.right, table, env)}"
        return s if top else f"({s})"
    if isinstance(g, Not):
        return f"~{_tptp(g.sub, table, env, counter)}"
    if isinstance(g, (And, Or, Implies, Iff)):
        op = {And: "&", Or: "|", Implies: "=>", Iff: "<=>"}[type(g)]
        s = f"{_tptp(g.left, table, env, counter)} {op} {_tptp(g.right, table, env, counter)}"
        return s if top else f"({s})"
    if isinstance(g, (Forall, Exists)):
        q = "!" if isinstance(g, Forall) else "?"
        name = f"X{counter[0]}"
        counter[0] += 1
        s = f"{q} [{name}] : {_tptp(g.body, table, {**env, g.var: name}, counter)}"
        return s if top else f"({s})"
    raise TypeError(f"not a formula: {g!r}")


def to_tptp(query: SatQuery) -> str:
    """One fof axiom line per query axiom, in FOF syntax."""
    table = mangle_table(query.vocabulary)
    lines = []
    counter = [0]
    for i, ax in enumerate(query.axioms):
        counter[0] = 0
        body = _tptp(ax, table, {}, counter, top=True)
        lines.append(f"fof(ax{i}, axiom, {body}).")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SZS status and finite-model parsing

_SZS_RE = re.compile(r"^\s*%?\s*SZS status (\w+)", re.MULTILINE)
_SAT_STATUSES = {"Satisfiable", "CounterSatisfiable"}
_UNSAT_STATUSES = {"Unsatisfiable", "Theorem", "ContradictoryAxioms"}
_MODEL_BLOCK_RE = re.compile(
    r"SZS output start FiniteModel.*?\n(.*?)% SZS output end FiniteModel", re.DOTALL)
_DECLARE_RE = re.compile(r"fmb_\$i_(\d+)\s*:\s*\$i")
_DEFINITION_RE = re.compile(r"tff\(\s*[\w$]+\s*,\s*axiom\s*,(.*?)\)\s*\.", re.DOTALL)
_ELEMENT_RE = re.compile(r"^fmb_\$i_(\d+)$")
_DISTINCT_RE = re.compile(r"^\s*fmb_\$i_\d+\s*!=\s*fmb_\$i_\d+\s*$")
_LITERAL_RE = re.compile(
    r"^\s*(?P<neg>~)?\s*(?P<name>[a-z]\w*)\s*"
    r"(?:\(\s*(?P<args>[^()]*?)\s*\))?\s*"
    r"(?:=\s*(?P<value>fmb_\$i_\d+)\s*)?$")


def parse_szs_status(output: str) -> str | None:
    m = _SZS_RE.search(output)
    return m.group(1) if m else None


def parse_finite_model(output: str, vocab: Vocabulary) -> Structure:
    """Parse the pinned finite-model block into a structure.

    Raises ProverError on any deviation from the pinned format.
    """
    block = _MODEL_BLOCK_RE.search(output)
    if block is None:
        raise ProverError("no finite model block in prover output")
    text = block.group(1)
    elements = {int(m) for m in _DECLARE_RE.findall(text)}
    if not elements or elements != set(range(1, max(elements) + 1)):
        raise ProverError("bad domain declaration in finite model block")
    size = max(elements)

    table = mangle_table(vocab)
    unmangle = {v: k for k, v in table.items()}

    relations: dict[str, set[tuple[int, ...]]] = {r: set() for r in vocab.relations}
    functions: dict[str, dict[tuple[int, ...], int]] = {f: {} for f in vocab.functions}
    constants: dict[str, int] = {}

    def element(token: str) -> int:
        m = _ELEMENT_RE.match(token.strip())
        if m is None:
            raise ProverError(f"expected a domain element, got {token!r}")
        return int(m.group(1)) - 1

    for body in _DEFINITION_RE.findall(text):
        for literal in body.split("&"):
            literal = literal.strip()
            if not literal or _DISTINCT_RE.match(literal):
                continue
            m = _LITERAL_RE.match(literal)
            if m is None:
                raise ProverError(f"unparsable literal {literal!r} in finite model")
            name = unmangle.get(m.group("name"))
            if name is None:
                raise ProverError(f"unknown symbol {m.group('name')!r} in finite model")
            args = tuple(element(a) for a in m.group("args").split(",")) \
                if m.group("args") else ()
            if m.group("value") is not None:
                if m.group("neg"):
                    raise ProverError(f"negated equation {literal!r} in finite model")
                value = element(m.group("value"))
                if name in vocab.functions:
                    functions[name][args] = value
                elif name in vocab.constants and not args:
                    constants[name] = value
                else:
                    raise ProverError(f"equation for non-function {name!r}")
            else:
                if name not in vocab.relations:
                    raise ProverError(f"literal for non-relation {name!r}")
                if not m.group("neg"):
                    relations[name].add(args)

    for f, arity in vocab.functions.items():
        if len(functions[f]) != size ** arity:
            raise ProverError(f"function table for {f} is not total")
    for c in vocab.constants:
        if c not in constants:
            raise ProverError(f"no value for constant {c}")
    return Structure(size=size,
                     relations={r: frozenset(ts) for r, ts in relations.items()},
                     functions=functions, constants=constants)


# ---------------------------------------------------------------------------
# External prover backend


class ExternalProverBackend:
    """Races one prover process per mode; first decisive SZS status wins.

    With debug_agreement=True every mode is awaited and decisive answers
    that disagree raise ProverError (verdicts must not depend on which mode
    answers first).
    """

    name = "prover"

    def __init__(self, config: ProverConfig, debug_agreement: bool = False):
        if not config.executable:
            raise ValueError("external prover backend needs an executable path")
        self.config = config
        self.debug_agreement = debug_agreement
        self.calls = 0

    def check_sat(self, query: SatQuery, timeout_ms: int | None = None) -> SatResult:
        self.calls += 1
        timeout_ms = timeout_ms or self.config.timeout_ms
        problem = to_tptp(query)
        outcome = self._race(problem, timeout_ms)
        if outcome.status == "sat" and query.origin == "equivalence":
            model = self._extract_model(problem, query.vocabulary, timeout_ms)
            if model is not None:
                return SatResult("sat", model=model)
        return outcome

    def _command(self, mode: str, timeout_ms: int, fmb: bool) -> list[str]:
        seconds = max(1, (timeout_ms + 999) // 1000)
        cmd = [self.config.executable, "--mode", mode, "--time_limit", str(seconds)]
        if fmb:
            cmd += ["--saturation_algorithm", "fmb"]
        return cmd

    def _race(self, problem: str, timeout_ms: int) -> SatResult:
        deadline = time.monotonic() + timeout_ms / 1000 + 2.0
        procs: list[tuple[subprocess.Popen, object]] = []
        answers: list[SatResult] = []
        try:
            for mode in self.config.modes:
                out = tempfile.TemporaryFile(mode="w+")
                try:
                    p = subprocess.Popen(self._command(mode, timeout_ms, fmb=False),
                                         stdin=subprocess.PIPE, stdout=out,
                                         stderr=subprocess.STDOUT, text=True)
                except OSError as exc:
                    out.close()
                    return SatResult("unknown", reason=f"prover-error: {exc}")
                procs.append((p, out))
                try:
                    p.stdin.write(problem)
                    p.stdin.close()
                except OSError:
                    pass  # the process died before reading; its output decides

            pending = list(procs)
            indecisive: list[SatResult] = []
            while pending and time.monotonic() < deadline:
                still = []
                for p, out in pending:
                    if p.poll() is None:
                        still.append((p, out))
                        continue
                    out.seek(0)
                    result = self._interpret(out.read())
                    if result.decisive:
                        answers.append(result)
                        if not self.debug_agreement:
                            return result
                    else:
                        indecisive.append(result)
                pending = still
                if not pending:
                    break
                time.sleep(0.01)

            if answers:
                statuses = {a.status for a in answers}
                if len(statuses) != 1:
                    raise ProverError(f"prover modes disagree: {sorted(statuses)}")
                return answers[0]
            if pending or not indecisive:
                return SatResult("unknown", reason="timeout")
            return indecisive[0]
        finally:
            for p, out in procs:
                if p.poll() is None:
                    p.terminate()
                    try:
                        p.wait(timeout=1)
                    except subprocess.TimeoutExpired:
                        p.kill()
                out.close()

    def _interpret(self, output: str) -> SatResult:
        status = parse_szs_status(output)
        if status in _SAT_STATUSES:
            return SatResult("sat")
        if status in _UNSAT_STATUSES:
            return SatResult("unsat")
        if status in ("Timeout", "GaveUp", "Unknown", "Incomplete", "MemoryOut"):
            return SatResult("unknown", reason="timeout" if status == "Timeout" else "resource")
        return SatResult("unknown", reason="prover-error")

    def _extract_model(self, problem: str, vocab: Vocabulary,
                       timeout_ms: int) -> Structure | None:
        cmd = self._command(self.config.modes[0], timeout_ms, fmb=True)
        try:
            run = subprocess.run(cmd, input=problem, capture_output=True, text=True,
                                 timeout=timeout_ms / 1000 + 2.0)
        except (OSError, subprocess.TimeoutExpired):
            return None
        output = run.stdout + run.stderr
        if parse_szs_status(output) not in _SAT_STATUSES:
            return None
        try:
            return parse_finite_model(output, vocab)
        except ProverError:
            return None


# ---------------------------------------------------------------------------
# Bounded search backend


MAX_SIZE = 3                      # largest size tried exhaustively
EXHAUSTIVE_BUDGET = 300_000       # per-size enumeration cap
SAMPLE_SIZES = (1, 2, 3, 4, 5, 6)
SAMPLES_PER_SIZE = 3000           # sizes up to MAX_SIZE, scaled by size
LARGE_SAMPLES = 600               # flat budget for the sizes beyond
# sparse and dense tables are tried too; restrictive axiom sets often
# only have near-empty (or near-full) relation models
TUPLE_PROBABILITIES = (0.5, 0.2, 0.1, 0.9)


class TheoryModels:
    """The models of one theory at one size, in `enumerate_structures`'s
    order, found lazily and shared by every query on the theory.

    A candidate is one draw of `DrawLayout`: the `bytes` of a choice of
    relation and function tables (`DrawLayout.choices`) joined, then the
    constants' values. An entry is one choice of relation and
    function tables (an index into their product) that has a model,
    packed into one int with the bitmask of the theory-constant tuples
    that complete it to a model; the entries sit in one `SharedList`,
    in an `array` of 64-bit words when they fit. The theory's axioms are
    tested by the layout's compiled closures, so filling builds no
    `Structure`.

    The fill is a depth-first scan over the tables, one level per
    relation or function, in the choices' order, which keeps the
    product's order. An axiom that reads tables only is tested at the
    level of the last one it reads (`symbols_of`), and a failure skips
    the choices of every later table; one that reads a constant, or no
    table, is tested per constant tuple on each full choice. The axioms
    of a level, and those per constant tuple, are one closure each.
    """

    def __init__(self, theory: Theory, size: int):
        self.size = size
        self.axioms = theory.axioms
        layout = draw_layout(theory.vocabulary, size)
        relations, functions = layout.choices()
        self._choices = [*relations, *functions]
        level = {name: n for n, (name, _) in enumerate([*layout.relations, *layout.functions])}
        levels, rest = [[] for _ in self._choices], []
        for ax in theory.axioms:
            rels, funcs, consts, _ = symbols_of(ax)
            read = [level[name] for name in rels | funcs]
            (levels[max(read)] if read and not consts else rest).append(ax)
        tests = [layout.check(tuple(axioms)) if axioms else None for axioms in levels]
        self._constants = layout.constants
        tuples = [bytes(t) for t in itertools.product(range(size), repeat=len(self._constants))]
        self._index_bits = math.prod(map(len, self._choices)).bit_length()
        # more constant tuples than a 64-bit entry holds: plain ints
        wide = self._index_bits + len(tuples) > 64
        # the scan holds the table's parts but not the table, so that
        # reference counting frees the table with its backend
        deep = max((n for n, test in enumerate(tests) if test is not None), default=-1)
        strides = [math.prod(map(len, self._choices[n + 1:])) for n in range(len(self._choices))]
        leaf = layout.check(tuple(rest)) if rest else None
        fill = (self._choices, tests, leaf, tuples, self._index_bits, deep, strides)
        self._found = SharedList(_scan(fill, [c[0] for c in self._choices], 0, 0),
                              [] if wide else array("Q"))

    @property
    def nbytes(self) -> int:
        return self._found.nbytes

    def models(self, query: SatQuery) -> Iterator[Structure]:
        """The models of the query's axioms, in the order of
        `enumerate_structures(query.vocabulary, size)`: its extra
        constants take every value, interleaved by name with the
        theory's, and only the axioms after the theory's are tested
        (`models_among`)."""
        size = self.size
        layout = draw_layout(query.vocabulary, size)
        places = [layout.constants.index(c) for c in self._constants]
        values = [bytes(v) for v in itertools.product(range(size), repeat=len(layout.constants))]
        bits = [sum(v[p] * size ** (len(places) - 1 - k) for k, p in enumerate(places))
                for v in values]
        return models_among(layout, query.axioms[len(self.axioms):],
                            self._candidates(values, bits))

    def _candidates(self, values, bits) -> Iterator[bytes]:
        low = (1 << self._index_bits) - 1
        for entry in self._found:
            index, mask = entry & low, entry >> self._index_bits
            combo = []
            for choices in reversed(self._choices):
                index, digit = divmod(index, len(choices))
                combo.append(choices[digit])
            head = b"".join(reversed(combo))
            for v, bit in zip(values, bits):
                if mask >> bit & 1:
                    yield head + v


def _scan(fill: tuple, combo: list, depth: int, index: int) -> Iterator[int]:
    """The entries of a `TheoryModels` table that extend the choices
    `combo[:depth]`, in product order; `index` is the product index of
    those choices with every later table at its first. Tables not chosen
    yet keep their first choice, which the axioms tested so far do not
    read; past the deepest level with axioms the rest run as one plain
    product."""
    choices, tests, leaf, tuples, bits, deep, strides = fill
    if depth <= deep:
        test = tests[depth]
        for digit, choice in enumerate(choices[depth]):
            combo[depth] = choice
            if test is None or test(b"".join(combo)):
                yield from _scan(fill, combo, depth + 1, index + digit * strides[depth])
        return
    full = (1 << len(tuples)) - 1       # every constant tuple completes a choice
    for offset, rest in enumerate(itertools.product(*choices[depth:])):
        combo[depth:] = rest
        if leaf is None:
            mask = full
        else:
            head = b"".join(combo)
            mask = sum(1 << bit for bit, constants in enumerate(tuples)
                       if leaf(head + constants))
        if mask:
            yield mask << bits | index + offset


class BoundedSearchBackend:
    """Satisfiability by exhaustive search of small structures.

    Sizes whose structure count fits the budget are searched completely;
    the sample sizes not exhausted are sampled randomly, those whose draws
    fit `models.drawable`. A found model is
    an actual model (sound); "unsat" means no model up to the largest
    contiguously exhausted size, which is recorded in the result's bound.

    Its store (`models.SharedLists`) keeps, per theory and size, the
    table of the theory's models (`TheoryModels`) that every exhaustive
    query walks, so a theory's axioms are tested once per table, not
    once per query. The tables hold the models in the order of
    `enumerate_structures`, so the answers and bounds are those of
    filtering it.

    At each sampled size a query walks, once, the store's list of its
    theory's models among the draws of the streams
    `{seed}:backend:{size}:{p}`, p in `TUPLE_PROBABILITIES` order
    (`models.theory_draws`), per theory and whole query vocabulary (each
    closure constant shifts the streams): the first model of the query's
    own axioms (`models_among`) is the one `random_models` gives on
    fresh streams, tried one p after another.
    """

    name = "bounded"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.calls = 0
        self.store = SharedLists()

    def check_sat(self, query: SatQuery, timeout_ms: int | None = None) -> SatResult:
        # timeout_ms is accepted for interface compatibility; enumeration
        # cost is bounded by the budget instead
        del timeout_ms
        self.calls += 1
        theory, vocab, store = query.theory, query.vocabulary, self.store
        number, own = store.number(theory), query.axioms[len(theory.axioms):]
        exhausted = 0
        for size in range(1, MAX_SIZE + 1):
            if count_exceeds(vocab, size, EXHAUSTIVE_BUDGET):
                break
            table = store.get((number, size), lambda: TheoryModels(theory, size))
            model = next(table.models(query), None)
            if model is not None:
                return SatResult("sat", model=model)
            exhausted = size

        key = (number, vocabulary_key(vocab))
        for size in SAMPLE_SIZES:
            if size <= exhausted or not drawable(vocab, size):
                continue
            total = SAMPLES_PER_SIZE * size if size <= MAX_SIZE else LARGE_SAMPLES
            draws = max(1, total // len(TUPLE_PROBABILITIES))
            drawn = store.get((*key, size), lambda: theory_draws(
                theory, vocab, size, [(p, f"{self.seed}:backend:{size}:{p}", draws)
                                      for p in TUPLE_PROBABILITIES]))
            model = next(models_among(draw_layout(vocab, size), own, drawn), None)
            if model is not None:
                return SatResult("sat", model=model)

        if exhausted == 0:
            return SatResult("unknown", reason="resource")
        return SatResult("unsat", bound=exhausted)


# ---------------------------------------------------------------------------
# Decision cache


class JsonlCache:
    """Values by string key, optionally persisted as JSON lines: the file
    is read when the cache is opened, and every put appends one line
    under the lock. A line that does not parse, as a process killed during
    a put leaves, is skipped, and the next put starts on a fresh line; so
    is a line that is not UTF-8, and one that parses but is not a record
    of this cache. Subclasses
    turn values into records and back."""

    def __init__(self, path: str | None = None):
        self._data: dict[str, object] = {}
        self._lock = threading.Lock()
        self._path = path
        self._torn = False          # the file's last line lacks its newline
        if path and os.path.exists(path):
            line = b""
            with open(path, "rb") as fh:    # bytes: a line that is not UTF-8 is skipped too
                for line in fh:
                    try:
                        obj = json.loads(line.decode("utf-8"))
                        self._data[obj["key"]] = self._decode(obj)
                    except MALFORMED_INPUT:
                        continue
            self._torn = bool(line) and not line.endswith(b"\n")

    def _decode(self, record: dict):
        raise NotImplementedError

    def _encode(self, value) -> dict:
        raise NotImplementedError

    def get(self, key: str):
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, value) -> None:
        with self._lock:
            self._data[key] = value
            if self._path:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write("\n" * self._torn
                             + json.dumps({"key": key, **self._encode(value)}) + "\n")
                self._torn = False

    def __len__(self):
        return len(self._data)


@functools.lru_cache(maxsize=4096)
def axiom_text(axiom: Formula) -> str:
    """The axiom's text up to bound-variable names, as cache keys hold
    it: computed once per axiom, as every key of a theory repeats it."""
    return to_str(alpha_normalize(axiom))


def backend_key(backend, key: str) -> str:
    """A cache key among the entries of the backend's kind, so that a
    bounded "equivalent" or "not shown necessary" never serves a prover."""
    return f"{backend.name}:{key}"


# The most values a `DecisionCache` keeps of what it derives from formulas
# (`DecisionCache.facts`): two per solution, so a dataset of up to 256
# exercises computes each solution's once per engine.
MAX_FACTS = 512


class DecisionCache(JsonlCache):
    """Equivalence decisions keyed by the canonicalized pair and theory.

    Keys (`key`) ignore axiom order, formula order within the pair, and
    bound variable names; lookups add the backend kind (`backend_key`). Only
    decisive verdicts are stored, with their revalidated counter structure
    (`"counter"`, `null` for none; older lines load without one) but no
    direction, which a key that sorts the pair cannot orient. A line with
    another status, a method that is not a string or a counter that
    `Structure.from_json` rejects is skipped. Thread-safe; optionally
    persisted as JSON lines.

    Every submission of an exercise is decided, and explained, against
    the same solution, so the cache, which an engine owns, also keeps in
    memory what is derived from a solution alone (`facts`): its
    alpha-normal form and key text (`normal_form`), and the strategies'
    facts of it (`explain.formula_facts`).
    """

    def __init__(self, path: str | None = None):
        super().__init__(path)
        self._facts: dict[tuple, object] = {}

    def _decode(self, record: dict) -> Verdict:
        status, method, counter = record["status"], record.get("method"), record.get("counter")
        if status not in ("equivalent", "non-equivalent") or not (
                method is None or isinstance(method, str)):
            raise ValueError(f"not a decision: {status!r} by {method!r}")
        return Verdict(status=status, method=method,
                       counter=None if counter is None else Structure.from_json(counter))

    def _encode(self, verdict: Verdict) -> dict:
        return {"status": verdict.status, "method": verdict.method,
                "counter": verdict.counter and verdict.counter.to_json(),
                "timestamp": time.time()}

    def key(self, solution: Formula, attempt_normal: Formula, theory: Theory) -> str:
        """The pair's key: the texts of the solution's normal form
        (`normal_form`) and of `attempt_normal`, the attempt's, which the
        caller makes with `alpha_normalize` (a decision needs it anyway),
        and the theory's axiom texts."""
        return json.dumps({"pair": sorted([self.normal_form(solution)[1], to_str(attempt_normal)]),
                           "axioms": sorted(map(axiom_text, theory.axioms))}, sort_keys=True)

    # named in the class itself: perfbench's tracer wraps DecisionCache.__dict__["get"]
    get = JsonlCache.get

    def facts(self, key: tuple, make):
        """make()'s value, made once for the key and kept: the key holds
        formulas, which compare by value, so the separately parsed copies
        of one solution share it. The values are immutable; the oldest is
        dropped past `MAX_FACTS`."""
        with self._lock:
            value = self._facts.get(key)
        if value is None:
            value = make()
            with self._lock:
                if len(self._facts) >= MAX_FACTS:
                    del self._facts[next(iter(self._facts))]
                value = self._facts.setdefault(key, value)
        return value

    def normal_form(self, solution: Formula) -> tuple[Formula, str]:
        """The solution's alpha-normal form and its text, as keys hold it."""
        def make():
            normal = alpha_normalize(solution)
            return normal, to_str(normal)
        return self.facts(("normal", solution), make)

    def put(self, key: str, verdict: Verdict) -> None:
        if verdict.status == "unknown":
            return
        super().put(key, Verdict(status=verdict.status, method=verdict.method,
                                 counter=verdict.counter))


# ---------------------------------------------------------------------------
# Equivalence decision


def decide_equivalence(solution: Formula, attempt: Formula, theory: Theory,
                       backend, cache: DecisionCache | None = None,
                       timeout_ms: int | None = None,
                       origin: str = "equivalence") -> Verdict:
    """Decide the pair, consulting and feeding the cache.

    A counter structure, from the backend or a cache entry, is revalidated
    against the theory and the pair as asked, which gives its direction;
    an invalid one is dropped (the verdict stands, the structure does not).
    Only a top-level decision (origin "equivalence") gets a model from the
    backend, and only its cache hits show one: a hit of any other origin
    gives the status and method alone. The solution's normal form comes
    from the cache (`DecisionCache.normal_form`), made in memory if none is given.
    """
    cache = DecisionCache() if cache is None else cache
    attempt_normal = alpha_normalize(attempt)
    key = backend_key(backend, cache.key(solution, attempt_normal, theory))
    hit = cache.get(key)
    if hit is not None:
        counter, direction = revalidate_counter(hit.counter, solution, attempt, theory) \
            if origin == "equivalence" else (None, None)
        return Verdict(status=hit.status, counter=counter, direction=direction,
                       method="cache", cached_method=hit.method)

    # formulas identical up to bound-variable names need no backend at all
    if cache.normal_form(solution)[0] == attempt_normal:
        verdict = Verdict(status="equivalent", method="syntactic")
        cache.put(key, verdict)
        return verdict

    query = encode_equivalence(solution, attempt, theory, origin)
    result = backend.check_sat(query, timeout_ms=timeout_ms)

    if result.status == "unsat":
        method = f"bounded<={result.bound}" if result.bound is not None else backend.name
        verdict = Verdict(status="equivalent", method=method)
    elif result.status == "sat":
        counter, direction = revalidate_counter(result.model, solution, attempt, theory)
        verdict = Verdict(status="non-equivalent", counter=counter,
                          direction=direction, method=backend.name)
    else:
        return Verdict(status="unknown", reason=result.reason)

    cache.put(key, verdict)
    return verdict


def revalidate_counter(model: Structure | None, solution: Formula, attempt: Formula,
                theory: Theory) -> tuple[Structure | None, str | None]:
    if model is None:
        return None, None
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    # a cache key ignores the vocabulary: a cached model may be another's,
    # with other symbols or other arities
    arity, tables = {**vocab.relations, **vocab.functions}, {**model.relations, **model.functions}
    if (model.relations.keys(), model.functions.keys(), model.constants.keys()) != (
            vocab.relations.keys(), vocab.functions.keys(), vocab.constants) or any(
            len(t) != arity[name] for name, table in tables.items() for t in table):
        return None, None
    try:
        if not satisfies_all(model, theory.axioms):
            return None, None
        sol_val = eval_formula(model, sol)
        att_val = eval_formula(model, att)
    except FoleqError:
        return None, None
    if sol_val == att_val:
        return None, None
    return model, "too-restrictive" if sol_val and not att_val else "too-permissive"
