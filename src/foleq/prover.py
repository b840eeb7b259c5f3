"""Satisfiability backends and the equivalence decision procedure.

Two formulas are equivalent modulo a background theory exactly when the
theory's axioms conjoined with the negated biconditional of the pair are
unsatisfiable, so deciding equivalence reduces to one satisfiability
query.

Two backends implement the query contract:

* ExternalProverBackend drives an external first-order prover
  (e.g. Vampire) over the TPTP FOF format, racing one subprocess per
  configured mode and taking the first decisive SZS status. Finite
  counter models are extracted by a second run in finite-model-builder
  mode. The accepted model output format is pinned below; anything else
  is reported as an error rather than guessed at.

* BoundedSearchBackend searches all structures of small sizes
  exhaustively (and randomly samples larger ones), which makes it sound
  for satisfiability and sound "up to size k" for unsatisfiability. It
  keeps the package fully functional without any external prover; its
  equivalence verdicts carry the bound they were established under.
  Every exhaustive query walks a per-backend table of its theory's
  models (TheoryModels), filled lazily and in enumeration order, so a
  theory's axioms are tested once per backend and the answers are those
  of filtering `models.enumerate_structures`. Every random query walks
  a per-backend list of the theory's models among the draws of its
  stream (TheoryDraws), packed one int per kept draw, so the answers are
  those of filtering `models.random_models`.

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

import itertools
import json
import math
import os
import random
import re
import subprocess
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Iterator

from .syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, FoleqError, Func, Iff,
    Implies, Not, Or, Var, Vocabulary, alpha_normalize, check_vocabulary,
    to_str,
)
from .theory import Theory
from .models import (
    Structure, close_formulas, count_structures, eval_formula, random_structure,
    satisfies_all, symbol_choices,
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

    def check_sat(self, query: SatQuery, timeout_ms: int | None = None,
                  want_model: bool = False) -> SatResult:
        self.calls += 1
        timeout_ms = timeout_ms or self.config.timeout_ms
        problem = to_tptp(query)
        outcome = self._race(problem, timeout_ms)
        if outcome.status == "sat" and want_model:
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


class _LazyList:
    """Entries found lazily and shared by every query that walks them.
    The list grows only as far as a walk has gone; a lock guards the
    growth, as threads share one backend."""

    def __init__(self, entries):
        self._entries = entries
        self._lock = threading.Lock()

    def _grow(self) -> bool:
        """Examine the next candidate, appending it if it is an entry;
        False once there are none left."""
        raise NotImplementedError

    def _walk(self) -> Iterator[int]:
        pos = 0
        while True:
            with self._lock:
                while pos == len(self._entries) and self._grow():
                    pass
                if pos == len(self._entries):
                    return
                entry = self._entries[pos]
            pos += 1
            yield entry


class TheoryModels(_LazyList):
    """The models of one theory at one size, in `enumerate_structures`'s
    order, found lazily and shared by every query on the theory.

    An entry is one choice of relation and function tables (an index
    into their product) that has a model, packed into one int with the
    bitmask of the theory-constant tuples that complete it to a model.
    """

    def __init__(self, theory: Theory, size: int):
        self.size = size
        self.axioms = theory.axioms
        relations, functions = symbol_choices(theory.vocabulary, size)
        self._names = list(relations), list(functions)
        self._choices = [*relations.values(), *functions.values()]
        self._constants = sorted(theory.vocabulary.constants)
        self._tuples = list(itertools.product(range(size), repeat=len(self._constants)))
        self._unscanned = enumerate(itertools.product(*self._choices))
        self._index_bits = math.prod(map(len, self._choices)).bit_length()
        # more constant tuples than a 64-bit entry holds: plain ints
        wide = self._index_bits + len(self._tuples) > 64
        super().__init__([] if wide else array("Q"))

    def _grow(self) -> bool:
        index, combo = next(self._unscanned, (None, None))
        if combo is None:
            return False
        relations, functions = self._tables(combo)
        # without axioms every constant tuple completes the choice
        mask = 0 if self.axioms else (1 << len(self._tuples)) - 1
        for bit, values in enumerate(self._tuples if self.axioms else ()):
            s = Structure(self.size, relations, functions,
                          dict(zip(self._constants, values)))
            if satisfies_all(s, self.axioms):
                mask |= 1 << bit
        if mask:
            self._entries.append(mask << self._index_bits | index)
        return True

    def _tables(self, combo) -> tuple[dict, dict]:
        rel_names, func_names = self._names
        return (dict(zip(rel_names, combo)),
                dict(zip(func_names, combo[len(rel_names):])))

    def models(self, query: SatQuery) -> Iterator[Structure]:
        """The models of the query's axioms, in the order of
        `enumerate_structures(query.vocabulary, size)`: its extra
        constants take every value, interleaved by name with the
        theory's, and only the axioms after the theory's are tested."""
        size = self.size
        names = sorted(query.vocabulary.constants)
        places = [names.index(c) for c in self._constants]
        values = list(itertools.product(range(size), repeat=len(names)))
        bits = [sum(v[p] * size ** (len(places) - 1 - k) for k, p in enumerate(places))
                for v in values]
        rest = query.axioms[len(self.axioms):]
        low = (1 << self._index_bits) - 1
        for entry in self._walk():
            index, mask = entry & low, entry >> self._index_bits
            combo = []
            for choices in reversed(self._choices):
                index, digit = divmod(index, len(choices))
                combo.append(choices[digit])
            relations, functions = self._tables(combo[::-1])
            for v, bit in zip(values, bits):
                if mask >> bit & 1:
                    s = Structure(size, relations, functions, dict(zip(names, v)))
                    if satisfies_all(s, rest):
                        yield s


class TheoryDraws(_LazyList):
    """The models of one theory among `draws` draws of one random
    stream over a query vocabulary, in draw order, found lazily and
    shared by every query over that vocabulary.

    The draws are `random_structure`'s over the whole query vocabulary:
    it draws constants last, so each closure constant shifts the stream.
    A kept draw is packed into one int, in `random_structure`'s order:
    one bit per relation tuple, then the function values and constants
    as base-`size` digits. `tuples` holds the tuple lists by (size,
    arity), shared with other lists; the stream is dropped once spent.
    """

    def __init__(self, theory: Theory, vocab: Vocabulary, size: int, p: float,
                 rng: random.Random, draws: int, tuples: dict | None = None):
        super().__init__([])
        self.size = size
        self.axioms = theory.axioms
        self._vocab, self._p, self._rng, self._left = vocab, p, rng, draws
        tuples = {} if tuples is None else tuples
        for arity in {*vocab.relations.values(), *vocab.functions.values()}:
            if (size, arity) not in tuples:
                tuples[size, arity] = tuple(itertools.product(range(size), repeat=arity))
        self._relations = [(r, tuples[size, a]) for r, a in sorted(vocab.relations.items())]
        self._functions = [(f, tuples[size, a]) for f, a in sorted(vocab.functions.items())]
        self._constants = sorted(vocab.constants)
        self._bits = sum(len(ts) for _, ts in self._relations)

    def _grow(self) -> bool:
        if not self._left:
            self._rng = None
            return False
        self._left -= 1
        s = random_structure(self._vocab, self.size, self._p, self._rng)
        if satisfies_all(s, self.axioms):
            self._entries.append(self.pack(s))
        return True

    def pack(self, s: Structure) -> int:
        packed, bit = 0, 0
        for name, tuples in self._relations:
            table = s.relations[name]
            for t in tuples:
                if t in table:
                    packed |= 1 << bit
                bit += 1
        digits = [s.functions[name][t] for name, tuples in self._functions for t in tuples]
        digits += [s.constants[c] for c in self._constants]
        value = 0
        for digit in reversed(digits):
            value = value * self.size + digit
        return packed | value << self._bits

    def unpack(self, packed: int) -> Structure:
        size = self.size
        relations = {}
        for name, tuples in self._relations:
            # the low bits first; a missing high bit is a tuple left out
            relations[name] = frozenset(itertools.compress(
                tuples, map(int, bin(packed & ((1 << len(tuples)) - 1))[:1:-1])))
            packed >>= len(tuples)
        functions = {}
        for name, tuples in self._functions:
            table = functions[name] = {}
            for t in tuples:
                packed, table[t] = divmod(packed, size)
        constants = {}
        for c in self._constants:
            packed, constants[c] = divmod(packed, size)
        return Structure(size, relations, functions, constants)

    def models(self, query: SatQuery) -> Iterator[Structure]:
        """The models of the query's axioms among the draws, in draw
        order: those `random_models(query.vocabulary, query.axioms, ...)`
        yields on a fresh stream. Only the axioms after the theory's are
        tested."""
        rest = query.axioms[len(self.axioms):]
        for packed in self._walk():
            s = self.unpack(packed)
            if satisfies_all(s, rest):
                yield s


def _vocabulary_key(vocab: Vocabulary) -> tuple:
    return (tuple(sorted(vocab.relations.items())),
            tuple(sorted(vocab.functions.items())), tuple(sorted(vocab.constants)))


class BoundedSearchBackend:
    """Satisfiability by exhaustive search of small structures.

    Sizes whose structure count fits the budget are searched completely;
    the sample sizes not exhausted are sampled randomly. A found model is
    an actual model (sound); "unsat" means no model up to the largest
    contiguously exhausted size, which is recorded in the result's bound.

    At each exhausted size a query walks the backend's table of its
    theory's models (`TheoryModels`), so a theory's axioms are tested
    once per backend, not once per query. The tables hold the same
    models in the same order as `enumerate_structures`, so the answers
    and bounds are those of filtering it.

    At each sampled size and tuple probability a query walks the
    backend's list of its theory's models among the draws of the stream
    `{seed}:backend:{size}:{p}` (`TheoryDraws`), one list per theory and
    whole query vocabulary. The stream does not depend on the query, so
    the draws are made and the theory's axioms tested once per backend;
    the first model found is the one a fresh stream would give.
    """

    name = "bounded"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.calls = 0
        self._tables: dict[tuple, TheoryModels] = {}
        self._draws: dict[tuple, TheoryDraws] = {}
        self._tuples: dict[tuple[int, int], tuple] = {}
        self._tables_lock = threading.Lock()

    def _shared(self, lists: dict, key: tuple, make):
        with self._tables_lock:
            found = lists.get(key)
            if found is None:
                found = lists[key] = make()
        return found

    def _models(self, query: SatQuery, size: int) -> Iterator[Structure]:
        theory = query.theory
        # Theory holds dicts, so it is keyed by value
        key = (theory.axioms, _vocabulary_key(theory.vocabulary), size)
        return self._shared(self._tables, key,
                            lambda: TheoryModels(theory, size)).models(query)

    def _drawn(self, query: SatQuery, size: int, p: float, draws: int
               ) -> Iterator[Structure]:
        theory, vocab = query.theory, query.vocabulary
        key = (theory.axioms, _vocabulary_key(vocab), size, p, draws)
        return self._shared(self._draws, key, lambda: TheoryDraws(
            theory, vocab, size, p, random.Random(f"{self.seed}:backend:{size}:{p}"),
            draws, self._tuples)).models(query)

    def check_sat(self, query: SatQuery, timeout_ms: int | None = None,
                  want_model: bool = True) -> SatResult:
        # timeout_ms is accepted for interface compatibility; enumeration
        # cost is bounded by the budget instead
        del timeout_ms, want_model
        self.calls += 1
        exhausted = 0
        for size in range(1, MAX_SIZE + 1):
            if count_structures(query.vocabulary, size) > EXHAUSTIVE_BUDGET:
                break
            model = next(self._models(query, size), None)
            if model is not None:
                return SatResult("sat", model=model)
            exhausted = size

        for size in SAMPLE_SIZES:
            if size <= exhausted:
                continue
            total = SAMPLES_PER_SIZE * size if size <= MAX_SIZE else LARGE_SAMPLES
            draws = max(1, total // len(TUPLE_PROBABILITIES))
            for p in TUPLE_PROBABILITIES:
                model = next(self._drawn(query, size, p, draws), None)
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
    a put leaves, is skipped, and the next put starts on a fresh line.
    Subclasses turn values into records and back."""

    def __init__(self, path: str | None = None):
        self._data: dict[str, object] = {}
        self._lock = threading.Lock()
        self._path = path
        self._torn = False          # the file's last line lacks its newline
        if path and os.path.exists(path):
            line = ""
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    self._data[obj["key"]] = self._decode(obj)
            self._torn = bool(line) and not line.endswith("\n")

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


def backend_key(backend, key: str) -> str:
    """A cache key among the entries of the backend's kind, so that a
    bounded "equivalent" or "not shown necessary" never serves a prover."""
    return f"{backend.name}:{key}"


class DecisionCache(JsonlCache):
    """Equivalence decisions keyed by the canonicalized pair and theory.

    Keys ignore axiom order, formula order within the pair, and bound
    variable names; lookups add the backend kind (`backend_key`). Only
    decisive verdicts are stored, with their revalidated counter structure
    (`"counter"`, `null` for none; older lines load without one) but no
    direction, which a key that sorts the pair cannot orient. Thread-safe;
    optionally persisted as JSON lines.
    """

    def __init__(self, path: str | None = None):
        self.hits = 0
        super().__init__(path)

    def _decode(self, record: dict) -> Verdict:
        counter = record.get("counter")
        return Verdict(status=record["status"], method=record.get("method"),
                       counter=counter and Structure.from_json(counter))

    def _encode(self, verdict: Verdict) -> dict:
        return {"status": verdict.status, "method": verdict.method,
                "counter": verdict.counter and verdict.counter.to_json(),
                "timestamp": time.time()}

    @staticmethod
    def key(solution: Formula, attempt: Formula, theory: Theory) -> str:
        pair = sorted([to_str(alpha_normalize(solution)), to_str(alpha_normalize(attempt))])
        axioms = sorted(to_str(alpha_normalize(ax)) for ax in theory.axioms)
        return json.dumps({"pair": pair, "axioms": axioms}, sort_keys=True)

    def get(self, key: str) -> Verdict | None:
        with self._lock:
            v = self._data.get(key)
            if v is not None:
                self.hits += 1
            return v

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
    Only a top-level decision (origin "equivalence") asks for a model.
    """
    key = None
    if cache is not None:
        key = backend_key(backend, DecisionCache.key(solution, attempt, theory))
        hit = cache.get(key)
        if hit is not None:
            counter, direction = revalidate_counter(hit.counter, solution, attempt, theory)
            return Verdict(status=hit.status, counter=counter, direction=direction,
                           method="cache", cached_method=hit.method)

    # formulas identical up to bound-variable names need no backend at all
    if alpha_normalize(solution) == alpha_normalize(attempt):
        verdict = Verdict(status="equivalent", method="syntactic")
        if cache is not None:
            cache.put(key, verdict)
        return verdict

    query = encode_equivalence(solution, attempt, theory, origin)
    result = backend.check_sat(query, timeout_ms=timeout_ms,
                               want_model=origin == "equivalence")

    if result.status == "unsat":
        method = f"bounded<={result.bound}" if result.bound is not None else backend.name
        verdict = Verdict(status="equivalent", method=method)
    elif result.status == "sat":
        counter, direction = revalidate_counter(result.model, solution, attempt, theory)
        verdict = Verdict(status="non-equivalent", counter=counter,
                          direction=direction, method=backend.name)
    else:
        return Verdict(status="unknown", reason=result.reason)

    if cache is not None:
        cache.put(key, verdict)
    return verdict


def revalidate_counter(model: Structure | None, solution: Formula, attempt: Formula,
                theory: Theory) -> tuple[Structure | None, str | None]:
    if model is None:
        return None, None
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    # a cache key ignores the vocabulary: a cached model may be another's
    if (model.relations.keys(), model.functions.keys(), model.constants.keys()) != (
            vocab.relations.keys(), vocab.functions.keys(), vocab.constants):
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
