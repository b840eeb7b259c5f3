"""Strategies that explain why an attempt is not equivalent to a solution.

Explanations are directional: only the attempt is analyzed for defects
and only the attempt is ever edited. They come in two flavours:

* a *blocker* is a syntactic property of the attempt that provably
  prevents equivalence (a missing necessary symbol, a differing set of
  free variables);

* a *bugfixing modification* is a small edit to the attempt whose result
  was confirmed equivalent to the solution. Candidates are generated
  from profile and guard differences and each one costs an equivalence
  test, so strategies enumerate few, plausible candidates in a
  deterministic order and report the first confirmed one.

Each bugfix strategy is a generator of `(candidate, message, evidence)`
triples; `first_confirmed` confirms them in order, skipping the attempt
itself and repeated candidates, and gives up after a fixed number of
distinct candidates (PER_STRATEGY, or COMBINED for Q-1+G-1). A
confirmation reads the verdict's status alone.

The strategies read the same facts of both formulas (`formula_facts`):
atom occurrences, extended profiles, guards and prenex form. Those of
the solution are the same for every attempt, so the engine's decision
cache keeps them (`DecisionCache.facts`), and each solution's are
computed once per engine.

Strategy identifiers: S-1 missing symbols, S-2 permuted arguments,
S-3 wrong relation symbol, S-4 differing terms, Q-1 wrong quantifier
prefix, Q-2 wrong quantifier order, Q-3 differing free variables,
G-1 missing/superfluous guard, G-2 wrong guard operator, Q-1+G-1 the
combination of prefix replacement and one guard edit, B-1 wrong negation
prefix, B-2 swapped implication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .syntax import (
    Address, Atom, Eq, Exists, Forall, Formula, Implies, Not, QUANTIFIERS, Var,
    children, formula_terms, free_variables, map_atom_variables,
    prenex_decompose, prenex_recompose, rewrite_at, subformula_at, subformulas,
    symbols_of, term_variables, to_str, with_children,
)
from .theory import Theory
from .profiles import (
    FORALL, AtomOccurrence, GuardRecord, add_guard, atom_occurrences,
    binder_chain, extract_guards, flip_guard_operator, permute_arguments,
    remove_guard, swap_implication, toggle_negation,
)
from .models import SharedLists
from .countermodel import CounterExample, backend_counterexample, search_countermodel
from .prover import DecisionCache, ProverConfig, Verdict, decide_equivalence
from .definability import (
    NECESSARY, UNKNOWN, EQUALITY, NecessityCache, necessary_symbols,
)

ALL_STRATEGIES = ("S-1", "S-2", "S-3", "S-4", "Q-1", "Q-2", "Q-3",
                  "G-1", "G-2", "Q-1+G-1", "B-1", "B-2")

# distinct candidates confirmed per bugfix strategy before it gives up
PER_STRATEGY = 16
COMBINED = 32                     # Q-1+G-1


@dataclass(frozen=True)
class Explanation:
    strategy: str
    kind: str                     # "blocker" | "bugfix"
    message: str
    evidence: dict
    modified: Formula | None = None
    verified: bool = True         # False only for advisory S-1 blockers

    def to_json(self) -> dict:
        out = {"strategy": self.strategy, "kind": self.kind,
               "message": self.message, "evidence": dict(self.evidence)}
        if self.modified is not None:
            out["modified"] = to_str(self.modified)
        if not self.verified:
            out["verified"] = False
        return out


@dataclass
class StrategyContext:
    solution: Formula
    attempt: Formula
    theory: Theory
    backend: object
    cache: DecisionCache | None = None
    necessity_cache: NecessityCache | None = None
    timeout_ms: int = 30_000

    def __post_init__(self):
        sol = (formula_facts(self.solution) if self.cache is None else
               self.cache.facts(("strategy", self.solution),
                                lambda: formula_facts(self.solution)))
        self.sol_occurrences, self.sol_extended, self.sol_guards, _, self.sol_prenex = sol
        (self.att_occurrences, self.att_extended, self.att_guards, self.att_wrong,
         self.att_prenex) = formula_facts(self.attempt)

    def confirm(self, candidate: Formula) -> bool:
        """A candidate counts only when proven equivalent to the solution;
        only the status is read, so a cache hit revalidates no model."""
        verdict = decide_equivalence(self.solution, candidate, self.theory,
                                     self.backend, self.cache,
                                     timeout_ms=self.timeout_ms,
                                     origin="strategy-candidate")
        return verdict.status == "equivalent"


def formula_facts(f: Formula) -> tuple:
    """What the strategies read of a formula, all immutable: its atom
    occurrences, their extended profiles, its guard records (guarded,
    wrongly guarded) and its prenex decomposition."""
    occurrences = tuple(atom_occurrences(f))
    guards, wrong = extract_guards(f)
    return (occurrences, frozenset(occ.profile for occ in occurrences), guards, wrong,
            prenex_decompose(f))


Candidate = tuple[Formula, str, dict]     # (candidate, message, evidence)


def first_confirmed(ctx: StrategyContext, strategy: str,
                    candidates: Iterable[Candidate],
                    cap: int = PER_STRATEGY) -> Explanation | None:
    """The first candidate confirmed equivalent to the solution, as a
    bugfix. The attempt itself and repeated candidates are skipped; after
    `cap` distinct candidates the strategy gives up."""
    seen = {ctx.attempt}
    for candidate, message, evidence in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        if ctx.confirm(candidate):
            return Explanation(strategy=strategy, kind="bugfix", message=message,
                               evidence=evidence, modified=candidate)
        if len(seen) > cap:
            return None
    return None


def _found(*explanations: Explanation | None) -> list[Explanation]:
    return [e for e in explanations if e is not None]


def _edit_evidence(address: Address, before: Formula | str,
                   after: Formula | str) -> dict:
    return {
        "address": list(address),
        "before": before if isinstance(before, str) else to_str(before),
        "after": after if isinstance(after, str) else to_str(after),
    }


def _site_evidence(address: Address, before: Formula, after: Formula) -> dict:
    """Evidence of an edit at `address`: the subformula there in both."""
    return _edit_evidence(address, subformula_at(before, address),
                          subformula_at(after, address))


def _occurrences_with_core(occs, core) -> list[AtomOccurrence]:
    return sorted((o for o in occs if o.profile.core == core), key=lambda o: o.address)


def _occurrences_with_profile(occs, profile) -> list[AtomOccurrence]:
    return sorted((o for o in occs if o.profile == profile), key=lambda o: o.address)


# ---------------------------------------------------------------------------
# S: strategies for symbols


def symbol_strategies(ctx: StrategyContext) -> list[Explanation]:
    return _s1_missing_symbols(ctx) + _found(
        first_confirmed(ctx, "S-2", _s2_permuted_arguments(ctx)),
        first_confirmed(ctx, "S-3", _s3_wrong_symbol(ctx)),
        first_confirmed(ctx, "S-4", _s4_different_terms(ctx)))


def _used_symbols(f: Formula) -> set[str]:
    rels, funcs, consts, uses_eq = symbols_of(f)
    out = rels | funcs | consts
    if uses_eq:
        out.add(EQUALITY)
    return out


def _s1_missing_symbols(ctx: StrategyContext) -> list[Explanation]:
    missing = _used_symbols(ctx.solution) - _used_symbols(ctx.attempt)
    if not missing:
        return []
    report = necessary_symbols(ctx.solution, ctx.theory, ctx.backend,
                               cache=ctx.necessity_cache, timeout_ms=ctx.timeout_ms,
                               symbols=missing)
    out = []
    for sym in sorted(missing):
        status = report.status(sym)
        if status == NECESSARY:
            out.append(Explanation(
                strategy="S-1", kind="blocker",
                message=f"{sym} does not occur in the attempt, but is required",
                evidence={"symbol": sym, "necessity": "proven"}))
        elif status == UNKNOWN:
            out.append(Explanation(
                strategy="S-1", kind="blocker",
                message=f"{sym} does not occur in the attempt and appears to be required",
                evidence={"symbol": sym, "necessity": "unverified"},
                verified=False))
    return out


def _profile_pairs(ctx, same: tuple[str, ...]):
    """(attempt-only profile, solution-only profile) pairs agreeing on the
    named profile fields. Only-ness is judged on full profiles including
    the term fingerprint, which is what distinguishes occurrences of one
    relation applied to different terms; the fingerprint also orders
    profiles whose text is the same."""
    def order(profile):
        return str(profile), profile.fingerprint

    att_only = sorted(ctx.att_extended - ctx.sol_extended, key=order)
    sol_only = sorted(ctx.sol_extended - ctx.att_extended, key=order)
    for a in att_only:
        for s in sol_only:
            if all(getattr(a, name) == getattr(s, name) for name in same):
                yield a, s


def _s2_permuted_arguments(ctx: StrategyContext) -> Iterator[Candidate]:
    for ap, sp in _profile_pairs(ctx, same=("symbol", "valence")):
        if ap.prefix_type == sp.prefix_type:
            continue
        for occ in _occurrences_with_profile(ctx.att_occurrences, ap):
            args = formula_terms(occ.atom)
            # at most 4! = 24 permutations; atoms of higher arity are skipped
            if not 2 <= len(args) <= 4:
                continue
            for order in itertools.permutations(range(len(args))):
                candidate = permute_arguments(ctx.attempt, occ.address, order)
                moved = next(o for o in atom_occurrences(candidate)
                             if o.address == occ.address)
                if moved.profile == sp:
                    yield (candidate,
                           f"wrong quantification pattern due to permuted arguments "
                           f"of {occ.profile.symbol}",
                           _site_evidence(occ.address, ctx.attempt, candidate))


def _s3_wrong_symbol(ctx: StrategyContext) -> Iterator[Candidate]:
    for ap, sp in _profile_pairs(ctx, same=("valence", "prefix_type", "fingerprint")):
        if ap.symbol == sp.symbol:
            continue
        arity = (2 if sp.symbol == EQUALITY
                 else ctx.theory.vocabulary.relations.get(sp.symbol))
        for occ in _occurrences_with_profile(ctx.att_occurrences, ap):
            args = formula_terms(occ.atom)
            if len(args) != arity:
                continue
            new_atom = Eq(*args) if sp.symbol == EQUALITY else Atom(sp.symbol, args)
            yield (rewrite_at(ctx.attempt, occ.address, new_atom),
                   f"wrong relation symbol: {ap.symbol} instead of {sp.symbol}",
                   _edit_evidence(occ.address, occ.atom, new_atom))


def _s4_different_terms(ctx: StrategyContext) -> Iterator[Candidate]:
    for ap, sp in _profile_pairs(ctx, same=("symbol", "valence", "prefix_type")):
        if ap.fingerprint == sp.fingerprint:
            continue
        for att_occ in _occurrences_with_profile(ctx.att_occurrences, ap):
            for sol_occ in _occurrences_with_profile(ctx.sol_occurrences, sp):
                mapping = _prefix_variable_map(sol_occ, att_occ)
                if mapping is None:
                    continue
                new_atom = map_atom_variables(sol_occ.atom, mapping)
                yield (rewrite_at(ctx.attempt, att_occ.address, new_atom),
                       f"terms in {ap.symbol}(...) differ",
                       _edit_evidence(att_occ.address, att_occ.atom, new_atom))


def _prefix_variable_map(sol_occ: AtomOccurrence, att_occ: AtomOccurrence
                         ) -> dict[str, Var] | None:
    """Solution-side bound variables to the attempt-side variables bound at
    the same prefix slot (unmapped names stay, they are free)."""
    if len(sol_occ.prefix) != len(att_occ.prefix):
        return None
    return {s.var: Var(a.var) for s, a in zip(sol_occ.prefix, att_occ.prefix)}


# ---------------------------------------------------------------------------
# Q: strategies for quantifiers


def quantifier_strategies(ctx: StrategyContext) -> list[Explanation]:
    return _found(_q3_free_variables(ctx),
                  first_confirmed(ctx, "Q-1", _q1_prefix(ctx)),
                  first_confirmed(ctx, "Q-2", _q2_quantifier_order(ctx)))


def _q3_free_variables(ctx: StrategyContext) -> Explanation | None:
    sol_free = set(free_variables(ctx.solution))
    att_free = set(free_variables(ctx.attempt))
    if sol_free == att_free:
        return None
    only_att = sorted(att_free - sol_free)
    only_sol = sorted(sol_free - att_free)
    lines = [f"{v} is free only in the attempt" for v in only_att]
    lines += [f"{v} is free only in the solution" for v in only_sol]
    return Explanation(
        strategy="Q-3", kind="blocker", message="; ".join(lines),
        evidence={"only_attempt": only_att, "only_solution": only_sol})


def _q1_prefix(ctx: StrategyContext) -> Iterator[Candidate]:
    """The attempt's matrix under the solution's quantifier kinds."""
    if ctx.sol_prenex is None or ctx.att_prenex is None:
        return
    sol_prefix, _ = ctx.sol_prenex
    att_prefix, att_matrix = ctx.att_prenex
    if len(sol_prefix) != len(att_prefix):
        return
    new_prefix = tuple((kind, att_var) for (kind, _), (_, att_var)
                       in zip(sol_prefix, att_prefix))
    if new_prefix == att_prefix:     # Q-1+G-1 would repeat G-1 on the attempt
        return
    # only quantifier kinds change, so the free variables stay the attempt's
    yield (prenex_recompose(new_prefix, att_matrix), "wrong quantifier prefix",
           _edit_evidence((), " ".join(f"{k} {v}" for k, v in att_prefix),
                          " ".join(f"{k} {v}" for k, v in new_prefix)))


def _retarget_binders(f: Formula, plan: dict[Address, tuple[str, str, str]]) -> Formula:
    """Rewrite quantifier nodes per plan: address -> (kind, new name, the
    variable the slot must now bind). Occurrences of each rebound variable
    are renamed within the new binder's scope."""

    def walk(g: Formula, address: Address, env: dict[str, Var]) -> Formula:
        if address in plan:
            kind, new_var, bind_var = plan[address]
            assert isinstance(g, QUANTIFIERS)
            inner = {k: v for k, v in env.items() if k != bind_var}
            inner[bind_var] = Var(new_var)
            body = walk(g.body, address + (0,), inner)
            return (Forall if kind == FORALL else Exists)(new_var, body)
        if isinstance(g, QUANTIFIERS):
            inner = {k: v for k, v in env.items() if k != g.var}
            return type(g)(g.var, walk(g.body, address + (0,), inner))
        if isinstance(g, (Atom, Eq)):
            return map_atom_variables(g, env)
        return with_children(
            g, tuple(walk(c, address + (i,), env) for i, c in enumerate(children(g))))

    return walk(f, (), {})


def _q2_quantifier_order(ctx: StrategyContext) -> Iterator[Candidate]:
    att_free = set(free_variables(ctx.attempt))
    for ap, sp in _profile_pairs(ctx, same=("symbol", "valence")):
        att_q, sol_q = ap.prefix_type, sp.prefix_type
        if att_q == sol_q or len(att_q) != len(sol_q):
            continue
        if (sorted(map(str, (e.positions for e in att_q))) !=
                sorted(map(str, (e.positions for e in sol_q)))):
            continue
        for occ in _occurrences_with_profile(ctx.att_occurrences, ap):
            by_positions: dict[frozenset, list] = {}
            for binder, entry in zip(occ.prefix, att_q):
                by_positions.setdefault(entry.positions, []).append(binder)
            slot_options = [by_positions.get(entry.positions, []) for entry in sol_q]
            if any(not opts for opts in slot_options):
                continue
            taken = att_free | {b.var for b in occ.prefix}
            fresh = [_fresh_var(i, taken) for i in range(len(sol_q))]
            message = f"wrong quantification pattern for {to_str(occ.atom)}"
            evidence = _edit_evidence(occ.address, "".join(map(str, att_q)),
                                      "".join(map(str, sol_q)))
            for combo in itertools.product(*slot_options):
                if len({b.var for b in combo}) != len(combo):
                    continue
                # slot i of the occurrence's prefix now binds combo[i]'s
                # variable with the solution's i-th quantifier kind
                plan = {slot.address: (entry.kind, fresh[i], bound.var)
                        for i, (slot, entry, bound)
                        in enumerate(zip(occ.prefix, sol_q, combo))}
                candidate = _retarget_binders(ctx.attempt, plan)
                if set(free_variables(candidate)) == att_free:
                    yield candidate, message, evidence


def _fresh_var(i: int, taken: set[str]) -> str:
    name = f"w{i}"
    while name in taken:
        name = name + "_"
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# G: strategies for guards


def guard_strategies(ctx: StrategyContext) -> list[Explanation]:
    return _found(
        first_confirmed(ctx, "G-1", _g1_guards(ctx, ctx.attempt, ctx.att_occurrences,
                                               ctx.att_guards)),
        first_confirmed(ctx, "G-2", _g2_guard_operator(ctx)),
        first_confirmed(ctx, "Q-1+G-1", _q1g1_combined(ctx), cap=COMBINED))


def _guarded_positions(records, atom_address: Address, variable: str) -> bool:
    return any(r.guarded_address == atom_address and r.variable == variable
               and r.kind == "guarded" for r in records)


def _g1_guards(ctx: StrategyContext, attempt: Formula, att_occs,
               att_guards) -> Iterator[Candidate]:
    """Guards the solution has inserted into the attempt, then guards the
    solution lacks removed from it."""
    for record in sorted((r for r in ctx.sol_guards if r.kind == "guarded"), key=str):
        sol_occ = next((o for o in ctx.sol_occurrences
                        if o.address == record.guarded_address), None)
        if sol_occ is None:
            continue
        slot = next((i for i, b in enumerate(sol_occ.prefix)
                     if b.var == record.variable), None)
        if slot is None:
            continue
        for att_occ in _occurrences_with_core(att_occs, sol_occ.profile.core):
            if slot >= len(att_occ.prefix):
                continue
            att_binder = att_occ.prefix[slot]
            if _guarded_positions(att_guards, att_occ.address, att_binder.var):
                continue
            for guard in _translate_guards(ctx, record, sol_occ, att_occ, attempt,
                                           att_binder):
                guarded = add_guard(attempt, att_binder, guard)
                kind_word = "universal" if att_binder.kind == FORALL else "existential"
                edit = f"add {kind_word} guard {to_str(guard)} for {att_binder.var}"
                yield guarded, edit, {
                    **_site_evidence(att_binder.address + (0,), attempt, guarded),
                    "edit": edit}

    for record in sorted((r for r in att_guards if r.kind == "guarded"), key=str):
        att_occ = next((o for o in att_occs if o.address == record.guarded_address), None)
        if att_occ is None:
            continue
        slot = next((i for i, b in enumerate(att_occ.prefix)
                     if b.var == record.variable), None)
        matching = _occurrences_with_core(ctx.sol_occurrences, att_occ.profile.core)
        unguarded_in_sol = any(
            slot is not None and slot < len(o.prefix) and not _guarded_positions(
                ctx.sol_guards, o.address, o.prefix[slot].var)
            for o in matching)
        if not unguarded_in_sol:
            continue
        removed = remove_guard(attempt, record)
        kind_word = "universal" if record.binder_kind == FORALL else "existential"
        edit = (f"remove superfluous {kind_word} guard "
                f"{to_str(record.guard_atom)} for {record.variable}")
        yield removed, edit, {
            **_site_evidence(record.pattern_address, attempt, removed), "edit": edit}


def _translate_guards(ctx: StrategyContext, record: GuardRecord,
                      sol_occ: AtomOccurrence, att_occ: AtomOccurrence,
                      attempt: Formula, att_binder) -> list[Formula]:
    """Guard atoms for the attempt, arguments mapped through the shared
    prefix; variables of the guard outside the guarded atom's prefix are
    mapped to in-scope attempt variables of the same quantifier kind
    (all injective choices, deterministically ordered)."""
    positional = _prefix_variable_map(sol_occ, att_occ)
    if positional is None:
        return []
    guard_vars = []
    for t in formula_terms(record.guard_atom):
        for v in term_variables(t):
            if v not in guard_vars:
                guard_vars.append(v)
    att_free = set(free_variables(attempt))
    sol_free = set(free_variables(ctx.solution))
    chain = binder_chain(attempt, att_binder.address + (0,))

    fixed: dict[str, Var] = {}
    open_vars: list[str] = []
    for v in guard_vars:
        if v in positional:
            fixed[v] = positional[v]
        elif v in sol_free:
            if v not in att_free:
                return []
            fixed[v] = Var(v)
        else:
            open_vars.append(v)

    if not open_vars:
        return [map_atom_variables(record.guard_atom, fixed)]

    sol_chain = {b.var: b.kind for b in
                 binder_chain(ctx.solution, record.guard_address)}
    options: list[list[str]] = []
    for v in open_vars:
        kind = sol_chain.get(v)
        opts = [b.var for b in chain
                if b.kind == kind and Var(b.var) not in fixed.values()]
        options.append(sorted(set(opts)))
    out = []
    for combo in itertools.product(*options):
        if len(set(combo)) != len(combo):
            continue
        mapping = dict(fixed)
        mapping.update(zip(open_vars, map(Var, combo)))
        out.append(map_atom_variables(record.guard_atom, mapping))
        if len(out) >= 8:
            break
    return out


def _g2_guard_operator(ctx: StrategyContext) -> Iterator[Candidate]:
    for record in sorted(ctx.att_wrong, key=str):
        flipped = flip_guard_operator(ctx.attempt, record)
        quantified = ("universally" if record.operator == "&" else "existentially")
        yield (flipped,
               f"'{record.operator}' is the wrong guard operator for {quantified} "
               f"quantified {record.variable}",
               _site_evidence(record.pattern_address, ctx.attempt, flipped))


def _q1g1_combined(ctx: StrategyContext) -> Iterator[Candidate]:
    for prefixed, _, q1_evidence in _q1_prefix(ctx):
        guards, _ = extract_guards(prefixed)
        for candidate, _, evidence in _g1_guards(ctx, prefixed,
                                                 atom_occurrences(prefixed), guards):
            yield (candidate, "wrong quantifier prefix and guards",
                   {"prefix": q1_evidence, "guard": evidence})


# ---------------------------------------------------------------------------
# B: strategies for Boolean operators


def boolean_strategies(ctx: StrategyContext) -> list[Explanation]:
    return _found(first_confirmed(ctx, "B-1", _b1_negation(ctx)),
                  first_confirmed(ctx, "B-2", _b2_swapped_implication(ctx)))


def _direct_negations(f: Formula, atom_address: Address) -> int:
    """Length of the Not chain sitting immediately above the atom."""
    count = 0
    while len(atom_address) > count:
        parent = subformula_at(f, atom_address[:len(atom_address) - count - 1])
        if not isinstance(parent, Not):
            break
        count += 1
    return count


def _b1_negation(ctx: StrategyContext) -> Iterator[Candidate]:
    for ap, sp in _profile_pairs(ctx, same=("symbol", "prefix_type", "fingerprint")):
        if ap.valence == sp.valence:
            continue
        for occ in _occurrences_with_profile(ctx.att_occurrences, ap):
            atom_txt = to_str(occ.atom)
            message = f"wrong negation prefix for {atom_txt}"
            depth = _direct_negations(ctx.attempt, occ.address)
            # the negation directly above the atom, else the atom itself
            site = occ.address[:-1] if depth else occ.address
            yield (toggle_negation(ctx.attempt, site), message,
                   _edit_evidence(occ.address, atom_txt, "remove the negation"
                                  if depth else "add a negation"))
            sol_occ = next(iter(_occurrences_with_profile(
                ctx.sol_occurrences, sp)), None)
            if sol_occ is None:
                continue
            target_depth = _direct_negations(ctx.solution, sol_occ.address)
            if target_depth != depth:
                top = occ.address[:len(occ.address) - depth]   # the Not chain's top
                candidate = ctx.attempt
                for _ in range(abs(target_depth - depth)):
                    candidate = toggle_negation(candidate, top)
                yield (candidate,
                       message,
                       _edit_evidence(occ.address, atom_txt,
                                      f"use {target_depth} direct negation(s) "
                                      f"as in the solution"))


def _b2_swapped_implication(ctx: StrategyContext) -> Iterator[Candidate]:
    for address, node in sorted(subformulas(ctx.attempt), key=lambda p: p[0]):
        if isinstance(node, Implies):
            swapped = swap_implication(ctx.attempt, address)
            yield (swapped, "implication in the wrong direction",
                   _site_evidence(address, ctx.attempt, swapped))


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class ExplanationBundle:
    verdict: Verdict
    counterexample: CounterExample | None
    explanations: list[Explanation]

    def strategies(self) -> set[str]:
        return {e.strategy for e in self.explanations if e.verified}

    def to_json(self) -> dict:
        out = {"verdict": self.verdict.to_json(),
               "explanations": [e.to_json() for e in self.explanations]}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        return out


def explain_nonequivalence(solution: Formula, attempt: Formula, theory: Theory,
                           backend, cache: DecisionCache | None = None,
                           necessity_cache: NecessityCache | None = None,
                           prover_config: ProverConfig | None = None,
                           random_seed: int = 0,
                           search_draws: SharedLists | None = None,
                           first_only: bool = False,
                           with_countermodel: bool = True) -> ExplanationBundle:
    """Decide the pair and, when non-equivalent, run every strategy family.

    Multiple explanations can coexist (at most one bugfix per strategy,
    plus any number of blockers); with first_only=True the run stops at
    the first strategy that produces anything, in the fixed family order
    S, Q, G, B.
    """
    cfg = prover_config or ProverConfig()
    verdict = decide_equivalence(solution, attempt, theory, backend, cache,
                                 timeout_ms=cfg.timeout_ms)
    if verdict.status != "non-equivalent":
        return ExplanationBundle(verdict=verdict, counterexample=None, explanations=[])

    counterexample = backend_counterexample(verdict, backend)
    if counterexample is None and with_countermodel:
        counterexample = search_countermodel(solution, attempt, theory, random_seed,
                                             search_draws)

    ctx = StrategyContext(solution=solution, attempt=attempt, theory=theory,
                          backend=backend, cache=cache,
                          necessity_cache=necessity_cache,
                          timeout_ms=cfg.strategy_timeout_ms)
    explanations: list[Explanation] = []
    for family in (symbol_strategies, quantifier_strategies, guard_strategies,
                   boolean_strategies):
        found = family(ctx)
        explanations.extend(found)
        if first_only and explanations:
            break
    return ExplanationBundle(verdict=verdict, counterexample=counterexample,
                             explanations=explanations)
