"""Atom profiles, quantifier prefixes, and guard records.

An atom's *quantifier prefix* is the sequence of closest binders of its
variables, read off the negation normal form (a universal binder under an
odd number of negations acts as an existential one, and vice versa). The
*prefix type* abstracts the prefix to quantifier kinds plus the argument
positions each binder covers. An atom's *profile* combines its relation
symbol, its valence (+ unless a negation sits directly above it in NNF),
its prefix type, and a fingerprint of its argument terms.

Profiles drive the candidate generation of the explanation strategies:
two formulas are compared by which profiles occur only in one of them.

A variable z in an atom A is *guarded* by an atom G when z is the
innermost-bound variable of G and, at z's binder, G implies the part
containing A (universal binder) or is conjoined with it (existential
binder). With the operator swapped against the binder kind the pair is
*wrongly guarded*. Patterns are matched on the original formula (NNF
would destroy the implication); binder kinds are NNF-resolved.

The edits at the end of the module are the only places that build an
edited formula for both the explanation strategies and the mutations:
each rewrites f at one address (a node or a guard record), so a
mutation family's mistake and the repair that undoes it come from the
same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Address, And, Atom, Eq, Exists, Forall, Formula, Iff, Implies, Not,
    QUANTIFIERS, children, formula_terms, rewrite_at, subformula_at,
    subformulas, term_variables, Term, Var, Const, Func,
)

FORALL = "forall"
EXISTS = "exists"
EQ_SYMBOL = "="


@dataclass(frozen=True)
class PrefixEntry:
    kind: str                    # "forall" | "exists"
    positions: frozenset[int]    # 1-based argument positions covered

    def __str__(self):
        q = "A" if self.kind == FORALL else "E"
        return f"{q}{{{','.join(map(str, sorted(self.positions)))}}}"


PrefixType = tuple[PrefixEntry, ...]
QuantPrefix = tuple[tuple[str, str], ...]  # (kind, variable)


@dataclass(frozen=True)
class AtomProfile:
    symbol: str                  # relation name, or "=" for equality
    valence: str                 # "+" | "-"
    prefix_type: PrefixType
    fingerprint: tuple           # per-position term skeleton

    @property
    def core(self) -> tuple:
        """The (symbol, valence, prefix type) triple, without term data."""
        return (self.symbol, self.valence, self.prefix_type)

    def __str__(self):
        q = "".join(map(str, self.prefix_type))
        return f"({self.symbol},{self.valence},{q})"


@dataclass(frozen=True)
class BinderInfo:
    kind: str                    # NNF-resolved quantifier kind
    var: str
    address: Address


@dataclass(frozen=True)
class AtomOccurrence:
    address: Address
    atom: Formula                # Atom or Eq
    valence: str
    prefix: tuple[BinderInfo, ...]
    profile: AtomProfile
    principal: bool              # resolution taking the positive side of every <->


@dataclass(frozen=True)
class GuardRecord:
    guard_profile: AtomProfile
    guarded_profile: AtomProfile
    variable: str
    kind: str                    # "guarded" | "wrongly-guarded"
    binder_address: Address
    binder_kind: str             # NNF-resolved kind of the variable's binder
    pattern_address: Address     # the witnessing Implies / And node
    operator: str                # "->" | "&"
    guard_atom: Formula
    guard_address: Address
    guarded_atom: Formula
    guarded_address: Address


def _atom_symbol(atom: Formula) -> str:
    return atom.rel if isinstance(atom, Atom) else EQ_SYMBOL


def _skeleton(t: Term, closest: dict) -> tuple:
    if isinstance(t, Var):
        if t.name in closest:
            return ("b", closest[t.name])
        return ("f", t.name)
    if isinstance(t, Const):
        return ("c", t.name)
    if isinstance(t, Func):
        return ("fn", t.name, tuple(_skeleton(a, closest) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def _occurrence(address: Address, atom: Formula, positive: bool,
                chain: tuple[BinderInfo, ...], principal: bool) -> AtomOccurrence:
    args = formula_terms(atom)
    arg_vars = [set(term_variables(t)) for t in args]
    atom_vars = set().union(*arg_vars) if arg_vars else set()

    # closest binder per bound variable of the atom
    closest: dict[str, BinderInfo] = {}
    for binder in chain:
        if binder.var in atom_vars:
            closest[binder.var] = binder
    picked = set(closest.values())
    prefix = tuple(b for b in chain if b in picked)

    index_of = {b.var: i for i, b in enumerate(prefix)}
    prefix_type = tuple(
        PrefixEntry(b.kind, frozenset(
            j + 1 for j, vs in enumerate(arg_vars) if b.var in vs))
        for b in prefix)
    fingerprint = tuple(_skeleton(t, index_of) for t in args)
    profile = AtomProfile(_atom_symbol(atom), "+" if positive else "-",
                          prefix_type, fingerprint)
    return AtomOccurrence(address, atom, profile.valence, prefix, profile, principal)


def atom_occurrences(f: Formula) -> list[AtomOccurrence]:
    """Every atom occurrence with its NNF-resolved profile.

    Atoms below a biconditional occur in the NNF once per polarity, so
    they contribute one occurrence per polarity resolution; exact
    duplicates are dropped. A walk from a state already walked adds
    nothing new, so it is skipped: nested biconditionals would otherwise
    walk a subformula once per path of polarities, exponentially often.
    A state's binder chain holds the innermost binder of each variable
    only, as no prefix holds a shadowed one, so a node has few states.
    """
    out: list[AtomOccurrence] = []
    seen = set()
    walked = set()

    def walk(g: Formula, address: Address, positive: bool,
             chain: tuple[BinderInfo, ...], principal: bool):
        state = (address, positive, chain, principal)
        if state in walked:
            return
        walked.add(state)
        if isinstance(g, (Atom, Eq)):
            occ = _occurrence(address, g, positive, chain, principal)
            key = (occ.address, occ.valence, occ.prefix)
            if key not in seen:
                seen.add(key)
                out.append(occ)
            return
        if isinstance(g, Not):
            walk(g.sub, address + (0,), not positive, chain, principal)
            return
        if isinstance(g, Implies):
            walk(g.left, address + (0,), not positive, chain, principal)
            walk(g.right, address + (1,), positive, chain, principal)
            return
        if isinstance(g, Iff):
            for i, side in enumerate((g.left, g.right)):
                walk(side, address + (i,), positive, chain, principal)
                walk(side, address + (i,), not positive, chain, False)
            return
        if isinstance(g, QUANTIFIERS):
            base = FORALL if isinstance(g, Forall) else EXISTS
            kind = base if positive else (EXISTS if base == FORALL else FORALL)
            inner = tuple(b for b in chain if b.var != g.var) + (
                BinderInfo(kind, g.var, address),)
            walk(g.body, address + (0,), positive, inner, principal)
            return
        for i, c in enumerate(children(g)):
            walk(c, address + (i,), positive, chain, principal)

    walk(f, (), True, (), True)
    return out


def atom_quantifier_prefix(f: Formula, atom_address: Address) -> QuantPrefix:
    """Closest-binder sequence of the atom's bound variables.

    For atoms below a biconditional the positive-side resolution is
    returned.
    """
    node = subformula_at(f, atom_address)
    if not isinstance(node, (Atom, Eq)):
        raise TypeError(f"address {atom_address} points at {type(node).__name__}, not an atom")
    occ = next(o for o in atom_occurrences(f) if o.address == atom_address and o.principal)
    return tuple((b.kind, b.var) for b in occ.prefix)


def formula_profile(f: Formula) -> frozenset[AtomProfile]:
    """The set of atom profiles of f (one per occurrence, set semantics)."""
    return frozenset(occ.profile for occ in atom_occurrences(f))


def core_profile(f: Formula) -> frozenset[tuple]:
    """Profiles reduced to (symbol, valence, prefix type) triples."""
    return frozenset(p.core for p in formula_profile(f))


# ---------------------------------------------------------------------------
# Guards


def binder_chain(f: Formula, address: Address) -> tuple[BinderInfo, ...]:
    """All quantifiers enclosing `address`, with NNF-resolved kinds.

    Below a biconditional the positive-side resolution is used.
    """
    chain: list[BinderInfo] = []
    node = f
    positive = True
    for depth, i in enumerate(address):
        if isinstance(node, QUANTIFIERS):
            base = FORALL if isinstance(node, Forall) else EXISTS
            kind = base if positive else (EXISTS if base == FORALL else FORALL)
            chain.append(BinderInfo(kind, node.var, address[:depth]))
        elif isinstance(node, Not):
            positive = not positive
        elif isinstance(node, Implies) and i == 0:
            positive = not positive
        node = children(node)[i]
    return tuple(chain)


def _conjuncts(g: Formula, address: Address) -> list[tuple[Address, Formula]]:
    if isinstance(g, And):
        return (_conjuncts(g.left, address + (0,)) +
                _conjuncts(g.right, address + (1,)))
    return [(address, g)]


def _atoms_with_variable(g: Formula, address: Address, var: str):
    """Atom occurrences inside g containing `var`, skipping rebinding scopes."""
    if isinstance(g, QUANTIFIERS) and g.var == var:
        return
    if isinstance(g, (Atom, Eq)):
        if any(var in term_variables(t) for t in formula_terms(g)):
            yield address, g
        return
    for i, c in enumerate(children(g)):
        yield from _atoms_with_variable(c, address + (i,), var)


def extract_guards(f: Formula) -> tuple[frozenset[GuardRecord], frozenset[GuardRecord]]:
    """(guarded, wrongly guarded) records of f.

    Only single-atom guards are recognized, at the immediate scope of the
    guarded variable's binder (intervening binders of other variables are
    skipped). An implication pattern guards the atoms of its consequent
    and of its other antecedent conjuncts; a conjunction pattern guards
    the atoms of the conjuncts other than the guard. Implication under a
    universal binder and conjunction under an existential one classify as
    guarded; the swapped combinations as wrongly guarded.
    """
    by_address = {o.address: o for o in atom_occurrences(f) if o.principal}

    guarded: set[GuardRecord] = set()
    wrong: set[GuardRecord] = set()

    for binder_addr, node in subformulas(f):
        if not isinstance(node, QUANTIFIERS):
            continue
        z = node.var

        # peel intervening binders of other variables
        core_addr = binder_addr + (0,)
        core = node.body
        while isinstance(core, QUANTIFIERS) and core.var != z:
            core_addr = core_addr + (0,)
            core = core.body

        if isinstance(core, Implies):
            operator = "->"
            guard_pool = _conjuncts(core.left, core_addr + (0,))
            # atoms in the consequent are guarded; so are atoms in the other
            # antecedent conjuncts, since (G & H) -> r curries to G -> (H -> r)
            extra = list(_atoms_with_variable(core.right, core_addr + (1,), z))
        elif isinstance(core, And):
            operator = "&"
            guard_pool = _conjuncts(core, core_addr)
            extra = []
        else:
            continue

        for g_addr, g_node in guard_pool:
            if not isinstance(g_node, (Atom, Eq)):
                continue
            g_occ = by_address[g_addr]
            if not g_occ.prefix:
                continue
            innermost = g_occ.prefix[-1]
            if innermost.var != z or innermost.address != binder_addr:
                continue
            kind = innermost.kind
            record_kind = "guarded" if (
                (kind == FORALL and operator == "->") or
                (kind == EXISTS and operator == "&")) else "wrongly-guarded"
            targets = [(a, n) for c_addr, c_node in guard_pool if c_addr != g_addr
                       for a, n in _atoms_with_variable(c_node, c_addr, z)]
            targets.extend(extra)
            for a_addr, a_node in targets:
                record = GuardRecord(
                    guard_profile=g_occ.profile,
                    guarded_profile=by_address[a_addr].profile,
                    variable=z,
                    kind=record_kind,
                    binder_address=binder_addr,
                    binder_kind=kind,
                    pattern_address=core_addr,
                    operator=operator,
                    guard_atom=g_node,
                    guard_address=g_addr,
                    guarded_atom=a_node,
                    guarded_address=a_addr,
                )
                (guarded if record_kind == "guarded" else wrong).add(record)

    return frozenset(guarded), frozenset(wrong)


# ---------------------------------------------------------------------------
# Edits at an address, shared by the explanation strategies and the mutations


def toggle_negation(f: Formula, address: Address) -> Formula:
    """f with the negation at `address` removed, or one added there.
    Twice at one address gives back f, unless a double negation is there."""
    node = subformula_at(f, address)
    return rewrite_at(f, address, node.sub if isinstance(node, Not) else Not(node))


def swap_implication(f: Formula, address: Address) -> Formula:
    """f with the implication at `address` reversed."""
    node = subformula_at(f, address)
    return rewrite_at(f, address, Implies(node.right, node.left))


def flip_quantifier(f: Formula, address: Address) -> Formula:
    """f with the quantifier at `address` replaced by its dual."""
    node = subformula_at(f, address)
    dual = Exists if isinstance(node, Forall) else Forall
    return rewrite_at(f, address, dual(node.var, node.body))


def permute_arguments(f: Formula, address: Address, order: tuple[int, ...]) -> Formula:
    """f with the atom at `address` taking argument order[i] at position i."""
    node = subformula_at(f, address)
    args = tuple(formula_terms(node)[i] for i in order)
    return rewrite_at(f, address, Eq(*args) if isinstance(node, Eq) else Atom(node.rel, args))


def add_guard(f: Formula, binder: BinderInfo, guard: Formula) -> Formula:
    """f with `guard` put in front of the binder's body: `G -> body` under
    a universal binder, `G & body` under an existential one."""
    at = binder.address + (0,)
    body = subformula_at(f, at)
    return rewrite_at(f, at, Implies(guard, body) if binder.kind == FORALL
                      else And(guard, body))


def remove_guard(f: Formula, record: GuardRecord) -> Formula:
    """f without the record's guard: `G & H` and `G -> H` become `H`,
    `(G & K) -> H` becomes `K -> H`; the other conjuncts keep their
    nesting, so this undoes `add_guard`."""
    parent, side = record.guard_address[:-1], record.guard_address[-1]
    return rewrite_at(f, parent, children(subformula_at(f, parent))[1 - side])


def flip_guard_operator(f: Formula, record: GuardRecord) -> Formula:
    """f with the record's pattern under the other guard operator:
    `G & H` becomes `G -> H` and `G -> H` becomes `G & H`."""
    at = record.pattern_address
    if record.operator == "&":
        rest = subformula_at(remove_guard(f, record), at)
        edited = Implies(record.guard_atom, rest)
    else:
        core = subformula_at(f, at)
        edited = And(core.left, core.right)
    return rewrite_at(f, at, edited)


def profiles_to_json(f: Formula) -> dict:
    """Debug dump of profiles and guard records."""
    def entry_json(e: PrefixEntry):
        return {"kind": e.kind, "positions": sorted(e.positions)}

    def profile_json(p: AtomProfile):
        return {"symbol": p.symbol, "valence": p.valence,
                "prefix_type": [entry_json(e) for e in p.prefix_type]}

    def record_json(r: GuardRecord):
        return {"variable": r.variable, "kind": r.kind, "operator": r.operator,
                "binder_kind": r.binder_kind,
                "guard": profile_json(r.guard_profile),
                "guarded": profile_json(r.guarded_profile)}

    guards, wrong = extract_guards(f)
    return {
        "profiles": sorted((profile_json(p) for p in formula_profile(f)),
                           key=lambda d: (d["symbol"], d["valence"], str(d))),
        "guards": sorted(map(record_json, guards), key=str),
        "wrong_guards": sorted(map(record_json, wrong), key=str),
    }
