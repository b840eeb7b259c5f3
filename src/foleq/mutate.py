"""Seeded mistakes: the inverse edits of the bugfix strategies.

Applying one of these to a correct formula produces a plausible wrong
attempt whose intended repair strategy is known, which is how the
engine's recall is measured. Mutants are syntactic; whether one is
actually non-equivalent under the background theory must be checked by
the caller (a permuted argument of a symmetric relation, for example,
changes nothing).
"""

from __future__ import annotations

from .syntax import (
    Atom, Eq, Exists, Forall, Formula, Implies, Not, QUANTIFIERS, rewrite_at,
    subformula_at, subformulas,
)
from .profiles import extract_guards, flip_guard_operator, remove_guard

QUANTIFIER_FLIP = "quantifier-flip"
GUARD_DROP = "guard-drop"
GUARD_OPERATOR_FLIP = "guard-operator-flip"
IMPLICATION_SWAP = "implication-swap"
NEGATION_TOGGLE = "negation-toggle"
ARGUMENT_PERMUTATION = "argument-permutation"

MUTATIONS = (QUANTIFIER_FLIP, GUARD_DROP, GUARD_OPERATOR_FLIP,
             IMPLICATION_SWAP, NEGATION_TOGGLE, ARGUMENT_PERMUTATION)

# strategy identifiers that count as the intended repair per mutation
INTENDED_STRATEGIES = {
    QUANTIFIER_FLIP: {"Q-1", "Q-2", "Q-1+G-1"},
    GUARD_DROP: {"G-1", "Q-1+G-1"},
    GUARD_OPERATOR_FLIP: {"G-2"},
    IMPLICATION_SWAP: {"B-2"},
    NEGATION_TOGGLE: {"B-1"},
    ARGUMENT_PERMUTATION: {"S-2"},
}


def mutate_all(f: Formula, family: str) -> list[Formula]:
    """All mutants of one family, deterministically ordered, duplicates
    removed."""
    if family == QUANTIFIER_FLIP:
        out = []
        for addr, node in subformulas(f):
            if isinstance(node, QUANTIFIERS):
                flipped = (Exists if isinstance(node, Forall) else Forall)(
                    node.var, node.body)
                out.append(rewrite_at(f, addr, flipped))
        return _dedup(out, f)
    if family in (GUARD_DROP, GUARD_OPERATOR_FLIP):
        edit = remove_guard if family == GUARD_DROP else flip_guard_operator
        guarded, _ = extract_guards(f)
        return _dedup([edit(f, record) for record in sorted(guarded, key=str)], f)
    if family == IMPLICATION_SWAP:
        out = []
        for addr, node in subformulas(f):
            if isinstance(node, Implies):
                out.append(rewrite_at(f, addr, Implies(node.right, node.left)))
        return _dedup(out, f)
    if family == NEGATION_TOGGLE:
        out = []
        for addr, node in subformulas(f):
            if not isinstance(node, (Atom, Eq)):
                continue
            parent = subformula_at(f, addr[:-1]) if addr else None
            if isinstance(parent, Not):
                out.append(rewrite_at(f, addr[:-1], node))
            else:
                out.append(rewrite_at(f, addr, Not(node)))
        return _dedup(out, f)
    if family == ARGUMENT_PERMUTATION:
        out = []
        for addr, node in subformulas(f):
            if not isinstance(node, Atom) or len(node.args) < 2:
                continue
            for i in range(len(node.args)):
                for j in range(i + 1, len(node.args)):
                    if node.args[i] == node.args[j]:
                        continue
                    args = list(node.args)
                    args[i], args[j] = args[j], args[i]
                    out.append(rewrite_at(f, addr, Atom(node.rel, tuple(args))))
        return _dedup(out, f)
    raise ValueError(f"unknown mutation family {family!r}")


def mutate(f: Formula, family: str) -> Formula | None:
    """The first applicable mutant of the family, or None."""
    mutants = mutate_all(f, family)
    return mutants[0] if mutants else None


def _dedup(mutants: list[Formula], original: Formula) -> list[Formula]:
    seen = {original}
    out = []
    for m in mutants:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out
