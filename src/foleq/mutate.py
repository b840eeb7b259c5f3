"""Seeded mistakes: the inverse edits of the bugfix strategies.

Applying one of these to a correct formula produces a plausible wrong
attempt whose intended repair strategy is known, which is how the
engine's recall is measured. Each family is a table entry: the sites of
a formula it applies to, and the shared edit of `profiles` that the
strategies use as well. Mutants are syntactic; whether one is actually
non-equivalent under the background theory must be checked by the
caller (a permuted argument of a symmetric relation, for example,
changes nothing).
"""

from __future__ import annotations

import itertools

from .syntax import (
    Atom, Formula, Implies, Not, QUANTIFIERS, atoms_of, subformula_at, subformulas,
)
from .profiles import (
    extract_guards, flip_guard_operator, flip_quantifier, permute_arguments,
    remove_guard, swap_implication, toggle_negation,
)

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


def _nodes(kinds):
    return lambda f: [(a,) for a, node in subformulas(f) if isinstance(node, kinds)]


def _guard_records(f: Formula):
    guarded, _ = extract_guards(f)
    return [(record,) for record in sorted(guarded, key=str)]


def _negation_sites(f: Formula):
    """Per atom, the negation directly above it, else the atom itself."""
    return [(a[:-1] if a and isinstance(subformula_at(f, a[:-1]), Not) else a,)
            for a, _ in atoms_of(f)]


def _transpositions(f: Formula):
    """Per atom, every swap of two distinct arguments."""
    for a, node in subformulas(f):
        if not isinstance(node, Atom):
            continue
        for i, j in itertools.combinations(range(len(node.args)), 2):
            if node.args[i] != node.args[j]:
                order = list(range(len(node.args)))
                order[i], order[j] = j, i
                yield a, tuple(order)


# family -> (sites of a formula, as argument tuples of the edit; the edit)
_EDITS = {
    QUANTIFIER_FLIP: (_nodes(QUANTIFIERS), flip_quantifier),
    GUARD_DROP: (_guard_records, remove_guard),
    GUARD_OPERATOR_FLIP: (_guard_records, flip_guard_operator),
    IMPLICATION_SWAP: (_nodes(Implies), swap_implication),
    NEGATION_TOGGLE: (_negation_sites, toggle_negation),
    ARGUMENT_PERMUTATION: (_transpositions, permute_arguments),
}


def mutate_all(f: Formula, family: str) -> list[Formula]:
    """All mutants of one family, deterministically ordered, duplicates
    removed."""
    if family not in _EDITS:
        raise ValueError(f"unknown mutation family {family!r}")
    sites, edit = _EDITS[family]
    seen = {f}
    out = []
    for site in sites(f):
        m = edit(f, *site)
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def mutate(f: Formula, family: str) -> Formula | None:
    """The first applicable mutant of the family, or None."""
    mutants = mutate_all(f, family)
    return mutants[0] if mutants else None
