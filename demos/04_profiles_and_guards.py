"""Atom profiles, quantifier prefixes, and guard records.

The profile of an atom records its relation symbol, whether it appears
negated in negation normal form, how its argument positions are
quantified, and a fingerprint of its argument terms. Guards record which
atoms restrict which quantified variables. Differences between the
profiles of two formulas drive the explanation strategies.
"""

import json

from foleq import Vocabulary, parse, to_str
from foleq.profiles import (
    atom_occurrences, extract_guards, formula_profile, profiles_to_json,
)
from foleq.syntax import Atom, atoms_of

vocab = Vocabulary(relations={"S": 1, "T": 3, "R": 3, "D": 2})

print("== profiles of a nested formula ==")
f = parse("exists y (S(y) & forall x ~forall y (T(x,y,x) | S(y)))", vocab)
print(to_str(f))
for profile in sorted(formula_profile(f), key=str):
    print("  profile:", profile)

t_address = next(addr for addr, node in atoms_of(f)
                 if isinstance(node, Atom) and node.rel == "T")
t_atom = next(occ for occ in atom_occurrences(f) if occ.address == t_address)
print("prefix of the T atom:", tuple((binder.kind, binder.var) for binder in t_atom.prefix))

print("\n== guards ==")
g = parse("forall y exists x (S(x) & exists z R(x,y,z))", vocab)
guarded, wrong = extract_guards(g)
print(to_str(g))
for record in guarded:
    print(f"  {record.variable} in {to_str(record.guarded_atom)} is guarded "
          f"by {to_str(record.guard_atom)}")

h = parse("forall y exists x (S(x) -> exists z R(x,y,z))", vocab)
_, wrong = extract_guards(h)
print(to_str(h))
for record in wrong:
    print(f"  {record.variable} in {to_str(record.guarded_atom)} is wrongly "
          f"guarded by {to_str(record.guard_atom)} ({record.operator} under "
          f"{record.binder_kind})")

print("\n== guards hidden in an implication's antecedent ==")
k = parse("forall x forall y ((S(x) & D(x,y)) -> S(y))", vocab)
guarded, _ = extract_guards(k)
print(to_str(k))
for record in sorted(guarded, key=str):
    print(f"  {to_str(record.guard_atom)} guards {to_str(record.guarded_atom)} "
          f"via {record.variable}")

print("\n== machine-readable dump ==")
print(json.dumps(profiles_to_json(g), indent=1))
