"""Deciding equivalence modulo a theory and finding counter examples.

Uses the bundled Millisoft scenario: its background theory makes
syntactically different formulas equivalent, and distinguishes attempts
that would be equivalent without it.
"""

import json
import random

from foleq import Vocabulary, parse, to_str
from foleq.corpus import scenario
from foleq.countermodel import DRAWS_PER_ELEMENT, TUPLE_PROBABILITY, search_countermodel
from foleq.models import random_models
from foleq.prover import BoundedSearchBackend, DecisionCache, decide_equivalence
from foleq.theory import Theory

sc = scenario("E-10")
vocab, theory = sc.vocabulary, sc.theory
backend = BoundedSearchBackend()
cache = DecisionCache()

print("== equivalence modulo the background theory ==")
# the theory contains: forall x (M(x) <-> ~I(x))
psi = parse("exists x M(x)", vocab)
phi = parse("exists x ~I(x)", vocab)
verdict = decide_equivalence(psi, phi, theory, backend, cache)
print(f"{to_str(psi)}  vs  {to_str(phi)}")
print("  modulo theory:", verdict.status, f"({verdict.method})")
verdict_plain = decide_equivalence(psi, phi, Theory(vocab), backend, cache)
print("  without it   :", verdict_plain.status)

print("\n== counter example search (random models, ascending sizes) ==")
psi2 = parse("forall x P(x)", Vocabulary(relations={"P": 1}))
phi2 = parse("exists x P(x)", Vocabulary(relations={"P": 1}))
hit = search_countermodel(psi2, phi2, Theory(Vocabulary(relations={"P": 1})),
                          seed=1)
print(f"{to_str(psi2)}  vs  {to_str(phi2)}")
print("  direction:", hit.direction)     # the attempt admits a model it should not
print("  witness  :", json.dumps(hit.structure.to_json()))

print("\n== the search only compares theory models ==")
mystery = scenario("E-2").theory
for size in (1, 2, 3):
    draws = DRAWS_PER_ELEMENT * size
    models = random_models(mystery.vocabulary, mystery.axioms, size, TUPLE_PROBABILITY,
                           random.Random(f"5:search:{size}"), draws)
    print(f"  size {size}: {sum(1 for _ in models)} of {draws} "
          "random structures satisfy the mystery constraints")

print("\n== direction semantics ==")
v = Vocabulary(relations={"P": 1, "Q": 1})
restrictive = search_countermodel(parse("exists x Q(x)", v),
                                  parse("exists x (P(x) & Q(x))", v),
                                  Theory(v), seed=2)
print("over-constrained attempt:", restrictive.direction)
