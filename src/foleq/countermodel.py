"""Random counter-example search.

Structures are generated Erdos-Renyi style, as `models.random_structure`
draws them: every relation tuple is included independently with a fixed
probability, and every function output and constant is drawn uniformly
from the universe. The search walks universe sizes in ascending order and
returns the first generated theory model on which the two formulas
disagree. Each size's draws come from one stream named by the seed and
the size alone, so the outcome depends on the pair, the theory and the
seed only: not on a record's id, nor on the searches run before. Its
theory models come from `DrawLayout.draws`, which reads each draw
(relation tuples, function values and constants) in one bulk read of the
words that `random()` per tuple and `randrange` per value would read,
reading more words only for values whose word `randrange` rejects. It
tests the theory's axioms on each draw as it is read. The theory models
are kept, as their draws, in a store (`models.SharedLists`; an engine
owns one), one list per seed, theory, closed vocabulary and size, so the
searches over one theory and closed vocabulary share their draws: each
is made, and its axioms tested, once per list. A size's kept draws are
walked as the bounded backend walks its candidates
(`models.models_among`), for the models of `~(solution <-> attempt)`:
the first few are evaluated on their `Structure`s, and past them the
pair is compiled once and tested on the flat draw. A size without theory
models compiles nothing.

A witness satisfying the solution but not the attempt marks the attempt
as too restrictive (it misses an intended model); the opposite
disagreement marks it as too permissive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Formula, Iff, Not
from .theory import Theory
from .models import (  # random_structure is re-exported
    SharedLists, Structure, close_formulas, draw_layout, drawable, eval_formula,
    models_among, random_structure, theory_draws, vocabulary_key,
)

TOO_RESTRICTIVE = "too-restrictive"
TOO_PERMISSIVE = "too-permissive"

SIZES = range(1, 11)              # universe sizes, searched in this order
TUPLE_PROBABILITY = 0.5
DRAWS_PER_ELEMENT = 1000          # a size-n search draws n * this structures


@dataclass(frozen=True)
class CounterExample:
    structure: Structure
    direction: str               # too-restrictive | too-permissive
    source: str                  # "random" | "prover-fmb" | "brute-force"

    def to_json(self) -> dict:
        return {"direction": self.direction, "source": self.source,
                "structure": self.structure.to_json()}


def backend_source(backend) -> str:
    """The source label of a counter model that `backend` returned."""
    return "brute-force" if backend.name == "bounded" else "prover-fmb"


def backend_counterexample(verdict, backend) -> CounterExample | None:
    """The verdict's revalidated counter model, which `backend` found."""
    if verdict.counter is None:
        return None
    return CounterExample(structure=verdict.counter, direction=verdict.direction,
                          source=backend_source(backend))


def search_countermodel(solution: Formula, attempt: Formula, theory: Theory,
                        seed: int = 0, draws: SharedLists | None = None
                        ) -> CounterExample | None:
    """First random theory model distinguishing the pair, sizes ascending.

    Each size draws from its own stream derived from the seed, so a
    size's draws do not depend on the sizes searched before it. A size
    whose draws would hold more than `MAX_DRAW_ENTRIES` flags and values
    is skipped (`models.drawable`). The theory models among the draws
    come from the store `draws`, keyed by (seed, theory, closed
    vocabulary, size), or from a fresh store; either way the result is
    the same, whatever other searches walked the store before.
    """
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    store = draws or SharedLists()
    key = (seed, store.number(theory), vocabulary_key(vocab))
    differ = (Not(Iff(sol, att)),)
    for size in SIZES:
        if not drawable(vocab, size):
            continue
        kept = store.get((*key, size), lambda: theory_draws(
            theory, vocab, size,
            [(TUPLE_PROBABILITY, f"{seed}:search:{size}", DRAWS_PER_ELEMENT * size)]))
        witness = next(models_among(draw_layout(vocab, size), differ, kept), None)
        if witness is not None:
            direction = TOO_RESTRICTIVE if eval_formula(witness, sol) else TOO_PERMISSIVE
            return CounterExample(structure=witness, direction=direction, source="random")
    return None
