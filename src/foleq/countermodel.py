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
are kept, as their draws, in a store (`SearchDraws`; an engine owns
one), so the searches over one theory and closed vocabulary share their
draws: each is made, and its axioms tested, once per store. The pair is
compiled once per size, when the size's first theory model is walked,
and tested on the draw too, so only the witness becomes a `Structure`.

A witness satisfying the solution but not the attempt marks the attempt
as too restrictive (it misses an intended model); the opposite
disagreement marks it as too permissive.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from .syntax import Formula, Vocabulary
from .theory import Theory
from .models import (  # random_structure is re-exported
    SharedList, Structure, close_formulas, draw_layout, drawable, random_structure,
    vocabulary_key,
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


class SearchDraws:
    """The theory models among the draws of the search's streams, kept for
    every search given this store: one lazily grown `SharedList` per
    (seed, theory, closed vocabulary, size), whose source is the draws of
    the stream `{seed}:search:{size}` that satisfy the theory's axioms.
    The streams do not depend on the pair, so each is drawn and its axioms
    tested once per store. A kept draw is the `bytes` that
    `DrawLayout.draws` yields. A lock guards the creation of the lists,
    as threads share one engine."""

    def __init__(self):
        self._lists: dict[tuple, dict[int, SharedList]] = {}
        self._lock = threading.Lock()

    def lists(self, theory: Theory, vocab: Vocabulary, seed: int) -> dict[int, SharedList]:
        """The list of each size of `SIZES` that `models.drawable` admits
        for the closed vocabulary, in that order."""
        key = (seed, theory.axioms, vocabulary_key(vocab))
        with self._lock:
            lists = self._lists.get(key)
            if lists is None:
                lists = self._lists[key] = {
                    size: SharedList(draw_layout(vocab, size).draws(
                        TUPLE_PROBABILITY, random.Random(f"{seed}:search:{size}"),
                        DRAWS_PER_ELEMENT * size, theory.axioms), [])
                    for size in SIZES if drawable(vocab, size)}
        return lists


def search_countermodel(solution: Formula, attempt: Formula, theory: Theory,
                        seed: int = 0, draws: SearchDraws | None = None
                        ) -> CounterExample | None:
    """First random theory model distinguishing the pair, sizes ascending.

    Each size draws from its own stream derived from the seed, so a
    size's draws do not depend on the sizes searched before it. A size
    whose draws would hold more than `MAX_DRAW_ENTRIES` flags and values
    is skipped (`models.drawable`). The theory models among the draws
    come from `draws`, or from a fresh store; either way the result is
    the same, whatever other searches walked the store before.
    """
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    for size, kept in (draws or SearchDraws()).lists(theory, vocab, seed).items():
        layout = draw_layout(vocab, size)
        sol_holds = att_holds = None
        for draw in kept:
            if sol_holds is None:       # a size without theory models compiles nothing
                sol_holds, att_holds = layout.compile(sol), layout.compile(att)
            sol_val = sol_holds(draw)
            if sol_val != att_holds(draw):
                direction = TOO_RESTRICTIVE if sol_val else TOO_PERMISSIVE
                return CounterExample(structure=layout.structure(draw),
                                      direction=direction, source="random")
    return None
