"""Random counter-example search.

Structures are generated Erdos-Renyi style by `models.random_structure`:
every relation tuple is included independently with a fixed probability,
and every function output and constant is drawn uniformly from the
universe. The search walks universe sizes in ascending order and returns
the first generated theory model on which the two formulas disagree.

A witness satisfying the solution but not the attempt marks the attempt
as too restrictive (it misses an intended model); the opposite
disagreement marks it as too permissive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .syntax import Formula, Vocabulary
from .theory import Theory
from .models import (
    Structure, close_formulas, eval_formula, random_structure, satisfies_all,
)

TOO_RESTRICTIVE = "too-restrictive"
TOO_PERMISSIVE = "too-permissive"
BOTH = "both"


@dataclass(frozen=True)
class RandomModelConfig:
    sizes: tuple[int, ...] = tuple(range(1, 11))
    tuple_probability: float = 0.5
    models_per_size: Callable[[int], int] = lambda size: size * 1000
    seed: int = 0

    def __post_init__(self):
        if not self.sizes or list(self.sizes) != sorted(self.sizes):
            raise ValueError("sizes must be nonempty and ascending")
        if not 0.0 <= self.tuple_probability <= 1.0:
            raise ValueError("tuple probability must be in [0, 1]")

    def rng_for(self, size: int, stream: str = "search") -> random.Random:
        # per-size streams derived from the master seed keep results
        # independent of how sizes are interleaved or parallelized
        return random.Random(f"{self.seed}:{stream}:{size}")


@dataclass(frozen=True)
class CounterExample:
    structure: Structure
    direction: str               # too-restrictive | too-permissive | both
    source: str                  # "random" | "prover-fmb" | "brute-force"
    opposite: Structure | None = None   # witness of the other direction, if searched

    def to_json(self) -> dict:
        out = {"direction": self.direction, "source": self.source,
               "structure": self.structure.to_json()}
        if self.opposite is not None:
            out["opposite"] = self.opposite.to_json()
        return out


def pregenerate_gamma_models(theory: Theory,
                             config: RandomModelConfig) -> dict[int, list[Structure]]:
    """Random theory models grouped by size, within the per-size budget.

    The budget counts raw generations, not admitted models; an empty pool
    for a hard-to-hit theory is a normal outcome.
    """
    pool: dict[int, list[Structure]] = {}
    for size in config.sizes:
        rng = config.rng_for(size, stream="pool")
        admitted = []
        for _ in range(config.models_per_size(size)):
            s = random_structure(theory.vocabulary, size, config.tuple_probability, rng)
            if satisfies_all(s, theory.axioms):
                admitted.append(s)
        pool[size] = admitted
    return pool


def search_countermodel(solution: Formula, attempt: Formula, theory: Theory,
                        config: RandomModelConfig | None = None,
                        pool: dict[int, list[Structure]] | None = None,
                        both_directions: bool = False) -> CounterExample | None:
    """First random theory model distinguishing the pair, sizes ascending.

    When a pre-generated pool is available its members are interleaved
    1:1 with fresh samples, so an unrepresentative pool cannot starve the
    search. With both_directions=True the search continues after the
    first hit until a witness of the opposite direction is found or the
    budget runs out.
    """
    config = config or RandomModelConfig()
    (sol, att), vocab = close_formulas([solution, attempt], theory.vocabulary)
    # the closure may add constants the pool's structures lack; they are
    # only usable when the formulas were closed to begin with
    pool_usable = vocab is theory.vocabulary or not _extra_symbols(vocab, theory.vocabulary)

    first: CounterExample | None = None
    for size in config.sizes:
        rng = config.rng_for(size, stream="search")
        budget = config.models_per_size(size)
        pooled = list(pool.get(size, ())) if (pool and pool_usable) else []
        candidates = _interleave(pooled, _fresh(vocab, size, config, rng, budget,
                                                theory))
        for s in candidates:
            sol_val = eval_formula(s, sol)
            att_val = eval_formula(s, att)
            if sol_val == att_val:
                continue
            direction = TOO_RESTRICTIVE if sol_val else TOO_PERMISSIVE
            hit = CounterExample(structure=s, direction=direction, source="random")
            if not both_directions:
                return hit
            if first is None:
                first = hit
            elif first.direction != direction:
                return CounterExample(structure=first.structure, direction=BOTH,
                                      source="random", opposite=s)
    return first


def _extra_symbols(extended: Vocabulary, base: Vocabulary) -> set[str]:
    return set(extended.constants) - set(base.constants)


def _fresh(vocab: Vocabulary, size: int, config: RandomModelConfig,
           rng: random.Random, budget: int, theory: Theory):
    for _ in range(budget):
        s = random_structure(vocab, size, config.tuple_probability, rng)
        if satisfies_all(s, theory.axioms):
            yield s


def _interleave(pooled: list[Structure], fresh):
    pool_iter = iter(pooled)
    fresh_iter = iter(fresh)
    while True:
        stop = True
        for it in (pool_iter, fresh_iter):
            try:
                yield next(it)
                stop = False
            except StopIteration:
                pass
        if stop:
            return
