"""The benchmark's three workloads: recall, decide and batch.

Each workload builds its inputs in `setup` (the first foleq import
happens there), runs one round of pairs through a `PairClock` in
`run_round`, and judges a round's answers in `check` with the
independent checks of check.py. A round is a fixed list of pairs and
every round of a run does the same work on a fresh engine, so runs of
different lengths do whole rounds of the same operations.

The inputs are fixed subsets of the corpus-derived pair lists, taken by
a stride over their deterministic order so that every scenario family
and mutation family is sampled without picking pairs by cost; a whole
list does not fit in one run (the full recall loop takes about four
minutes). The seed renames bound variables in the batch workload's
repeated submissions and seeds the checks' random search; it does not
change which pairs run, so runs with different seeds do the same work.
"""

from __future__ import annotations

import json
import os
import random
import re

import check

RECALL_STRIDE = 8         # 35 of the 280 criterion-05 pairs
DECIDE_STRIDE = 11        # 52 of the 568 mutant pairs
BATCH_SOLUTION_STRIDE = 31  # 2 of the 62 corpus solutions
ENGINE_SEED = 23          # criterion 05's engine seed

# Criterion 05: the strategies that count as the intended repair of each
# mutation family, and the recall thresholds over non-equivalent pairs.
INTENDED = {
    "quantifier-flip": {"Q-1", "Q-2", "Q-1+G-1"},
    "guard-drop": {"G-1", "Q-1+G-1"},
    "guard-operator-flip": {"G-2"},
    "implication-swap": {"B-2"},
    "negation-toggle": {"B-1"},
    "argument-permutation": {"S-2"},
}
MIN_EXPLAINED = 0.80
MIN_INTENDED = 0.70

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Item:
    """One pair plus what the generator knows about it: its mutation
    family and, for the checks, its text form."""

    def __init__(self, scenario, solution, attempt_text: str, family: str, label: str,
                 attempt=None):
        self.scenario = scenario
        self.solution = solution
        self.attempt = attempt
        self.attempt_text = attempt_text
        self.family = family
        self.label = label

    @staticmethod
    def mutant(scenario, solution, mutant, family: str, label: str) -> "Item":
        from foleq.syntax import to_str
        return Item(scenario, solution.formula, to_str(mutant), family, label, mutant)

    def pair(self) -> check.Pair:
        from foleq.syntax import to_str
        return check.Pair(self.scenario.vocabulary.to_json(),
                          [to_str(ax) for ax in self.scenario.theory.axioms],
                          to_str(self.solution), self.attempt_text)


def _answer(verdict: dict, counterexample: dict | None, explanations: list[dict]) -> dict:
    return {"verdict": verdict, "counterexample": counterexample,
            "bugfixes": [e["modified"] for e in explanations
                         if e["kind"] == "bugfix" and "modified" in e],
            "strategies": sorted({e["strategy"] for e in explanations
                                  if e.get("verified", True)})}


def _guarded(fn):
    """fn returning foleq's error instead of raising it, as `run_batch`
    catches it, so that a failing pair is timed and counted as failed."""
    from foleq.syntax import FoleqError

    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FoleqError as exc:
            return exc
    return call


def _error(exc: Exception) -> dict:
    return {"verdict": {"status": "unknown"}, "error": str(exc)}


def _failed(answer: dict) -> bool:
    return answer["verdict"]["status"] == "unknown" or "error" in answer


def _check_answers(items: list[Item], answers: list[dict], rng: random.Random) -> None:
    for item, answer in zip(items, answers):
        if _failed(answer):
            continue
        try:
            check.check_answer(item.pair(), answer["verdict"], answer["counterexample"],
                               answer["bugfixes"], rng)
        except check.CheckError as exc:
            raise check.CheckError(f"{item.label}: {exc}") from None


def equiv_bound_sum(answers: list[dict]) -> int:
    """Sum of k over "equivalent" verdicts whose method is bounded<=k."""
    return sum(check.bound_of(a["verdict"].get("method")) or 0
               for a in answers if a["verdict"]["status"] == "equivalent")


def summary(answers: list[dict]) -> dict:
    out: dict = {}
    for a in answers:
        key = f"{a['verdict']['status']}:{a['verdict'].get('method')}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


class _Workload:
    equiv_bound_sum = staticmethod(equiv_bound_sum)
    summary = staticmethod(summary)

    def fresh_engine(self, state: dict) -> None:
        state["engine"] = self.make_engine()


# ---------------------------------------------------------------------------


class Recall(_Workload):
    """Criterion 05's loop: decide and explain the first mutant of each
    solution per mutation family, one engine for the round."""

    def make_engine(self):
        from foleq.harness import Engine
        return Engine.make(seed=ENGINE_SEED, strategy_timeout_ms=30_000)

    def setup(self, seed: int) -> dict:
        from foleq.corpus import all_solutions
        from foleq.mutate import MUTATIONS, mutate
        items = []
        for sc, sol in all_solutions():
            for family in MUTATIONS:
                mutant = mutate(sol.formula, family)
                if mutant is not None:
                    items.append(Item.mutant(sc, sol, mutant, family, f"{sol.id}/{family}"))
        return {"items": items[::RECALL_STRIDE], "engine": self.make_engine()}

    def run_round(self, state: dict, clock) -> tuple[list[dict], int]:
        from foleq.explain import explain_nonequivalence
        explain = _guarded(explain_nonequivalence)
        engine = state["engine"]
        answers = []
        for item in state["items"]:
            bundle = clock.time(explain, item.solution, item.attempt, item.scenario.theory,
                                engine.backend, engine.cache, engine.necessity_cache,
                                prover_config=engine.prover_config, with_countermodel=False)
            if isinstance(bundle, Exception):
                answers.append(_error(bundle))
                continue
            ce = bundle.counterexample
            answers.append(_answer(bundle.verdict.to_json(), ce.to_json() if ce else None,
                                   [e.to_json() for e in bundle.explanations]))
        return answers, sum(map(_failed, answers))

    def check(self, state: dict, answers: list[dict], rng: random.Random) -> None:
        _check_answers(state["items"], answers, rng)
        wrong = [(item, a) for item, a in zip(state["items"], answers)
                 if a["verdict"]["status"] == "non-equivalent"]
        if not wrong:
            raise check.CheckError("no non-equivalent pair to measure recall on")
        explained = sum(1 for _, a in wrong if a["strategies"]) / len(wrong)
        intended = sum(1 for item, a in wrong
                       if INTENDED[item.family] & set(a["strategies"])) / len(wrong)
        if explained < MIN_EXPLAINED or intended < MIN_INTENDED:
            raise check.CheckError(
                f"recall below criterion 05: {explained:.1%} explained, "
                f"{intended:.1%} by the intended family over {len(wrong)} pairs")


# ---------------------------------------------------------------------------


class Decide(_Workload):
    """decide_equivalence alone on every mutant of every family, with a
    fresh cache per round."""

    def make_engine(self):
        from foleq.harness import Engine
        return Engine.make(seed=ENGINE_SEED)

    def setup(self, seed: int) -> dict:
        from foleq.corpus import all_solutions
        from foleq.mutate import MUTATIONS, mutate_all
        items = []
        for sc, sol in all_solutions():
            for family in MUTATIONS:
                for i, mutant in enumerate(mutate_all(sol.formula, family)):
                    items.append(Item.mutant(sc, sol, mutant, family,
                                             f"{sol.id}/{family}/{i}"))
        return {"items": items[::DECIDE_STRIDE], "engine": self.make_engine()}

    def run_round(self, state: dict, clock) -> tuple[list[dict], int]:
        from foleq.prover import decide_equivalence
        decide = _guarded(decide_equivalence)
        engine = state["engine"]
        answers = []
        for item in state["items"]:
            verdict = clock.time(decide, item.solution, item.attempt, item.scenario.theory,
                                 engine.backend, engine.cache)
            if isinstance(verdict, Exception):
                answers.append(_error(verdict))
                continue
            ce = None
            if verdict.counter is not None:
                ce = {"structure": verdict.counter.to_json(), "direction": verdict.direction}
            answers.append(_answer(verdict.to_json(), ce, []))
        return answers, sum(map(_failed, answers))

    def check(self, state: dict, answers: list[dict], rng: random.Random) -> None:
        _check_answers(state["items"], answers, rng)


# ---------------------------------------------------------------------------


class Batch(_Workload):
    """run_batch with the defaults of `foleq batch` on a generated JSONL
    dataset shaped like a class's submissions: each solution submitted as
    itself, and each first mutant per family submitted verbatim and again
    with its bound variables renamed (names drawn from the seed)."""

    def make_engine(self):
        from foleq.harness import Engine
        return Engine.make()

    def setup(self, seed: int) -> dict:
        from foleq.corpus import all_solutions
        from foleq.harness import load_dataset
        from foleq.mutate import MUTATIONS, mutate
        rng = random.Random(f"batch:{seed}")
        items: list[Item] = []
        originals: dict[str, str] = {}   # renamed copy's label -> original's label
        for sc, sol in all_solutions()[::BATCH_SOLUTION_STRIDE]:
            items.append(Item(sc, sol.formula, sol.text, "self", f"{sol.id}/self"))
            for family in MUTATIONS:
                mutant = mutate(sol.formula, family)
                if mutant is None:
                    continue
                item = Item.mutant(sc, sol, mutant, family, f"{sol.id}/{family}")
                renamed = _rename_bound(item, rng)
                originals[renamed.label] = item.label
                items += [item, renamed]

        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"batch-{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps(_record(item)) + "\n")
        try:
            records, errors = load_dataset(path)
        finally:
            os.remove(path)
        if errors or len(records) != len(items):
            raise check.CheckError(f"generated dataset did not load: {errors}")
        return {"items": items, "records": records, "originals": originals,
                "engine": self.make_engine()}

    def run_round(self, state: dict, clock) -> tuple[dict, int]:
        import foleq.harness as harness
        results = []
        run_pair = harness.run_pair
        guarded = _guarded(run_pair)

        def timed_run_pair(record, *args, **kwargs):
            result = clock.time(guarded, record, *args, **kwargs)
            if isinstance(result, Exception):
                results.append({"id": record.id, "explanations": [], **_error(result)})
                raise result   # run_batch records it as an error
            results.append(result)
            return result

        harness.run_pair = timed_run_pair
        try:
            report = harness.run_batch(state["records"], state["engine"])
        finally:
            harness.run_pair = run_pair
        pairs = [dict(_answer(r["verdict"], r.get("counterexample"), r["explanations"]),
                      id=r["id"], methods=r.get("countermodel_methods"),
                      **({"error": r["error"]} if "error" in r else {}))
                 for r in results]
        report = report.to_json()
        del report["timing"]
        return {"pairs": pairs, "report": report}, sum(map(_failed, pairs))

    def check(self, state: dict, answers: dict, rng: random.Random) -> None:
        items, pairs, report = state["items"], answers["pairs"], answers["report"]
        if [p["id"] for p in pairs] != [item.label for item in items]:
            raise check.CheckError("batch results are not one per record, in order")
        _check_answers(items, pairs, rng)
        distinct = len({_canonical_key(item) for item in items})
        for section, expected in (("total", len(items)), ("distinct", distinct)):
            if report[section]["all"] != expected:
                raise check.CheckError(f"report {section}.all is "
                                       f"{report[section]['all']}, expected {expected}")
        status = {p["id"]: p["verdict"]["status"] for p in pairs if not _failed(p)}
        for copy, original in state["originals"].items():
            if copy in status and original in status and status[copy] != status[original]:
                raise check.CheckError(f"{copy} is {status[copy]}, its original "
                                       f"{original} is {status[original]}")

    def equiv_bound_sum(self, answers: dict) -> int:
        return equiv_bound_sum(answers["pairs"])

    def summary(self, answers: dict) -> dict:
        return summary(answers["pairs"])


def _record(item: Item) -> dict:
    from foleq.syntax import to_str
    sc = item.scenario
    return {"id": item.label, "vocabulary": sc.vocabulary.to_json(),
            "gamma": [to_str(ax) for ax in sc.theory.axioms],
            "psi": to_str(item.solution), "phi": item.attempt_text}


def _canonical_key(item: Item) -> tuple:
    """The generator's own duplicate key: the alpha-canonical pair, in
    either order, and the axiom set."""
    pair = item.pair()
    return (tuple(sorted(map(repr, map(check.canonical, pair.axioms)))),
            tuple(sorted(map(repr, map(check.canonical, (pair.solution, pair.attempt))))))


def _rename_bound(item: Item, rng: random.Random) -> Item:
    """The item with every bound variable of its attempt given a fresh,
    seed-chosen name."""
    vocab = item.scenario.vocabulary.to_json()
    taken = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", item.attempt_text))
    renamed = check.rename_bound(check.parse(item.attempt_text, vocab), rng, taken)
    return Item(item.scenario, item.solution, check.to_text(renamed), item.family,
                f"{item.label}/renamed")


WORKLOADS = {"recall": Recall(), "decide": Decide(), "batch": Batch()}
