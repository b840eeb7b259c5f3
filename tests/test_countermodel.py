import hashlib
import json
import random
import sys
import threading
import tracemalloc

from foleq import countermodel, models
from foleq.corpus import all_solutions, load_scenarios
from foleq.countermodel import random_structure, search_countermodel
from foleq.mutate import MUTATIONS, mutate
from foleq.models import (
    EVALUATED_BEFORE_COMPILING, DrawLayout, SharedLists, eval_formula, random_models,
    satisfies_all,
)
from foleq.parser import parse
from foleq.syntax import Iff, Not, Vocabulary
from foleq.theory import Theory

VP = Vocabulary(relations={"P": 1})
VR = Vocabulary(relations={"R": 2})


def test_probability_one_fills_tables():
    s = random_structure(VR, 2, 1.0, random.Random(0))
    assert s.relations["R"] == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_probability_zero_empties_tables():
    s = random_structure(VR, 2, 0.0, random.Random(0))
    assert s.relations["R"] == frozenset()


def test_functions_and_constants_in_range():
    v = Vocabulary(functions={"f": 2}, constants={"c"})
    s = random_structure(v, 3, 0.5, random.Random(1))
    assert set(s.functions["f"]) == {(i, j) for i in range(3) for j in range(3)}
    assert all(0 <= out < 3 for out in s.functions["f"].values())
    assert 0 <= s.constants["c"] < 3


def test_generation_deterministic_for_seed():
    a = [random_structure(VR, 3, 0.5, random.Random(42)) for _ in range(5)]
    b = [random_structure(VR, 3, 0.5, random.Random(42)) for _ in range(5)]
    assert a == b


def test_tuple_inclusion_frequency():
    rng = random.Random(7)
    n = 4000
    counts = {t: 0 for t in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    for _ in range(n):
        s = random_structure(VR, 2, 0.5, rng)
        for t in s.relations["R"]:
            counts[t] += 1
    for t, c in counts.items():
        assert abs(c / n - 0.5) < 0.03, (t, c / n)


def test_pool_empty_theory_admits_everything():
    for size in (1, 2):
        models = list(random_models(VP, (), size, 0.5, random.Random(size), 50))
        assert len(models) == 50


def test_pool_filters_by_theory():
    th = Theory(VP, (parse("forall x P(x)", VP),))
    models = list(random_models(VP, th.axioms, 1, 0.5, random.Random(5), 400))
    ratio = len(models) / 400
    assert 0.4 < ratio < 0.6
    assert all(satisfies_all(s, th.axioms) for s in models)


def test_pool_respects_structural_constraints():
    v = Vocabulary(relations={"R": 2})
    th = Theory(v, (parse("forall x ~R(x,x)", v),
                    parse("forall x forall y (R(x,y) -> ~R(y,x))", v)))
    for size in (2, 3):
        for s in random_models(v, th.axioms, size, 0.5, random.Random(size), 200):
            for (a, b) in s.relations["R"]:
                assert a != b
                assert (b, a) not in s.relations["R"]


def test_search_finds_size_two_witness():
    th = Theory(VP)
    hit = search_countermodel(parse("forall x P(x)", VP), parse("exists x P(x)", VP), th)
    assert hit is not None
    assert hit.direction == "too-permissive"
    assert hit.structure.size == 2
    assert hit.source == "random"


def test_search_self_pair_absent(monkeypatch):
    monkeypatch.setattr(countermodel, "SIZES", (1, 2))
    monkeypatch.setattr(countermodel, "DRAWS_PER_ELEMENT", 25)
    th = Theory(VP)
    f = parse("forall x P(x)", VP)
    assert search_countermodel(f, f, th) is None


def test_search_compiles_the_pair_only_at_sizes_with_theory_models(monkeypatch):
    # only the one-element structures are models; the pair agrees on them
    th = Theory(VP, (parse("forall x forall y x = y", VP),))
    psi, phi = parse("forall x P(x)", VP), parse("exists x P(x)", VP)
    compiled = []
    compile_ = DrawLayout.compile
    monkeypatch.setattr(DrawLayout, "compile", lambda layout, *axioms: compiled.append(
        (layout.size, axioms)) or compile_(layout, *axioms))
    # more kept draws at size 1 than a walk evaluates before it compiles
    monkeypatch.setattr(countermodel, "DRAWS_PER_ELEMENT", 50)
    assert 50 > EVALUATED_BEFORE_COMPILING
    assert search_countermodel(psi, phi, th) is None
    # the pair is compiled as one formula, the models of its negated biconditional
    assert [c for c in compiled if c[1] != th.axioms] == [(1, (Not(Iff(psi, phi)),))]


# sha256 over the random search's outcome on each of criterion 05's 280 pairs
# (the first mutant of every corpus solution per mutation family), one JSON
# line each (the counter example, or null), at seed 23 with one store for all,
# as an engine searches: the pair count, the hits and the digest. A change
# that means to change the search's answers updates it; any other keeps it.
SEARCH_OUTCOMES = (280, 171, "cd82894cad3c6c03594b3d482ff28568188c695fc8ad20a1c6d7641e819c06ac")


def test_search_outcomes_are_pinned():
    store, digest, pairs, hits = SharedLists(), hashlib.sha256(), 0, 0
    for sc, sol in all_solutions():
        for family in MUTATIONS:
            mutant = mutate(sol.formula, family)
            if mutant is None:
                continue
            hit = search_countermodel(sol.formula, mutant, sc.theory, 23, store)
            digest.update(json.dumps(hit and hit.to_json(), sort_keys=True).encode() + b"\n")
            pairs, hits = pairs + 1, hits + (hit is not None)
    assert (pairs, hits, digest.hexdigest()) == SEARCH_OUTCOMES


def test_search_restrictive_direction():
    v = Vocabulary(relations={"P": 1, "Q": 1})
    th = Theory(v)
    hit = search_countermodel(parse("exists x Q(x)", v),
                              parse("exists x (P(x) & Q(x))", v), th)
    assert hit is not None
    assert hit.direction == "too-restrictive"
    assert eval_formula(hit.structure, parse("exists x Q(x)", v))
    assert not eval_formula(hit.structure, parse("exists x (P(x) & Q(x))", v))


def test_search_reproducible_for_seed():
    th = Theory(VP)
    psi, phi = parse("forall x P(x)", VP), parse("exists x P(x)", VP)
    a = search_countermodel(psi, phi, th, seed=9)
    b = search_countermodel(psi, phi, th, seed=9)
    assert a == b


def test_search_draws_store_matches_fresh_searches(monkeypatch):
    # fewer draws keep the fresh searches quick; a miss still walks every size
    monkeypatch.setattr(countermodel, "DRAWS_PER_ELEMENT", 200)
    pairs = [(sc.theory, sol.formula, mutant)
             for sc in load_scenarios() if sc.id in ("E-1", "E-3", "E-6")
             for sol in sc.solutions for family in MUTATIONS
             if (mutant := mutate(sol.formula, family)) is not None]
    fresh = [search_countermodel(sol, att, th, seed=4) for th, sol, att in pairs]
    assert None in fresh and any(fresh)

    forward = SharedLists()
    assert [search_countermodel(sol, att, th, 4, forward) for th, sol, att in pairs] == fresh
    # three theories, one of them over two closed vocabularies
    assert len({key[:3] for key in forward._values}) == 4
    backward = SharedLists()
    assert [search_countermodel(sol, att, th, 4, backward)
            for th, sol, att in reversed(pairs)] == fresh[::-1]
    # another seed's streams are kept apart in the same store
    th, sol, att = pairs[0]
    assert search_countermodel(sol, att, th, 5, forward) == \
        search_countermodel(sol, att, th, seed=5)

    searched_from_threads(pairs, fresh)


def searched_from_threads(pairs, fresh):
    # more threads than cores fill one store at once, each in its own order
    shared, got = SharedLists(), [[] for _ in range(4)]
    orders = [pairs, pairs[::-1], pairs[1::2] + pairs[::2], pairs[::2] + pairs[1::2]]

    def search(out, order):
        out.extend(search_countermodel(sol, att, th, 4, shared) for th, sol, att in order)

    threads = [threading.Thread(target=search, args=args) for args in zip(got, orders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = dict(zip(map(id, pairs), fresh))
    assert all(out == [expected[id(p)] for p in order] for out, order in zip(got, orders))


def test_search_draws_store_past_its_cap_matches_fresh_searches(monkeypatch):
    # a store that keeps few bytes drops lists often; a dropped list is
    # made again from its stream, so every search gives a fresh search's answer
    monkeypatch.setattr(countermodel, "DRAWS_PER_ELEMENT", 200)
    pairs = [(sc.theory, sol.formula, mutant)
             for sc in load_scenarios() if sc.id in ("E-1", "E-6")
             for sol in sc.solutions for family in MUTATIONS
             if (mutant := mutate(sol.formula, family)) is not None]
    fresh = [search_countermodel(sol, att, th, seed=4) for th, sol, att in pairs]
    cap, store, kept = 20_000, SharedLists(), []
    monkeypatch.setattr(models, "MAX_STORED_BYTES", cap)
    make = countermodel.theory_draws

    def counted(*args):
        kept.append(sum(value.nbytes for value in store._values.values()))
        return make(*args)

    with monkeypatch.context() as patched:
        patched.setattr(countermodel, "theory_draws", counted)
        assert [search_countermodel(sol, att, th, 4, store)
                for th, sol, att in pairs * 2] == fresh * 2
    # whenever it makes a list the store keeps at most the cap, and lists
    # it dropped were made again
    assert max(kept) <= cap
    assert len(kept) > len(store._values) + len(kept) // 2
    # threads whose lists are dropped while others walk them
    searched_from_threads(pairs, fresh)


def test_search_draws_store_keeps_its_byte_cap_on_wide_draws():
    # a 4-ary relation's draw holds up to 8 ** 4 = 4,096 flags, and the
    # tautology pair's full miss keeps all 36,000 draws of sizes 1 to 8,
    # 61.8 MB of entries; over three vocabularies a store that capped its
    # entries at 100,000 kept all three misses, 182 MB traced
    store, largest = SharedLists(), 8 * 1000 * 8 ** 4     # size 8's list
    tracemalloc.start()
    try:
        for r in ("R", "S", "T"):
            v = Vocabulary(relations={r: 4})
            tautology = parse(f"forall x ({r}(x, x, x, x) | ~{r}(x, x, x, x))", v)
            assert search_countermodel(tautology, parse("forall x x = x", v),
                                       Theory(v), 0, store) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the store keeps at most its cap besides the list a search walks
    assert sum(value.nbytes for value in store._values.values()) <= \
        models.MAX_STORED_BYTES + largest
    assert peak < 1.1 * (models.MAX_STORED_BYTES + largest)


def test_search_uses_pool_and_validates():
    # only theory models are compared: the witness satisfies the axioms
    v = Vocabulary(relations={"P": 1, "Q": 1})
    th = Theory(v, (parse("forall x P(x)", v),))
    hit = search_countermodel(parse("forall x Q(x)", v), parse("exists x Q(x)", v),
                              th, seed=3)
    assert hit is not None
    assert satisfies_all(hit.structure, th.axioms)


def test_counterexample_revalidates(sampler, monkeypatch):
    monkeypatch.setattr(countermodel, "SIZES", (1, 2, 3))
    monkeypatch.setattr(countermodel, "DRAWS_PER_ELEMENT", 100)
    th = Theory(sampler.vocab)
    found = 0
    from foleq.models import close_formulas
    for _ in range(30):
        f, g = sampler.formula(depth=2), sampler.formula(depth=2)
        hit = search_countermodel(f, g, th, seed=12)
        if hit is None:
            continue
        found += 1
        (cf, cg), _ = close_formulas([f, g], sampler.vocab)
        sol_val = eval_formula(hit.structure, cf)
        att_val = eval_formula(hit.structure, cg)
        assert sol_val != att_val
        expected = "too-restrictive" if sol_val else "too-permissive"
        assert hit.direction == expected
    assert found > 5
