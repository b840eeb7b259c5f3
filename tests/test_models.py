import itertools
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from foleq.corpus import scenario
from foleq import models
from foleq.models import (
    BudgetExceededError, EvalError, Structure, brute_force_verdict,
    close_formulas, count_exceeds, count_structures, draw_layout, enumerate_structures,
    eval_formula, random_models, random_structure, satisfies_all,
)
from foleq.parser import parse
from foleq.syntax import (
    Atom, Exists, Forall, Implies, Not, Var, Vocabulary, alpha_normalize, free_variables,
    nnf, subformulas,
)
from foleq.theory import Theory

from conftest import FormulaSampler

VP = Vocabulary(relations={"P": 1})
VPQ = Vocabulary(relations={"P": 1, "Q": 1})


def struct(size, **relations):
    return Structure(size=size,
                     relations={k: frozenset(v) for k, v in relations.items()},
                     functions={}, constants={})


def test_eval_quantifiers():
    s = struct(2, P={(0,)})
    assert eval_formula(s, parse("exists x P(x)", VP))
    assert not eval_formula(s, parse("forall x P(x)", VP))


def test_eval_equality_reflexive():
    s = struct(3, P=set())
    assert eval_formula(s, parse("forall x (x = x)", VP))


def test_eval_empty_relation():
    v = Vocabulary(relations={"R": 2})
    s = Structure(size=1, relations={"R": frozenset()}, functions={}, constants={})
    assert not eval_formula(s, parse("exists x exists y R(x,y)", v))


def test_eval_functions_and_constants():
    v = Vocabulary(relations={"P": 1}, functions={"f": 1}, constants={"c"})
    s = Structure(size=2, relations={"P": frozenset({(1,)})},
                  functions={"f": {(0,): 1, (1,): 0}}, constants={"c": 0})
    assert eval_formula(s, parse("P(f(c))", v))
    assert not eval_formula(s, parse("P(f(f(c)))", v))


def test_eval_unassigned_free_variable():
    with pytest.raises(EvalError, match="unassigned"):
        eval_formula(struct(1, P=set()), parse("P(x)", VP))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_structures(VP, 1)) == 2
    v = Vocabulary(relations={"R": 2})
    assert sum(1 for _ in enumerate_structures(v, 2)) == 16
    vc = Vocabulary(constants={"c"})
    assert sum(1 for _ in enumerate_structures(vc, 2)) == 2


def test_enumeration_unique_and_deterministic():
    v = Vocabulary(relations={"P": 1}, functions={"f": 1})
    first = list(enumerate_structures(v, 2))
    second = list(enumerate_structures(v, 2))
    assert first == second
    assert len(first) == count_structures(v, 2) == 4 * 4
    assert len(set(map(repr, first))) == len(first)


def test_enumeration_budget():
    v = Vocabulary(relations={"R": 3})
    with pytest.raises(BudgetExceededError):
        list(enumerate_structures(v, 3, budget=100))


def test_count_exceeds_agrees_with_the_count():
    vocabs = [Vocabulary(), Vocabulary(relations={"A": 0, "R": 3}),
              Vocabulary(functions={"f": 2}, constants={"a", "b"}),
              Vocabulary(relations={"P": 1}, functions={"f": 1}, constants={"c"})]
    for v in vocabs:
        for size in range(1, 5):
            count = count_structures(v, size)
            for budget in (0, count - 1, count, count + 1, 300_000):
                assert count_exceeds(v, size, budget) is (count > budget), (v, size, budget)
    # 2 ** 2 ** 36 interpretations at size 2: decided without the count
    wide = Vocabulary(relations={"R": 36})
    assert count_exceeds(wide, 2, 300_000) and not count_exceeds(wide, 1, 300_000)
    with pytest.raises(BudgetExceededError):
        next(enumerate_structures(wide, 2))


def test_structure_json_round_trip():
    v = Vocabulary(relations={"P": 1}, functions={"f": 1}, constants={"c"})
    s = Structure(size=2, relations={"A": frozenset({()}), "P": frozenset({(1,)}),
                                     "R": frozenset()},
                  functions={"f": {(0,): 1, (1,): 1},
                             "g": {(a, b): a for a in range(2) for b in range(2)}},
                  constants={"c": 1})
    assert Structure.from_json(s.to_json()) == s
    assert s.to_json()["constants"]["c"] == 2  # reports are 1-based


MALFORMED_COUNTERS = {
    "size-zero": {"size": 0},
    "size-string": {"size": "2"},
    "element-out-of-range": {"size": 2, "relations": {"P": [[1], [7]]}},
    "element-zero": {"size": 2, "relations": {"P": [[0]]}},
    "element-string": {"size": 2, "relations": {"P": [["a"]]}},
    "lengths-differ": {"size": 2, "relations": {"R": [[1], [1, 2]]}},
    "function-partial": {"size": 2, "functions": {"f": [[1, 2]]}},
    "function-twice": {"size": 2, "functions": {"f": [[1, 2], [1, 1]]}},
    "function-value-out-of-range": {"size": 2, "functions": {"f": [[1, 2], [2, 3]]}},
    "function-without-arguments": {"size": 2, "functions": {"f": [[1], [2]]}},
    "constant-out-of-range": {"size": 2, "constants": {"c": 3}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COUNTERS))
def test_structure_from_json_rejects_a_malformed_structure(case):
    with pytest.raises(ValueError):
        Structure.from_json(MALFORMED_COUNTERS[case])


def test_close_formulas_shares_constants():
    f = parse("R(x,y)", Vocabulary(relations={"R": 2}))
    g = parse("R(y,x)", Vocabulary(relations={"R": 2}))
    (cf, cg), vocab = close_formulas([f, g], Vocabulary(relations={"R": 2}))
    assert not free_variables(cf) and not free_variables(cg)
    assert vocab.constants == {"c_x", "c_y"}


def test_brute_force_finds_separating_structure():
    th = Theory(VP)
    verdict = brute_force_verdict(parse("forall x P(x)", VP),
                                  parse("exists x P(x)", VP), th, 2)
    assert verdict.non_equivalent
    w = verdict.witness
    assert w.size == 2
    assert eval_formula(w, parse("forall x P(x)", VP)) != \
        eval_formula(w, parse("exists x P(x)", VP))


def test_brute_force_identity():
    th = Theory(VP)
    f = parse("forall x P(x)", VP)
    assert not brute_force_verdict(f, f, th, 3).non_equivalent


def test_brute_force_modulo_theory():
    th = Theory(VPQ, (parse("forall x P(x)", VPQ),))
    psi = parse("forall x (Q(x) -> P(x))", VPQ)
    phi = parse("forall x (P(x) -> P(x))", VPQ)
    assert not brute_force_verdict(psi, phi, th, 3).non_equivalent


def test_brute_force_symmetric(sampler):
    th = Theory(sampler.vocab)
    for _ in range(20):
        f, g = sampler.formula(), sampler.formula()
        (cf, cg), vocab = close_formulas([f, g], sampler.vocab)
        a = brute_force_verdict(f, g, th, 2)
        b = brute_force_verdict(g, f, th, 2)
        assert a.non_equivalent == b.non_equivalent


def test_brute_force_witness_validates(sampler):
    th = Theory(sampler.vocab)
    found = 0
    for _ in range(40):
        f, g = sampler.formula(depth=2), sampler.formula(depth=2)
        verdict = brute_force_verdict(f, g, th, 2)
        if verdict.non_equivalent:
            found += 1
            w = verdict.witness
            (cf, cg), _ = close_formulas([f, g], sampler.vocab)
            assert satisfies_all(w, th.axioms)
            assert eval_formula(w, cf) != eval_formula(w, cg)
    assert found > 0


def test_eval_agrees_with_nnf_and_alpha(sampler):
    # randomized corpus; exhaustive over sizes 1 and 2
    for _ in range(60):
        f = sampler.closed_formula(depth=3)
        for size in (1, 2):
            for s in enumerate_structures(sampler.vocab, size):
                expected = eval_formula(s, f)
                assert eval_formula(s, nnf(f)) == expected
                assert eval_formula(s, alpha_normalize(f)) == expected


# random draws: bulk reads of the stream, and axioms compiled over them


def reference_structure(vocab, size, p, rng):
    """`random_structure` as it reads its stream: one `rng.random() < p`
    per relation tuple, then one `randrange` per function value and
    constant."""
    universe = range(size)
    relations = {r: frozenset(t for t in itertools.product(universe, repeat=vocab.relations[r])
                              if rng.random() < p)
                 for r in sorted(vocab.relations)}
    functions = {f: {t: rng.randrange(size)
                     for t in itertools.product(universe, repeat=vocab.functions[f])}
                 for f in sorted(vocab.functions)}
    constants = {c: rng.randrange(size) for c in sorted(vocab.constants)}
    return Structure(size, relations, functions, constants)


BOUNDARY_P = 1 / 3        # not dyadic, unlike the probabilities foleq uses


def topped_up(state, vocab, size, after):
    """Whether the draw that took the stream from `state` to `after` read
    more words than one per value: a `randrange` word was rejected."""
    probe = random.Random()
    probe.setstate(state)
    tuples = sum(size ** a for a in vocab.relations.values())
    values = sum(size ** a for a in vocab.functions.values()) + len(vocab.constants)
    probe.getrandbits(64 * tuples + 32 * values)
    return probe.getstate() != after


def test_bulk_draws_match_per_tuple_reads():
    seen = {"boundary": 0, "tuples": 0, "topped-up": 0}

    @settings(max_examples=150, deadline=None, database=None)
    @seed(12)
    @given(st.dictionaries(st.sampled_from("ABPQRT"), st.integers(0, 3), max_size=4),
           st.dictionaries(st.sampled_from("fgh"), st.integers(1, 2), max_size=2),
           st.sets(st.sampled_from("abc"), max_size=3), st.integers(1, 10),
           st.sampled_from((0.0, 0.1, 0.2, 0.5, 0.9, 1.0, BOUNDARY_P)),
           st.integers(0, 999), st.integers(0, 3))
    @example({"T": 3, "R": 2, "A": 0}, {"f": 2}, {"a"}, 10, BOUNDARY_P, 1, 2)
    # randrange(1), (2) and (4) reject half of their words
    @example({"P": 1}, {"g": 2}, {"c"}, 1, 0.5, 2, 3)
    @example({"R": 2}, {"f": 1}, {"a", "b"}, 2, 0.2, 5, 3)
    @example({"A": 0}, {"f": 2}, {"c"}, 4, 0.9, 8, 2)
    @example({}, {"f": 1, "g": 2}, {"a", "b"}, 4, 0.5, 7, 3)     # no relation
    @example({}, {}, set(), 3, 0.5, 0, 2)                       # getrandbits(0)
    def draws_agree(relations, functions, constants, size, p, n, more):
        vocab = Vocabulary(relations=relations, functions=functions, constants=constants)
        ours, theirs = random.Random(n), random.Random(n)
        tuples = sum(size ** a for a in relations.values())
        probe = random.Random()
        probe.setstate(theirs.getstate())
        high = [probe.getrandbits(32) >> 24 for _ in range(2 * tuples)][::2]
        # a high byte that is the threshold's own is decided by both words
        seen["boundary"] += p * 256 % 1 > 0 and int(p * 256) in high
        seen["tuples"] += tuples
        before = theirs.getstate()
        assert random_structure(vocab, size, p, ours) == reference_structure(
            vocab, size, p, theirs)
        assert ours.getstate() == theirs.getstate()
        seen["topped-up"] += topped_up(before, vocab, size, theirs.getstate())
        # without axioms every draw is a model
        drawn = random_models(vocab, (), size, p, ours, more)
        for _ in range(more):
            before = theirs.getstate()
            assert next(drawn) == reference_structure(vocab, size, p, theirs)
            assert ours.getstate() == theirs.getstate()
            seen["topped-up"] += topped_up(before, vocab, size, theirs.getstate())
        assert next(drawn, None) is None
        assert ours.getstate() == theirs.getstate()

    draws_agree()
    assert seen["boundary"] and seen["tuples"] and seen["topped-up"]


# size 3: randrange(3) rejects a quarter of its words, so most draws of
# four values read more words than their first read
VPQFC = Vocabulary(relations={"P": 1, "Q": 1}, functions={"f": 1}, constants={"c"})


def test_random_models_draw_only_what_is_asked():
    for vocab, text in ((VPQ, "exists x P(x)"), (VPQFC, "exists x P(f(x)) & Q(c)")):
        axioms = (parse(text, vocab),)
        rng, theirs = random.Random(3), random.Random(3)
        models = random_models(vocab, axioms, 3, 0.5, rng, 50)
        topped = 0
        for _ in range(5):
            model = next(models)
            while True:
                before = theirs.getstate()
                expected = reference_structure(vocab, 3, 0.5, theirs)
                topped += topped_up(before, vocab, 3, theirs.getstate())
                if satisfies_all(expected, axioms):
                    break
            # the stream stops at the model's last word, top-up reads included
            assert model == expected
            assert rng.getstate() == theirs.getstate()
        assert topped or not vocab.functions


def test_draw_sizes_fit_one_byte_per_value():
    vocab = Vocabulary(functions={"f": 1}, constants={"c"})
    with pytest.raises(ValueError, match="255"):
        draw_layout(vocab, 256)
    # 254 is the largest value; 255 only marks a rejected word
    ours, theirs = random.Random(4), random.Random(4)
    assert random_structure(vocab, 255, 0.5, ours) == reference_structure(
        vocab, 255, 0.5, theirs)
    assert ours.getstate() == theirs.getstate()


COMPILED_VOCABS = [
    Vocabulary(relations={"P": 1, "Q": 1, "R": 2}),
    scenario("E-9").vocabulary,                       # op/2 and e, no relations
    Vocabulary(functions={"f": 1, "g": 2}, constants={"a", "b"}),
    Vocabulary(relations={"A": 0, "P": 1, "R": 2, "T": 3}, functions={"f": 1},
               constants={"c"}),
]
COMPILED_FORMULAS = [
    "forall x exists x P(x)",
    "forall x forall x forall y (R(x, y) -> x = y)",
    "exists x (P(x) <-> forall x (R(x, x) | ~P(f(x))))",
    "forall x (P(f(x)) <-> R(x, c)) & (A | T(c, f(c), f(f(c))))",
    "forall x forall y (f(x) = f(y) -> x = y) -> exists z forall x ~(f(x) = z)",
    "forall x exists y (T(x, y, x) & forall x (x = y | ~A))",
    "forall x exists y (R(x, y) & exists x exists y forall z R(x, z))",
]


def _deep(n, quantifiers):
    g = Atom("P", (Var("x"),))
    for i in range(n):
        g = quantifiers[i % len(quantifiers)]("x", g)
    return g


def source_names_are_generated(source):
    """Only the compiler's own names occur in a source: keywords, the
    draw F, the universe U, loop variables v<n> and helpers _q<n>; no
    symbol name from the input."""
    names = set(re.findall(r"[A-Za-z_]\w*", source))
    keywords = {"F", "U", "def", "return", "if", "for", "in", "and", "or", "not",
                "True", "False"}
    return all(n in keywords or re.fullmatch(r"v\d+|_q\d+", n) for n in names)


def quantified(f):
    return any(isinstance(g, (Forall, Exists)) for _, g in subformulas(f))


def test_compiled_axioms_agree_with_eval_formula():
    rich = COMPILED_VOCABS[-1]
    written = [parse(text, rich) for text in COMPILED_FORMULAS]
    # deep quantifier nests, at size 1 only: a larger size takes size ** depth steps
    deep = [_deep(40, (Forall,)), _deep(300, (Forall, Exists))]
    # 300 negations nest past what Python compiles: checked on the structure
    negated = Atom("P", (Var("x"),))
    for _ in range(300):
        negated = Not(negated)
    negated = Forall("x", negated)
    seen = {True: 0, False: 0, "grounded": 0, "looped": 0, "sets": 0, "fallback": 0}

    @settings(max_examples=300, deadline=None, database=None)
    @seed(12)
    @given(st.integers(0, len(COMPILED_VOCABS) - 1), st.integers(0, 9999),
           st.integers(1, 6), st.sampled_from((0.2, 0.5, 0.8)))
    def agree(which, n, size, p):
        vocab = COMPILED_VOCABS[which]
        formulas = [FormulaSampler(n, vocab).closed_formula(depth=3)]
        if vocab is rich:
            formulas += written + (deep if size == 1 else [])
        layout = draw_layout(vocab, size)
        drawn = list(layout.draws(p, random.Random(n), 3))
        for f in formulas:
            check = layout.check((f,))
            if f not in deep:
                source = layout.source(f)
                assert source_names_are_generated(source), source
                # every run small enough at this size is one chain, the rest loops
                seen["looped"] += "for v" in source
                seen["grounded"] += quantified(f) and "for v" not in source
            for draw in drawn:
                expected = eval_formula(layout.structure(draw), f)
                assert bool(check(draw)) is expected, (f, draw)
                seen[expected] += 1
        # one closure per set: the `and` of its axioms, True for none
        sets = [(), (formulas[0],), tuple(formulas)]
        if vocab is rich:
            sets.append((formulas[0], negated))
        for axioms in sets:
            check = layout.check(axioms)
            seen["fallback"] += check.__name__ != "_q0"
            for draw in drawn:
                expected = satisfies_all(layout.structure(draw), axioms)
                assert bool(check(draw)) is expected, (axioms, draw)
                seen["sets"] += 1

    agree()
    assert all(seen.values()), seen


def agrees_on_draws(layout, f, draws=40):
    check = layout.compile(f)
    for draw in layout.draws(0.5, random.Random(5), draws):
        assert bool(check(draw)) is eval_formula(layout.structure(draw), f)


def test_compiled_runs_pass_their_outer_variables():
    vocab = Vocabulary(relations={"P": 1, "R": 2}, functions={"f": 1})
    f = parse("forall x exists y forall z forall w (R(x, z) -> R(y, f(w)) | x = z)", vocab)
    for size, inner in ((3, None), (5, "def _q3(F, v0, v1):")):
        layout = draw_layout(vocab, size)
        source = layout.source(f)
        # each looped run is a def that takes the variables bound outside it;
        # the innermost run is grounded at 3 ** 2 instances, looped at 5 ** 2
        assert "def _q1(F):" in source and "def _q2(F, v0):" in source
        assert ("_q3" in source) == bool(inner) and (inner or "") in source
        assert source_names_are_generated(source)
        agrees_on_draws(layout, f)


def test_compiled_grounded_runs_fold_elements():
    vocab = Vocabulary(relations={"R": 2})
    f = parse("forall x forall y (x = y | R(x, y))", vocab)
    layout = draw_layout(vocab, 2)
    source = layout.source(f)
    # four instances with their indices and equalities folded: R(0, 1) is F[1]
    assert source == ("def _q0(F):\n"
                      "    return ((True or F[0]) and (False or F[1]) and "
                      "(False or F[2]) and (True or F[3]))\n")
    agrees_on_draws(layout, f)
    # 3 ** 3 instances are past the cap: loops, with nothing to fold
    f = parse("forall x forall y forall z (R(x, y) & R(y, z) -> R(x, z))", vocab)
    assert "for v2 in U" in draw_layout(vocab, 3).source(f)
    agrees_on_draws(draw_layout(vocab, 3), f)


def test_compiled_run_nested_too_deep_walks_the_structure(monkeypatch):
    layout = draw_layout(VP, 2)
    walked = []

    def counting(s, f, assignment=None):
        walked.append(f)
        return eval_formula(s, f, assignment)

    monkeypatch.setattr(models, "eval_formula", counting)
    for quantifier, draw, expected in ((Forall, b"\x00\x01", False),
                                       (Exists, b"\x01\x00", True)):
        f = Atom("P", (Var("x0"),))
        for i in reversed(range(25)):
            f = quantifier(f"x{i}", f)
        # 2 ** 25 instances are too many to ground, and 25 nested loops
        # are more than Python compiles in one def
        with pytest.raises(SyntaxError):
            exec(layout.source(f), {})
        check = layout.compile(f)
        assert check(draw) is expected and walked[-1] is f


def test_compiled_source_nested_past_the_parser_walks_the_structure():
    # 199 nested implications overflow CPython's parser stack, which raises
    # MemoryError, not SyntaxError
    atom = Atom("P", (Var("x"),))
    body = atom
    for _ in range(199):
        body = Implies(atom, body)
    f = Forall("x", body)
    layout = draw_layout(VP, 2)
    with pytest.raises(MemoryError):
        exec(layout.source(f), {})
    assert layout.compile(f).__name__ != "_q0"
    agrees_on_draws(layout, f)


def test_batch_imports_no_numpy():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys\n"
        "import workloads\n"
        "from foleq.harness import run_batch\n"
        "state = workloads.Batch().setup(1)\n"
        "report = run_batch(state['records'], state['engine'])\n"
        "assert report.total['all'] == len(state['records'])\n"
        "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
