import pytest

from foleq.definability import NecessityCache
from foleq.explain import (
    PER_STRATEGY, StrategyContext, boolean_strategies, explain_nonequivalence,
    first_confirmed, quantifier_strategies,
)
from foleq.models import brute_force_verdict
from foleq.parser import parse
from foleq.prover import BoundedSearchBackend, DecisionCache, decide_equivalence
from foleq.syntax import Vocabulary, to_str
from foleq.theory import Theory

V = Vocabulary(relations={"P": 1, "Q": 1, "R": 2, "S": 1, "G": 2, "D": 2},
               functions={"f": 1})
V3 = Vocabulary(relations={"S": 1, "R": 3})


@pytest.fixture
def engine_parts():
    return BoundedSearchBackend(), DecisionCache(), NecessityCache()


def run(psi_text, phi_text, vocab=V, axioms=(), engine=None, **kwargs):
    backend, cache, ncache = engine or (BoundedSearchBackend(), DecisionCache(),
                                        NecessityCache())
    th = Theory(vocab, tuple(parse(a, vocab) for a in axioms))
    return explain_nonequivalence(parse(psi_text, vocab), parse(phi_text, vocab),
                                  th, backend, cache, ncache, **kwargs)


def context(psi_text, phi_text, vocab=V, axioms=()):
    th = Theory(vocab, tuple(parse(a, vocab) for a in axioms))
    return StrategyContext(parse(psi_text, vocab), parse(phi_text, vocab), th,
                           BoundedSearchBackend(), DecisionCache(), NecessityCache())


TABLE_ROWS = [
    ("S-1", V, "forall x (Q(x) -> P(x))", "forall x P(x)"),
    ("S-2", V, "forall x exists y R(x,y)", "forall x exists y R(y,x)"),
    ("S-3", V, "exists x P(x)", "exists x Q(x)"),
    ("S-4", V, "exists x P(f(x))", "exists x P(x)"),
    ("Q-1", V, "forall x exists y (P(x) -> G(x,y))",
     "forall x forall y (P(x) -> G(x,y))"),
    ("Q-2", V3, "forall x (S(x) -> exists y forall z R(x,y,z))",
     "forall x exists y exists z (S(x) -> R(x,y,z))"),
    ("Q-3", V, "forall x P(x)", "P(x)"),
    ("G-1", V, "forall x (P(x) -> Q(x))", "forall x Q(x)"),
    ("G-1", V, "exists x Q(x)", "exists x (P(x) & Q(x))"),
    ("G-2", V, "forall x (P(x) -> Q(x))", "forall x (P(x) & Q(x))"),
    ("B-1", V, "forall x P(x)", "forall x ~P(x)"),
    ("B-2", V, "forall x (P(x) -> Q(x))", "forall x (Q(x) -> P(x))"),
]


@pytest.mark.parametrize("strategy,vocab,psi,phi", TABLE_ROWS)
def test_catalogue_row_strategy_matches(strategy, vocab, psi, phi):
    bundle = run(psi, phi, vocab)
    assert bundle.verdict.status == "non-equivalent"
    assert strategy in bundle.strategies()


def test_s1_blocker_text_and_evidence():
    bundle = run("forall x (Q(x) -> P(x))", "forall x P(x)")
    blocker = next(e for e in bundle.explanations if e.strategy == "S-1")
    assert blocker.kind == "blocker"
    assert "Q" in blocker.message and "required" in blocker.message
    assert blocker.evidence["necessity"] == "proven"


def test_q3_blocker_no_prover_calls():
    backend = BoundedSearchBackend()
    ctx = StrategyContext(parse("forall x P(x)", V), parse("P(x)", V), Theory(V),
                          backend, DecisionCache(), NecessityCache())
    before = backend.calls
    out = quantifier_strategies(ctx)
    q3 = [e for e in out if e.strategy == "Q-3"]
    assert q3 and q3[0].evidence["only_attempt"] == ["x"]
    # Q-3 itself consumed no prover calls (Q-1/Q-2 may have)
    assert q3[0].kind == "blocker"


def minimal_vocab(vocab, *formulas):
    from foleq.syntax import symbols_of
    rels, funcs, consts = set(), set(), set()
    for f in formulas:
        r, fn, c, _ = symbols_of(f)
        rels |= r
        funcs |= fn
        consts |= c
    return Vocabulary(relations={r: vocab.relations[r] for r in rels},
                      functions={f: vocab.functions[f] for f in funcs},
                      constants=frozenset(consts))


def test_bugfix_modified_formula_is_equivalent():
    engine = (BoundedSearchBackend(), DecisionCache(), NecessityCache())
    for strategy, vocab, psi, phi in TABLE_ROWS:
        bundle = run(psi, phi, vocab, engine=engine)
        backend, cache, _ = engine
        for e in bundle.explanations:
            if e.kind != "bugfix":
                continue
            verdict = decide_equivalence(parse(psi, vocab), e.modified,
                                         Theory(vocab), backend, cache)
            assert verdict.status == "equivalent"
            small = minimal_vocab(vocab, parse(psi, vocab), e.modified)
            from foleq.models import count_structures
            depth = max(n for n in (1, 2, 3)
                        if count_structures(small, n) <= 1_000_000)
            oracle = brute_force_verdict(parse(to_str(parse(psi, vocab)), small),
                                         parse(to_str(e.modified), small),
                                         Theory(small), depth)
            assert not oracle.non_equivalent


def test_single_site_edits_reconstruct_from_evidence():
    # the declared edit applied to the attempt is exactly the repaired formula
    from foleq.syntax import rewrite_at
    for strategy, vocab, psi, phi in TABLE_ROWS:
        bundle = run(psi, phi, vocab)
        attempt = parse(phi, vocab)
        for e in bundle.explanations:
            if e.kind != "bugfix" or e.strategy not in (
                    "S-2", "S-3", "S-4", "G-1", "G-2", "B-2"):
                continue
            address = tuple(e.evidence["address"])
            after = parse(e.evidence["after"], vocab)
            assert rewrite_at(attempt, address, after) == e.modified


def test_equivalent_pair_gives_empty_bundle():
    bundle = run("forall x P(x)", "forall z P(z)")
    assert bundle.verdict.status == "equivalent"
    assert bundle.explanations == [] and bundle.counterexample is None


def test_feedback_example_guarding():
    bundle = run("forall x forall y ((S(x) & D(x,y)) -> S(y))",
                 "forall x forall y (D(x,y) -> S(y))")
    g1 = next(e for e in bundle.explanations if e.strategy == "G-1")
    assert "guard" in g1.message and "x" in g1.message


def test_feedback_example_missing_relation():
    bundle = run("forall x forall y ((S(x) & D(x,y)) -> S(y))",
                 "forall x forall y (S(x) -> S(y))")
    s1 = [e for e in bundle.explanations if e.strategy == "S-1"]
    assert s1 and s1[0].evidence["symbol"] == "D"


def test_feedback_example_quantifier():
    bundle = run("forall x forall y ((S(x) & D(x,y)) -> S(y))",
                 "forall x exists y ((S(x) & D(x,y)) -> S(y))")
    assert {"Q-1", "Q-2"} & bundle.strategies()


def test_combined_prefix_and_guard():
    # the single edits fail, the combination repairs both defects
    psi = "forall x (P(x) -> exists y (G(x,y) & Q(y)))"
    phi_plain = "forall x forall y (G(x,y) & Q(y))"
    bundle = run("forall x exists y (P(x) -> (G(x,y) & Q(y)))",
                 phi_plain)
    assert "Q-1+G-1" in bundle.strategies()
    combined = next(e for e in bundle.explanations if e.strategy == "Q-1+G-1")
    assert "prefix" in combined.evidence and "guard" in combined.evidence


def test_b2_without_implication_is_silent():
    ctx = context("forall x P(x)", "forall x Q(x)")
    assert not [e for e in boolean_strategies(ctx) if e.strategy == "B-2"]


def test_minimal_edit_shape():
    bundle = run("exists x P(f(x))", "exists x P(x)")
    fix = next(e for e in bundle.explanations if e.strategy == "S-4")
    assert fix.evidence["before"] == "P(x)"
    assert fix.evidence["after"] == "P(f(x))"
    assert fix.evidence["address"] == [0]


def test_first_only_stops_early():
    bundle = run("forall x (Q(x) -> P(x))", "forall x P(x)", first_only=True)
    families = {e.strategy[0] for e in bundle.explanations}
    assert families == {"S"}


def test_deterministic_bundles():
    a = run("forall x exists y R(x,y)", "forall x exists y R(y,x)")
    b = run("forall x exists y R(x,y)", "forall x exists y R(y,x)")
    assert [e.to_json() for e in a.explanations] == \
        [e.to_json() for e in b.explanations]


def test_prover_budget_with_warm_cache():
    backend, cache, ncache = BoundedSearchBackend(), DecisionCache(), NecessityCache()
    th = Theory(V)
    psi, phi = parse("forall x P(x)", V), parse("forall x ~P(x)", V)
    decide_equivalence(psi, phi, th, backend, cache)
    before = backend.calls
    ctx = StrategyContext(psi, phi, th, backend, cache, ncache)
    boolean_strategies(ctx)
    assert backend.calls - before <= 2 * PER_STRATEGY


class _CountingContext:
    """Stands in for a StrategyContext: counts confirmations, confirms none."""

    def __init__(self, attempt):
        self.attempt = attempt
        self.confirmed = []

    def confirm(self, candidate):
        self.confirmed.append(candidate)
        return False


def test_first_confirmed_skips_repeats_and_stops_at_cap():
    attempt = parse("P(x)", V)
    distinct = [parse(f"R(x, {'f(' * i}x{')' * i})", V)
                for i in range(PER_STRATEGY + 1)]
    stream = [attempt, distinct[0], distinct[0], *distinct[1:]]
    ctx = _CountingContext(attempt)
    found = first_confirmed(ctx, "B-2", ((c, "m", {}) for c in stream))
    assert found is None
    assert ctx.confirmed == distinct[:PER_STRATEGY]


def test_explanations_do_not_depend_on_hash_seed():
    # profiles that print alike (x = a, x = b, x = c) used to be ordered by
    # set iteration, so the reported Q-2 atom followed PYTHONHASHSEED
    import json
    import os
    import subprocess
    import sys
    script = (
        "import json\n"
        "from foleq.explain import explain_nonequivalence\n"
        "from foleq.parser import parse\n"
        "from foleq.prover import BoundedSearchBackend, DecisionCache\n"
        "from foleq.definability import NecessityCache\n"
        "from foleq.syntax import Vocabulary\n"
        "from foleq.theory import Theory\n"
        "v = Vocabulary(relations={'D': 1}, constants={'a', 'b', 'c'})\n"
        "body = '(D(x) -> x = a | x = b | x = c)'\n"
        "bundle = explain_nonequivalence(\n"
        "    parse('forall x ' + body, v), parse('exists x ' + body, v), Theory(v),\n"
        "    BoundedSearchBackend(), DecisionCache(), NecessityCache())\n"
        "print(json.dumps(bundle.to_json(), sort_keys=True))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("0", "1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert "Q-2" in {e["strategy"] for e in json.loads(outputs.pop())["explanations"]}


def test_doubly_mutated_attempts_never_crash():
    # attempts two edits away from the solution: explanations may or may
    # not exist, but the pipeline must stay well-formed throughout
    from foleq.corpus import scenario
    from foleq.mutate import MUTATIONS, mutate
    engine = (BoundedSearchBackend(), DecisionCache(), NecessityCache())
    backend, cache, ncache = engine
    checked = 0
    for sc_id in ("E-4", "E-10"):
        sc = scenario(sc_id)
        for sol in sc.solutions[:3]:
            for fam1 in MUTATIONS[:3]:
                once = mutate(sol.formula, fam1)
                if once is None:
                    continue
                for fam2 in MUTATIONS[3:]:
                    twice = mutate(once, fam2)
                    if twice is None:
                        continue
                    bundle = explain_nonequivalence(sol.formula, twice, sc.theory,
                                                    backend, cache, ncache)
                    assert bundle.verdict.status in ("equivalent", "non-equivalent",
                                                     "unknown")
                    for e in bundle.explanations:
                        assert e.strategy and e.message
                        e.to_json()
                    checked += 1
    assert checked >= 10


class _NecessityBlindBackend:
    """Decides equivalence normally but cannot answer necessity queries."""

    name = "bounded"

    def __init__(self):
        self._inner = BoundedSearchBackend()
        self.calls = 0

    def check_sat(self, query, timeout_ms=None, want_model=True):
        self.calls += 1
        if query.origin == "definability":
            from foleq.prover import SatResult
            return SatResult("unknown", reason="timeout")
        return self._inner.check_sat(query, timeout_ms=timeout_ms,
                                     want_model=want_model)


def test_s1_unverified_when_necessity_unknown():
    backend = _NecessityBlindBackend()
    bundle = explain_nonequivalence(
        parse("forall x (Q(x) -> P(x))", V), parse("forall x P(x)", V),
        Theory(V), backend, DecisionCache(), NecessityCache())
    s1 = [e for e in bundle.explanations if e.strategy == "S-1"]
    assert s1 and not s1[0].verified
    assert s1[0].evidence["necessity"] == "unverified"
    # advisory blockers do not count as verified strategy hits
    assert "S-1" not in bundle.strategies()


def test_unknown_verdict_empty_bundle(tmp_path):
    import stat
    from foleq.prover import ExternalProverBackend, ProverConfig
    exe = tmp_path / "noprover"
    exe.write_text("#!/bin/sh\nexit 3\n")
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    backend = ExternalProverBackend(ProverConfig(executable=str(exe),
                                                 modes=("vampire",)))
    bundle = explain_nonequivalence(parse("forall x P(x)", V),
                                    parse("exists x P(x)", V), Theory(V), backend)
    assert bundle.verdict.status == "unknown"
    assert bundle.explanations == []
