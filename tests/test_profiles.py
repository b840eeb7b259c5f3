import itertools
import os
import subprocess
import sys

from hypothesis import given, seed, settings, strategies as st

from foleq.parser import parse
from foleq.profiles import (
    EXISTS, FORALL, PrefixEntry, add_guard, atom_occurrences, atom_quantifier_prefix,
    binder_chain, core_profile, extract_guards, flip_quantifier, formula_profile,
    permute_arguments, profiles_to_json, remove_guard, swap_implication,
    toggle_negation,
)
from foleq.profiles import BinderInfo, _occurrence
from foleq.syntax import (
    QUANTIFIERS, Atom, Eq, Forall, Iff, Implies, Not, Var, Vocabulary,
    alpha_normalize, atoms_of, children, free_variables, subformulas, to_str,
)

from conftest import FormulaSampler

V = Vocabulary(relations={"S": 1, "T": 3, "R": 3, "P": 1, "Q": 1, "D": 2,
                          "B": 2})
RUNNING = "exists y (S(y) & forall x ~forall y (T(x,y,x) | S(y)))"


def entry(kind, *positions):
    return PrefixEntry(kind, frozenset(positions))


def atom_address(f, rel):
    return next(addr for addr, node in atoms_of(f)
                if isinstance(node, Atom) and node.rel == rel)


def test_profile_of_running_example():
    f = parse(RUNNING, V)
    assert core_profile(f) == {
        ("S", "+", (entry(EXISTS, 1),)),
        ("S", "-", (entry(EXISTS, 1),)),
        ("T", "-", (entry(FORALL, 1, 3), entry(EXISTS, 2))),
    }


def test_atom_prefix_of_running_example():
    f = parse(RUNNING, V)
    assert atom_quantifier_prefix(f, atom_address(f, "T")) == \
        ((FORALL, "x"), (EXISTS, "y"))


def test_atom_prefix_simple():
    f = parse("forall x P(x)", V)
    assert atom_quantifier_prefix(f, atom_address(f, "P")) == ((FORALL, "x"),)


def test_atom_prefix_excludes_free_variables():
    f = parse("forall x D(x,y)", V)
    assert atom_quantifier_prefix(f, atom_address(f, "D")) == ((FORALL, "x"),)


def test_profile_trivial_universal():
    f = parse("forall x P(x)", V)
    assert core_profile(f) == {("P", "+", (entry(FORALL, 1),))}


def test_profile_valence_under_implication():
    f = parse("forall x forall y (D(x,y) -> S(y))", V)
    cores = {(sym, val) for sym, val, _ in core_profile(f)}
    assert cores == {("D", "-"), ("S", "+")}


def test_profile_invariant_under_alpha():
    f = parse(RUNNING, V)
    assert formula_profile(f) == formula_profile(alpha_normalize(f))


def test_profile_double_negation():
    f = parse("forall x P(x)", V)
    g = parse("~~forall x P(x)", V)
    assert formula_profile(f) == formula_profile(g)


def test_profiles_under_iff_have_both_valences():
    f = parse("P(x) <-> Q(x)", V)
    valences = {(p.symbol, p.valence) for p in formula_profile(f)}
    assert valences == {("P", "+"), ("P", "-"), ("Q", "+"), ("Q", "-")}


def walked_atom_occurrences(f):
    """`atom_occurrences` as it was before it skipped states already
    walked: both sides of every biconditional walked once per polarity."""
    out, seen = [], set()

    def walk(g, address, positive, chain, principal):
        if isinstance(g, (Atom, Eq)):
            occ = _occurrence(address, g, positive, chain, principal)
            key = (occ.address, occ.valence, occ.prefix)
            if key not in seen:
                seen.add(key)
                out.append(occ)
        elif isinstance(g, Not):
            walk(g.sub, address + (0,), not positive, chain, principal)
        elif isinstance(g, Implies):
            walk(g.left, address + (0,), not positive, chain, principal)
            walk(g.right, address + (1,), positive, chain, principal)
        elif isinstance(g, Iff):
            for i, side in enumerate((g.left, g.right)):
                walk(side, address + (i,), positive, chain, principal)
                walk(side, address + (i,), not positive, chain, False)
        elif isinstance(g, QUANTIFIERS):
            base = FORALL if isinstance(g, Forall) else EXISTS
            kind = base if positive else (EXISTS if base == FORALL else FORALL)
            walk(g.body, address + (0,), positive,
                 chain + (BinderInfo(kind, g.var, address),), principal)
        else:
            for i, c in enumerate(children(g)):
                walk(c, address + (i,), positive, chain, principal)

    walk(f, (), True, (), True)
    return out


@settings(max_examples=300, deadline=None, database=None)
@seed(21)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_atom_occurrences_match_the_walk_of_every_path(n, depth):
    f = FormulaSampler(seed=n, vocab=V).formula(depth=depth, quant_budget=3)
    assert atom_occurrences(f) == walked_atom_occurrences(f)


def test_atom_occurrences_of_a_long_biconditional_chain_end_in_time():
    # every link doubles the paths of polarities down the chain: 16 links
    # took 0.73 s when each path was walked, 24 about 4 ** 4 times longer
    code = ("from foleq.parser import parse\n"
            "from foleq.profiles import atom_occurrences\n"
            "from foleq.syntax import Vocabulary\n"
            "v = Vocabulary(relations={'P': 1})\n"
            "f = parse('exists x (' + ' <-> ('.join(['P(x)'] * 24) + ')' * 24, v)\n"
            "print(len(atom_occurrences(f)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=src))
    # each of the 24 atoms occurs once per polarity
    assert done.returncode == 0 and done.stdout.split() == ["48"], done.stderr


def test_equality_pseudo_symbol():
    v = Vocabulary(relations={"P": 1})
    f = parse("forall x forall y ~(x = y)", v)
    (profile,) = formula_profile(f)
    assert profile.symbol == "="
    assert profile.valence == "-"
    assert profile.prefix_type == (entry(FORALL, 1), entry(FORALL, 2))


def test_term_fingerprints_distinguish_arguments():
    v = Vocabulary(relations={"P": 1}, functions={"f": 1}, constants={"c"})
    plain = formula_profile(parse("exists x P(x)", v))
    nested = formula_profile(parse("exists x P(f(x))", v))
    const = formula_profile(parse("exists x P(c)", v))
    assert {p.core for p in plain} == {p.core for p in nested}
    assert plain != nested
    assert {p.fingerprint for p in const} != {p.fingerprint for p in plain}


def test_guard_example_positive():
    f = parse("forall y exists x (S(x) & exists z R(x,y,z))", V)
    guarded, wrong = extract_guards(f)
    assert not wrong
    (record,) = guarded
    assert record.variable == "x"
    assert record.guard_atom == parse("S(x)", V)
    assert record.guarded_atom == parse("R(x,y,z)", V)
    assert record.operator == "&"
    assert record.binder_kind == EXISTS


def test_guard_example_wrong():
    f = parse("forall y exists x (S(x) -> exists z R(x,y,z))", V)
    guarded, wrong = extract_guards(f)
    assert not guarded
    (record,) = wrong
    assert record.variable == "x"
    assert record.operator == "->"


def test_no_guards_without_pattern():
    guarded, wrong = extract_guards(parse("exists x Q(x)", V))
    assert not guarded and not wrong


def test_guards_in_antecedent_conjunction():
    f = parse("forall x forall y ((S(x) & D(x,y)) -> S(y))", V)
    guarded, wrong = extract_guards(f)
    assert not wrong
    facts = {(r.variable, to_str(r.guard_atom), to_str(r.guarded_atom))
             for r in guarded}
    assert facts == {("x", "S(x)", "D(x, y)"), ("y", "D(x, y)", "S(y)")}


def test_guard_records_reconstruct_pattern():
    from foleq.syntax import And, Implies, subformula_at
    for text in [
        "forall y exists x (S(x) & exists z R(x,y,z))",
        "forall x forall y ((S(x) & D(x,y)) -> S(y))",
        "forall x (P(x) & Q(x))",
        "exists x (P(x) -> Q(x))",
    ]:
        f = parse(text, V)
        guarded, wrong = extract_guards(f)
        for record in guarded | wrong:
            core = subformula_at(f, record.pattern_address)
            assert isinstance(core, (And, Implies))
            assert subformula_at(f, record.guard_address) == record.guard_atom
            assert subformula_at(f, record.guarded_address) == record.guarded_atom
            binder = subformula_at(f, record.binder_address)
            assert binder.var == record.variable


def test_wrong_guard_classification_by_quantifier():
    f = parse("forall x (P(x) & Q(x))", V)
    guarded, wrong = extract_guards(f)
    assert not guarded and len(wrong) == 2
    g = parse("exists x (P(x) & Q(x))", V)
    guarded, wrong = extract_guards(g)
    assert not wrong and len(guarded) == 2


def test_prefix_type_partitions_bound_positions(sampler):
    for _ in range(100):
        f = sampler.formula(depth=3)
        for occ in atom_occurrences(f):
            seen: set[int] = set()
            for e in occ.profile.prefix_type:
                assert e.positions, "position sets must be nonempty"
                assert not (seen & e.positions), "variable-only atoms partition"
                seen |= e.positions


def test_binder_chain_resolves_kinds():
    f = parse("forall x ~exists y D(x,y)", V)
    addr = atom_address(f, "D")
    chain = binder_chain(f, addr)
    assert [(b.kind, b.var) for b in chain] == [(FORALL, "x"), (FORALL, "y")]


def test_profiles_json_dump():
    dump = profiles_to_json(parse(RUNNING, V))
    assert len(dump["profiles"]) == 3
    assert dump["guards"] == []


# ---------------------------------------------------------------------------
# Edits at an address

EDIT_VOCAB = Vocabulary(relations={"P": 1, "R": 2, "T": 3})


def edit_formulas():
    return st.builds(lambda n: FormulaSampler(seed=n, vocab=EDIT_VOCAB).formula(depth=3),
                     st.integers(min_value=0, max_value=10_000))


@settings(max_examples=100, deadline=None)
@given(edit_formulas())
def test_edits_applied_twice_give_back_the_formula(f):
    for address, node in subformulas(f):
        # below a double negation, each toggle removes one more negation
        if not (isinstance(node, Not) and isinstance(node.sub, Not)):
            assert toggle_negation(toggle_negation(f, address), address) == f
        if isinstance(node, Implies):
            assert swap_implication(swap_implication(f, address), address) == f
        if isinstance(node, QUANTIFIERS):
            assert flip_quantifier(flip_quantifier(f, address), address) == f
        if isinstance(node, Atom):
            for i, j in itertools.combinations(range(len(node.args)), 2):
                order = list(range(len(node.args)))
                order[i], order[j] = j, i
                once = permute_arguments(f, address, tuple(order))
                assert permute_arguments(once, address, tuple(order)) == f


@settings(max_examples=100, deadline=None)
@given(edit_formulas())
def test_remove_guard_undoes_add_guard(f):
    for address, node in subformulas(f):
        if not isinstance(node, QUANTIFIERS):
            continue
        binder = binder_chain(f, address + (0,))[-1]
        guarded = add_guard(f, binder, Atom("P", (Var(node.var),)))
        records = [r for r in set().union(*extract_guards(guarded))
                   if r.guard_address == address + (0, 0)]
        # the new guard guards every atom of the body that uses the variable
        assert bool(records) == (node.var in free_variables(node.body))
        for record in records:
            assert remove_guard(guarded, record) == f


def test_add_guard_follows_the_resolved_binder_kind():
    f = parse("~forall x Q(x)", V)
    binder = binder_chain(f, (0, 0))[-1]
    assert binder.kind == EXISTS
    assert add_guard(f, binder, parse("P(x)", V)) == parse("~forall x (P(x) & Q(x))", V)


def test_remove_guard_keeps_the_nesting_of_other_conjuncts():
    f = parse("exists x (P(x) & (Q(x) & (S(x) & P(x))))", V)
    record = next(r for r in extract_guards(f)[0] if r.guard_address == (0, 0))
    assert remove_guard(f, record) == parse("exists x (Q(x) & (S(x) & P(x)))", V)
