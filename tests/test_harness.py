"""Tests for the oracle, the problem generator, and the fuzz campaign."""

import dataclasses
import itertools
import json
import os
import random

import pytest

from lockstep import harness
from lockstep.core import (
    Atom,
    Clause,
    EMPTY_CLAUSE,
    GroundTerm,
    Literal,
    eval_herbrand,
    is_tautology,
    parse_problem,
    print_problem,
)
from lockstep.harness import (
    GenParams,
    MAX_ORACLE_ATOMS,
    brute_force_sat,
    emit_trace,
    entails,
    fuzz_campaign,
    is_redundant,
    random_problem,
)
from lockstep.ordering import ProblemOrder
from lockstep.simulation import lockstep_verify, run_scl_sup
from lockstep.superposition import run_sup_mo

from test_simulation import KBO_TEXT, LPO_TEXT, SAT_TEXT, THIRD_TEXT

P = Atom("P")
Q = Atom("Q")
pos_p = Literal(P)
neg_p = Literal(P, False)
pos_q = Literal(Q)
neg_q = Literal(Q, False)

PA = Atom("P", (GroundTerm("a"),))

DATA = os.path.join(os.path.dirname(__file__), "data")


def _order_pq():
    text = "order: listed\natoms: P < Q\nclause: P\nclause: P | Q\n"
    problem = parse_problem(text)
    return ProblemOrder(problem)


# ---------------------------------------------------------------------------
# Brute-force satisfiability
# ---------------------------------------------------------------------------


def test_single_unit_is_satisfied_by_its_atom():
    model = brute_force_sat([Clause([Literal(PA)])])
    assert model == frozenset({PA})


def test_complementary_units_are_unsatisfiable():
    assert brute_force_sat([Clause([pos_p]), Clause([neg_p])]) is None


def test_empty_clause_set_has_the_empty_model():
    assert brute_force_sat([]) == frozenset()


def test_first_model_in_counting_order():
    # assignments are tried by ascending bitmask over text-sorted atoms,
    # so {Q} comes before {P, Q}
    model = brute_force_sat([Clause([pos_p, pos_q]), Clause([neg_p])])
    assert model == frozenset({Q})


def test_oracle_rejects_oversized_universes():
    atoms = [Atom(f"A{i:02d}") for i in range(MAX_ORACLE_ATOMS + 1)]
    clauses = [Clause([Literal(a)]) for a in atoms]
    with pytest.raises(ValueError):
        brute_force_sat(clauses)


def test_golden_verdicts_match_the_oracle():
    for text in (KBO_TEXT, LPO_TEXT, THIRD_TEXT):
        problem = parse_problem(text)
        assert brute_force_sat(problem.clauses.clauses()) is None
    sat = parse_problem(SAT_TEXT)
    model = brute_force_sat(sat.clauses.clauses())
    assert model == {
        Atom("P", (GroundTerm("a"),)),
        Atom("P", (GroundTerm("b"),)),
        Atom("Q", (GroundTerm("a"),)),
    }


# ---------------------------------------------------------------------------
# Entailment and redundancy
# ---------------------------------------------------------------------------


def test_entailment_basics():
    assert entails([Clause([pos_p])], Clause([pos_p, pos_q]))
    assert not entails([Clause([pos_p, pos_q])], Clause([pos_p]))
    assert entails([Clause([pos_p]), Clause([neg_p, pos_q])], Clause([pos_q]))
    assert entails([], Clause([pos_p, neg_p]))
    assert not entails([], Clause([pos_p]))


def test_unsatisfiable_premises_entail_anything():
    assert entails([Clause([pos_p]), Clause([neg_p])], Clause([pos_q]))


def _entails_by_enumeration(premises, conclusion):
    """Reference: every total assignment over the occurring atoms that
    satisfies the premises satisfies the conclusion."""
    atoms = sorted({l.atom for c in [*premises, conclusion] for l in c.literals},
                   key=lambda a: a.text)
    for values in itertools.product((False, True), repeat=len(atoms)):
        model = {a for a, v in zip(atoms, values) if v}
        if (all(eval_herbrand(model, c) for c in premises)
                and not eval_herbrand(model, conclusion)):
            return False
    return True


def test_entailment_matches_enumeration_on_random_clause_sets():
    rng = random.Random(20231)
    pool = [Literal(Atom(name), positive) for name in "PQRS" for positive in (True, False)]

    def random_clause(min_len):
        return Clause(rng.choice(pool) for _ in range(rng.randint(min_len, 4)))

    entailed = 0
    for _ in range(400):
        premises = [random_clause(1) for _ in range(rng.randint(0, 5))]
        conclusion = random_clause(0)
        expected = _entails_by_enumeration(premises, conclusion)
        assert entails(premises, conclusion) == expected, (premises, conclusion)
        entailed += expected
    assert 0 < entailed < 400           # both answers were exercised


def test_entailment_edge_conclusions():
    sat = [Clause([pos_p, pos_q])]
    unsat = [Clause([pos_p]), Clause([neg_p])]
    tautology = Clause([pos_q, pos_q, neg_q])
    for premises in ([], sat, unsat):
        for conclusion in (EMPTY_CLAUSE, tautology):
            assert entails(premises, conclusion) == _entails_by_enumeration(
                premises, conclusion)
    assert not entails(sat, EMPTY_CLAUSE)
    assert entails(unsat, EMPTY_CLAUSE)
    assert entails([], tautology)


def test_entailment_counts_conclusion_atoms_against_the_oracle_cap():
    atoms = [Atom(f"A{i:02d}") for i in range(MAX_ORACLE_ATOMS + 1)]
    premises = [Clause([Literal(a, False)]) for a in atoms[:-1]]
    assert not entails(premises, Clause([Literal(atoms[0])]))   # at the cap
    with pytest.raises(ValueError):
        entails(premises, Clause([Literal(atoms[-1])]))
    with pytest.raises(ValueError):
        entails(premises + [Clause([Literal(atoms[-1])])], EMPTY_CLAUSE)


def test_redundancy_uses_only_strictly_smaller_clauses():
    order = _order_pq()
    assert is_redundant([Clause([pos_p])], Clause([pos_p, pos_q]), order)
    assert not is_redundant([Clause([pos_p, pos_q])], Clause([pos_p]), order)
    assert is_redundant([], Clause([pos_p, neg_p]), order)
    # a clause never justifies itself
    assert not is_redundant([Clause([pos_p])], Clause([pos_p]), order)


@pytest.mark.parametrize("text", [KBO_TEXT, LPO_TEXT, THIRD_TEXT, SAT_TEXT])
def test_no_golden_conclusion_is_redundant_when_derived(text):
    problem = parse_problem(text)
    run = run_sup_mo(problem)
    for step in run.steps:
        at_the_time = run.snapshots[run.steps.index(step)].clauses
        assert not is_redundant(at_the_time, step.conclusion, run.order)


@pytest.mark.parametrize("text", [KBO_TEXT, LPO_TEXT, THIRD_TEXT, SAT_TEXT])
def test_no_golden_learned_clause_is_redundant_when_learned(text):
    problem = parse_problem(text)
    run = run_scl_sup(problem)
    inputs = problem.clauses.clauses()
    for i, learned in enumerate(run.state.u):
        at_the_time = inputs + run.state.u[:i]
        assert not is_redundant(at_the_time, learned, run.order)


# ---------------------------------------------------------------------------
# Problem generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    params = GenParams(seed=7)
    a = random_problem(params)
    b = random_problem(params)
    assert a.clauses.clauses() == b.clauses.clauses()
    assert a.ordering.kind == b.ordering.kind


def test_generated_problems_respect_their_size_limits():
    params = GenParams(clause_count=5, max_len=3, seed=0)
    for seed in range(25):
        problem = random_problem(dataclasses.replace(params, seed=seed))
        clauses = problem.clauses.clauses()
        assert 1 <= len(clauses) <= 5
        for c in clauses:
            assert 1 <= len(c.literals) <= 3
            assert not is_tautology(c)
        # the declared ordering must actually be usable
        ProblemOrder(problem)


def test_generated_symbol_tables_match_the_atoms():
    for seed in range(300):
        problem = random_problem(GenParams(max_arity=seed % 3, seed=seed))
        expected = {}
        for a in problem.atom_universe:
            expected[a.name] = len(a.args)
            expected.update((t.name, 0) for t in a.args)
        assert problem.symbol_arities == expected, seed


def test_generator_sizes_the_atom_pool_before_building_it(monkeypatch):
    built = []

    class Counted(GroundTerm):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(harness, "GroundTerm", Counted)
    monkeypatch.setattr(harness, "Atom", Counted)
    params = GenParams(preds=("P",), consts=("a", "b"), max_arity=12, seed=6)
    with pytest.raises(ValueError, match="atom pool of 4096 is past the oracle cap"):
        random_problem(params)
    assert not built


def test_generator_round_trips_through_the_text_format():
    kinds = set()
    for seed in range(10):
        problem = random_problem(GenParams(seed=seed))
        reparsed = parse_problem(print_problem(problem))
        assert reparsed.clauses.clauses() == problem.clauses.clauses()
        assert reparsed.ordering == problem.ordering
        kinds.add(problem.ordering.kind)
    assert kinds == {"kbo", "lpo", "listed"}


@pytest.mark.parametrize("name", ["clause_count", "max_len"])
def test_generator_rejects_sizes_below_one(name):
    for bad in (0, -3):
        with pytest.raises(ValueError, match=name):
            random_problem(dataclasses.replace(GenParams(seed=1), **{name: bad}))


@pytest.mark.parametrize("changes,field", [
    ({"preds": ("",)}, "preds"),
    ({"preds": ("P", "1x")}, "preds"),
    ({"consts": ("a", "b-c")}, "consts"),
    ({"preds": ("P", "Q", "P")}, "preds"),
    ({"consts": ("a", "a")}, "consts"),
    ({"preds": ("P",), "consts": ("P",)}, "preds and consts"),
    ({"preds": ()}, "preds"),
    ({"consts": (), "max_arity": 1}, "consts"),
    ({"max_arity": -1}, "max_arity"),
])
def test_generator_rejects_bad_names_and_arities(changes, field):
    params = dataclasses.replace(GenParams(seed=5), **changes)
    with pytest.raises(ValueError, match=field):
        random_problem(params)
    with pytest.raises(ValueError, match=field):
        fuzz_campaign(0, params=params)   # rejected even with nothing to run


def test_generator_accepts_nullary_atoms_without_constants():
    problem = random_problem(GenParams(consts=(), max_arity=0, seed=3))
    assert all(not a.args for a in problem.atom_universe)


def test_fuzz_campaign_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count"):
        fuzz_campaign(-3)
    assert fuzz_campaign(0).total == 0


def test_fuzz_campaign_rejects_a_negative_round_cap():
    with pytest.raises(ValueError, match="max_sequences"):
        fuzz_campaign(3, max_sequences=-1)   # before any instance runs
    assert fuzz_campaign(0, max_sequences=0).total == 0


@pytest.mark.parametrize("run,cap", [
    (lambda p: run_sup_mo(p, max_steps=-1), "max_steps"),
    (lambda p: run_scl_sup(p, max_sequences=-1), "max_sequences"),
    (lambda p: lockstep_verify(p, max_sequences=-1), "max_sequences"),
    (lambda p: emit_trace(p, max_sequences=-1), "max_sequences"),
], ids=["run_sup_mo", "run_scl_sup", "lockstep_verify", "emit_trace"])
def test_negative_caps_are_rejected_in_the_library(run, cap):
    # a negative cap used to end the run at once as cap_exceeded
    with pytest.raises(ValueError, match=f"{cap} must be at least 0, not -1"):
        run(parse_problem(KBO_TEXT))


def test_generator_covers_all_three_ordering_kinds():
    kinds = {random_problem(GenParams(seed=s)).ordering.kind for s in range(30)}
    assert kinds == {"kbo", "lpo", "listed"}


def test_generator_emits_duplicate_literals_sometimes():
    found = False
    for seed in range(40):
        problem = random_problem(GenParams(seed=seed))
        for c in problem.clauses.clauses():
            if len(set(c.literals)) < len(c.literals):
                found = True
    assert found, "duplicates drive factoring; the generator must produce them"


# ---------------------------------------------------------------------------
# Trace emission and the fuzz campaign
# ---------------------------------------------------------------------------


def test_trace_of_the_first_golden_problem():
    problem = parse_problem(KBO_TEXT)
    trace = emit_trace(problem)
    assert trace["outcome"] == "unsatisfiable"
    assert trace["agreed"] is True
    assert len(trace["sup_events"]) == 3
    assert trace["sup_events"][0]["kind"] == "factoring"
    assert trace["sup_events"][-1]["conclusion"] == "⊥"
    assert trace["scl_events"][0]["rule"] == "decide"
    assert all(e["ok"] for e in trace["verify_events"])
    json.dumps(trace)   # must be serializable as given


def test_trace_of_a_satisfiable_problem_reports_the_model():
    problem = parse_problem(SAT_TEXT)
    trace = emit_trace(problem)
    assert trace["outcome"] == "satisfiable"
    assert set(trace["model"]) == {"P(a)", "P(b)", "Q(a)"}
    json.dumps(trace)


@pytest.mark.parametrize(
    "name", ["double_conflict", "factoring_chain", "repropagation", "satisfiable"]
)
def test_trace_of_each_golden_file_is_pinned(name):
    # the pinned file is the byte-exact output of `lockstep simulate --json`;
    # any change to a derivation, a rule log or a verifier message shows here
    with open(os.path.join(DATA, name + ".prob"), encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    with open(os.path.join(DATA, name + ".trace.json"), encoding="utf-8") as fh:
        pinned = fh.read()
    assert json.dumps(emit_trace(problem), indent=2) + "\n" == pinned


def test_fuzz_campaign_runs_clean():
    report = fuzz_campaign(50, base_seed=0)
    assert report.total == 50
    assert report.ok
    assert report.failures == []


def test_fuzz_campaign_with_tautologies_runs_clean():
    params = GenParams(allow_tautologies=True)
    report = fuzz_campaign(300, base_seed=0, params=params)
    assert report.total == 300
    assert report.failures == []
    assert any(is_tautology(c)
               for s in range(300)
               for c in random_problem(dataclasses.replace(params, seed=s)).clauses)


def test_fuzz_campaign_reports_seeds_with_failures():
    # sanity-check the report shape by feeding an impossible cap
    report = fuzz_campaign(3, base_seed=0, max_sequences=0)
    assert not report.ok
    assert [seed for seed, _ in report.failures] == [0, 1, 2]


def test_forcing_source_must_have_a_false_leftover():
    # Regression: after learning a clause with a negative maximum, the
    # clause picked to force its atom used to be chosen by attention order
    # alone. Seed 778067 then selected a source whose leftover part keeps
    # both polarities of one atom, seed 778387 one whose leftover is true
    # on the trail; either way the forced step cannot fire. Both need
    # tautologies in the input to surface.
    params = GenParams(preds=("P", "Q", "R", "S"), consts=("a", "b"),
                       max_arity=1, clause_count=12, max_len=6,
                       allow_tautologies=True)
    for seed in (778067, 778387):
        problem = random_problem(dataclasses.replace(params, seed=seed))
        result = lockstep_verify(problem)
        assert result.ok, result.failures()
        assert result.sim.outcome == "satisfiable"
