"""Tests for the oracle, the problem generator, and the fuzz campaign."""

import dataclasses
import importlib.util
import itertools
import json
import os
import random
import time

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

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")

_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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


def _brute_force_by_loop(clauses):
    """Reference: the plain loop over every bitmask that the bit-parallel
    oracle replaced, one assignment per ``all(...)``."""
    clauses = list(clauses)
    atoms = harness._universe(clauses)
    if len(atoms) > MAX_ORACLE_ATOMS:
        raise ValueError(
            f"{len(atoms)} atoms exceed the brute-force cap of {MAX_ORACLE_ATOMS}"
        )
    index = {a: i for i, a in enumerate(atoms)}
    sig = []                       # per clause: its positive and negative atom bits
    for c in clauses:
        pos = neg = 0
        for l in c.distinct:
            bit = 1 << index[l.atom]
            if l.positive:
                pos |= bit
            else:
                neg |= bit
        sig.append((pos, neg))
    full = (1 << len(atoms)) - 1
    for mask in range(1 << len(atoms)):
        if all(mask & pos or neg & ~mask & full for pos, neg in sig):
            return frozenset(a for a in atoms if mask >> index[a] & 1)
    return None


def test_oracle_matches_the_loop_on_campaign_problems():
    # the acceptance campaign's problems, with the default ones beside them
    campaign = GenParams(preds=("P", "Q", "R", "S"), consts=("a", "b"),
                         max_arity=1, clause_count=10, max_len=4)
    for seed, params in itertools.product(range(10000, 11000), (campaign, GenParams())):
        clauses = random_problem(dataclasses.replace(params, seed=seed)).clauses.clauses()
        assert brute_force_sat(clauses) == _brute_force_by_loop(clauses), seed


@pytest.mark.parametrize("atom_count", [*range(15), 16])
def test_oracle_matches_the_loop_on_random_clause_sets(atom_count):
    # 12 atoms fill the bit-parallel block exactly; from 13 on, the outer
    # atoms are counted one assignment at a time
    rng = random.Random(atom_count)
    atoms = [Atom(f"A{i:02d}") for i in range(atom_count)]
    verdicts = set()
    for _ in range(40 if atom_count <= 13 else 10):
        clauses = [Clause(Literal(rng.choice(atoms), rng.random() < 0.5)
                          for _ in range(rng.randint(1, 4)))
                   for _ in range(rng.randint(0, round(4.5 * atom_count)))] if atoms else []
        expected = _brute_force_by_loop(clauses)
        assert brute_force_sat(clauses) == expected, clauses
        verdicts.add(expected is None)
    if atom_count > 1:
        assert verdicts == {False, True}    # both answers were exercised


def test_oracle_matches_the_loop_on_edge_clause_sets():
    atoms = [Atom(f"A{i:02d}") for i in range(15)]
    inner, outer = atoms[:harness.INNER_ATOMS], atoms[harness.INNER_ATOMS:]
    only_outer = [Clause([Literal(outer[0]), Literal(outer[1], False)]),
                  Clause([Literal(outer[1]), Literal(outer[2])]),
                  Clause([Literal(outer[2], False)])]
    cases = [
        [],
        [EMPTY_CLAUSE],
        [Clause([Literal(inner[0])]), EMPTY_CLAUSE],
        [Clause([Literal(outer[0])]), EMPTY_CLAUSE],
        [Clause([Literal(inner[3]), Literal(inner[3], False)])],
        [Clause([Literal(outer[2]), Literal(outer[2], False), Literal(inner[0])]),
         Clause([Literal(inner[0], False)])],
        [Clause([Literal(inner[5]), Literal(outer[1], False), Literal(outer[1])])]
        + [Clause([Literal(a, False)]) for a in inner],
        only_outer,
        only_outer + [Clause([Literal(a)]) for a in inner],
        only_outer + [Clause([Literal(outer[0], False)])],
        [Clause([Literal(a)]) for a in atoms],
    ]
    for clauses in cases:
        assert brute_force_sat(clauses) == _brute_force_by_loop(clauses), clauses


@pytest.mark.parametrize("seed,satisfiable", [(4, False), (2, True)])
def test_the_oracle_decides_20_atom_ladders_within_half_a_second(seed, satisfiable):
    # the loop takes about 1.5 s on each
    text, _ = workloads.ladder_text(MAX_ORACLE_ATOMS, seed)
    clauses = parse_problem(text).clauses.clauses()
    started = time.monotonic()
    model = brute_force_sat(clauses)
    elapsed = time.monotonic() - started
    assert (model is not None) == satisfiable
    if satisfiable:
        assert model == _brute_force_by_loop(clauses)
    assert elapsed < 0.5, f"decided in {elapsed:.2f} s"


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

    def random_clause(pool, min_len):
        return Clause(rng.choice(pool) for _ in range(rng.randint(min_len, 4)))

    # the 14-atom pool reaches past the oracle's 12-atom bit-parallel block
    for names, rounds, most_premises in (("PQRS", 400, 5),
                                         ([f"A{i:02d}" for i in range(14)], 16, 40)):
        pool = [Literal(Atom(name), positive) for name in names for positive in (True, False)]
        entailed = 0
        for _ in range(rounds):
            premises = [random_clause(pool, 1) for _ in range(rng.randint(0, most_premises))]
            conclusion = random_clause(pool, 0)
            expected = _entails_by_enumeration(premises, conclusion)
            assert entails(premises, conclusion) == expected, (premises, conclusion)
            entailed += expected
        assert 0 < entailed < rounds    # both answers were exercised


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


# ---------------------------------------------------------------------------
# The pigeonhole family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_pigeonhole_prints_and_parses_back(n, kind):
    problem = harness.pigeonhole(n, kind)
    again = parse_problem(print_problem(problem))
    assert again.clauses.clauses() == problem.clauses.clauses()
    assert again.ordering == problem.ordering
    assert len(problem.atom_universe) == n * (n + 1)
    # one clause per pigeon, one per hole and pair of pigeons
    assert len(problem.clauses) == (n + 1) + n * (n + 1) * n // 2
    # both kinds rank the atoms by pigeon, then hole
    assert [a.text for a in ProblemOrder(again).atoms_ascending] == [
        f"In(p{i},h{j})" for i in range(1, n + 2) for j in range(1, n + 1)]


@pytest.mark.parametrize("n,steps", [(2, 13), (3, 166)], ids=["PHP(3,2)", "PHP(4,3)"])
@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_small_pigeonhole_problems_verify_and_the_oracle_agrees(n, steps, kind):
    problem = harness.pigeonhole(n, kind)
    result = lockstep_verify(problem)
    assert result.ok, result.failures()[:3]
    assert result.sup.outcome == result.sim.outcome == "unsatisfiable"
    assert len(result.sup.steps) == steps
    assert brute_force_sat(problem.clauses.clauses()) is None


def test_pigeonhole_rejects_what_it_cannot_build():
    with pytest.raises(ValueError, match="at least 1"):
        harness.pigeonhole(0, "kbo")
    with pytest.raises(ValueError, match="'listed'"):
        harness.pigeonhole(2, "listed")
