"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every criterion prints its verdict directly to the terminal (bypassing
capture) and then asserts, so a red criterion shows both the line and the
collected reasons.
"""

import json
import os
import time

from lockstep import cli
from lockstep.core import (
    Atom,
    Clause,
    EMPTY_CLAUSE,
    GroundTerm,
    Literal,
    eval_herbrand,
    parse_problem,
)
from lockstep.harness import GenParams, brute_force_sat, fuzz_campaign, is_redundant, random_problem
from lockstep.simulation import lockstep_verify, run_scl_sup
from lockstep.superposition import SATISFIABLE, UNSATISFIABLE, run_sup_mo, sfac

import dataclasses

DATA = os.path.join(os.path.dirname(__file__), "data")

PA = Literal(Atom("P", (GroundTerm("a"),)))
PB = Literal(Atom("P", (GroundTerm("b"),)))
QA = Literal(Atom("Q", (GroundTerm("a"),)))
QB = Literal(Atom("Q", (GroundTerm("b"),)))


def _load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _report(capsys, number, name, failures):
    tag = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] criterion {number}: {name}")
        for f in failures:
            print(f"       {f}")
    assert not failures, failures


def _verdict(problem):
    model = brute_force_sat(problem.clauses.clauses())
    return SATISFIABLE if model is not None else UNSATISFIABLE


def test_criterion_1_factoring_chain_trace(capsys):
    failures = []
    started = time.monotonic()
    problem = _load("factoring_chain.prob")
    c1, c2, c3 = problem.clauses.clauses()

    sup = run_sup_mo(problem)
    derived = tuple(s.conclusion for s in sup.steps)
    if derived != (Clause([PA]), Clause([PA.complement()]), EMPTY_CLAUSE):
        failures.append(f"saturation conclusions were {derived}")
    if [s.kind for s in sup.steps] != ["factoring", "superposition_left", "superposition_left"]:
        failures.append(f"step kinds were {[s.kind for s in sup.steps]}")
    models = [s.construction.model for s in sup.snapshots]
    if models[:3] != [frozenset(), frozenset({PA.atom, QB.atom}), frozenset({PA.atom, QB.atom})]:
        failures.append(f"construction models were {models[:3]}")
    if sup.snapshots[0].construction.minimal_false != c1:
        failures.append("first snapshot should have the duplicated unit as its smallest false clause")

    sim = run_scl_sup(problem)
    if [q.kind for q in sim.seqs] != ["decide", "clash", "learn_negative", "refute"]:
        failures.append(f"round kinds were {[q.kind for q in sim.seqs]}")
    if [(a.index, a.aid) for a in sim.annotations] != [
            (0, EMPTY_CLAUSE), (1, c1), (1, c2), (2, c1), (3, EMPTY_CLAUSE)]:
        failures.append(f"annotations were {[(a.index, str(a.aid)) for a in sim.annotations]}")
    first_conflict = sim.boundary_states[2]
    if [e.literal for e in first_conflict.trail] != [PA, QB]:
        failures.append(f"first conflict trail was {first_conflict.render()}")
    elif not (first_conflict.trail[0].is_decision
              and first_conflict.trail[1].reason == c2
              and first_conflict.conflict == c3):
        failures.append(f"first conflict state was {first_conflict.render()}")
    if sim.learned != (Clause([PA.complement()]), EMPTY_CLAUSE):
        failures.append(f"learned clauses were {sim.learned}")
    if sim.outcome != UNSATISFIABLE or sup.outcome != UNSATISFIABLE:
        failures.append(f"outcomes were {sup.outcome}/{sim.outcome}")

    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget is 1s")
    _report(capsys, 1, "factoring chain replays exactly", failures)


def test_criterion_2_double_conflict_trace(capsys):
    failures = []
    problem = _load("double_conflict.prob")
    c1, c2, c3, c4, c5 = problem.clauses.clauses()
    c6 = Clause([PA.complement(), QA])
    c7 = Clause([PA.complement(), PA.complement()])
    c8 = Clause([PA.complement()])

    sup = run_sup_mo(problem)
    derived = tuple(s.conclusion for s in sup.steps)
    if derived != (c6, c7, c8, EMPTY_CLAUSE):
        failures.append(f"saturation conclusions were {derived}")

    sim = run_scl_sup(problem)
    if sim.learned != (c7, EMPTY_CLAUSE):
        failures.append(f"learned clauses were {sim.learned}")
    conflict_rounds = [q.kind for q in sim.seqs
                       if q.kind in ("refute", "learn_negative", "learn_decide", "learn_propagate")]
    if conflict_rounds != ["learn_negative", "refute"]:
        failures.append(f"conflict-resolution rounds were {conflict_rounds}")
    indices = [a.index for a in sim.annotations]
    if indices != [0, 0, 0, 1, 2, 4]:
        failures.append(f"pair indices were {indices}")
    if indices[-2:] != [2, 4]:
        failures.append("the final refutation should pair two saturation steps at once")
    _report(capsys, 2, "double conflict learns the duplicated clause", failures)


def test_criterion_3_repropagation_and_satisfiable_variant(capsys):
    failures = []
    problem = _load("repropagation.prob")
    c1, c2, c3, c4 = problem.clauses.clauses()
    e2 = Clause([PA.complement(), PB])

    sim = run_scl_sup(problem)
    kinds = [q.kind for q in sim.seqs]
    if kinds != ["decide", "pass", "clash", "learn_propagate", "learn_negative", "refute"]:
        failures.append(f"round kinds were {kinds}")
    after_learn = sim.boundary_states[4]
    if [e.literal for e in after_learn.trail] != [PA, PB]:
        failures.append(f"trail after the learn_propagate round was {after_learn.render()}")
    elif not (after_learn.trail[1].reason == e2
              and after_learn.conflict == c2
              and after_learn.u == (e2,)
              and after_learn.k == 1):
        failures.append(f"state after the learn_propagate round was {after_learn.render()}")
    if sim.learned != (e2, Clause([PA.complement()]), EMPTY_CLAUSE):
        failures.append(f"learned clauses were {sim.learned}")

    sat = _load("satisfiable.prob")
    sat_sim = run_scl_sup(sat)
    sat_kinds = [q.kind for q in sat_sim.seqs]
    if sat_kinds != ["decide", "clash", "learn_decide", "decide", "pass"]:
        failures.append(f"satisfiable variant round kinds were {sat_kinds}")
    if sat_sim.model != {PA.atom, PB.atom, QA.atom}:
        failures.append(f"satisfiable variant model was {sat_sim.model}")
    final = sat_sim.state
    if not all(e.is_decision for e in final.trail) or final.k != 3:
        failures.append(f"satisfiable final state was {final.render()}")
    _report(capsys, 3, "repropagation variants behave on both verdicts", failures)


def test_criterion_4_strict_simulation_and_fuzz_campaign(capsys):
    failures = []
    for name, expected in [("factoring_chain.prob", 1), ("double_conflict.prob", 1),
                           ("repropagation.prob", 1), ("satisfiable.prob", 0)]:
        code = cli.main(["simulate", "--strict", os.path.join(DATA, name)])
        out = capsys.readouterr().out
        if code != expected:
            failures.append(f"simulate --strict {name} exited {code}, expected {expected}")
        if "verification: ok" not in out:
            failures.append(f"simulate --strict {name} did not verify cleanly")

    params = GenParams(preds=("P", "Q", "R", "S"), consts=("a", "b"),
                       max_arity=1, clause_count=10, max_len=4)
    started = time.monotonic()
    report = fuzz_campaign(1000, base_seed=10000, params=params)
    elapsed = time.monotonic() - started
    if not report.ok:
        for seed, msgs in report.failures[:5]:
            failures.append(f"fuzz seed {seed}: {msgs[0]}")
        failures.append(f"{len(report.failures)} fuzzed instances failed verification")
    if report.total != 1000:
        failures.append(f"campaign ran {report.total} instances, wanted 1000")
    if elapsed >= 60.0:
        failures.append(f"campaign took {elapsed:.1f}s, budget is 60s on one worker")
    _report(capsys, 4, "strict lockstep verification on goldens and 1000 fuzzed instances", failures)


def _problems_for_sampling(count, base_seed):
    problems = [_load(n) for n in ("factoring_chain.prob", "double_conflict.prob",
                                   "repropagation.prob", "satisfiable.prob")]
    params = GenParams()
    for i in range(count):
        problems.append(random_problem(dataclasses.replace(params, seed=base_seed + i)))
    return problems


def test_criterion_5_no_conclusion_is_ever_redundant(capsys):
    failures = []
    for problem in _problems_for_sampling(150, base_seed=50000):
        sup = run_sup_mo(problem)
        for i, step in enumerate(sup.steps):
            at_the_time = sup.snapshots[i].clauses
            if is_redundant(at_the_time, step.conclusion, sup.order):
                failures.append(f"saturation produced a redundant {step.conclusion}")
        sim = run_scl_sup(problem)
        inputs = problem.clauses.clauses()
        for i, learned in enumerate(sim.state.u):
            if is_redundant(inputs + sim.state.u[:i], learned, sim.order):
                failures.append(f"the trail engine learned a redundant {learned}")
        if sim.outcome == UNSATISFIABLE:
            if is_redundant(inputs + sim.state.u, EMPTY_CLAUSE, sim.order):
                failures.append("the final refutation counted as redundant")
    _report(capsys, 5, "every conclusion is non-redundant when derived", failures)


def test_criterion_6_verdicts_and_models_agree_with_the_oracle(capsys):
    failures = []
    for problem in _problems_for_sampling(300, base_seed=70000):
        truth = _verdict(problem)
        sup = run_sup_mo(problem)
        sim = run_scl_sup(problem)
        if sup.outcome != truth or sim.outcome != truth:
            failures.append(
                f"verdicts diverge on {sorted(str(c) for c in problem.clauses)}: "
                f"oracle {truth}, saturation {sup.outcome}, trail {sim.outcome}"
            )
            continue
        if truth == SATISFIABLE:
            for c in problem.clauses:
                if not eval_herbrand(sup.model, c):
                    failures.append(f"saturation model misses {c}")
                if not eval_herbrand(sim.model, c):
                    failures.append(f"trail model misses {c}")
    _report(capsys, 6, "both engines agree with the oracle on every instance", failures)


def test_criterion_7_learned_clauses_have_derived_twins(capsys):
    failures = []
    for problem in _problems_for_sampling(200, base_seed=90000):
        sup = run_sup_mo(problem)
        sim = run_scl_sup(problem)
        images = {sfac(c, sup.order) for c in sup.snapshots[-1].clauses}
        for learned in sim.learned:
            if sfac(learned, sup.order) not in images:
                failures.append(f"learned {learned} has no factored twin")
        here = EMPTY_CLAUSE in sim.learned
        there = EMPTY_CLAUSE in sup.snapshots[-1].clauses
        if here != there:
            failures.append("one engine refuted without the other")
    _report(capsys, 7, "learned clauses coincide with derived ones up to factoring", failures)
