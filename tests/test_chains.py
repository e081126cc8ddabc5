"""Chain records against the single-step engine they replace.

``_single_step`` is the saturation loop as it was before chain records: one
ledger insert and one resumed walk per inference, each step a ``SupChain``
of count 1. ``run_sup_mo`` records a run of identical inferences as one
``SupChain`` and expands it on read, so every single step and every
snapshot it reports must equal the reference's, chain ends and
intermediates alike, and so must every run cut short by a step cap inside a
chain.
"""

import dataclasses
import glob
import importlib.util
import itertools
import os
import sys
import time

import pytest

from lockstep import harness, simulation, superposition
from lockstep.core import Clause, Literal, Atom, eval_herbrand, parse_problem
from lockstep.ordering import ProblemOrder
from lockstep.simulation import lockstep_verify, run_scl_sup
from lockstep.superposition import (
    CAP_EXCEEDED,
    FACTORING,
    MAX_STEPS,
    SATISFIABLE,
    SUPERPOSITION_LEFT,
    UNSATISFIABLE,
    SupChain,
    factoring_step,
    run_sup_mo,
    sfac,
    superposition_left,
)
from test_pass_sweep import _reads_as_its_items

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")

_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


GOLDEN = sorted(glob.glob(os.path.join(DATA, "*.prob")))


def _ladder(atoms, seed):
    return parse_problem(workloads.ladder_text(atoms, seed)[0])


def _single_step(problem, order, max_steps=10000):
    """Steps, snapshot constructions and outcome of the single-step loop."""
    ledger = superposition._Ledger(order, problem.clauses)
    construction = superposition.ModelConstruction(ledger, 0, {}, [], iter(ledger.keyed))
    steps, constructions = [], []
    while True:
        constructions.append(construction)
        c = construction.minimal_false
        if c is None:
            return steps, constructions, SATISFIABLE
        if c.is_empty:
            return steps, constructions, UNSATISFIABLE
        if len(steps) >= max_steps:
            return steps, constructions, CAP_EXCEEDED
        m = order.max_literal(c)
        if m.positive:
            step = SupChain(FACTORING, c, None, m.atom, 1, factoring_step(c, order))
        else:
            d = construction.producer_of(m.atom)
            step = SupChain(SUPERPOSITION_LEFT, c, d, m.atom, 1, superposition_left(c, d, order))
        assert step.conclusion not in ledger.born
        assert order.clause_key(step.conclusion) < order.clause_key(c)
        steps.append(step)
        start = ledger.insert(step.conclusion, len(steps))
        construction = construction._resumed(len(steps), start)


def _same_snapshot(snap, ref, i, born, everything, whole=True):
    con = snap.construction
    assert snap.index == i and con.index == i
    assert con.minimal_false == ref.minimal_false
    assert con.model == ref.model
    if whole:
        assert snap.clauses == ref.clauses
        for c in everything:
            assert snap.contains(c) == (born[c] <= i), (i, c)
        assert con.entries == ref.entries


def _chain_samples(run):
    """Each record boundary, and the first, middle and last snapshot
    inside each chain."""
    out = set()
    for start, chain in zip(run.record_snapshots, run.records):
        i = start.index
        out |= {i, i + 1, i + chain.count // 2, i + chain.count - 1}
    return out | {len(run.steps)}


def _assert_matches(problem, max_steps=10000, indexed=True, sampled=False):
    """``run_sup_mo`` equals the single-step loop at every step; with
    ``indexed`` every step and snapshot is read by index as well. With
    ``sampled`` a snapshot's clauses, memberships and rows are compared
    only at ``_chain_samples``, its smallest false clause and model at
    every step."""
    order = ProblemOrder(problem)
    ref_steps, ref_cons, outcome = _single_step(problem, ProblemOrder(problem), max_steps)
    run = run_sup_mo(problem, order, max_steps=max_steps)
    assert run.outcome == outcome
    assert len(run.steps) == len(ref_steps)
    assert len(run.snapshots) == len(ref_cons) == len(ref_steps) + 1
    assert list(run.steps) == ref_steps
    assert all(type(s) is SupChain and s.count == 1 for s in run.steps)
    born = ref_cons[-1]._ledger.born
    everything = list(born)
    snapshots = list(run.snapshots)
    assert len(snapshots) == len(ref_cons)
    samples = _chain_samples(run) if sampled else range(len(ref_cons))
    for i, (snap, ref) in enumerate(zip(snapshots, ref_cons)):
        _same_snapshot(snap, ref, i, born, everything, i in samples)
    if indexed:
        for i, step in enumerate(ref_steps):
            assert run.steps[i] == step
            assert run.steps[i - len(ref_steps)] == step
            assert type(run.steps[i]) is SupChain and run.steps[i].count == 1
        for i, ref in enumerate(ref_cons):
            _same_snapshot(run.snapshots[i], ref, i, born, everything)
    assert run.model == (ref_cons[-1].model if outcome == SATISFIABLE else None)
    return run, ref_steps


def _assert_cut(full, capped, cap):
    """A run capped at ``cap`` holds the full run's records up to the cap,
    the one the cap falls inside cut short there."""
    want = []
    for start, chain in zip(full.record_snapshots, full.records):
        if start.index >= cap:
            break
        want.append((chain.kind, chain.main, chain.side, chain.pivot,
                     min(chain.count, cap - start.index)))
    assert [(c.kind, c.main, c.side, c.pivot, c.count) for c in capped.records] == want


def _generated(count, tautologies):
    """Generated problems with more and longer clauses than the default, so
    that about half are unsatisfiable and many hold chains."""
    return [harness.random_problem(harness.GenParams(
        clause_count=30, max_len=6, seed=s, allow_tautologies=tautologies))
        for s in range(count)]


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: os.path.basename(p)[:-5])
def test_chain_records_match_single_steps_on_the_golden_files(path):
    with open(path, encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    run, ref_steps = _assert_matches(problem)
    # every cap, inside a chain or not, keeps counting single steps
    for cap in range(len(ref_steps) + 1):
        capped, _ = _assert_matches(problem, max_steps=cap)
        _assert_cut(run, capped, cap)


@pytest.mark.parametrize("tautologies", [False, True], ids=["plain", "tautologies"])
def test_chain_records_match_single_steps_on_generated_problems(tautologies):
    chains = 0
    for problem in _generated(150, tautologies):
        run, ref_steps = _assert_matches(problem)
        chains += sum(1 for c in run.records if c.count > 1)
        for cap in range(len(ref_steps)):
            capped, _ = _assert_matches(problem, max_steps=cap, indexed=False)
            _assert_cut(run, capped, cap)
    assert chains >= 40


def test_chain_records_match_single_steps_on_the_campaign_problems():
    chains = 0
    for seed in range(10000, 10150):
        problem = harness.random_problem(
            dataclasses.replace(workloads.CAMPAIGN_PARAMS, seed=seed))
        run, _ = _assert_matches(problem, indexed=False)
        chains += sum(1 for c in run.records if c.count > 1)
    assert chains > 0


@pytest.mark.parametrize("workload", ["ladder", "saturate"])
def test_chain_records_match_single_steps_on_the_benchmark_pools(workload):
    pools = workloads.load_pool()
    for entry in pools[workload]["instances"]:
        problem = _ladder(entry["atoms"], entry["seed"])
        _assert_matches(problem, max_steps=pools["saturate"]["budget"], indexed=False)


def test_chain_records_match_single_steps_on_the_15_atom_reference():
    problem = _ladder(15, 1)
    run, ref_steps = _assert_matches(problem, indexed=False, sampled=True)
    assert (len(run.records), len(run.steps)) == (83, 1209)
    # caps one step into a chain and one step before its end
    long = [r for r, c in enumerate(run.records) if c.count >= 3]
    starts = [s.index for s in run.record_snapshots]
    caps = sorted({starts[r] + 1 for r in long[:4]} | {starts[r + 1] - 1 for r in long[-4:]})
    order = ProblemOrder(problem)
    ref_steps, ref_cons, _ = _single_step(problem, order)
    born = ref_cons[-1]._ledger.born
    for cap in caps:
        capped = run_sup_mo(problem, ProblemOrder(problem), max_steps=cap)
        assert capped.outcome == CAP_EXCEEDED
        assert len(capped.steps) == cap and len(capped.snapshots) == cap + 1
        assert list(capped.steps) == ref_steps[:cap]
        _assert_cut(run, capped, cap)
        _same_snapshot(capped.snapshots[-1], ref_cons[cap], cap, born, list(born))


def test_a_record_covers_a_whole_chain():
    # factoring runs its top literal down to one copy; superposition uses
    # up every copy of its negative maximum, taking the side premise's rest
    # once per copy
    p = parse_problem("order: listed\natoms: P < Q < R\n"
                      "clause: R | R | R | R | Q\nclause: -R | -R | -R | P\n")
    run = run_sup_mo(p)
    first = run.records[0]
    assert (first.kind, first.count) == (FACTORING, 3)
    assert first.conclusion == Clause([Literal(Atom("R")), Literal(Atom("Q"))])
    second = run.records[1]
    assert (second.kind, second.side, second.count) == (SUPERPOSITION_LEFT, first.conclusion, 3)
    assert second.conclusion == parse_problem(
        "order: listed\natoms: P < Q\nclause: P | Q | Q | Q\n").clauses.clauses()[0]
    assert [s.kind for s in run.steps][:6] == [FACTORING] * 3 + [SUPERPOSITION_LEFT] * 3
    assert run.steps[4].main == run.steps[3].conclusion
    assert run.steps[4].side == run.steps[3].side == first.conclusion


def test_a_record_builds_its_closed_form_once(monkeypatch):
    # the run builds each record's form when it draws the chain; reading
    # every step and snapshot, by iteration and by index, and the clause
    # set and rows that merge in the intermediates, reuses it. A step of
    # one is handed its conclusion, and a record of count 1 is its own step
    form = SupChain.__dict__["_form"]
    real, built = form.func, []

    def counting(chain):
        built.append(chain)
        return real(chain)

    monkeypatch.setattr(form, "func", counting)
    run = run_sup_mo(_ladder(15, 1))
    assert sorted(map(id, built)) == sorted(map(id, run.records))
    for _ in range(2):
        list(run.steps), list(run.snapshots)
    for i in range(len(run.steps)):
        run.steps[i], run.snapshots[i]
    last = run.snapshots[-1]
    assert all(last.contains(s.conclusion) for s in run.steps)
    last.clauses, last.construction.entries
    assert sorted(map(id, built)) == sorted(map(id, run.records))
    for start, chain in zip(run.record_snapshots, run.records):
        if chain.count == 1:
            assert run.steps[start.index] is chain


def _patched_chains(monkeypatch, chains):
    """Make ``next_inference`` hand out ``chains``, in order, whatever the
    construction says."""
    chains = iter(chains)
    monkeypatch.setattr(superposition, "next_inference", lambda construction, order: next(chains))


def test_an_intermediate_already_stored_is_rejected(monkeypatch):
    # the real chain factors Q | Q once; one from Q x 4 would pass Q | Q
    p = parse_problem("order: listed\natoms: Q\nclause: Q | Q | Q | Q\nclause: Q | Q\n")
    q = Literal(Atom("Q"))
    _patched_chains(monkeypatch, [
        SupChain(FACTORING, Clause([q] * 4), None, q.atom, 3, Clause([q]))])
    with pytest.raises(RuntimeError, match=r"derived clause Q \| Q is already present"):
        run_sup_mo(p)


def test_an_intermediate_of_an_earlier_chain_is_rejected(monkeypatch):
    # -A | B | C lies on both chains: one step from -A | -A | C against
    # A | B, and one step from -A | -A | B against A | C
    p = parse_problem("order: listed\natoms: B < C < A\nclause: -A | -A | C\n"
                      "clause: -A | -A | B\nclause: A | B\nclause: A | C\n"
                      "clause: B\nclause: -B\n")
    first, second, s1, s2 = p.clauses.clauses()[:4]
    a = Atom("A")
    chains = [SupChain(SUPERPOSITION_LEFT, main, side, a, 2)
              for main, side in ((first, s1), (second, s2))]
    assert chains[1].meets(chains[0]) == 1 and chains[0].meets(chains[1]) == 1
    assert chains[0].meets(dataclasses.replace(chains[0], count=1, conclusion=None)) is None
    _patched_chains(monkeypatch, chains)
    with pytest.raises(RuntimeError, match=r"derived clause -A \| B \| C is already present"):
        run_sup_mo(p)


def test_an_end_already_stored_is_rejected(monkeypatch):
    p = parse_problem("order: listed\natoms: Q\nclause: Q | Q | Q\nclause: -Q\n")
    q = Literal(Atom("Q"))
    _patched_chains(monkeypatch, [
        SupChain(FACTORING, Clause([q] * 3), None, q.atom, 2, Clause([q.complement()]))])
    with pytest.raises(RuntimeError, match=r"derived clause -Q is already present"):
        run_sup_mo(p)


def test_an_end_not_below_its_main_premise_is_rejected(monkeypatch):
    p = parse_problem("order: listed\natoms: Q\nclause: Q | Q\n")
    q = Literal(Atom("Q"))
    _patched_chains(monkeypatch, [
        SupChain(FACTORING, Clause([q] * 2), None, q.atom, 1, Clause([q] * 3))])
    with pytest.raises(RuntimeError, match=r"derived clause Q \| Q \| Q is not smaller than "
                                           r"the clause Q \| Q it repairs"):
        run_sup_mo(p)


def _clause(**copies):
    """``_clause(nA=2, B=1)`` is -A | -A | B."""
    return Clause([Literal(Atom(name[-1]), name[0] != "n")
                   for name, n in copies.items() for _ in range(n)])


def _intermediates(chain):
    return [chain.at(j) for j in range(1, chain.count)]


def _first_shared(chain, other):
    """``meets`` by enumeration: the first ``j`` whose intermediate is one
    of ``other``'s, or None."""
    theirs = set(_intermediates(other))
    return next((j for j, c in enumerate(_intermediates(chain), 1) if c in theirs), None)


def _small_chains():
    """Every chain the order B < C < A can draw on small clauses: -A
    resolved against A | B^x | C^y, and A factored."""
    a = Atom("A")
    for m, b, c, x, y in itertools.product(range(1, 4), range(2), range(2), range(3), range(3)):
        main, side = _clause(nA=m, B=b, C=c), _clause(A=1, B=x, C=y)
        yield from (SupChain(SUPERPOSITION_LEFT, main, side, a, k) for k in range(1, m + 1))
    for k, b, c in itertools.product(range(2, 5), range(3), range(3)):
        main = _clause(A=k, B=b, C=c)
        yield from (SupChain(FACTORING, main, None, a, n) for n in range(1, k))


def test_meets_and_step_of_agree_with_enumeration():
    by_literals = {}
    for chain in _small_chains():
        by_literals.setdefault(chain.distinct, []).append(chain)
    pairs = [(x, y) for chains in by_literals.values() for x in chains for y in chains]
    assert len(pairs) > 20_000
    met = [x.meets(y) for x, y in pairs]
    assert met == [_first_shared(x, y) for x, y in pairs]
    assert set(met) == {None, 1, 2}
    for chains in by_literals.values():
        for chain in chains:
            steps = {c: j for j, c in enumerate(_intermediates(chain), 1)}
            for counts in itertools.product(range(1, 6), repeat=len(chain.distinct)):
                clause = Clause.from_runs(chain.distinct, counts)
                assert chain.step_of(clause) == steps.get(clause)


@pytest.mark.parametrize("first,second", [
    # pivots differ: A factored on one chain, B on the other
    (SupChain(FACTORING, _clause(A=3, B=1), None, Atom("A"), 2),
     SupChain(FACTORING, _clause(A=1, B=3), None, Atom("B"), 2)),
    # B's counts never agree: 1 on every clause of one chain, 2 on the other's
    (SupChain(FACTORING, _clause(A=3, B=1), None, Atom("A"), 2),
     SupChain(FACTORING, _clause(A=3, B=2), None, Atom("A"), 2)),
    # B holds 2j copies on one chain and 1 on the other: no integral step
    (SupChain(SUPERPOSITION_LEFT, _clause(nA=3), _clause(A=1, B=2), Atom("A"), 3),
     SupChain(SUPERPOSITION_LEFT, _clause(nA=3, B=1), _clause(A=1), Atom("A"), 3)),
    # B holds 2j copies on one chain and 6 on the other: j = 3, past both ends
    (SupChain(SUPERPOSITION_LEFT, _clause(nA=3), _clause(A=1, B=2), Atom("A"), 3),
     SupChain(SUPERPOSITION_LEFT, _clause(nA=3, B=6), _clause(A=1), Atom("A"), 3)),
], ids=["pivots-differ", "counts-never-agree", "no-integral-step", "outside-both-ranges"])
def test_chains_that_share_no_intermediate_do_not_meet(first, second):
    assert first.distinct == second.distinct
    assert _first_shared(first, second) is None and _first_shared(second, first) is None
    assert first.meets(second) is None and second.meets(first) is None
    for clause in _intermediates(second):
        assert first.step_of(clause) is None


def test_snapshot_and_step_views_are_read_only_sequences():
    """On the golden files and 15:1, the saturation run's steps and
    snapshots and the verifier's boundaries read as the trail run's views
    do: through iteration, indexes from either end and slices alike, and
    equal to the list of their items."""
    problems = []
    for path in GOLDEN:
        with open(path, encoding="utf-8") as fh:
            problems.append(parse_problem(fh.read()))
    problems.append(_ladder(15, 1))
    for problem in problems:
        result = lockstep_verify(problem)
        run = result.sup
        for view in (run.steps, run.snapshots, result.boundaries):
            _reads_as_its_items(view)
        assert run.steps[-1] == list(run.steps)[-1]
        with pytest.raises(IndexError):
            run.steps[len(run.steps)]
        with pytest.raises(IndexError):
            run.snapshots[-len(run.snapshots) - 1]
        assert not hasattr(run.steps, "append") and not hasattr(run.snapshots, "pop")


@pytest.mark.parametrize("name", ["double_conflict", "15:1"])
def test_a_view_holds_the_records_it_was_made_of(name):
    """A view of each kind holds its run's records as they stood when it
    was made: a record appended to the run afterwards is neither counted
    nor read."""
    if name == "15:1":
        problem = _ladder(15, 1)
    else:
        with open(os.path.join(DATA, name + ".prob"), encoding="utf-8") as fh:
            problem = parse_problem(fh.read())
    result = lockstep_verify(problem)
    sup, sim = result.sup, result.sim
    views = {"steps": sup.steps, "snapshots": sup.snapshots, "seqs": sim.seqs,
             "annotations": sim.annotations, "boundary_states": sim.boundary_states,
             "boundaries": result.boundaries}
    before = {name: list(view) for name, view in views.items()}
    sup.records.append(sup.records[-1])
    sup.record_snapshots.append(sup.record_snapshots[-1])
    sim.records.append(sim.records[-1])
    result.entries.append(result.entries[-1])
    for name, view in views.items():
        items = list(view)
        assert len(view) == len(items) == len(before[name]), name
        assert items == before[name], name


@pytest.mark.parametrize("atoms,seed,outcome,records,steps", [
    (25, 2, SATISFIABLE, 199, 189_777),
    (22, 1, SATISFIABLE, 222, 2_195_850_681_651),
    (20, 4, UNSATISFIABLE, 302, 35_124_155_282),
], ids=["25:2", "22:1", "20:4"])
def test_hard_ladders_saturate_within_2_seconds(atoms, seed, outcome, records, steps):
    problem = _ladder(atoms, seed)
    start = time.perf_counter()
    run = run_sup_mo(problem, max_steps=10 ** 15)
    elapsed = time.perf_counter() - start
    assert run.outcome == outcome
    assert (len(run.records), len(run.steps)) == (records, steps)
    if outcome == SATISFIABLE:
        assert all(eval_herbrand(run.model, c) for c in problem.clauses)
    else:
        assert harness.brute_force_sat(problem.clauses.clauses()) is None
    assert elapsed < 2.0


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_the_5_pigeon_problem_saturates_within_2_seconds(kind):
    problem = harness.pigeonhole(4, kind)
    start = time.perf_counter()
    run = run_sup_mo(problem, max_steps=10 ** 15)
    elapsed = time.perf_counter() - start
    assert run.outcome == UNSATISFIABLE
    assert (len(run.records), len(run.steps)) == (245, 423_509_398)
    assert elapsed < 2.0
    assert harness.brute_force_sat(problem.clauses.clauses()) is None
    assert run_scl_sup(problem).annotations[-1].index == len(run.steps)


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_the_5_pigeon_problem_verifies_within_2_seconds(kind):
    # the trail run pairs 423,509,398 saturation steps, far past
    # run_sup_mo's default cap; the verifier takes its cap from that. The
    # asserts read plain values: one on a run would render its clauses copy
    # by copy when it fails
    problem = harness.pigeonhole(4, kind)
    start = time.perf_counter()
    result = lockstep_verify(problem)
    elapsed = time.perf_counter() - start
    failures, outcomes = result.failures(), (result.sim.outcome, result.sup.outcome)
    final_index, steps = result.sim.annotations[-1].index, len(result.sup.steps)
    assert failures == []
    assert outcomes == (UNSATISFIABLE, UNSATISFIABLE)
    assert final_index == steps == 423_509_398
    assert harness.brute_force_sat(problem.clauses.clauses()) is None
    assert elapsed < 2.0


class _CountedRecords(list):
    """A record list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_the_verifier_reads_the_run_length_a_constant_number_of_times(monkeypatch):
    # a view sums the record counts once, when it is made; the verifier
    # keeps one snapshot view for its 2,977 boundaries and its final checks
    real, runs = simulation.run_sup_mo, []

    def counted(*args, **kwargs):
        run = real(*args, **kwargs)
        run.records = _CountedRecords(run.records)
        runs.append(run)
        return run

    monkeypatch.setattr(simulation, "run_sup_mo", counted)
    result = lockstep_verify(harness.pigeonhole(4, "kbo"))
    ok, boundaries, walks = result.ok, len(result.boundaries), runs[0].records.walks
    assert ok and boundaries == 2977
    assert walks <= 3


def test_runs_render_as_their_outcome_and_sizes():
    # pytest renders the operands of a failing assert with repr, so a run's
    # repr must not spell out its clauses copy by copy
    runs = [run_sup_mo(_ladder(22, 1), max_steps=10 ** 13),
            lockstep_verify(harness.pigeonhole(4, "kbo"))]
    texts, seconds = [], []
    for run in runs:
        start = time.perf_counter()
        texts.append(repr(run))
        seconds.append(time.perf_counter() - start)
    assert texts == [
        "<SupRun satisfiable: 222 records, 2195850681651 steps>",
        "<VerifyResult ok: 2977 boundaries, <SimRun unsatisfiable: 2976 rounds, 4363 rule apps>, "
        "<SupRun unsatisfiable: 245 records, 423509398 steps>>"]
    assert all(len(text) < 200 for text in texts) and max(seconds) < 0.1


def test_a_run_past_the_machine_word_renders_and_counts_its_steps():
    # len() must fit sys.maxsize; the step count is a plain int
    run = run_sup_mo(_ladder(28, 4), max_steps=10 ** 30)
    start = time.perf_counter()
    text = repr(run)
    seconds = time.perf_counter() - start
    assert text == "<SupRun unsatisfiable: 498 records, 1760389478696513857865 steps>"
    assert len(text) < 200 and seconds < 0.1
    assert run.step_count == sum(chain.count for chain in run.records) > sys.maxsize
    with pytest.raises(OverflowError):
        len(run.steps)
    # the views render their sizes, read either end, test true, reverse and
    # compare sizes without len()
    start = time.perf_counter()
    texts = repr(run.steps), repr(run.snapshots)
    last_step, first_two, last_snapshot = run.steps[-1], run.steps[:2], run.snapshots[-1]
    unequal = run.steps != [] and run.steps != run.snapshots
    truth = bool(run.steps), bool(run.snapshots)
    reversed_last = next(reversed(run.steps))
    seconds = time.perf_counter() - start
    assert unequal and truth == (True, True)
    assert reversed_last == run.steps[-1]
    assert texts == ("<Expanded: 1760389478696513857865 items from 498 records>",
                     "<Expanded: 1760389478696513857866 items from 498 records>")
    assert seconds < 0.1
    final = run.records[-1]
    assert last_step == final.single(final.count - 1) and last_step.conclusion == final.conclusion
    assert first_two == [run.steps[0], run.steps[1]] == list(itertools.islice(run.steps, 2))
    assert last_snapshot is run.record_snapshots[-1]
    assert last_snapshot.index == run.step_count


@pytest.mark.parametrize("atoms,seed", [(30, 1), (22, 4)], ids=["30:1", "22:4"])
def test_ladders_past_the_default_step_cap_verify(atoms, seed):
    problem = _ladder(atoms, seed)
    result = lockstep_verify(problem)
    failures, outcome, model = result.failures(), result.sim.outcome, result.sim.model
    steps = len(result.sup.steps)
    assert failures == []
    assert steps > MAX_STEPS
    assert outcome == SATISFIABLE
    assert all(eval_herbrand(model, c) for c in problem.clauses)


def test_a_conclusion_past_the_machine_word_is_recorded():
    # 28:4 passes sys.maxsize copies of one literal within 10^13 steps; no
    # engine path counts the copies with len() or spells them out
    problem = _ladder(28, 4)
    run = run_sup_mo(problem, max_steps=10 ** 13)
    assert run.outcome == CAP_EXCEEDED and len(run.steps) == 10 ** 13
    giant = [c.conclusion for c in run.records if max(c.conclusion.counts) > sys.maxsize]
    assert giant
    last = run.snapshots[-1]
    assert last.contains(giant[0]) and last.contains(run.records[-1].conclusion)
    assert last.construction.minimal_false == run.records[-1].conclusion
    image = sfac(giant[0], run.order)
    assert sfac(image, run.order) == image
