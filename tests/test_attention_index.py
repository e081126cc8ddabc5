"""The attention index against the full scans it replaces.

The driver and the verifier read the clauses of a state in the
factored-image order from an index built once per map version. The
reference implementations below are the plain scans over every clause of
the state that the index replaced; the index must name the same clause,
the same object included, at every boundary, and a reused index must read
exactly as a fresh one.
"""

import dataclasses
import gc
import glob
import importlib.util
import os
import weakref
from bisect import bisect_right
from operator import itemgetter

import pytest

from lockstep import simulation
from lockstep.core import (
    Atom,
    Clause,
    Literal,
    is_tautology,
    parse_problem,
)
from lockstep.harness import GenParams, random_problem
from lockstep.ordering import ProblemOrder
from lockstep.scl import TrailEntry, initial_state
from lockstep.superposition import _Ledger, run_sup_mo, sfac
from lockstep.simulation import (
    Annotation,
    PassSweep,
    SimulationError,
    _AttentionIndex,
    _gamma_key,
    _index_for,
    check_invariants,
    check_progress,
    lockstep_verify,
    next_attention,
    run_scl_sup,
)

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")

_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _record_of(run, r):
    """The position in ``run.records`` of the record holding round ``r``,
    and the round's offset in it."""
    start = 0
    for k, record in enumerate(run.records):
        if r < start + record.rounds:
            return k, r - start
        start += record.rounds
    raise IndexError(r)


def isolate_round(run, r):
    """Split the record holding round ``r`` so that the round is a record of
    its own, a ``SimSeq``; return that record."""
    k, j = _record_of(run, r)
    record = run.records[k]
    seq = record.seq(j)
    if isinstance(record, PassSweep):
        before = [dataclasses.replace(record, aids=record.aids[:j])] if j else []
        after = ([dataclasses.replace(record, aids=record.aids[j + 1:])]
                 if j + 1 < record.rounds else [])
        run.records[k:k + 1] = before + [seq] + after
    return seq


def replace_round(run, r, seq):
    """Make round ``r`` of ``run`` read as ``seq``, at the level of its
    records: in a sweep, a pass round on the sweep's pair index, map and
    state only changes the sweep's attention clause; any other round
    becomes a record of its own."""
    k, j = _record_of(run, r)
    record, ann = run.records[k], seq.annotation
    if (isinstance(record, PassSweep) and seq.kind == "pass" and seq.attention is ann.aid
            and ann.index == record.index and ann.gamma is record.gamma
            and seq.app_range == (record.end, record.end)):
        run.records[k] = dataclasses.replace(
            record, aids=record.aids[:j] + (ann.aid,) + record.aids[j + 1:])
        return
    isolate_round(run, r)
    run.records[_record_of(run, r)[0]] = seq


def replace_annotation(run, r, ann):
    """Make round ``r`` of ``run`` leave the annotation ``ann``."""
    seq = run.seqs[r]
    attention = ann.aid if seq.kind == "pass" and seq.attention is seq.annotation.aid else seq.attention
    replace_round(run, r, dataclasses.replace(seq, attention=attention, annotation=ann))


def next_attention_by_scan(order, state, ann):
    """The smallest key strictly past the floor over every clause; ``min``
    keeps the first of equal keys, in state order."""
    floor = _gamma_key(order, ann.aid, ann.gamma)
    keyed = ((_gamma_key(order, c, ann.gamma), c) for c in state.all_clauses())
    best = min(((key, c) for key, c in keyed if key > floor), key=itemgetter(0), default=None)
    return None if best is None else best[1]


def producing_clause_by_scan(order, state, gamma, literal):
    """The smallest forcing clause by key over every clause, the first in
    state order among equal keys. A literal is false when the last trail
    entry on its atom has the other sign."""
    value = {e.literal.atom: e.literal.positive for e in state.trail}

    def forces(c):
        img = gamma.get(c, c)
        if not order.is_strictly_maximal_in(literal, img):
            return False
        rest = img.with_count(literal, 0)
        return all(value.get(l.atom) == (not l.positive) for l in rest.literals)

    best = min(filter(forces, state.all_clauses()),
               key=lambda c: _gamma_key(order, c, gamma), default=None)
    if best is None:
        raise SimulationError(f"no clause can force {literal}")
    return best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SimulationError as e:
        return str(e)


def _problems():
    """The golden files, 300 random problems, every third one allowed to
    hold tautologies, and last ladder_text(15, 1)."""
    problems = []
    for path in sorted(glob.glob(os.path.join(DATA, "*.prob"))):
        with open(path, encoding="utf-8") as fh:
            problems.append(parse_problem(fh.read()))
    params = GenParams(preds=("P", "Q", "R", "S"), clause_count=10, max_len=4)
    problems += [random_problem(dataclasses.replace(params, seed=seed,
                                                    allow_tautologies=seed % 3 == 0))
                 for seed in range(300)]
    assert any(is_tautology(c) for p in problems for c in p.clauses)
    problems.append(parse_problem(workloads.ladder_text(15, 1)[0]))
    return problems


def test_the_index_names_what_the_scans_name(monkeypatch):
    """Every boundary outside conflict mode, read through an index reused
    the way the driver reuses it, gets the scan's next attention clause;
    every clause the driver forces from is the scan's producing clause,
    found through the index of the state it forces in; and every boundary
    but those of the 15-atom instance is probed with the maximal literal of
    every image."""
    forced = []
    real = simulation._producing_clause

    def recorded(order, state, gamma, literal, index=None):
        assert _index_for(order, state, gamma, index) is index
        forced.append((order, state, gamma, literal))
        return real(order, state, gamma, literal, index)

    monkeypatch.setattr(simulation, "_producing_clause", recorded)
    problems = _problems()
    walked = probed = 0
    for p in problems:
        order = ProblemOrder(p)
        sim = run_scl_sup(p, order)
        index = None
        for ann, state in zip(sim.annotations, sim.boundary_states):
            if state.conflict is None:
                index = _index_for(order, state, ann.gamma, index)
                expected = next_attention_by_scan(order, state, ann)
                assert next_attention(order, state, ann, index) is expected
                assert next_attention(order, state, ann) is expected
                walked += 1
            if p is problems[-1]:
                continue
            for c in state.all_clauses():
                literal = order.max_literal(ann.gamma.get(c, c))
                got = _outcome(real, order, state, ann.gamma, literal)
                want = _outcome(producing_clause_by_scan, order, state, ann.gamma, literal)
                assert got is want if isinstance(want, Clause) else got == want
                probed += 1
    for order, state, gamma, literal in forced:
        assert real(order, state, gamma, literal) is producing_clause_by_scan(
            order, state, gamma, literal)
    assert walked > 2000 and probed > 10000 and len(forced) > 40


def _parts(index, ledger=None):
    """The index's parts; given a saturation ledger, also the stage by which
    every input and learned clause has joined it, which invariant (iii)
    reads."""
    parts = index.ranked, index.images, index.map_entries
    return parts if ledger is None else parts + (index.joined(ledger),)


def _verified_calls(monkeypatch, problems):
    """For each problem, its verifier result and the arguments of every
    check_invariants call the verifier made, through the module attribute
    as the span tracer sees them."""
    calls = []
    real = simulation.check_invariants

    def recorded(order, state, ann, snapshot, index=None):
        calls.append((order, state, ann, snapshot, index))
        return real(order, state, ann, snapshot, index)

    monkeypatch.setattr(simulation, "check_invariants", recorded)
    for p in problems:
        calls.clear()
        result = lockstep_verify(p)
        yield result, list(calls)


def run_starts(sim):
    """The boundaries of ``sim`` that start a trail run: the first one, and
    each that does not continue the run of the boundary before."""
    anns, states = sim.annotations, sim.boundary_states
    return [b for b in range(len(anns))
            if b == 0 or not simulation._in_trail_run(anns[b - 1], states[b - 1],
                                                      anns[b], states[b])]


def run_ends(sim):
    """The boundaries of ``sim`` that end a trail run of more than one
    boundary."""
    starts = run_starts(sim)
    ends = [b - 1 for b in starts[1:] + [len(sim.annotations)]]
    return [end for start, end in zip(starts, ends) if end > start]


def test_a_reused_index_reads_as_a_fresh_one(monkeypatch):
    """At every boundary the verifier checks, the index it reads holds what
    a fresh index of that boundary holds. Boundaries right after a factoring
    round, where the map changes and the learned clauses do not, are among
    them. On a sound run the verifier calls check_invariants exactly at the
    first boundary of each trail run and at the last of each run that has
    more, and decides the boundaries in between by the range test, which
    the span tracer's counts rely on."""
    remapped = 0
    for result, calls in _verified_calls(monkeypatch, _problems()):
        assert result.ok
        annotations = result.sim.annotations
        checked = sorted(run_starts(result.sim) + run_ends(result.sim))
        assert [ann for _, _, ann, _, _ in calls] == [annotations[b] for b in checked]
        last = None
        for order, state, ann, snapshot, index in calls:
            assert _index_for(order, state, ann.gamma, index) is index
            assert _parts(index, snapshot.ledger) == _parts(
                _AttentionIndex(order, state, ann.gamma), snapshot.ledger)
            if last is not None and last[0] is not ann.gamma and last[1] is state.u:
                remapped += 1
            last = ann.gamma, state.u
    assert remapped > 20


def _pair_indices_out_of_range(real, *args, **kwargs):
    run = real(*args, **kwargs)
    for i, index in ((1, -1), (2, 10**6)):
        replace_annotation(run, i, dataclasses.replace(run.seqs[i].annotation, index=index))
    return run


def test_boundaries_out_of_range_are_not_checked(monkeypatch):
    real = simulation.run_scl_sup
    monkeypatch.setattr(simulation, "run_scl_sup",
                        lambda *a, **k: _pair_indices_out_of_range(real, *a, **k))
    with open(os.path.join(DATA, "double_conflict.prob"), encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    [(result, calls)] = _verified_calls(monkeypatch, [problem])
    annotations = result.sim.annotations
    assert [ann for _, _, ann, _, _ in calls] == annotations[:2] + annotations[4:]


def _ladder_pool(seed):
    problems = []
    for instance in workloads.make_instances("ladder", seed):
        instance.setup()
        problems.append(instance.problem)
    return problems


def test_carried_facts_read_as_fresh_ones(monkeypatch):
    """At every boundary the verifier checks, the invariants read through
    the attention index it carries from the boundary before report exactly
    what a call without one reports: on the golden files, the generated
    problems, the 15-atom instance and the ladder pool at seed 1. The range
    test declines every run here, as it does a run it cannot show, so each
    boundary is checked on its own; more than half of the ladder boundaries
    read the index of the boundary before them."""
    monkeypatch.setattr(simulation, "_passes_trail_run", lambda *args: False)
    problems, pool = _problems(), _ladder_pool(1)
    real = simulation.check_invariants
    reused = checked = 0
    for n, (result, calls) in enumerate(_verified_calls(monkeypatch, problems + pool)):
        assert result.ok
        last = None
        for order, state, ann, snapshot, index in calls:
            assert real(order, state, ann, snapshot, index) == real(order, state, ann, snapshot)
            if n >= len(problems):
                checked += 1
                reused += index is last
            last = index
    assert 2 * reused > checked > 5000


def test_a_passed_index_is_only_a_hint():
    """Given the attention index of another version, check_invariants
    reports exactly what a call without an index reports, at every
    boundary of the golden files: the index of a map equal by value but
    another object, of a ``dataclasses.replace`` copy of the state, or of
    the state with fewer learned clauses, each with its parts read, so
    that the check derives from them. Pairing another snapshot still
    changes the reports."""
    others = {"map twin": 0, "state copy": 0, "fewer learned": 0}
    for path in sorted(glob.glob(os.path.join(DATA, "*.prob"))):
        with open(path, encoding="utf-8") as fh:
            p = parse_problem(fh.read())
        order = ProblemOrder(p)
        sim, sup = run_scl_sup(p, order), run_sup_mo(p, order)
        for ann, state in zip(sim.annotations, sim.boundary_states):
            snapshot = sup.snapshots[ann.index]
            fresh = check_invariants(order, state, ann, snapshot)
            versions = {"map twin": (state, dict(ann.gamma)),
                        "state copy": (dataclasses.replace(state), ann.gamma)}
            if state.u:
                versions["fewer learned"] = (dataclasses.replace(state, u=state.u[:-1]),
                                             ann.gamma)
            for kind, (s, gamma) in versions.items():
                other = _AttentionIndex(order, s, gamma)
                _parts(other, snapshot.ledger)
                assert check_invariants(order, state, ann, snapshot, other) == fresh
                others[kind] += 1
    assert others == {"map twin": 24, "state copy": 24, "fewer learned": 10}

    with open(os.path.join(DATA, "satisfiable.prob"), encoding="utf-8") as fh:
        p = parse_problem(fh.read())
    order = ProblemOrder(p)
    sim, sup = run_scl_sup(p, order), run_sup_mo(p, order)
    ann, state = sim.annotations[-1], sim.boundary_states[-1]
    index = _AttentionIndex(order, state, ann.gamma)
    assert (check_invariants(order, state, ann, sup.snapshots[0], index)
            != check_invariants(order, state, ann, sup.snapshots[ann.index], index))


def test_the_prefix_check_reads_nothing_past_the_attention_key(monkeypatch):
    """Invariant (xii) asks the trail about the clauses up to the attention
    key and no further: at each boundary of the golden files and the
    generated problems whose trail satisfies every clause and whose
    attention key is not the last, one check_invariants call asks
    ``is_true`` about no more clauses than there are keys up to the
    attention key."""
    asked = []
    real = simulation.is_true

    def counted(state, clause):
        asked.append(clause)
        return real(state, clause)

    monkeypatch.setattr(simulation, "is_true", counted)
    seen = 0
    for p in _problems()[:-1]:
        order = ProblemOrder(p)
        sim, sup = run_scl_sup(p, order), run_sup_mo(p, order)
        for ann, state in zip(sim.annotations, sim.boundary_states):
            if not all(real(state, c) for c in state.all_clauses()):
                continue
            keys = _AttentionIndex(order, state, ann.gamma).ranked[0]
            upto = bisect_right(keys, _gamma_key(order, ann.aid, ann.gamma))
            if upto == len(keys):
                continue
            asked.clear()
            check_invariants(order, state, ann, sup.snapshots[ann.index])
            assert len(asked) <= upto < len(keys)
            seen += 1
    assert seen > 300


def _shared_state_dropping_its_top(real, *args, **kwargs):
    """The run with its state shared by the most boundaries replaced by a
    copy without the top trail entry."""
    run = real(*args, **kwargs)
    ends = [seq.app_range[1] for seq in run.seqs]
    k = max(ends, key=ends.count)
    run.states[k] = dataclasses.replace(run.states[k], trail=run.states[k].trail[:-1])
    return run


def _fresh_failures(result):
    """The failures of ``result`` with every boundary checked by a fresh
    check_invariants call, carrying nothing from the boundary before, and
    every round by a check_progress call."""
    order, sim = result.order, result.sim
    anns = sim.annotations
    fresh = [simulation.BoundaryReport(b, ann.index, check_invariants(
                 order, state, ann, result.sup.snapshots[ann.index]))
             for b, (ann, state) in enumerate(zip(anns, sim.boundary_states))]
    progress = [f"round {i} ({seq.kind}): {msg}" for i, seq in enumerate(sim.seqs)
                if (msg := check_progress(order, anns[i], anns[i + 1])) is not None]
    return dataclasses.replace(result, entries=fresh, progress_failures=progress).failures()


def test_a_corrupted_shared_state_fails_as_fresh_calls_fail(monkeypatch):
    """Several consecutive pass boundaries share one state; with its top
    trail entry dropped, the verifier reports exactly what fresh calls at
    every boundary report, and prefix-satisfied lists every clause up to the
    attention clause that the state leaves unsatisfied, in state order."""
    real = simulation.run_scl_sup
    monkeypatch.setattr(simulation, "run_scl_sup",
                        lambda *a, **k: _shared_state_dropping_its_top(real, *a, **k))
    [problem] = _ladder_pool(0)[:1]
    result = lockstep_verify(problem)
    order, sim = result.order, result.sim
    assert result.failures() == _fresh_failures(result)

    listed = []
    for ann, state, report in zip(sim.annotations, sim.boundary_states, result.boundaries):
        floor = _gamma_key(order, ann.aid, ann.gamma)
        true, _ = state.valuation()
        unsat = [str(c) for c in state.all_clauses()
                 if _gamma_key(order, c, ann.gamma) <= floor
                 and true.isdisjoint(c.distinct)]
        [prefix] = [r for r in report.reports if r.name == "prefix-satisfied"]
        assert prefix.detail == (f"not satisfied yet: {unsat}" if unsat else "")
        if unsat:
            listed.append((state, len(unsat)))
    shared = [n for state, n in listed if state is listed[-1][0]]
    assert len(shared) >= 3 and shared == sorted(shared) and shared[0] < shared[-1]


def _corrupt_boundary(pick, edit):
    """A wrapper of run_scl_sup that replaces the state of the first round
    boundary ``pick(before, after)`` accepts, given the states of the
    boundary before it and of it, by ``edit(before, after)``."""
    def wrapper(real, *args, **kwargs):
        run = real(*args, **kwargs)
        states = run.boundary_states
        b = next(b for b in range(1, len(states)) if pick(states[b - 1], states[b]))
        k = run.seqs[b - 1].app_range[1]
        run.states[k] = edit(states[b - 1], states[b])
        return run
    return wrapper


def _copied(clause):
    return Clause.from_runs(clause.distinct, clause.counts)


def _reassigning(before, after):
    """``before``'s trail extended by the complement of its first entry."""
    first = before.trail[0]
    entry = TrailEntry(first.literal.complement(), after.k, None)
    return dataclasses.replace(after, trail=before.trail + (entry,))


_LEARNED_COPIED = _corrupt_boundary(
    lambda before, after: len(after.u) > len(before.u) >= 1,
    lambda before, after: dataclasses.replace(after, u=tuple(map(_copied, after.u))))
_LEARNED_DROPPED = _corrupt_boundary(
    lambda before, after: len(after.u) > len(before.u) >= 1,
    lambda before, after: dataclasses.replace(after, u=after.u[1:]))
_ATOM_REASSIGNED = _corrupt_boundary(
    lambda before, after: (after.u is before.u and before.trail
                           and len(after.trail) > len(before.trail)
                           and after.trail[:len(before.trail)] == before.trail
                           and len(before.trail) >= 4),
    _reassigning)


_FORGOTTEN = [
    "regularity: boundary 25: the learned clauses do not extend those of boundary 24",
    "regularity: boundary 30: the learned clauses do not extend those of boundary 29",
]


@pytest.mark.parametrize("wrapper,unsatisfied,regularity", [
    (_LEARNED_COPIED, False, []), (_LEARNED_DROPPED, False, _FORGOTTEN),
    (_ATOM_REASSIGNED, True, []),
], ids=["learned-copied", "learned-dropped", "atom-reassigned"])
def test_a_corrupted_version_fails_as_fresh_calls_fail(monkeypatch, wrapper, unsatisfied,
                                                      regularity):
    """A boundary state whose learned clauses are the run's in a tuple of
    its own (rebuilding a clause returns the interned clause), one missing
    a learned clause, and one whose trail extension re-assigns an atom
    already on the trail: whatever the verifier reuses or derives from the
    boundary before, it reports exactly what fresh calls at every boundary
    report. The first two break no invariant at a single boundary; the
    re-assigned atom leaves clauses below the attention clause
    unsatisfied. The missing clause is a regularity failure, since the
    trail rules never forget a learned clause: at the boundary that drops
    it (25), and at the first boundary after it with a state of its own
    (30), whose learned clauses hold it again."""
    real = simulation.run_scl_sup
    monkeypatch.setattr(simulation, "run_scl_sup", lambda *a, **k: wrapper(real, *a, **k))
    problem = _ladder_pool(0)[3]              # learns 11 clauses
    result = lockstep_verify(problem)
    failures = result.failures()
    assert failures == _fresh_failures(result)
    assert any("prefix-satisfied: not satisfied yet" in f for f in failures) == unsatisfied
    assert [f for f in failures if f.startswith("regularity: ")] == regularity


class _Watched(_AttentionIndex):
    """An attention index that notes each derivation: the index, the state
    it is for, whether both the learned clauses and the map changed, and
    whether it carries the last index's ``stages``."""

    derived = []

    def __init__(self, order, state, gamma, last=None):
        super().__init__(order, state, gamma, last)
        if last is not None:
            both = len(last.u) < len(state.u) and last.gamma is not gamma
            self.derived.append((self, state, both, "stages" in self._prior))


def test_indexes_are_derived_from_their_predecessors(monkeypatch):
    """Over the ladder pool at seed 1, the driver and the verifier derive
    more than 300 indexes from the one before, more than 100 of them across
    a learned clause and a map change at once, and each reads as a fresh
    index of its state, holding the state's own clause objects. The
    verifier's carry the stage by which the state's clauses have joined the
    run's ledger, which more than 300 of them derive from the index before
    at a stage past 0."""
    monkeypatch.setattr(simulation, "_AttentionIndex", _Watched)
    monkeypatch.setattr(_Watched, "derived", [])
    for problem in _ladder_pool(1):
        assert lockstep_verify(problem).ok
    derived, staged = _Watched.derived, 0
    for index, state, _, carried in derived:
        stages = index.stages
        fresh = _AttentionIndex(index.order, state, index.gamma)
        assert _parts(index) == _parts(fresh)
        assert stages == {ledger: fresh.joined(ledger) for ledger in stages}
        staged += carried and any(stages.values())
        _, positions, clauses = index.ranked
        assert all(c is state.all_clauses()[i] for i, c in zip(positions, clauses))
    assert len(derived) > 300 and sum(both for _, _, both, _ in derived) > 100
    assert staged > 300


TIE_TEXT = """\
order: listed
atoms: P < Q < R
clause: -P | R
clause: P | Q
clause: -Q | R
"""


def test_equal_keys_keep_state_order():
    """A learned clause equal to an input clause is that clause, and ties
    with it on the key at its two state positions: the walk and the
    producing clause name the clause, the one a ``min`` over the state
    finds first, and prefix-satisfied lists it at both positions in state
    order."""
    p = parse_problem(TIE_TEXT)
    order = ProblemOrder(p)
    pr, pq, qr = p.clauses.clauses()          # ascending: P | Q, -P | R, -Q | R
    twin = Clause(pr.literals)
    assert twin == pr and twin is pr
    state = dataclasses.replace(initial_state(p), u=(twin,))
    _, positions, clauses = _AttentionIndex(order, state, {}).ranked
    assert [i for i, c in zip(positions, clauses) if c is pr] == [0, 3]
    ann = Annotation(0, pq, {})
    assert next_attention(order, state, ann) is pr
    assert next_attention_by_scan(order, state, ann) is pr
    past = dataclasses.replace(ann, aid=pr)
    assert next_attention(order, state, past) is qr
    assert next_attention_by_scan(order, state, past) is qr

    # with P true, both copies of -P | R force R, and -Q | R does not
    r = Literal(Atom("R"))
    forcing = dataclasses.replace(state, trail=(TrailEntry(Literal(Atom("P")), 1, None),))
    assert simulation._producing_clause(order, forcing, {}, r) is pr
    assert producing_clause_by_scan(order, forcing, {}, r) is pr

    snapshot = run_sup_mo(p, order).snapshots[0]
    reports = {x.name: x for x in check_invariants(order, state, past, snapshot)}
    assert reports["prefix-satisfied"].detail == (
        "not satisfied yet: ['-P | R', 'P | Q', '-P | R']")


def test_a_derived_index_does_not_keep_its_predecessor_alive():
    p = parse_problem(TIE_TEXT)
    order = ProblemOrder(p)
    pr = p.clauses.clauses()[1]
    ledger = _Ledger(order, p.clauses)
    last = _AttentionIndex(order, initial_state(p), {})
    _parts(last, ledger)
    gone = weakref.ref(last)
    state = dataclasses.replace(initial_state(p), u=(Clause(pr.literals),))
    index = _index_for(order, state, {}, last)
    assert index is not last
    del last
    _parts(index, ledger)
    gc.collect()
    assert gone() is None


DERIVE_TEXT = """\
order: listed
atoms: P < Q < R
clause: -P | R
clause: P | Q
clause: -Q | R
clause: Q | R | R
"""


def test_a_derived_index_reads_as_a_fresh_one():
    """Across each edit, whether derived or built afresh because a guard
    fails, an index holds what a fresh index of the new state holds, with
    the state's own clause objects: a learned twin of an input clause
    follows it among equal keys; a map entry whose image object changes
    computes its flag again, right or wrong, and the images are rebuilt;
    a learned tuple that is another object holding the same clauses is
    derived from, and one fewer is not taken from the last index; a map
    entry whose clause a new learned clause is becomes the state's. The
    stage by which the state's clauses have joined a ledger is the later
    of the last one and a new clause's, and stays None once one of them
    never joins."""
    p = parse_problem(DERIVE_TEXT)
    order = ProblemOrder(p)
    by_text = {str(c): c for c in p.clauses.clauses()}
    pr, qr, qrr = by_text["-P | R"], by_text["-Q | R"], by_text["Q | R | R"]
    twin, other = Clause(pr.literals), Clause(qr.literals)
    r, never = Clause([Literal(Atom("R"))]), Clause([Literal(Atom("Q"))])
    right, wrong, learned = {qrr: sfac(qrr, order)}, {qrr: r}, {r: pr}
    ledger = _Ledger(order, p.clauses)
    ledger.insert(r, 3)
    edits = [
        (((), {}), ((twin,), {})),
        (((), wrong), ((), right)),
        (((), right), ((), wrong)),
        (((twin,), {}), ((twin, other), right)),
        (((twin,), {}), ((Clause(twin.literals),), {})),
        (((twin, other), {}), ((other,), {})),
        (((twin,), {}), ((twin, r), {})),
        (((r,), {}), ((r, twin), wrong)),
        (((r,), {}), ((r, never), {})),
        (((never,), {}), ((never, r), {})),
        (((), learned), ((r,), learned)),
    ]
    stages = []
    for (u0, gamma0), (u1, gamma1) in edits:
        last = _AttentionIndex(order, dataclasses.replace(initial_state(p), u=u0), gamma0)
        _parts(last, ledger)
        state = dataclasses.replace(initial_state(p), u=u1)
        index = _index_for(order, state, gamma1, last)
        assert _parts(index, ledger) == _parts(_AttentionIndex(order, state, gamma1), ledger)
        stages.append(index.joined(ledger))
        _, positions, clauses = index.ranked
        assert all(c is state.all_clauses()[i] for i, c in zip(positions, clauses))
    assert stages == [0, 0, 0, 0, 0, 0, 3, 3, None, None, 3]
