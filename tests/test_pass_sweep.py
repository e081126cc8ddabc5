"""Runs of pass rounds, walked once by the driver and recorded as one
record, and trail runs, decided as one range by the verifier, against the
round-by-round forms they replace.

The driver records a maximal run of pass rounds that need no filler
decision by one walk of the version's attention index, as one
``PassSweep`` record that its views expand on read; the reference loop
below plays every round through ``_round_no_conflict``, finds each
attention clause by a scan over every clause and records one ``SimSeq``
per round. The verifier reads the records: it checks a trail run
(boundaries outside conflict mode that share a pair index, a map and the
clauses, each trail extending the one before) in full at its first and
last boundary and decides the boundaries in between by one range test, one
step per record; a run the range test cannot show is checked in full at
every boundary. Every report and progress line must be what fresh
``check_invariants`` and ``check_progress`` calls give, a run corrupted at
the level of its records must be reported exactly as fresh calls report
it, and each mutant of the record test and of the record engine must be
caught.
"""

import __future__
import dataclasses
import inspect
import sys
import textwrap
import types
from bisect import bisect_right

import pytest

from lockstep import simulation
from lockstep.core import EMPTY_CLAUSE, Atom, Clause, Literal, parse_problem
from lockstep.harness import pigeonhole, random_problem
from lockstep.ordering import ProblemOrder
from lockstep.superposition import ModelConstruction, run_sup_mo
from lockstep.scl import TrailEntry, initial_state, is_defined, is_true
from lockstep.simulation import (
    MAX_ROUNDS,
    Annotation,
    PassSweep,
    SimRun,
    SimSeq,
    _AttentionIndex,
    _gamma_key,
    check_invariants,
    check_progress,
    initial_gamma,
    lockstep_verify,
    next_attention,
    run_scl_sup,
)
from test_attention_index import (
    TIE_TEXT,
    _fresh_failures,
    _ladder_pool,
    _problems,
    _shared_state_dropping_its_top,
    isolate_round,
    next_attention_by_scan,
    replace_annotation,
    workloads,
)


def run_round_by_round(problem, order, max_sequences=MAX_ROUNDS):
    """The trail run with every round played on its own: each attention
    clause found by a scan over every clause, each pass round recorded by
    ``_round_no_conflict``."""
    ann = Annotation(0, EMPTY_CLAUSE, initial_gamma(problem, order))
    run = SimRun(order, ann, [initial_state(problem)])
    while len(run.records) < max_sequences:
        start = len(run.apps)
        if run.state.conflict is not None:
            kind, ann, _ = simulation._round_conflict(run, ann)
            attention = None
        else:
            attention = next_attention_by_scan(order, run.state, ann)
            if attention is None:
                run.outcome = simulation.SATISFIABLE
                break
            kind, ann = simulation._round_no_conflict(run, ann, attention)
        run.records.append(SimSeq(kind, attention, ann, (start, len(run.apps))))
        if kind == "refute":
            run.outcome = simulation.UNSATISFIABLE
            break
    return run


def _campaign_pool(seed):
    """The problems of the campaign workload at ``seed``."""
    base = workloads.CAMPAIGN_BASE + workloads.CAMPAIGN_SIZE * seed
    return [random_problem(dataclasses.replace(workloads.CAMPAIGN_PARAMS, seed=base + i))
            for i in range(workloads.CAMPAIGN_SIZE)]


def _hard_problems():
    """The golden files, the generated problems, 15:1, PHP(5,4) and the
    ladder pool at seed 1."""
    return _problems() + [pigeonhole(4, "kbo")] + _ladder_pool(1)


def _attention_positions(run):
    """Where each round's attention clause sits, by identity, among the
    clauses of the state the round started in."""
    return [None if seq.attention is None else
            next(i for i, c in enumerate(state.all_clauses()) if c is seq.attention)
            for seq, state in zip(run.seqs, run.boundary_states)]


def _reads_as_its_items(view):
    """A view reads the same through iteration, indexes from either end and
    slices, its length counts its items, and it equals their list."""
    items = list(view)
    assert len(view) == len(items)
    assert view == items and items == view
    assert [view[i] for i in range(len(items))] == items == view[:]
    assert [view[i - len(items)] for i in range(len(items))] == items
    assert view[1::3] == items[1::3]
    with pytest.raises(IndexError):
        view[len(items)]


def _same_run(got, want):
    """``got``, the driver's run, expands to the rounds, annotations and
    boundary states of ``want``, the reference loop's, one record per round;
    its records are those rounds with each run of sweep rounds folded into
    one ``PassSweep``."""
    assert got.outcome == want.outcome
    assert got.seqs == want.seqs
    assert _attention_positions(got) == _attention_positions(want)
    assert got.annotations == want.annotations
    assert got.apps == want.apps
    assert got.boundary_states == want.boundary_states
    for view in (got.seqs, got.annotations, got.boundary_states):
        _reads_as_its_items(view)
    assert all(record.rounds for record in got.records)
    assert repr(got) == repr(want)


def _sweeps(monkeypatch):
    """Lists, from now on, how many rounds each sweep records."""
    swept = []
    real = simulation._sweep_passes

    def counted(*args):
        handed_over = real(*args)
        swept.append(handed_over[2])
        return handed_over

    monkeypatch.setattr(simulation, "_sweep_passes", counted)
    return swept


def test_the_sweep_records_what_round_by_round_play_records(monkeypatch):
    """On the golden files, the generated problems, 15:1, 28:1 and the
    ladder pools at seeds 0 and 1, the driver's views expand to the rounds,
    annotations, rule applications and boundary states the reference loop
    records. On the ladder pool at seed 0, 3,830 of its 5,098 rounds are
    empty pass rounds, in 813 maximal runs: one sweep follows the first
    round of each run and records that round and the other 3,017 of the
    run as one ``PassSweep``, 813 records for 3,830 rounds. The verifier's
    tests below compare every other trail run they verify with the
    reference loop's as well."""
    swept = _sweeps(monkeypatch)
    problems = _problems() + [parse_problem(workloads.ladder_text(28, 1)[0])] + _ladder_pool(1)
    for p in problems:
        order = ProblemOrder(p)
        _same_run(run_scl_sup(p, order), run_round_by_round(p, order))
    swept.clear()
    rounds = records = 0
    for p in _ladder_pool(0):
        order = ProblemOrder(p)
        run = run_scl_sup(p, order)
        _same_run(run, run_round_by_round(p, order))
        rounds += len(run.seqs)
        records += sum(isinstance(record, PassSweep) for record in run.records)
    assert (len(swept), sum(swept), records, rounds) == (813, 3830, 813, 5098)


def test_a_round_cap_inside_a_pass_run_stops_the_sweep():
    """Capped inside a long pass run, and at each round of one, the driver
    stops after exactly the capped round, as the reference loop does."""
    [p] = _ladder_pool(0)[:1]
    order = ProblemOrder(p)
    full = run_scl_sup(p, order)
    kinds = [seq.kind == "pass" and seq.app_range[0] == seq.app_range[1] for seq in full.seqs]
    start = next(i for i in range(len(kinds) - 4) if all(kinds[i:i + 5]))
    for cap in range(start, start + 6):
        run = run_scl_sup(p, order, max_sequences=cap)
        assert len(run.seqs) == cap and run.outcome == "cap_exceeded"
        _same_run(run, run_round_by_round(p, order, max_sequences=cap))
        assert run.seqs == full.seqs[:cap]


def test_the_sweep_passes_equal_keys_once_as_the_walk_does():
    """A learned twin of an input clause ties with it on the key, which the
    driver never produces, since the trail rules learn no clause twice. On
    a trail that satisfies every clause and needs no filler decision, the
    sweep after the pass round on the smallest clause passes the input
    copy and goes on past the twin, the rounds ``next_attention`` and
    ``_round_no_conflict`` play, and records them with the round just
    played as one record."""
    p = parse_problem(TIE_TEXT)
    order = ProblemOrder(p)
    pr, pq, qr = p.clauses.clauses()          # -P | R, P | Q, -Q | R; ascending: pq, pr, qr
    trail = tuple(TrailEntry(lit, level, None) for level, lit in enumerate(
        (Literal(Atom("P")), Literal(Atom("Q"), False), Literal(Atom("R"))), 1))
    state = dataclasses.replace(initial_state(p), u=(Clause(pr.literals),), trail=trail)
    ann = Annotation(0, pq, {})
    run = SimRun(order, ann, [state])
    last, stop, passed = simulation._sweep_passes(run, ann, _AttentionIndex(order, state, {}),
                                                  MAX_ROUNDS)
    [record] = run.records
    assert record.aids == (pq, pr, qr) and record.aids[1] is pr and passed == 3
    assert stop is None and last.aid is qr

    reference = SimRun(order, Annotation(0, EMPTY_CLAUSE, {}), [state])
    reference.records.append(SimSeq("pass", pq, ann, (0, 0)))
    while (d := next_attention(order, state, ann)) is not None:
        kind, ann = simulation._round_no_conflict(reference, ann, d)
        reference.records.append(SimSeq(kind, d, ann, (0, 0)))
    assert reference.seqs == run.seqs


def _agrees_with_fresh_calls(result):
    """Checks a sound verifier result against fresh calls: at every
    boundary its reports are those of a ``check_invariants`` call over an
    index of the boundary's own, derived along the run
    (``test_attention_index.py`` checks derived indexes against fresh
    ones); and its progress lines are those of a ``check_progress`` call
    per round. Returns how many boundaries it compared."""
    order, sim, snapshots = result.order, result.sim, result.sup.snapshots
    anns, index = sim.annotations, None
    assert len(result.boundaries) == len(anns)
    for ann, state, boundary in zip(anns, sim.boundary_states, result.boundaries):
        snapshot = snapshots[ann.index]
        index = simulation._index_for(order, state, ann.gamma, index)
        assert boundary.reports == check_invariants(order, state, ann, snapshot, index)
    assert result.progress_failures == [
        f"round {i} ({seq.kind}): {msg}" for i, seq in enumerate(sim.seqs)
        if (msg := check_progress(order, anns[i], anns[i + 1])) is not None]
    return len(anns)


def _ranges(monkeypatch):
    """Counts, from now on, the trail runs the range test is tried on,
    those it passes and the boundaries in between of those, which it
    decides without a check."""
    counts = {"tried": 0, "passed": 0, "covered": 0}
    real = simulation._passes_trail_run

    def counted(order, index, snapshot, first, last, run):
        shown = real(order, index, snapshot, first, last, run)
        counts["tried"] += 1
        counts["passed"] += shown
        counts["covered"] += shown and sum(record.rounds for record, _ in run) - 2
        return shown

    monkeypatch.setattr(simulation, "_passes_trail_run", counted)
    return counts


def _checks(monkeypatch):
    """Lists, from now on, the arguments of each check_invariants call the
    verifier makes."""
    checked = []
    real = simulation.check_invariants

    def check(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(simulation, "check_invariants", check)
    return checked


def _replayed(monkeypatch):
    """From now on, each trail run the verifier makes is compared with the
    reference loop's run of the same problem, so one pass over the problems
    checks both the driver and the verifier."""
    real = simulation.run_scl_sup

    def replayed(problem, order=None, max_sequences=MAX_ROUNDS):
        run = real(problem, order, max_sequences)
        _same_run(run, run_round_by_round(problem, order or ProblemOrder(problem),
                                          max_sequences))
        return run

    monkeypatch.setattr(simulation, "run_scl_sup", replayed)


def _verify_against_fresh_calls(monkeypatch, problems):
    """Verifies each problem, replayed, against fresh calls; returns how
    many boundaries were compared and the range counts."""
    _replayed(monkeypatch)
    ranges, compared = _ranges(monkeypatch), 0
    for p in problems:
        result = lockstep_verify(p)
        assert result.ok
        compared += _agrees_with_fresh_calls(result)
    return compared, ranges


def test_the_verifier_reports_what_fresh_calls_report(monkeypatch):
    """On the golden files, the generated problems, 15:1, PHP(5,4) and the
    ladder pool at seeds 0 and 1, the driver records what the reference
    loop records; at every boundary the verifier's reports, most of them
    decided by the range test, equal those of a call with an index of its
    own, and its progress lines those of a call per round."""
    compared, ranges = _verify_against_fresh_calls(monkeypatch,
                                                   _hard_problems() + _ladder_pool(0))
    assert compared > 10000 and ranges["covered"] > 8000


def test_the_verifier_reports_what_fresh_calls_report_on_the_campaign_pools(monkeypatch):
    """The same on the campaign pools at seeds 0 and 1."""
    compared, ranges = _verify_against_fresh_calls(monkeypatch,
                                                   _campaign_pool(0) + _campaign_pool(1))
    assert compared > 10000 and ranges["covered"] > 8000


def test_the_range_test_decides_the_boundaries_after_empty_pass_rounds(monkeypatch):
    """On the ladder pool at seed 0 the verifier checks 5,131 boundaries.
    The 3,830 that follow an empty pass round, and most of those that follow
    a decide or a pass round with filler decisions, continue the trail run
    of the boundary before. The range test is tried on each of the 203 runs
    of more than one boundary and passes each, deciding the 4,352 boundaries
    in between. ``check_invariants`` runs at the 576 boundaries that start a
    run and at the last boundary of each of the 203: 779 calls in all."""
    ranges, checked = _ranges(monkeypatch), _checks(monkeypatch)
    boundaries = 0
    for p in _ladder_pool(0):
        result = lockstep_verify(p)
        assert result.ok
        boundaries += len(result.boundaries)
    assert (boundaries, len(checked), ranges) == (
        5131, 779, {"tried": 203, "passed": 203, "covered": 4352})


def _in_pass_run(edit):
    """A wrapper of run_scl_sup that replaces the annotation of the first
    round inside a pass run (a round whose neighbours are empty pass rounds
    too, all sharing one state) that ``edit(run, r, problem)`` returns one
    for, and leaves a run without such a round alone. The round stays in
    its sweep record where only its attention clause changes."""
    def wrapper(real, problem, *args, **kwargs):
        run = real(problem, *args, **kwargs)
        seqs = run.seqs
        for r in range(1, len(seqs) - 1):
            if all(_empty_pass(s) for s in seqs[r - 1:r + 2]):
                ann = edit(run, r, problem)
                if ann is not None:
                    replace_annotation(run, r, ann)
                    return run
        return run
    return wrapper


def _onto_a_false_clause(run, r, problem):
    """Attention moved on to the next clause of the order whose image the
    trail leaves unsatisfied."""
    seq = run.seqs[r]
    ann, state = seq.annotation, run.states[seq.app_range[1]]
    keys, _, clauses = _AttentionIndex(run.order, state, ann.gamma).ranked
    floor = _gamma_key(run.order, ann.aid, ann.gamma)
    target = next((c for k, c in zip(keys, clauses)
                   if k > floor and not is_true(state, ann.gamma.get(c, c))), None)
    return None if target is None else dataclasses.replace(ann, aid=target)


def _outside_the_set(run, r, problem):
    """Attention moved on to a clause outside both clause sets: the
    attention clause with one more copy of its smallest literal, true
    wherever it is."""
    ann = run.seqs[r].annotation
    if ann.aid in ann.gamma:
        return None
    smallest = min(ann.aid.distinct, key=run.order.literal_rank)
    return dataclasses.replace(ann, aid=Clause(ann.aid.literals + (smallest,)))


def _map_entry_dropped(run, r, problem):
    ann = run.seqs[r].annotation
    if not ann.gamma:
        return None
    dropped = dict(ann.gamma)
    del dropped[next(iter(dropped))]
    return dataclasses.replace(ann, gamma=dropped)


def _breaking_only(name):
    """An edit that moves attention onto the first clause of the paired set
    or of the state at which a call that carries nothing from the boundary
    before fails invariant ``name`` and no other."""
    def edit(run, r, problem):
        seq = run.seqs[r]
        ann, state, order = seq.annotation, run.states[seq.app_range[1]], run.order
        snapshot = run_sup_mo(problem, order).snapshots[ann.index]
        index = _AttentionIndex(order, state, ann.gamma)
        for c in snapshot.clauses + state.all_clauses():
            moved = dataclasses.replace(ann, aid=c)
            reports = check_invariants(order, state, moved, snapshot, index)
            if [r.name for r in reports if not r.ok] == [name]:
                return moved
        return None
    return edit


def _shared_state(edit):
    """A wrapper of run_scl_sup that replaces the state the most boundaries
    share by ``edit(state)``."""
    def wrapper(real, *args, **kwargs):
        run = real(*args, **kwargs)
        ends = [seq.app_range[1] for seq in run.seqs]
        k = max(ends, key=ends.count)
        run.states[k] = edit(run.states[k])
        return run
    return wrapper


def _lowest_negative_dropped(state):
    trail = state.trail
    i = next((i for i, e in enumerate(trail) if not e.literal.positive), None)
    return state if i is None else dataclasses.replace(state, trail=trail[:i] + trail[i + 1:])


def _lowest_positive_justified_by_itself(state):
    """The lowest positive trail entry made a propagation whose reason is
    its own unit clause, which is not its producer."""
    trail = state.trail
    i = next((i for i, e in enumerate(trail) if e.literal.positive), None)
    if i is None:
        return state
    e = trail[i]
    entry = TrailEntry(e.literal, e.level, Clause([e.literal]))
    return dataclasses.replace(state, trail=trail[:i] + (entry,) + trail[i + 1:])


def _empty_pass(seq):
    return seq.kind == "pass" and seq.app_range[0] == seq.app_range[1]


def _repeated(run, r, problem):
    """Attention kept on the clause of the boundary before."""
    seqs = run.seqs
    return dataclasses.replace(seqs[r].annotation, aid=seqs[r - 1].annotation.aid)


def _index_moved_back(run, r, problem):
    """The pair index one step back, where there is one."""
    ann = run.seqs[r].annotation
    return dataclasses.replace(ann, index=ann.index - 1) if ann.index else None


def _at_run_end(edit):
    """A wrapper of run_scl_sup that replaces the annotation of the last
    boundary of the first pass run (an empty pass round after another one,
    followed by none) that ``edit(run, r, problem)`` returns one for."""
    def wrapper(real, problem, *args, **kwargs):
        run = real(problem, *args, **kwargs)
        seqs = run.seqs
        for r in range(1, len(seqs)):
            if (_empty_pass(seqs[r - 1]) and _empty_pass(seqs[r])
                    and (r + 1 == len(seqs) or not _empty_pass(seqs[r + 1]))):
                ann = edit(run, r, problem)
                if ann is not None:
                    replace_annotation(run, r, ann)
                    return run
        return run
    return wrapper


def _run_start_moved_down(real, problem, *args, **kwargs):
    """The trail run with attention at the first boundary of a version
    (after a round that changes the state, before two empty pass rounds)
    and at the boundary after it moved down onto the two clauses ranked
    just below the first's attention clause, in order: at the first
    version where a fresh call then fails at the second of them."""
    run = real(problem, *args, **kwargs)
    seqs, order = run.seqs, run.order
    sup = run_sup_mo(problem, order)
    for r in range(len(seqs) - 2):
        if _empty_pass(seqs[r]) or not (_empty_pass(seqs[r + 1]) and _empty_pass(seqs[r + 2])):
            continue
        ann, state = seqs[r].annotation, run.states[seqs[r].app_range[1]]
        _, _, clauses = _AttentionIndex(order, state, ann.gamma).ranked
        at = next(i for i, c in enumerate(clauses) if c is ann.aid)
        if at < 2:
            continue
        low, high = (dataclasses.replace(ann, aid=c) for c in clauses[at - 2:at])
        snapshot = sup.snapshots[ann.index]
        if all(report.ok for report in check_invariants(order, state, high, snapshot)):
            continue
        replace_annotation(run, r, low)
        replace_annotation(run, r + 1, high)
        return run
    return run


def _conflict_run(real, problem, *args, **kwargs):
    """The trail run with a sweep of two empty pass rounds inserted after
    the first round that ends in a live conflict with two clauses ranked
    above its attention clause: the same state, pair index and map, with
    attention moved on to those two clauses, in order."""
    run = real(problem, *args, **kwargs)
    for k, seq in enumerate(run.records):
        ann, end = seq.last, seq.end
        state = run.states[end]
        if state.conflict is None or state.conflict.is_empty:
            continue
        keys, _, clauses = _AttentionIndex(run.order, state, ann.gamma).ranked
        at = bisect_right(keys, _gamma_key(run.order, ann.aid, ann.gamma))
        if at + 2 <= len(clauses):
            run.records.insert(k + 1, PassSweep(tuple(clauses[at:at + 2]), ann.index,
                                                ann.gamma, end))
            return run
    return run


def _trail_runs(run):
    """The trail runs of ``run`` that have a boundary in between, as the
    positions of their first boundary and past their last."""
    anns, states = run.annotations, run.boundary_states
    cuts = [b for b in range(1, len(anns))
            if not simulation._in_trail_run(anns[b - 1], states[b - 1], anns[b], states[b])]
    return [(first, stop) for first, stop in zip([0] + cuts, cuts + [len(anns)])
            if stop - first > 2]


@dataclasses.dataclass(repr=False)
class _Replaced(SimRun):
    """A trail run whose records in ``replaced``, by identity, end in the
    states it gives them, and boundary 0 in the one it gives None; the rule
    log keeps its own."""

    replaced: dict = dataclasses.field(default_factory=dict)

    def end_states(self):
        keys = [None] + [id(record) for record in self.records]
        return [self.replaced.get(key, state) for key, state in zip(keys, super().end_states())]


def _replacing(run, replaced):
    """``run`` with the state of each boundary ``b`` in ``replaced``
    replaced by ``replaced[b]``, at the level of its records: a record whose
    boundaries all take one state object ends in it, and any other
    replaced boundary becomes a record of its own first."""
    keyed, b = {}, 1
    if 0 in replaced:
        keyed[None] = replaced[0]
    for record in list(run.records):
        mine = [replaced.get(i) for i in range(b, b + record.rounds)]
        if mine[0] is not None and all(state is mine[0] for state in mine):
            keyed[id(record)] = mine[0]
        else:
            for i, state in enumerate(mine, b):
                if state is not None:
                    keyed[id(isolate_round(run, i - 1))] = state
        b += record.rounds
    return _Replaced(**{f.name: getattr(run, f.name) for f in dataclasses.fields(run)},
                     replaced=keyed)


def _produced_above(order, construction, ann):
    """Whether the attention image's maximal literal is positive and its
    atom is produced, but by a member above the image: neither below it nor
    by the image itself."""
    image = ann.gamma.get(ann.aid, ann.aid)
    top = order.max_literal(image)
    return (top.positive and construction.producer_of(top.atom) is not None
            and top.atom not in construction.prefix_below(image)
            and construction.delta_of(image) != top.atom)


def _decision_one_round_early(real, problem, *args, **kwargs):
    """The trail run with a positive decision pushed one round early: in
    the first trail run where exactly one boundary in between has an image
    whose positive maximal atom is produced above it, and the round after
    that boundary decides the literal, the boundary takes the next one's
    trail. The trail is one entry longer than the model for its image."""
    run = real(problem, *args, **kwargs)
    anns, states, order = run.annotations, run.boundary_states, run.order
    sup = run_sup_mo(problem, order)
    for first, stop in _trail_runs(run):
        construction = sup.snapshots[anns[first].index].construction
        late = [b for b in range(first + 1, stop - 1)
                if _produced_above(order, construction, anns[b])]
        if len(late) == 1 and run.seqs[late[0]].kind == "decide":
            b = late[0]
            return _replacing(run, {b: dataclasses.replace(states[b], trail=states[b + 1].trail)})
    return run


def _one_entry_ahead(real, *args, **kwargs):
    """The trail run with each boundary in between of the first trail run
    whose trails in between are all shorter than its last holding one more
    entry of the last trail."""
    run = real(*args, **kwargs)
    states = run.boundary_states
    for first, stop in _trail_runs(run):
        last = states[stop - 1].trail
        if all(len(states[b].trail) < len(last) for b in range(first + 1, stop - 1)):
            return _replacing(run, {
                b: dataclasses.replace(states[b], trail=last[:len(states[b].trail) + 1])
                for b in range(first + 1, stop - 1)})
    return run


def _in_growing_run(edit):
    """A wrapper of run_scl_sup that replaces the annotation of the first
    boundary in between of a trail run, with a shorter trail than the run's
    last, that ``edit(run, r, problem)`` returns one for, ``r`` the round
    that ends there."""
    def wrapper(real, problem, *args, **kwargs):
        run = real(problem, *args, **kwargs)
        states = run.boundary_states
        for first, stop in _trail_runs(run):
            for b in range(first + 1, stop - 1):
                if len(states[b].trail) < len(states[stop - 1].trail):
                    ann = edit(run, b - 1, problem)
                    if ann is not None:
                        replace_annotation(run, b - 1, ann)
                        return run
        return run
    return wrapper


def _unit_true_only_at_the_end(at_first, member=False):
    """A wrapper of run_scl_sup that adds one input clause, outside the
    snapshot, to the boundaries of the first suitable trail run: the unit
    clause of the positive maximal literal of the image at a boundary in
    between, undefined there and true at the run's last boundary. It ranks
    above the run's first attention clause, so invariant (xii) fails only
    in between, and invariant (iii) fails wherever the clause is. Where
    ``at_first``, only the boundaries from that one on hold the clause, so
    they form a run of their own that starts there, and (xii) fails at its
    first boundary and at the next one, where the literal is still
    undefined. Where ``member``, the wrapper's ``sup`` makes the saturation
    side count the clause a member (``_phantom_member``), and (iii) holds."""
    def wrapper(real, *args, **kwargs):
        _PHANTOM["unit"] = None
        run = real(*args, **kwargs)
        anns, states, order = run.annotations, run.boundary_states, run.order
        for first, stop in _trail_runs(run):
            floor = _gamma_key(order, anns[first].aid, anns[first].gamma)
            for b in range(first + 1, stop - 1 - at_first):
                image = anns[b].gamma.get(anns[b].aid, anns[b].aid)
                top = order.max_literal(image)
                unit = Clause([top])
                if (top.positive and not is_defined(states[b + at_first], top.atom)
                        and is_true(states[stop - 1], unit)
                        and (at_first or (order.clause_key(unit),) * 2 > floor)
                        and unit not in states[b].n + states[b].u):
                    _PHANTOM["unit"] = unit if member else None
                    n, own = states[first].n + (unit,), {}
                    return _replacing(run, {
                        k: own.setdefault(id(states[k]), dataclasses.replace(states[k], n=n))
                        for k in range(b if at_first else first, stop)})
        return run
    if member:
        wrapper.sup = _phantom_member
    return wrapper


_PHANTOM = {"unit": None}          # the clause a wrapper makes a phantom member


def _phantom_member(real, *args, **kwargs):
    """The saturation run with the clause a trail-run wrapper chose counted
    a member of every snapshot, although no construction ever walks it."""
    run = real(*args, **kwargs)
    if _PHANTOM["unit"] is not None:
        run.record_snapshots[0].construction._ledger.born[_PHANTOM["unit"]] = 0
    return run


def _fillers_folded_into_a_sweep(real, *args, **kwargs):
    """The trail run with the first pass round that makes filler decisions
    right after a sweep, on an image that the sweep's trail already makes
    true, with a round of the same trail run after it, taken into that
    sweep: its boundary keeps the sweep's trail, without the fillers, whose
    model is longer than the trail at the sweep's first clause."""
    run = real(*args, **kwargs)
    records = run.records
    for k in range(len(records) - 2):
        sweep, seq, after = records[k:k + 3]
        if not (isinstance(sweep, PassSweep) and _filled_pass(seq)):
            continue
        ann, state = seq.annotation, run.states[sweep.end]
        if (ann.index == sweep.index and ann.gamma is sweep.gamma
                and is_true(state, ann.gamma.get(ann.aid, ann.aid))
                and simulation._in_trail_run(ann, run.states[seq.end],
                                             after.first, run.states[after.end])):
            records[k:k + 2] = [dataclasses.replace(sweep, aids=sweep.aids + (ann.aid,))]
            return run
    return run


def _filled_pass(record):
    return (isinstance(record, SimSeq) and record.kind == "pass"
            and record.app_range[0] < record.app_range[1])


def _unit_in_a_sweep(real, *args, **kwargs):
    """The trail run with one more input clause at every boundary of the
    first suitable trail run, taken in as an attention clause by a sweep
    inside it: the unit clause of the positive maximal literal of a sweep
    clause's image, undefined on the sweep's trail and true at the run's
    last boundary, placed among the sweep's clauses by its key. Paired with
    ``_phantom_member`` as its ``sup``, the saturation side counts the unit
    a member, so (iii) holds everywhere and the unit's own boundary fails
    (xii) inside the sweep, where the length test passes."""
    _PHANTOM["unit"] = None
    run = real(*args, **kwargs)
    order, b = run.order, 1
    for k, record in enumerate(run.records):
        b += record.rounds
        if not isinstance(record, PassSweep):
            continue
        first, stop = next(((first, stop) for first, stop in _trail_runs(run)
                            if first < b - record.rounds and b < stop), (None, None))
        if first is None:
            continue
        state, last = run.states[record.end], run.boundary_states[stop - 1]
        gamma = record.gamma
        for j in range(1, record.rounds):
            low, d = record.aids[j - 1], record.aids[j]
            top = order.max_literal(gamma.get(d, d))
            unit = Clause([top])
            if (top.positive and not is_defined(state, top.atom) and is_true(last, unit)
                    and unit not in state.n + state.u
                    and _gamma_key(order, low, gamma) < (order.clause_key(unit),) * 2
                    < _gamma_key(order, d, gamma)):
                run.records[k] = dataclasses.replace(
                    record, aids=record.aids[:j] + (unit,) + record.aids[j:])
                _PHANTOM["unit"] = unit
                states = run.boundary_states
                n, own = states[first].n + (unit,), {}
                return _replacing(run, {
                    i: own.setdefault(id(states[i]), dataclasses.replace(states[i], n=n))
                    for i in range(first, stop + 1)})
    return run


_unit_in_a_sweep.sup = _phantom_member


def _own_state_in_between(edit, full=False):
    """A wrapper of run_scl_sup that gives the first boundary in between of
    a trail run, one whose trail is as long as the run's last where
    ``full``, a state of its own: ``edit(state)``, where that is not None."""
    def wrapper(real, *args, **kwargs):
        run = real(*args, **kwargs)
        states = run.boundary_states
        for first, stop in _trail_runs(run):
            for b in range(first + 1, stop - 1):
                if full and len(states[b].trail) < len(states[stop - 1].trail):
                    continue
                state = edit(states[b])
                if state is not None:
                    return _replacing(run, {b: state})
        return run
    return wrapper


def _top_two_swapped(state):
    trail = state.trail
    if len(trail) < 2:
        return None
    return dataclasses.replace(state, trail=trail[:-2] + (trail[-1], trail[-2]))


def _negative_made_positive(state):
    """The state with its lowest negative trail entry decided positive."""
    trail = state.trail
    i = next((i for i, e in enumerate(trail) if not e.literal.positive), None)
    if i is None:
        return None
    entry = TrailEntry(trail[i].literal.complement(), trail[i].level, None)
    return dataclasses.replace(state, trail=trail[:i] + (entry,) + trail[i + 1:])


def _in_conflict_on_its_first_clause(state):
    return dataclasses.replace(state, conflict=state.n[0])


def _reported(monkeypatch, wrapper):
    """Over the first six ladder problems at seed 0 and the first sixty
    generated ones, with the trail runs rewritten by ``wrapper``: each
    problem's verifier failures and those of fresh calls at every boundary
    and round. A wrapper with a ``sup`` attribute rewrites the saturation
    runs by it as well."""
    real = simulation.run_scl_sup
    monkeypatch.setattr(simulation, "run_scl_sup", lambda *a, **k: wrapper(real, *a, **k))
    if hasattr(wrapper, "sup"):
        real_sup = simulation.run_sup_mo
        monkeypatch.setattr(simulation, "run_sup_mo",
                            lambda *a, **k: wrapper.sup(real_sup, *a, **k))
    for problem in _ladder_pool(0)[:6] + _problems()[4:64]:
        result = simulation.lockstep_verify(problem)
        yield result.failures(), _fresh_failures(result)


# each row: the wrapper, the count of lines reported, the first of them and
# the count of the verifier's check_invariants calls
RANGE_ROWS = {
    "attention-repeated": (
        _in_pass_run(_repeated), 13,
        "progress: round 8 (pass): attention clause did not advance", 482),
    "pair-index-moved-back": (
        _in_pass_run(_index_moved_back), 41,
        "boundary 9 (pair index 1): factored-map-shape: image p2 | p4 | p9 is not in the "
        "paired set", 300),
    "run-end-on-false-clause": (
        _at_run_end(_onto_a_false_clause), 62,
        "boundary 10 (pair index 2): negatives-cover-gap: trail makes "
        "['p2', 'p3', 'p4', 'p8'] false, expected ['p2', 'p3', 'p4', 'p5', 'p6', 'p8']", 528),
    "run-start-moved-down": (
        _run_start_moved_down, 81,
        "boundary 7 (pair index 2): positives-match-production: trail makes ['p9'] true, "
        "construction expects []", 568),
    "run-in-conflict-mode": (
        _conflict_run, 65,
        "boundary 7 (pair index 0): conflict-is-minimal-false: top justification "
        "p4 | p6 | p9 is not the attention image -p2 | -p6 | p3; top literal p6 is not "
        "the image's positive maximum", 315),
    "decision-one-round-early": (
        _decision_one_round_early, 4,
        "boundary 2 (pair index 0): positives-match-production: trail makes ['p0'] true, "
        "construction expects []", 339),
    "trails-one-entry-ahead": (
        _one_entry_ahead, 70,
        "boundary 1 (pair index 0): positives-match-production: trail makes ['p0'] true, "
        "construction expects []", 349),
    "attention-outside-the-snapshot": (
        _in_growing_run(_outside_the_set), 63,
        "boundary 1 (pair index 0): membership: absent from the paired clause set: "
        "['-p2 | -p3 | -p3 | p8']", 578),
    "clause-failing-xii-from-the-first": (
        _unit_true_only_at_the_end(True), 75,
        "boundary 35 (pair index 2): membership: absent from the paired clause set: ['p7']", 339),
    "clause-failing-only-xii-in-between": (
        _unit_true_only_at_the_end(False), 227,
        "boundary 7 (pair index 2): membership: absent from the paired clause set: ['p7']", 465),
    "negative-filler-made-positive": (
        _own_state_in_between(_negative_made_positive), 260,
        "boundary 1 (pair index 0): positives-match-production: trail makes ['p3'] true, "
        "construction expects []", 387),
    "trail-not-a-prefix-of-the-next": (
        _own_state_in_between(_top_two_swapped, full=True), 38,
        "boundary 4 (pair index 0): trail-ascends: trail atom ranks [0, 1, 2, 4, 3] are not "
        "strictly ascending", 370),
    "member-failing-xii-from-the-first": (
        _unit_true_only_at_the_end(True, member=True), 15,
        "boundary 35 (pair index 2): prefix-satisfied: not satisfied yet: ['p7']", 339),
    "attention-repeated-at-a-run-end": (
        _at_run_end(_repeated), 32,
        "progress: round 9 (pass): attention clause did not advance", 596),
    "fillers-folded-into-a-sweep": (
        _fillers_folded_into_a_sweep, 20,
        "boundary 11 (pair index 2): negatives-cover-gap: trail makes "
        "['p2', 'p3', 'p4', 'p8'] false, expected ['p2', 'p3', 'p4', 'p6', 'p8']", 526),
    "member-unsatisfied-in-a-sweep": (
        _unit_in_a_sweep, 24,
        "boundary 35 (pair index 2): positives-match-production: trail makes ['p9'] true, "
        "construction expects ['p7', 'p9']", 447),
    "conflict-state-in-between": (
        _own_state_in_between(_in_conflict_on_its_first_clause), 120,
        "boundary 1 (pair index 0): conflict-top-propagation: conflict without a top "
        "propagation", 387),
}


@pytest.mark.parametrize("row", list(RANGE_ROWS))
def test_a_corrupted_pass_run_end_fails_as_fresh_calls_fail(monkeypatch, row):
    """At either end of a pass run, or inside one: attention kept on the
    clause of the boundary before, or the pair index one step back; at the
    run's last boundary, attention moved on to an unsatisfied clause, or
    kept on the clause before; at a version's first boundary and the one
    after it, moved down below the first's attention clause; or a pass run
    on a state in conflict mode, with attention moved on past the clause
    whose image justifies the top. Inside a trail run: a positive decision
    pushed one round early; each trail in between one entry ahead;
    attention moved onto a clause outside the snapshot; one more input
    clause, outside the snapshot, that (xii) fails on only in between or
    from a run's first boundary on, and that (iii) now fails on wherever it
    is; the same clause counted a member by the saturation side, from a
    run's first boundary on or as an attention clause of a sweep; a pass
    round with filler decisions taken into the sweep before it; at one
    boundary, its lowest negative filler decided positive, its top two
    trail entries swapped, or the state put in conflict mode. Each
    corruption is made on the run's records. The verifier reports exactly
    what fresh calls at every boundary and round report: as many lines over
    the problems, the first of them pinned. The count of its
    check_invariants calls is pinned too: a run the range test declines
    keeps the reports of its last boundary's check instead of checking it
    again."""
    wrapper, count, first, calls = RANGE_ROWS[row]
    reported, checked = [], _checks(monkeypatch)
    for failures, fresh in _reported(monkeypatch, wrapper):
        assert failures == fresh
        reported += failures
    assert (len(reported), reported[:1], len(checked)) == (count, [first], calls)


# P | P and P | P | P both map to their factored image P, an input clause
TWINS_TEXT = """\
order: listed
atoms: P < Q
clause: P
clause: P | P
clause: P | P | P
clause: -P | Q
clause: -Q
"""


def test_a_pass_run_in_conflict_mode_can_pass(monkeypatch):
    """P is forced from P and conflicts with the learned -P; attention then
    moves on to P | P and P | P | P on that state. Their image is P, the
    top justification, so (xi) holds at every boundary, and neither the
    verifier nor fresh calls report anything. A trail run holds no state in
    conflict mode, so the range test is tried on no run that holds these
    boundaries, and each of them is checked in full."""
    real = simulation.run_scl_sup
    monkeypatch.setattr(simulation, "run_scl_sup",
                        lambda *a, **k: _conflict_run(real, *a, **k))
    tried = []
    real_run = simulation._passes_trail_run

    def watched(order, index, snapshot, first, last, run):
        tried.append([state.conflict for _, state in run])
        return real_run(order, index, snapshot, first, last, run)

    monkeypatch.setattr(simulation, "_passes_trail_run", watched)
    checked = _checks(monkeypatch)
    result = lockstep_verify(parse_problem(TWINS_TEXT))
    assert result.ok and result.failures() == _fresh_failures(result) == []
    assert tried and all(conflict is None for conflicts in tried for conflict in conflicts)
    assert [str(ann.aid) for _, state, ann, *_ in checked
            if str(state.conflict) == "-P"] == ["P", "P | P", "P | P | P"]


@pytest.mark.parametrize("wrapper,line", [
    (_in_pass_run(_onto_a_false_clause), "prefix-satisfied: not satisfied yet"),
    (_in_pass_run(_outside_the_set), "membership: absent from the paired clause set"),
    (_in_pass_run(_map_entry_dropped),
     "factored-image map changed while the pair index stood still"),
    (_in_pass_run(_breaking_only("positives-match-production")),
     "positives-match-production"),
    (_in_pass_run(_breaking_only("negatives-cover-gap")), "negatives-cover-gap"),
    (_in_pass_run(_breaking_only("prefix-satisfied")), "prefix-satisfied"),
    (_shared_state_dropping_its_top, "negatives-cover-gap"),
    (_shared_state(_lowest_negative_dropped), "negatives-cover-gap"),
    (_shared_state(_lowest_positive_justified_by_itself), "producer-preimages: justification"),
], ids=["attention-on-false-clause", "attention-outside-the-set", "map-entry-dropped",
        "attention-breaking-only-v", "attention-breaking-only-vi",
        "attention-breaking-only-xii", "shared-top-dropped", "shared-lowest-negative-dropped",
        "shared-positive-justified-by-itself"])
def test_a_corrupted_pass_run_fails_as_fresh_calls_fail(monkeypatch, wrapper, line):
    """Over the first six ladder problems at seed 0 and the first sixty
    generated ones: at a boundary inside a pass run, attention moved on to
    an unsatisfied clause, to a clause outside the set, or to one at which
    exactly one of (v), (vi) and (xii) fails, or a map entry dropped; or
    the state the most boundaries share corrupted: its top or its lowest
    negative trail entry dropped, or its lowest positive entry justified
    by its own unit clause. The verifier reports exactly what fresh calls
    at every boundary report, with the expected line for some problem."""
    real = simulation.run_scl_sup
    monkeypatch.setattr(simulation, "run_scl_sup", lambda *a, **k: wrapper(real, *a, **k))
    reported = []
    for problem in _ladder_pool(0)[:6] + _problems()[4:64]:
        result = lockstep_verify(problem)
        failures = result.failures()
        assert failures == _fresh_failures(result)
        reported += failures
    assert any(line in f for f in reported)


def _mutated(owner, name, old, new):
    """``owner.name`` with its one occurrence of ``old`` replaced by
    ``new``, reading its module's names as they stand when it runs; a
    property's getter is mutated and made a property again."""
    real = getattr(owner, name)
    getter = real.fget if isinstance(real, property) else real
    module = sys.modules[getter.__module__]
    source = textwrap.dedent(inspect.getsource(getter))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    fn = namespace[name]
    fn = fn.fget if isinstance(fn, property) else fn
    fn = types.FunctionType(fn.__code__, vars(module), name, fn.__defaults__)
    return property(fn) if isinstance(real, property) else fn


def _reports_differ(wrapper):
    """A catcher: over the corrupted runs ``wrapper`` makes, the verifier
    reports something other than fresh calls."""
    return lambda monkeypatch: any(
        failures != fresh for failures, fresh in _reported(monkeypatch, wrapper))


def _driver_differs(monkeypatch):
    """A catcher: on the first three ladder problems at seed 0, uncapped or
    capped inside a pass run, the driver's views differ from the rounds of
    the reference loop."""
    try:
        test_a_round_cap_inside_a_pass_run_stops_the_sweep()
        for p in _ladder_pool(0)[:3]:
            order = ProblemOrder(p)
            _same_run(run_scl_sup(p, order), run_round_by_round(p, order))
    except AssertionError:
        return True
    return False


# each mutant of the record test, of the trail-run test or of the record
# engine: the function, the text it replaces and its replacement, and the
# catcher that must see it: the corrupted runs of a row of
# test_a_corrupted_pass_run_end_fails_as_fresh_calls_fail, those of the
# attention-outside-the-set row of
# test_a_corrupted_pass_run_fails_as_fresh_calls_fail, or the reference loop
MUTANTS = {
    "end-check-skipped": (
        simulation, "_passes_trail_run",
        " or not all(r.ok for r in last)", "",
        _reports_differ(RANGE_ROWS["run-end-on-false-clause"][0])),
    "first-trusted-although-it-failed": (
        simulation, "_passes_trail_run",
        "not all(r.ok for r in first) or ", "",
        _reports_differ(RANGE_ROWS["member-failing-xii-from-the-first"][0])),
    "membership-skipped": (
        simulation, "_passes_trail_run",
        " and all(map(is_, aids, clauses[at:upto]))", "",
        _reports_differ(_in_pass_run(_outside_the_set))),
    "non-ascending-keys-accepted": (
        simulation, "_passes_trail_run",
        "return _gamma_key(order, tail[-1], gamma) > key", "return True",
        _reports_differ(RANGE_ROWS["attention-repeated-at-a-run-end"][0])),
    "pair-index-left-out-of-the-version": (
        simulation, "_in_trail_run", "ann.index == before.index and ", "",
        _reports_differ(RANGE_ROWS["pair-index-moved-back"][0])),
    "length-test-dropped": (
        simulation, "_passes_trail_run",
        "if length != _model_length(order, con, keys[end], image):", "if False:",
        _reports_differ(RANGE_ROWS["decision-one-round-early"][0])),
    "length-test-off-by-one": (
        simulation, "_passes_trail_run",
        "if length != _model_length(", "if length - 1 != _model_length(",
        _reports_differ(RANGE_ROWS["trails-one-entry-ahead"][0])),
    "length-test-at-one-end-only": (
        simulation, "_passes_trail_run",
        "for end in {at, upto - 1}:", "for end in {at}:",
        _reports_differ(RANGE_ROWS["fillers-folded-into-a-sweep"][0])),
    "production-test-ignoring-at-or-below": (
        ModelConstruction, "produces_up_to",
        " and self.order.clause_key(producer) <= key", "",
        _reports_differ(RANGE_ROWS["decision-one-round-early"][0])),
    "xii-sweep-dropped": (
        simulation, "_passes_trail_run",
        "if not all(is_true(state, c) for c in clauses[swept:upto]):", "if False:",
        _reports_differ(RANGE_ROWS["member-unsatisfied-in-a-sweep"][0])),
    "conflict-states-let-into-a-run": (
        simulation, "_in_trail_run",
        " and state.conflict is None and after.conflict is None", "",
        _reports_differ(RANGE_ROWS["conflict-state-in-between"][0])),
    "prefix-identity-dropped": (
        simulation, "_in_trail_run",
        "\n            and _extends(state.trail, after.trail)", "",
        _reports_differ(RANGE_ROWS["trail-not-a-prefix-of-the-next"][0])),
    "view-one-round-short": (
        simulation.PassSweep, "rounds",
        "return len(self.aids)", "return len(self.aids) - 1",
        _driver_differs),
    "sweep-past-the-round-cap": (
        simulation, "_sweep_passes",
        "len(passed) < room", "len(passed) <= room",
        _driver_differs),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_mutant_of_the_range_test_is_caught(monkeypatch, mutant):
    """The record test with one of its conditions dropped or bent passes a
    run that fresh calls fail: the end check on the run's last boundary, the
    first boundary's reports, the identity of each attention clause with
    the next key of the index, which makes it a state clause and so, by
    (iii), a member, the ascent of the last key, the length test, that test
    off by one, at one end of a record only or counting a production above
    the image, or the (xii) sweep; and so does a run that takes in a
    boundary with another pair index, a state in conflict mode, or a trail
    that does not extend the one before by identity. On the corrupted runs
    that catch it, the verifier then reports something other than fresh
    calls. A view that expands a sweep one round short, or a sweep that
    records a round past the cap, makes the driver's rounds differ from
    the reference loop's."""
    owner, name, old, new, caught = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, _mutated(owner, name, old, new))
    assert caught(monkeypatch)
