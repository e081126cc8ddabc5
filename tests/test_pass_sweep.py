"""Runs of pass rounds, walked once by the driver and checked leanly by the
verifier, against the round-by-round forms they replace.

The driver records a run of pass rounds that need no filler decision by one
walk of the version's attention index; the reference loop below plays every
round through ``_round_no_conflict`` and finds each attention clause by a scan
over every clause. The verifier tries a lean test of the attention half at a
later boundary of a version that breaks nothing else; it must pass exactly
where a fresh full ``check_invariants`` call passes, and a corrupted pass run
must be reported exactly as fresh calls report it.
"""

import dataclasses

import pytest

from lockstep import simulation
from lockstep.core import EMPTY_CLAUSE, Atom, Clause, Literal, parse_problem
from lockstep.harness import pigeonhole, random_problem
from lockstep.ordering import ProblemOrder
from lockstep.superposition import run_sup_mo
from lockstep.scl import TrailEntry, initial_state, is_true
from lockstep.simulation import (
    MAX_ROUNDS,
    Annotation,
    SimRun,
    SimSeq,
    _AttentionIndex,
    _VersionFacts,
    _gamma_key,
    check_invariants,
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
    _verified_calls,
    next_attention_by_scan,
    workloads,
)


def run_round_by_round(problem, order, max_sequences=MAX_ROUNDS):
    """The trail run with every round played on its own: each attention
    clause found by a scan over every clause, each pass round recorded by
    ``_round_no_conflict``."""
    ann = Annotation(0, EMPTY_CLAUSE, initial_gamma(problem, order))
    run = SimRun(order, ann, [initial_state(problem)])
    while len(run.seqs) < max_sequences:
        start = len(run.apps)
        if run.state.conflict is not None:
            kind, ann = simulation._round_conflict(run, ann)
            attention = None
        else:
            attention = next_attention_by_scan(order, run.state, ann)
            if attention is None:
                run.outcome = simulation.SATISFIABLE
                break
            kind, ann = simulation._round_no_conflict(run, ann, attention)
        run.seqs.append(SimSeq(kind, attention, ann, (start, len(run.apps))))
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


def _same_run(got, want):
    assert got.outcome == want.outcome
    assert got.seqs == want.seqs
    assert _attention_positions(got) == _attention_positions(want)
    assert got.annotations == want.annotations
    assert got.apps == want.apps
    assert got.boundary_states == want.boundary_states


def test_the_sweep_records_what_round_by_round_play_records(monkeypatch):
    """On the ladder pool at seed 0 the driver records the rounds,
    annotations, rule applications and boundary states the reference loop
    records. 3,830 of its 5,098 rounds are empty pass rounds, in 813
    maximal runs: one sweep follows the first round of each run and records
    the other 3,017. The lean test's tests below compare every other trail
    run they verify with the reference loop's as well."""
    swept = []
    real = simulation._sweep_passes

    def counted(run, *args):
        before = len(run.seqs)
        handed_over = real(run, *args)
        swept.append(len(run.seqs) - before)
        return handed_over

    monkeypatch.setattr(simulation, "_sweep_passes", counted)
    rounds = 0
    for p in _ladder_pool(0):
        order = ProblemOrder(p)
        run = run_scl_sup(p, order)
        _same_run(run, run_round_by_round(p, order))
        rounds += len(run.seqs)
    assert (len(swept), sum(swept), rounds) == (813, 3017, 5098)


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
    sweep from the smallest clause passes the input copy and goes on past
    the twin, the rounds ``next_attention`` and ``_round_no_conflict``
    play."""
    p = parse_problem(TIE_TEXT)
    order = ProblemOrder(p)
    pr, pq, qr = p.clauses.clauses()          # -P | R, P | Q, -Q | R; ascending: pq, pr, qr
    trail = tuple(TrailEntry(lit, level, None) for level, lit in enumerate(
        (Literal(Atom("P")), Literal(Atom("Q"), False), Literal(Atom("R"))), 1))
    state = dataclasses.replace(initial_state(p), u=(Clause(pr.literals),), trail=trail)
    ann = Annotation(0, pq, {})
    run = SimRun(order, ann, [state])
    last, stop = simulation._sweep_passes(run, ann, _AttentionIndex(order, state, {}), MAX_ROUNDS)
    assert [seq.attention for seq in run.seqs] == [pr, qr]
    assert run.seqs[0].attention is pr and stop is None and last.aid is qr

    reference = SimRun(order, ann, [state])
    while (d := next_attention(order, state, ann)) is not None:
        kind, ann = simulation._round_no_conflict(reference, ann, d)
        reference.seqs.append(SimSeq(kind, d, ann, (0, 0)))
    assert reference.seqs == run.seqs


def _lean_agrees(reports, order, state, ann, snapshot, facts):
    """Checks one boundary: the verifier's ``reports`` are those of a call
    that carries nothing from the boundary before but the attention index
    (which ``test_attention_index.py`` checks against fresh ones), and on a
    quiet version with an attention clause the lean test passes exactly
    where every such report passes. Returns whether the lean test was
    read."""
    unshared = _VersionFacts(order, state, ann.gamma, snapshot, facts.index)
    fresh = check_invariants(order, state, ann, snapshot, unshared)
    assert reports == fresh
    if facts.quiet is None or ann.aid.is_empty:
        return False
    image = ann.gamma.get(ann.aid, ann.aid)
    below = snapshot.construction.prefix_below(image)
    assert facts.passes_at(ann.aid, image, below) == all(r.ok for r in fresh)
    return True


def _verified_and_replayed(monkeypatch, problems):
    """``_verified_calls`` over ``problems``, with each trail run the
    verifier makes compared with the reference loop's run of the same
    problem: one pass over the problems checks both the driver and the
    verifier."""
    real = simulation.run_scl_sup

    def replayed(problem, order=None, max_sequences=MAX_ROUNDS):
        run = real(problem, order, max_sequences)
        _same_run(run, run_round_by_round(problem, order or ProblemOrder(problem),
                                          max_sequences))
        return run

    monkeypatch.setattr(simulation, "run_scl_sup", replayed)
    return _verified_calls(monkeypatch, problems)


def test_the_lean_test_passes_exactly_where_fresh_calls_pass(monkeypatch):
    """On the golden files, the generated problems, 15:1, PHP(5,4) and the
    ladder pool at seeds 0 and 1, the driver records what the reference
    loop records; at every boundary the verifier checks, its reports equal
    those of a call with facts of its own, and on a quiet version the lean
    test passes exactly where those all pass."""
    read = 0
    for result, calls in _verified_and_replayed(monkeypatch,
                                                _hard_problems() + _ladder_pool(0)):
        assert result.ok and len(calls) == len(result.boundaries)
        for call, boundary in zip(calls, result.boundaries):
            read += _lean_agrees(boundary.reports, *call)
    assert read > 10000


def test_the_lean_test_agrees_on_the_campaign_pools(monkeypatch):
    """The same on the campaign pools at seeds 0 and 1."""
    read = 0
    for result, calls in _verified_and_replayed(monkeypatch,
                                                _campaign_pool(0) + _campaign_pool(1)):
        assert result.ok and len(calls) == len(result.boundaries)
        for call, boundary in zip(calls, result.boundaries):
            read += _lean_agrees(boundary.reports, *call)
    assert read > 10000


def test_the_lean_test_decides_the_boundaries_after_empty_pass_rounds(monkeypatch):
    """On the ladder pool at seed 0 the verifier checks 5,131 boundaries.
    It tries the lean test at the 3,830 that follow an empty pass round,
    the later boundaries of a version, and it passes at all of them; the
    other 1,301 take the full checks."""
    tried = []
    real = _VersionFacts.passes_at

    def counted(self, *args):
        tried.append(real(self, *args))
        return tried[-1]

    monkeypatch.setattr(_VersionFacts, "passes_at", counted)
    boundaries = 0
    for p in _ladder_pool(0):
        result = lockstep_verify(p)
        assert result.ok
        boundaries += len(result.boundaries)
    assert (boundaries, len(tried), sum(tried)) == (5131, 3830, 3830)


def _in_pass_run(edit):
    """A wrapper of run_scl_sup that replaces the annotation of the first
    round inside a pass run (a round whose neighbours are empty pass rounds
    too, all sharing one state) that ``edit(run, seq, problem)`` returns
    one for, and leaves a run without such a round alone."""
    def wrapper(real, problem, *args, **kwargs):
        run = real(problem, *args, **kwargs)
        seqs = run.seqs
        for r in range(1, len(seqs) - 1):
            if all(s.kind == "pass" and s.app_range[0] == s.app_range[1]
                   for s in seqs[r - 1:r + 2]):
                ann = edit(run, seqs[r], problem)
                if ann is not None:
                    seqs[r] = dataclasses.replace(seqs[r], annotation=ann)
                    return run
        return run
    return wrapper


def _onto_a_false_clause(run, seq, problem):
    """Attention moved on to the next clause of the order whose image the
    trail leaves unsatisfied."""
    ann, state = seq.annotation, run.states[seq.app_range[1]]
    keys, _, clauses = _AttentionIndex(run.order, state, ann.gamma).ranked
    floor = _gamma_key(run.order, ann.aid, ann.gamma)
    target = next((c for k, c in zip(keys, clauses)
                   if k > floor and not is_true(state, ann.gamma.get(c, c))), None)
    return None if target is None else dataclasses.replace(ann, aid=target)


def _outside_the_set(run, seq, problem):
    """Attention moved on to a clause outside both clause sets: the
    attention clause with one more copy of its smallest literal, true
    wherever it is."""
    ann = seq.annotation
    if ann.aid in ann.gamma:
        return None
    smallest = min(ann.aid.distinct, key=run.order.literal_rank)
    return dataclasses.replace(ann, aid=Clause(ann.aid.literals + (smallest,)))


def _map_entry_dropped(run, seq, problem):
    ann = seq.annotation
    if not ann.gamma:
        return None
    dropped = dict(ann.gamma)
    del dropped[next(iter(dropped))]
    return dataclasses.replace(ann, gamma=dropped)


def _breaking_only(name):
    """An edit that moves attention onto the first clause of the paired set
    or of the state at which a call that carries nothing from the boundary
    before fails invariant ``name`` and no other."""
    def edit(run, seq, problem):
        ann, state, order = seq.annotation, run.states[seq.app_range[1]], run.order
        snapshot = run_sup_mo(problem, order).snapshots[ann.index]
        index = _AttentionIndex(order, state, ann.gamma)
        for c in snapshot.clauses + state.all_clauses():
            moved = dataclasses.replace(ann, aid=c)
            unshared = _VersionFacts(order, state, ann.gamma, snapshot, index)
            reports = check_invariants(order, state, moved, snapshot, unshared)
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
