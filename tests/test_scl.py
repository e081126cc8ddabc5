"""Trail-based calculus: rule effects and guard rejections.

States are built through the rules themselves, never fabricated, so every
expected trail/level/conflict value below is an independently hand-derived
fact about the calculus.
"""

import dataclasses
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from lockstep.core import (
    Atom, Clause, EMPTY_CLAUSE, GroundTerm, Literal, is_tautology, parse_problem,
)
from lockstep.harness import GenParams, random_problem
from lockstep.ordering import ProblemOrder
from lockstep.scl import (
    RuleApp,
    RuleError,
    TrailEntry,
    audit_regular,
    backtrack,
    conflict,
    conflict_candidates,
    decide,
    factorize,
    initial_state,
    is_defined,
    is_false,
    is_false_except,
    is_true,
    literal_level,
    propagate,
    resolve,
    skip,
)
from lockstep.simulation import run_scl_sup


def T(name, *args):
    return GroundTerm(name, tuple(args))


PA = Literal(T("P", T("a")))
QB = Literal(T("Q", T("b")))

KBO_TEXT = """\
order: kbo
prec: a < b < P < Q
clause: P(a) | P(a)
clause: -P(a) | Q(b)
clause: -Q(b)
"""


@pytest.fixture
def kbo():
    p = parse_problem(KBO_TEXT)
    return p, ProblemOrder(p)


def test_initial_state(kbo):
    p, _ = kbo
    s = initial_state(p)
    assert s.trail == ()
    assert s.n == p.clauses.clauses()
    assert s.u == ()
    assert s.k == 0
    assert s.conflict is None


def test_decide_pushes_a_new_level(kbo):
    p, po = kbo
    s = decide(po, initial_state(p), PA)
    assert s.k == 1
    assert len(s.trail) == 1
    entry = s.trail[0]
    assert entry.literal == PA and entry.level == 1 and entry.reason is None
    assert s.valuation() == ({PA}, {PA.complement()})
    assert literal_level(s, PA) == 1


def test_decide_guards(kbo):
    p, po = kbo
    s0 = initial_state(p)
    with pytest.raises(RuleError) as e:
        decide(po, s0, Literal(Atom("Z")))
    assert e.value.guard == "unknown-atom"
    s1 = decide(po, s0, PA)
    with pytest.raises(RuleError) as e:
        decide(po, s1, PA.complement())
    assert e.value.guard == "literal-defined"


def test_propagate_dedups_the_justification(kbo):
    p, po = kbo
    c1 = p.clauses.clauses()[0]          # P(a) | P(a)
    s = propagate(po, initial_state(p), c1, PA)
    entry = s.trail[0]
    assert entry.literal == PA
    assert entry.level == 0          # no decision yet
    assert entry.reason == Clause([PA])   # duplicate copies removed
    assert s.k == 0


def test_propagate_after_a_decision_records_the_current_level(kbo):
    p, po = kbo
    c2 = p.clauses.clauses()[1]          # -P(a) | Q(b)
    s = decide(po, initial_state(p), PA)
    s = propagate(po, s, c2, QB)
    assert s.trail[1].literal == QB
    assert s.trail[1].level == 1
    assert s.trail[1].reason == c2


def test_propagate_builds_the_remainder_only_to_report_it(kbo, monkeypatch):
    # the guard tests the other literals against the valuation; the clause
    # without the propagated literal is built for the failure message alone
    p, po = kbo
    c2 = p.clauses.clauses()[1]          # -P(a) | Q(b)
    built, real = [], Clause.with_count

    def counted(self, literal, n):
        built.append(n)
        return real(self, literal, n)

    monkeypatch.setattr(Clause, "with_count", counted)
    propagate(po, decide(po, initial_state(p), PA), c2, QB)
    assert built == [1]                  # the justification
    with pytest.raises(RuleError):
        propagate(po, initial_state(p), c2, QB)
    assert built == [1, 0]


def test_propagate_guards(kbo):
    p, po = kbo
    s0 = initial_state(p)
    c1, c2, c3 = p.clauses.clauses()
    with pytest.raises(RuleError) as e:
        propagate(po, s0, c2, QB)            # -P(a) not yet false
    assert e.value.guard == "remainder-not-false"
    assert str(e.value) == "propagate: -P(a) is not falsified by the trail [remainder-not-false]"
    with pytest.raises(RuleError) as e:
        propagate(po, s0, Clause([QB]), QB)  # clause from nowhere
    assert e.value.guard == "unknown-clause"
    with pytest.raises(RuleError) as e:
        propagate(po, s0, c1, QB)
    assert e.value.guard == "literal-not-in-clause"
    s1 = propagate(po, s0, c1, PA)
    with pytest.raises(RuleError) as e:
        propagate(po, s1, c1, PA)
    assert e.value.guard == "literal-defined"


def test_membership_guards_read_one_clause_set_per_run(kbo):
    """propagate and conflict test membership in the state's input and
    learned clauses, the learned ones growing as a run learns. A clause
    from nowhere raises the same guard and message as before; an equal
    copy of a member passes; a state made by hand with other clauses is
    read by its own clauses."""
    p, po = kbo
    c1, c2, c3 = p.clauses.clauses()
    s0 = initial_state(p)
    stray = Clause([QB])
    for rule, args in ((propagate, (stray, QB)), (conflict, (stray,))):
        with pytest.raises(RuleError) as e:
            rule(po, s0, *args)
        assert (e.value.guard, str(e.value)) == (
            "unknown-clause",
            f"{rule.__name__}: Q(b) is not an input or learned clause [unknown-clause]")

    s = propagate(po, decide(po, s0, PA), Clause(list(c2.literals)), QB)  # an equal copy
    s = skip(po, resolve(po, conflict(po, s, c3)))
    learned = backtrack(po, s)
    unit = Clause([PA.complement()])
    assert learned.n + learned.u == (c1, c2, c3, unit)
    assert propagate(po, learned, unit, PA.complement()).u == (unit,)
    forgetful = dataclasses.replace(learned, u=())
    for rule, args in ((propagate, (unit, PA.complement())), (conflict, (unit,))):
        with pytest.raises(RuleError) as e:
            rule(po, forgetful, *args)
        assert e.value.guard == "unknown-clause"


def test_a_hand_made_state_builds_its_own_atom_set(kbo):
    """decide's guard tests the state's atom set, which each rule's
    successor takes over; a state made by hand starts without one, so a
    learned clause over an atom foreign to the input makes that atom known
    in it, and in no state it was made from."""
    p, po = kbo
    c2 = p.clauses.clauses()[1]                 # -P(a) | Q(b)
    s0 = initial_state(p)
    s1 = decide(po, s0, PA)
    assert s1.atoms is s0.atoms and s0.atoms == {PA.atom, QB.atom}
    foreign = Literal(Atom("Z"))
    hand = dataclasses.replace(s1, u=(Clause([foreign]),))
    assert hand.atoms == {PA.atom, QB.atom, foreign.atom}
    with pytest.raises(RuleError) as e:
        decide(po, hand, foreign)
    assert e.value.guard == "atom-beyond-bound"          # known, but not ranked
    assert propagate(po, hand, c2, QB).atoms is hand.atoms
    for state in (s0, s1, dataclasses.replace(hand, u=())):
        with pytest.raises(RuleError) as e:
            decide(po, state, foreign)
        assert e.value.guard == "unknown-atom"


def test_a_run_keeps_its_initial_atom_set(kbo):
    """A resolvent holds only atoms of its premises, so after each backtrack
    of the golden runs the state keeps the initial state's atom set; a
    conflict over an atom foreign to the input, learned in a hand-made
    state, widens it in the successor alone."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.prob")))
    backtracks = 0
    for path in paths:
        with open(path) as fh:
            run = run_scl_sup(parse_problem(fh.read()))
        for app, state in zip(run.apps, run.states[1:]):
            if app.rule == "backtrack":
                assert state.atoms is run.states[0].atoms
                backtracks += 1
    assert backtracks > 3

    p, po = kbo
    s0 = initial_state(p)
    z = Literal(Atom("Z"))
    hand = decide(po, dataclasses.replace(s0, trail=(TrailEntry(z, 0, Clause([z])),)), PA)
    hand = dataclasses.replace(hand, conflict=Clause([PA.complement(), z.complement()]))
    assert hand.atoms == s0.atoms == {PA.atom, QB.atom}
    learned = backtrack(po, hand)
    assert learned.u == (hand.conflict,)
    assert learned.atoms == {PA.atom, QB.atom, z.atom} and hand.atoms == s0.atoms
    with pytest.raises(RuleError) as e:
        decide(po, learned, z.complement())
    assert e.value.guard == "literal-defined"            # known, and on the trail


def test_conflict_rule(kbo):
    p, po = kbo
    c1, c2, c3 = p.clauses.clauses()
    s = decide(po, initial_state(p), PA)
    with pytest.raises(RuleError) as e:
        conflict(po, s, c3)                  # -Q(b) still undefined
    assert e.value.guard == "clause-not-false"
    s = propagate(po, s, c2, QB)
    assert conflict_candidates(s) == [c3]
    s = conflict(po, s, c3)
    assert s.conflict == c3
    with pytest.raises(RuleError) as e:
        conflict(po, s, c3)
    assert e.value.guard == "conflict-active"
    with pytest.raises(RuleError) as e:
        decide(po, s, QB)
    assert e.value.guard == "conflict-active"
    with pytest.raises(RuleError) as e:
        propagate(po, s, c1, PA)
    assert e.value.guard == "conflict-active"


def _conflict_state(kbo):
    """Trail [P(a)^1, Q(b)^(-P(a)|Q(b))], conflict -Q(b)."""
    p, po = kbo
    c2, c3 = p.clauses.clauses()[1], p.clauses.clauses()[2]
    s = decide(po, initial_state(p), PA)
    s = propagate(po, s, c2, QB)
    return po, p, conflict(po, s, c3)


def test_resolve_keeps_the_trail(kbo):
    po, p, s = _conflict_state(kbo)
    s2 = resolve(po, s)
    assert s2.conflict == Clause([PA.complement()])
    assert s2.trail == s.trail           # resolution does not pop
    assert s2.k == 1
    with pytest.raises(RuleError) as e:
        resolve(po, s2)                  # comp(Q(b)) no longer occurs
    assert e.value.guard == "complement-not-in-conflict"


def test_skip_pops_a_propagation(kbo):
    po, p, s = _conflict_state(kbo)
    with pytest.raises(RuleError) as e:
        skip(po, s)                      # comp(Q(b)) occurs in -Q(b)
    assert e.value.guard == "complement-in-conflict"
    s2 = resolve(po, s)
    s3 = skip(po, s2)
    assert [e.literal for e in s3.trail] == [PA]
    assert s3.k == 1                     # popped entry was a propagation
    assert s3.conflict == s2.conflict


def test_backtrack_learns_and_drops_one_level(kbo):
    po, p, s = _conflict_state(kbo)
    s = skip(po, resolve(po, s))         # trail [P(a)^1], conflict -P(a)
    with pytest.raises(RuleError) as e:
        resolve(po, s)                   # top entry is a decision
    assert e.value.guard == "top-not-propagation"
    s2 = backtrack(po, s)
    assert s2.trail == ()
    assert s2.k == 0
    assert s2.u == (Clause([PA.complement()]),)
    assert s2.conflict is None


def test_backtrack_guards(kbo):
    p, po = kbo
    c1, c2, c3 = p.clauses.clauses()
    s0 = initial_state(p)
    with pytest.raises(RuleError) as e:
        backtrack(po, s0)
    assert e.value.guard == "no-conflict"
    # propagation on top blocks backtracking
    po_, p_, s = _conflict_state(kbo)
    with pytest.raises(RuleError) as e:
        backtrack(po_, s)
    assert e.value.guard == "top-not-decision"
    # decision on top whose complement is not in the conflict blocks too
    s2 = skip(po_, resolve(po_, s))      # [P(a)^1], conflict -P(a)
    s3 = backtrack(po_, s2)              # learn -P(a), back to level 0
    s4 = propagate(po_, s3, s3.u[0], PA.complement())
    s5 = conflict(po_, s4, c1)           # P(a) | P(a) now false
    with pytest.raises(RuleError) as e:
        backtrack(po_, s5)               # top of the trail is a propagation
    assert e.value.guard == "top-not-decision"


def test_backtrack_guards_on_the_conflict(kbo):
    """With a decision on top, backtracking needs its complement in the
    conflict and every other conflict literal below the current level."""
    p, po = kbo
    _, c2, c3 = p.clauses.clauses()          # -P(a) | Q(b), -Q(b)
    s = decide(po, decide(po, initial_state(p), QB), PA)
    s = conflict(po, s, c3)                  # false since level 1; P(a) is not in it
    with pytest.raises(RuleError) as e:
        backtrack(po, s)
    assert (e.value.guard, str(e.value)) == (
        "decision-not-complemented",
        "backtrack: -P(a) does not occur in the conflict -Q(b) [decision-not-complemented]")
    # the rules open a level with each decision, so only the top decision
    # sits at the top level; -Q(b) decided at level 2 is fabricated
    s = decide(po, decide(po, initial_state(p), QB.complement()), PA)
    s = conflict(po, s, c2)
    relabelled = dataclasses.replace(s.trail[0], level=2)
    s = dataclasses.replace(s, trail=(relabelled,) + s.trail[1:])
    with pytest.raises(RuleError) as e:
        backtrack(po, s)
    assert (e.value.guard, str(e.value)) == (
        "residue-level", "backtrack: Q(b) sits at level 2, not below 2 [residue-level]")


def test_duplicate_conflict_literals_do_not_block_backtracking():
    """A conflict D | L | L with comp(L) the top decision must backtrack:
    the copies of the decision's complement are exempt from the level rule."""
    text = """\
order: kbo
prec: a < P
clause: P(a) | P(a)
clause: -P(a) | -P(a)
"""
    p2 = parse_problem(text)
    po2 = ProblemOrder(p2)
    c1, c2 = p2.clauses.clauses()
    s = decide(po2, initial_state(p2), PA)
    s = conflict(po2, s, c2)
    s = backtrack(po2, s)
    assert s.u == (c2,)
    assert s.k == 0 and s.trail == ()


def test_skip_on_a_decision_decrements_the_level():
    text = """\
order: kbo
prec: a < P < Q
clause: P(a) | Q(a)
clause: Q(a)
clause: -Q(a)
"""
    p = parse_problem(text)
    po = ProblemOrder(p)
    qa = Literal(T("Q", T("a")))
    s = decide(po, initial_state(p), PA)
    s = propagate(po, s, p.clauses.clauses()[1], qa)
    s = conflict(po, s, p.clauses.clauses()[2])
    s = resolve(po, s)                   # conflict becomes bottom
    assert s.conflict == EMPTY_CLAUSE
    s = skip(po, s)                      # pops the propagation
    assert s.k == 1
    s = skip(po, s)                      # pops the decision
    assert s.k == 0
    assert s.trail == ()
    assert s.conflict == EMPTY_CLAUSE
    with pytest.raises(RuleError) as e:
        skip(po, s)
    assert e.value.guard == "empty-trail"


def test_factorize_removes_one_duplicate():
    text = """\
order: kbo
prec: a < P < Q
clause: -P(a) | -P(a) | -Q(a)
clause: P(a)
clause: Q(a)
"""
    p = parse_problem(text)
    po = ProblemOrder(p)
    qa = Literal(T("Q", T("a")))
    c1 = p.clauses.clauses()[0]
    s = propagate(po, initial_state(p), p.clauses.clauses()[1], PA)
    s = propagate(po, s, p.clauses.clauses()[2], qa)
    s = conflict(po, s, c1)
    s2 = factorize(po, s)
    assert s2.conflict == Clause([PA.complement(), qa.complement()])
    with pytest.raises(RuleError) as e:
        factorize(po, s2)
    assert e.value.guard == "no-duplicate"
    s3 = factorize(po, s, PA.complement())
    assert s3.conflict == s2.conflict
    with pytest.raises(RuleError) as e:
        factorize(po, s, qa.complement())
    assert e.value.guard == "literal-not-duplicated"


def test_is_defined_and_levels(kbo):
    p, po = kbo
    c2 = p.clauses.clauses()[1]
    s = decide(po, initial_state(p), PA)
    s = propagate(po, s, c2, QB)
    assert is_defined(s, PA.atom) and is_defined(s, QB.atom)
    assert literal_level(s, QB) == 1
    assert literal_level(s, QB.complement()) == 1
    with pytest.raises(ValueError):
        literal_level(s, Literal(Atom("Z")))


def test_a_state_computes_its_valuation_once(kbo):
    # a state is never changed in place, so it keeps the valuation it
    # computed; a copy is another state and computes its own
    p, po = kbo
    s = propagate(po, decide(po, initial_state(p), PA), p.clauses.clauses()[1], QB)
    true, false = s.valuation()
    assert true == {PA, QB} and false == {PA.complement(), QB.complement()}
    assert s.valuation()[0] is true and s.valuation()[1] is false
    copy = dataclasses.replace(s)
    assert copy == s and copy.valuation() == (true, false)
    assert copy.valuation()[0] is not true and copy.valuation()[1] is not false
    assert copy.valuation()[0] is copy.valuation()[0]


def test_a_state_finds_its_false_clauses_once(kbo):
    # the answer without an assumption is kept on the state, and each call
    # hands out a list of its own; the assuming form is answered afresh.
    # A scan visits each clause of the state once, which a state that
    # counts the clauses it hands out sees; clauses are interned, so the
    # count is taken on the state, not on the clauses
    p, po = kbo
    c1, c2, c3 = p.clauses.clauses()
    s = propagate(po, decide(po, initial_state(p), PA), c2, QB)
    scans = []

    class Counted(type(s)):
        def all_clauses(self):
            for c in super().all_clauses():
                scans.append(c)
                yield c

    s = Counted(*(getattr(s, f.name) for f in dataclasses.fields(s)))
    assert list(s.n) == [c1, c2, c3]
    first = conflict_candidates(s)
    assert first == [c3] and len(scans) == 3
    second = conflict_candidates(s)
    assert second == first and second is not first and len(scans) == 3
    second.append(c1)
    assert conflict_candidates(s) == [c3]
    assert conflict_candidates(s, assuming=PA) == [c3] and len(scans) == 6
    assert conflict_candidates(dataclasses.replace(s)) == [c3] and len(scans) == 9


def test_regularity_audit_flags_ignored_conflicts(kbo):
    p, po = kbo
    c1, c2, c3 = p.clauses.clauses()
    s0 = initial_state(p)
    s1 = decide(po, s0, PA)
    s2 = propagate(po, s1, c2, QB)
    # at s2 the clause -Q(b) is false, so anything except Conflict is irregular
    violations = audit_regular(
        [s0, s1, s2],
        [RuleApp(rule="decide", literal=PA), RuleApp(rule="propagate", clause=c2, literal=QB)],
    )
    assert violations == []
    violations = audit_regular(
        [s1, s2, s2],
        [RuleApp(rule="propagate", clause=c2, literal=QB), RuleApp(rule="skip")],
    )
    assert violations == ["step 1: skip applied while -Q(b) was false"]


def test_regularity_audit_flags_conflict_enabling_decisions():
    text = """\
order: kbo
prec: a < P < Q
clause: P(a) | Q(a)
clause: -Q(a)
"""
    p = parse_problem(text)
    po = ProblemOrder(p)
    qa, pa = Literal(T("Q", T("a"))), Literal(T("P", T("a")))
    s0 = initial_state(p)
    s1 = decide(po, s0, qa)              # legal, but -Q(a) is now false
    violations = audit_regular([s0, s1], [RuleApp(rule="decide", literal=qa)])
    assert violations == ["step 0: decide Q(a) made -Q(a) false"]
    # a second decision is both irregular itself and again leaves -Q(a)
    # false; the line of step 0 comes first, then both lines of step 1
    s2 = decide(po, s1, pa)
    violations = audit_regular(
        [s0, s1, s2], [RuleApp(rule="decide", literal=qa), RuleApp(rule="decide", literal=pa)])
    assert violations == [
        "step 0: decide Q(a) made -Q(a) false",
        "step 1: decide applied while -Q(a) was false",
        "step 1: decide P(a) made -Q(a) false",
    ]


def _falsified_by_scan(state, extra=None):
    """Clauses whose every literal copy is false once ``extra`` is pushed."""
    values = {e.literal.atom: e.literal.positive for e in state.trail}
    if extra is not None:
        values[extra.atom] = extra.positive
    return [
        c for c in state.n + state.u
        if all(l.atom in values and values[l.atom] != l.positive for l in c.literals)
    ]


def test_conflict_candidates_assuming_a_literal_matches_a_scan():
    # every state of some trail runs, conflict mode and refuted states
    # included, probed with both literals of every atom: an atom the trail
    # already defines takes the assumed value instead of the trail's; the
    # problems include tautologies, and each state is probed once more with
    # the empty clause among its learned clauses and once with its first
    # trail atom pushed again with the other sign, one level up; on each,
    # is_true, is_false, is_defined and literal_level agree with the scan
    params = GenParams(preds=("P", "Q", "R"), consts=("a", "b"), clause_count=8,
                       max_len=4)
    problems = [parse_problem(KBO_TEXT)] + [
        random_problem(dataclasses.replace(params, seed=seed, allow_tautologies=tauto))
        for seed in range(40) for tauto in (False, True)
    ]
    assert any(is_tautology(c) for p in problems for c in p.clauses)
    probed = overridden = in_conflict = refuted = 0
    for p in problems:
        run = run_scl_sup(p)
        for s in run.states:
            in_conflict += s.conflict is not None
            refuted += s.conflict == EMPTY_CLAUSE
            variants = [s, dataclasses.replace(s, u=s.u + (EMPTY_CLAUSE,))]
            if s.trail:     # an atom on the trail twice: its last value counts
                first = s.trail[0]
                flipped = dataclasses.replace(first, literal=first.literal.complement(),
                                              level=s.k + 1)
                variants.append(dataclasses.replace(s, trail=s.trail + (flipped,)))
            for state in variants:
                false = _falsified_by_scan(state)
                assert conflict_candidates(state) == false
                last = {e.literal.atom: e for e in state.trail}     # later entries win
                for c in state.all_clauses():
                    assert is_false(state, c) == (c in false)
                    assert is_true(state, c) == any(
                        l.atom in last and last[l.atom].literal == l for l in c.literals)
                for a in run.order.atoms_ascending:
                    assert is_defined(state, a) == (a in last)
                    for literal in (Literal(a), Literal(a, False)):
                        if a in last:
                            assert literal_level(state, literal) == last[a].level
                        else:
                            with pytest.raises(ValueError):
                                literal_level(state, literal)
                        got = conflict_candidates(state, assuming=literal)
                        assert got == _falsified_by_scan(state, literal)
                        probed += 1
                        overridden += is_defined(state, a)
            assert EMPTY_CLAUSE in conflict_candidates(variants[1])
    assert probed > 100 and overridden > 100 and in_conflict > 10 and refuted > 5


def _text_valuation(state):
    """The literal texts the trail makes true and false, each atom taking
    its last entry: the valuation read without interned literals."""
    last = {e.literal.atom.text: e.literal for e in state.trail}
    return ({l.text for l in last.values()},
            {"-" + a if l.positive else a for a, l in last.items()})


def _texts(clause):
    return {l.text for l in clause.distinct}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans(), st.data())
def test_trail_truth_matches_a_text_reference(seed, tautologies, data):
    # a state of a generated run, and the same state with a learned clause
    # over an atom the input lacks: is_true, is_false, is_false_except of
    # every literal, conflict_candidates with and without an assumed
    # literal, and decide's unknown-atom guard read the valuation and the
    # clauses by their texts alone
    problem = random_problem(GenParams(seed=seed, clause_count=8,
                                       allow_tautologies=tautologies))
    run = run_scl_sup(problem)
    state = data.draw(st.sampled_from(run.states))
    foreign = Literal(Atom("Z"), data.draw(st.booleans()))
    atoms = list(run.order.atoms_ascending) + [foreign.atom]
    for s in (state, dataclasses.replace(state, u=state.u + (Clause([foreign]),))):
        true, false = _text_valuation(s)
        clauses = s.all_clauses()
        assert conflict_candidates(s) == [c for c in clauses if _texts(c) <= false]
        for c in clauses:
            assert is_true(s, c) == bool(_texts(c) & true)
            assert is_false(s, c) == (_texts(c) <= false)
        for literal in (Literal(a, positive) for a in atoms for positive in (True, False)):
            for c in clauses:
                assert (is_false_except(s, c, literal) == (_texts(c) - {literal.text} <= false)
                        == is_false(s, c.with_count(literal, 0)))
            assumed = (false - {literal.text}) | {literal.complement().text}
            assert (conflict_candidates(s, assuming=literal)
                    == [c for c in clauses if _texts(c) <= assumed])
            if s.conflict is not None:
                continue
            occurs = any(_texts(c) & {literal.text, literal.complement().text}
                         for c in clauses)
            try:
                decide(run.order, s, literal)
            except RuleError as e:
                assert (e.guard == "unknown-atom") == (not occurs)
            else:
                assert occurs


@pytest.mark.parametrize("last", [True, False], ids=["last-true", "last-false"])
def test_an_atom_on_the_trail_twice_takes_its_last_value(kbo, last):
    # the rules never push an atom twice, so the second push is fabricated:
    # P(a) is decided with one sign and pushed again with the other, and
    # only the last value decides the guards of propagate and conflict
    p, po = kbo
    c1, c2, _ = p.clauses.clauses()          # P(a) | P(a), -P(a) | Q(b)
    s = decide(po, initial_state(p), PA if not last else PA.complement())
    again = dataclasses.replace(s.trail[0], literal=s.trail[0].literal.complement(), level=2)
    s = dataclasses.replace(s, trail=s.trail + (again,))
    assert s.trail[-1].literal == (PA if last else PA.complement())
    if last:
        # -P(a) is false, so Q(b) is forced, and P(a) | P(a) is true
        assert propagate(po, s, c2, QB).trail[-1].literal == QB
        with pytest.raises(RuleError) as e:
            conflict(po, s, c1)
        assert e.value.guard == "clause-not-false"
    else:
        # -P(a) is true, so Q(b) is not forced, and P(a) | P(a) is false
        with pytest.raises(RuleError) as e:
            propagate(po, s, c2, QB)
        assert e.value.guard == "remainder-not-false"
        assert conflict(po, s, c1).conflict == c1


def test_the_level_is_the_number_of_decisions():
    """On every state of the golden trail runs and of 300 generated
    problems, the top entry's level counts the decisions on the trail, and
    so does k: the level can be read off the trail."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.prob")))
    problems = []
    for path in paths:
        with open(path) as fh:
            problems.append(parse_problem(fh.read()))
    problems += [random_problem(GenParams(seed=seed)) for seed in range(300)]
    checked = 0
    for p in problems:
        for s in run_scl_sup(p).states:
            decisions = sum(e.is_decision for e in s.trail)
            assert s.k == decisions
            if s.trail:
                assert s.trail[-1].level == decisions
            checked += 1
    assert checked > 1000
