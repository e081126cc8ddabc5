"""Saturation under the model-driven strategy.

The three end-to-end traces in here (a KBO one and two LPO ones, plus a
satisfiable variant) were stepped through on paper: every intermediate
interpretation, producing clause, and conclusion below is a frozen expected
value, not a recording of what the code happened to output.
"""

import dataclasses
import gc
import glob
import os
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from lockstep import superposition
from lockstep.core import (
    Atom,
    Clause,
    ClauseSet,
    EMPTY_CLAUSE,
    GroundTerm,
    Literal,
    OrderingConfig,
    Problem,
    atoms_of,
    eval_herbrand,
    parse_problem,
)
from lockstep.ordering import ProblemOrder
from lockstep.scl import SclState, TrailEntry, resolve
from lockstep.superposition import (
    CAP_EXCEEDED,
    SATISFIABLE,
    UNSATISFIABLE,
    construct_model,
    factoring_step,
    next_inference,
    run_sup_mo,
    sfac,
    superposition_left,
)


DATA = os.path.join(os.path.dirname(__file__), "data")


def T(name, *args):
    return GroundTerm(name, tuple(args))


def clause(*texts):
    lits = []
    for t in texts:
        positive = not t.startswith("-")
        lits.append(Literal(Atom(t.lstrip("-")), positive))
    return Clause(lits)


def listed_problem(clauses, *atom_names):
    """Listed-order problem over nullary atoms; names that never occur in the
    clauses are dropped so the declared order covers the universe exactly."""
    cs = ClauseSet(clauses)
    occurring = {a.name for c in cs for l in c.literals for a in [l.atom]}
    kept = tuple(Atom(n) for n in atom_names if n in occurring)
    return Problem(
        clauses=cs,
        ordering=OrderingConfig(kind="listed", listed_atoms=kept),
    )


PQR = ["P", "Q", "R"]


def pqr_order(clauses):
    return ProblemOrder(listed_problem(clauses, *PQR))


# ---------------------------------------------------------------------------
# sfac and the single inference rules
# ---------------------------------------------------------------------------


def test_sfac_dedups_only_the_top_positive_literal():
    po = pqr_order([clause("P", "P", "Q", "Q"), clause("-Q", "P", "P")])
    assert sfac(clause("P", "P", "Q", "Q"), po) == clause("P", "P", "Q")
    assert sfac(clause("-Q", "P", "P"), po) == clause("-Q", "P", "P")
    assert sfac(clause("Q"), po) == clause("Q")
    assert sfac(EMPTY_CLAUSE, po) == EMPTY_CLAUSE


def test_sfac_collapses_repeated_copies_of_the_maximum():
    po = pqr_order([clause("Q", "Q", "Q", "-P")])
    assert sfac(clause("Q", "Q", "Q", "-P"), po) == clause("Q", "-P")


_pqr_literals = st.builds(Literal, st.sampled_from([Atom(n) for n in PQR]), st.booleans())
_pqr_clauses = st.lists(_pqr_literals, min_size=1, max_size=3).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=10)
).map(Clause)


@given(_pqr_clauses)
def test_sfac_equals_factoring_until_it_stops(c):
    po = pqr_order([c])
    want = c
    while (reduced := factoring_step(want, po)) is not None:
        want = reduced
    assert sfac(c, po) == want


# The list-based definitions the engines had before clauses were held as
# runs of copies: every copy is an element of a list.

def _drop_one(literals, literal):
    out = list(literals)
    out.remove(literal)
    return out


def _list_sfac(c, po):
    if c.is_empty:
        return c
    m = po.max_literal(c)
    if not m.positive or sum(1 for l in c.literals if l == m) < 2:
        return c
    return Clause([l for l in c.literals if l != m] + [m])


def _list_cut(main, side, pivot):
    """Drop one copy of -pivot from main and one of pivot from side, and
    join what is left: superposition-left and resolve alike."""
    return Clause(_drop_one(main.literals, Literal(pivot, False))
                  + _drop_one(side.literals, Literal(pivot)))


@st.composite
def _cut_premises(draw):
    """A main premise whose maximum is -A in copies and a side premise where
    A is strictly maximal, both with many copies of smaller literals."""
    top = draw(st.sampled_from(PQR[1:]))
    below = st.builds(Literal, st.sampled_from([Atom(n) for n in PQR[:PQR.index(top)]]),
                      st.booleans())
    copies = st.lists(below, max_size=3).flatmap(
        lambda base: st.lists(st.sampled_from(base), max_size=20) if base else st.just([]))
    main = Clause([Literal(Atom(top), False)] * draw(st.integers(1, 6)) + draw(copies))
    return main, Clause([Literal(Atom(top))] + draw(copies)), Atom(top)


_many_copy_clauses = st.lists(_pqr_literals, min_size=1, max_size=3).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=30)
).map(Clause)


@given(_many_copy_clauses)
def test_sfac_matches_the_list_definition(c):
    po = pqr_order([c])
    assert sfac(c, po).literals == _list_sfac(c, po).literals


@given(_cut_premises())
def test_superposition_left_and_resolve_match_the_list_definition(premises):
    main, side, pivot = premises
    po = pqr_order([main, side])
    want = _list_cut(main, side, pivot)
    assert superposition_left(main, side, po).literals == want.literals
    propagated = TrailEntry(literal=Literal(pivot), level=0, reason=side)
    state = SclState(trail=(propagated,), n=(main, side), u=(), conflict=main)
    assert resolve(po, state).conflict.literals == want.literals


def test_factoring_step():
    po = pqr_order([clause("P", "P", "-Q")])
    assert factoring_step(clause("Q", "Q", "P"), po) == clause("Q", "P")
    assert factoring_step(clause("Q", "P"), po) is None       # strictly maximal already
    assert factoring_step(clause("-Q", "P", "P"), po) is None  # maximum is negative
    assert factoring_step(EMPTY_CLAUSE, po) is None


def test_superposition_left_resolves_one_occurrence():
    po = pqr_order([clause("-R", "-R", "P"), clause("R", "Q")])
    conclusion = superposition_left(clause("-R", "-R", "P"), clause("R", "Q"), po)
    assert conclusion == clause("-R", "P", "Q")


def test_superposition_left_rejects_misuse():
    po = pqr_order([clause("R", "P"), clause("R", "Q"), clause("-R", "R", "Q")])
    with pytest.raises(ValueError):
        superposition_left(clause("R", "P"), clause("R", "Q"), po)   # max not negative
    with pytest.raises(ValueError):
        superposition_left(clause("-R", "P"), clause("Q"), po)       # producer lacks the atom
    with pytest.raises(ValueError):
        # producer's positive occurrence is not strictly maximal
        superposition_left(clause("-R", "P"), clause("-R", "R", "Q"), po)
    with pytest.raises(ValueError, match="^cannot superpose into the empty clause$"):
        superposition_left(EMPTY_CLAUSE, clause("R", "Q"), po)


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

KBO_TEXT = """\
order: kbo
prec: a < b < P < Q
clause: P(a) | P(a)
clause: -P(a) | Q(b)
clause: -Q(b)
"""


def test_construct_model_without_any_production():
    p = parse_problem(KBO_TEXT)
    po = ProblemOrder(p)
    mc = construct_model(p.clauses, po)
    c1, c2, c3 = p.clauses.clauses()
    assert mc.model == frozenset()
    assert mc.producer == {}
    assert mc.minimal_false == c1        # duplicated maximum cannot produce
    assert mc.delta_of(c1) is None
    # nothing is produced, so each entry is true exactly under its prefix
    assert [eval_herbrand(e.prefix, e.clause) for e in mc.entries] == [False, True, True]
    assert [e.clause for e in mc.entries] == [c1, c2, c3]


LPO_TEXT = """\
order: lpo
prec: a < b < P < Q
clause: P(a)
clause: -P(b) | Q(a)
clause: -P(a) | Q(a) | Q(a)
clause: P(a) | -Q(a)
clause: -P(a) | -Q(a)
"""


def test_construct_model_with_production():
    p = parse_problem(LPO_TEXT)
    po = ProblemOrder(p)
    mc = construct_model(p.clauses, po)
    c1, c2, c3, c4, c5 = p.clauses.clauses()
    pa = T("P", T("a"))
    assert mc.producer == {pa: c1}
    assert mc.model == frozenset({pa})
    assert mc.minimal_false == c3
    by_clause = {e.clause: e for e in mc.entries}
    assert mc.delta_of(c1) == pa
    assert by_clause[c1].prefix == frozenset()
    assert eval_herbrand(by_clause[c2].prefix, c2) and mc.delta_of(c2) is None
    assert not eval_herbrand(by_clause[c3].prefix, c3) and mc.delta_of(c3) is None


def test_prefix_and_delta_queries():
    p = parse_problem(LPO_TEXT)
    po = ProblemOrder(p)
    c3 = p.clauses.clauses()[2]
    with_factor = list(p.clauses) + [sfac(c3, po)]
    mc = construct_model(with_factor, po)
    pa, pb, qa = T("P", T("a")), T("P", T("b")), T("Q", T("a"))
    c2 = p.clauses.clauses()[1]
    c6 = sfac(c3, po)
    assert mc.prefix_below(c2) == frozenset({pa, qa})
    assert mc.delta_of(c6) == qa
    assert mc.delta_of(c3) is None                    # satisfied by then
    # queries are defined for clauses outside the set as well
    floating = Clause([Literal(pb)])
    assert mc.prefix_below(floating) == frozenset({pa})
    assert mc.delta_of(floating) == pb


def test_produced_atoms_ascend_along_the_clause_order():
    p = parse_problem(LPO_TEXT)
    po = ProblemOrder(p)
    c3 = p.clauses.clauses()[2]
    mc = construct_model(list(p.clauses) + [sfac(c3, po)], po)
    produced_by = {c: a for a, c in mc.producer.items()}
    produced = [produced_by[e.clause] for e in mc.entries if e.clause in produced_by]
    assert len(produced) == len(mc.producer)
    for earlier, later in zip(produced, produced[1:]):
        assert po.atom_rank(earlier) < po.atom_rank(later)
    for e in mc.entries:
        assert mc.delta_of(e.clause) == produced_by.get(e.clause)


# ---------------------------------------------------------------------------
# Full runs, frozen traces
# ---------------------------------------------------------------------------


def test_run_kbo_refutation_trace():
    p = parse_problem(KBO_TEXT)
    run = run_sup_mo(p)
    c1, c2, c3 = p.clauses.clauses()
    pa = Literal(T("P", T("a")))
    qb = Literal(T("Q", T("b")))

    assert run.outcome == UNSATISFIABLE
    assert [s.kind for s in run.steps] == [
        "factoring", "superposition_left", "superposition_left",
    ]
    assert tuple(s.conclusion for s in run.steps) == (
        Clause([pa]),
        Clause([pa.complement()]),
        EMPTY_CLAUSE,
    )
    assert run.steps[0].main == c1 and run.steps[0].side is None
    assert run.steps[1].main == c3 and run.steps[1].side == c2
    assert run.steps[1].pivot == qb.atom
    assert run.steps[2].main == Clause([pa.complement()])
    assert run.steps[2].side == Clause([pa])
    assert len(run.snapshots) == 4
    models = [s.construction.model for s in run.snapshots]
    assert models[0] == frozenset()
    assert models[1] == frozenset({pa.atom, qb.atom})
    assert models[2] == frozenset({pa.atom, qb.atom})
    assert run.snapshots[0].construction.minimal_false == c1
    assert run.model is None


def test_run_lpo_refutation_trace():
    p = parse_problem(LPO_TEXT)
    run = run_sup_mo(p)
    c1, c2, c3, c4, c5 = p.clauses.clauses()
    npa = Literal(T("P", T("a")), False)
    qa = Literal(T("Q", T("a")))

    c6 = Clause([npa, qa])
    c7 = Clause([npa, npa])
    c8 = Clause([npa])
    assert run.outcome == UNSATISFIABLE
    assert tuple(s.conclusion for s in run.steps) == (c6, c7, c8, EMPTY_CLAUSE)
    assert [s.kind for s in run.steps] == [
        "factoring", "superposition_left", "superposition_left", "superposition_left",
    ]
    assert [s.main for s in run.steps] == [c3, c5, c7, c8]
    assert [s.side for s in run.steps] == [None, c6, c1, c1]


THIRD_TEXT = """\
order: lpo
prec: a < b < P < Q
clause: P(a)
clause: -P(b)
clause: -P(a) | Q(a)
clause: P(b) | -Q(a)
"""


def test_run_third_example_refutation():
    p = parse_problem(THIRD_TEXT)
    run = run_sup_mo(p)
    c1, c2, c3, c4 = p.clauses.clauses()
    npa = Literal(T("P", T("a")), False)
    pb = Literal(T("P", T("b")))

    c5 = Clause([npa, pb])
    c6 = Clause([npa])
    assert run.outcome == UNSATISFIABLE
    assert tuple(s.conclusion for s in run.steps) == (c5, c6, EMPTY_CLAUSE)
    assert [s.main for s in run.steps] == [c4, c2, c6]
    assert [s.side for s in run.steps] == [c3, c5, c1]


def test_run_third_example_without_the_block_is_satisfiable():
    text = THIRD_TEXT.replace("clause: -P(b)\n", "")
    p = parse_problem(text)
    run = run_sup_mo(p)
    pa, pb, qa = T("P", T("a")), T("P", T("b")), T("Q", T("a"))
    assert run.outcome == SATISFIABLE
    assert run.model == frozenset({pa, pb, qa})
    assert tuple(s.conclusion for s in run.steps) == (Clause([Literal(pa, False), Literal(pb)]),)
    assert len(run.snapshots) == 2
    for c in p.clauses:
        assert eval_herbrand(set(run.model), c)


def test_tautologies_are_never_selected():
    prob = listed_problem([clause("P", "-P"), clause("Q")], "P", "Q")
    run = run_sup_mo(prob)
    assert run.outcome == SATISFIABLE
    assert run.model == frozenset({Atom("Q")})
    assert len(run.steps) == 0


def test_cap_is_reported():
    p = parse_problem(LPO_TEXT)
    run = run_sup_mo(p, max_steps=1)
    assert run.outcome == CAP_EXCEEDED
    assert len(run.steps) == 1
    assert run.model is None


def test_next_inference_requires_a_false_clause():
    prob = listed_problem([clause("P")], "P")
    po = ProblemOrder(prob)
    mc = construct_model(prob.clauses, po)
    assert mc.minimal_false is None
    with pytest.raises(ValueError):
        next_inference(mc, po)
    refuted = construct_model([EMPTY_CLAUSE, clause("P")], po)
    assert refuted.minimal_false == EMPTY_CLAUSE
    with pytest.raises(ValueError, match="^the empty clause is already present$"):
        next_inference(refuted, po)


@pytest.mark.parametrize("false_clause,message", [
    ("-P", "false clause -P has maximal literal -P but P has no producer"),
    ("P", "false clause P has a strictly maximal positive literal; it should have produced"),
], ids=["no-producer", "should-have-produced"])
def test_next_inference_rejects_a_construction_no_walk_builds(false_clause, message):
    """A walk never leaves a clause false whose negative maximum nothing
    produced, nor one that could have produced its strictly maximal
    positive literal; a hand-built construction claiming either is
    rejected."""
    po = pqr_order([clause("P")])
    claimed = types.SimpleNamespace(minimal_false=clause(false_clause),
                                    producer_of=lambda atom: None)
    with pytest.raises(RuntimeError) as e:
        next_inference(claimed, po)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Random cross-check against exhaustive model search
# ---------------------------------------------------------------------------


def brute_sat(clauses, atoms):
    atoms = sorted(atoms, key=lambda a: a.text)
    for bits in range(1 << len(atoms)):
        model = {a for i, a in enumerate(atoms) if bits >> i & 1}
        if all(eval_herbrand(model, c) for c in clauses):
            return True
    return False


_lits = st.builds(Literal, st.sampled_from([Atom(n) for n in PQR]), st.booleans())
_rand_clauses = st.lists(st.lists(_lits, min_size=1, max_size=4).map(Clause),
                         min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_rand_clauses)
def test_random_runs_agree_with_exhaustive_search(cls):
    prob = listed_problem(cls, *PQR)
    run = run_sup_mo(prob, max_steps=300)
    assert run.outcome in (SATISFIABLE, UNSATISFIABLE)
    expected_sat = brute_sat(prob.clauses, [Atom(n) for n in PQR])
    assert (run.outcome == SATISFIABLE) == expected_sat
    if run.outcome == SATISFIABLE:
        for c in prob.clauses:
            assert eval_herbrand(set(run.model), c)
    else:
        assert run.steps[-1].conclusion == EMPTY_CLAUSE
    # every conclusion is genuinely new at the moment it is derived
    seen = set(prob.clauses)
    for d in (s.conclusion for s in run.steps):
        assert d not in seen
        seen.add(d)


def _linear_prefix_below(mc, clause, po):
    key = po.clause_key(clause)
    return frozenset(a for a, c in mc.producer.items() if po.clause_key(c) < key)


def _check_snapshot(snap, po, outside=()):
    """The rows of the construction share one prefix set per production
    plus the empty one, ``model`` is the last row's prefix plus that row's
    production, and prefix_below agrees with a linear walk over the
    producers."""
    mc = snap.construction
    prefixes = {id(e.prefix): e.prefix for e in mc.entries}
    assert len(prefixes) <= len(mc.producer) + 1
    last = mc.entries[-1]
    produced = mc.delta_of(last.clause)
    assert mc.model == last.prefix.union([produced] if produced else [])
    above_all = Clause([Literal(po.atoms_ascending[-1], False)] * 50)
    assert mc.prefix_below(above_all) == mc.model
    # members, their factored images, and clauses outside the set
    for c in list(snap.clauses) + [sfac(c, po) for c in snap.clauses] + list(outside):
        assert mc.prefix_below(c) == _linear_prefix_below(mc, c, po), c
    assert mc.prefix_below(EMPTY_CLAUSE) == frozenset()


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DATA, "*.prob"))),
                         ids=os.path.basename)
def test_golden_constructions_share_one_prefix_per_production(path):
    with open(path) as fh:
        prob = parse_problem(fh.read())
    po = ProblemOrder(prob)
    run = run_sup_mo(prob, po)
    for snap in run.snapshots:
        _check_snapshot(snap, po)


@settings(max_examples=100, deadline=None)
@given(_rand_clauses, st.lists(st.lists(_lits, max_size=5).map(Clause), max_size=8))
def test_prefix_below_matches_a_linear_walk(cls, probes):
    prob = listed_problem(cls, *PQR)
    po = ProblemOrder(prob)
    run = run_sup_mo(prob, po, max_steps=300)
    universe = set(po.atoms_ascending)
    outside = [c for c in probes if atoms_of([c]) <= universe]
    for snap in run.snapshots:
        _check_snapshot(snap, po, outside)


# ---------------------------------------------------------------------------
# The run's constructions against fresh ones
# ---------------------------------------------------------------------------


def _expect_fresh_construction(snap, po, outside=()):
    """The run's construction of ``snap`` answers every read as a fresh
    construct_model over its clauses does. The reads that stay at or below
    its minimal false clause come first and leave it unfinished. A member
    at or below a clause produces an atom when a member below it does or
    the clause is a member that produces it."""
    mc = snap.construction
    ref = construct_model(snap.clauses, po)
    members = set(snap.clauses)
    probes = (list(snap.clauses) + [sfac(c, po) for c in snap.clauses]
              + list(outside) + [EMPTY_CLAUSE])

    def produced_up_to(c):
        own = ref.delta_of(c) if c in members else None
        return ref.prefix_below(c) | ({own} if own is not None else set())

    assert mc.minimal_false == ref.minimal_false
    if mc.minimal_false is not None:
        top = po.clause_key(mc.minimal_false)
        for c in probes:
            if po.clause_key(c) <= top:
                assert mc.prefix_below(c) == ref.prefix_below(c), c
                assert mc.delta_of(c) == ref.delta_of(c), c
                assert {a for a in po.atoms_ascending
                        if mc.produces_up_to(a, c)} == produced_up_to(c), c
        for atom, c in ref.producer.items():
            if po.clause_key(c) < top:
                assert mc.producer_of(atom) == c
        assert not mc._complete
    for atom in po.atoms_ascending:             # a miss completes
        assert mc.producer_of(atom) == ref.producer_of(atom)
    for c in probes:
        assert mc.prefix_below(c) == ref.prefix_below(c), c
        assert mc.delta_of(c) == ref.delta_of(c), c
        assert {a for a in po.atoms_ascending if mc.produces_up_to(a, c)} == produced_up_to(c), c
        assert snap.contains(c) == (c in members), c
    assert list(mc.producer.items()) == list(ref.producer.items())
    assert mc.model == ref.model
    assert mc.entries == ref.entries


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DATA, "*.prob"))),
                         ids=os.path.basename)
def test_golden_runs_match_fresh_constructions(path):
    with open(path) as fh:
        prob = parse_problem(fh.read())
    po = ProblemOrder(prob)
    run = run_sup_mo(prob, po)
    for i, snap in enumerate(run.snapshots):
        assert snap.index == i
        _expect_fresh_construction(snap, po)


@settings(max_examples=100, deadline=None)
@given(_rand_clauses, st.lists(st.lists(_lits, max_size=5).map(Clause), max_size=8))
def test_random_runs_match_fresh_constructions(cls, probes):
    prob = listed_problem(cls, *PQR)
    po = ProblemOrder(prob)
    run = run_sup_mo(prob, po, max_steps=300)
    universe = set(po.atoms_ascending)
    outside = [c for c in probes if atoms_of([c]) <= universe]
    for snap in run.snapshots:
        _expect_fresh_construction(snap, po, outside)


def test_completion_skips_clauses_derived_later():
    """A conclusion can lie above an earlier snapshot's minimal false clause
    (here R, derived after Q | Q): completing that snapshot must not see it."""
    prob = listed_problem([clause("Q", "Q"), clause("R", "R"), clause("-R"), clause("-P")],
                          "Q", "P", "R")
    po = ProblemOrder(prob)
    run = run_sup_mo(prob, po)
    first = run.snapshots[0]
    assert first.construction.minimal_false == clause("Q", "Q")
    assert run.steps[1].conclusion == clause("R")
    assert po.clause_key(clause("Q", "Q")) < po.clause_key(clause("R"))
    for snap in run.snapshots:
        _expect_fresh_construction(snap, po)
    assert first.construction.model == frozenset()


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DATA, "*.prob"))),
                         ids=os.path.basename)
def test_a_first_read_above_the_minimal_false_clause_completes(path):
    """prefix_below, delta_of and produces_up_to of a clause above an
    unfinished snapshot's minimal false clause, as the very first read of a
    fresh run, answer as a fresh construct_model does."""
    with open(path) as fh:
        prob = parse_problem(fh.read())
    po = ProblemOrder(prob)
    run = run_sup_mo(prob, po)
    for i, snap in enumerate(run.snapshots):
        if snap.construction.minimal_false is None:
            continue
        ref = construct_model(snap.clauses, po)
        top = po.clause_key(snap.construction.minimal_false)
        above = [c for c in snap.clauses if po.clause_key(c) > top]
        for c in above:
            for read in ("prefix_below", "delta_of"):
                mc = run_sup_mo(prob, po).snapshots[i].construction
                assert not mc._complete
                assert getattr(mc, read)(c) == getattr(ref, read)(c), (i, c, read)
            mc = run_sup_mo(prob, po).snapshots[i].construction
            assert not mc._complete
            produced = {a for a in po.atoms_ascending if mc.produces_up_to(a, c)}
            assert produced == ref.prefix_below(c) | {ref.delta_of(c)} - {None}, (i, c)


def test_a_first_read_above_the_minimal_false_clause_sees_later_productions():
    with open(os.path.join(DATA, "factoring_chain.prob")) as fh:
        prob = parse_problem(fh.read())
    pa, qb = T("P", T("a")), T("Q", T("b"))
    mc = run_sup_mo(prob).snapshots[2].construction
    assert mc.prefix_below(Clause([Literal(qb, False)])) == {pa, qb}


def test_a_run_is_freed_without_the_cycle_collector():
    with open(os.path.join(DATA, "factoring_chain.prob")) as fh:
        prob = parse_problem(fh.read())
    gc.disable()
    try:
        run = run_sup_mo(prob)
        for snap in run.snapshots:          # completed ones too
            snap.construction.entries
        last = weakref.ref(snap)
        construction = weakref.ref(snap.construction)
        del run, snap
        assert last() is None and construction() is None
    finally:
        gc.enable()


def test_a_conclusion_not_below_its_main_premise_is_rejected(monkeypatch):
    prob = parse_problem(LPO_TEXT)
    real = superposition.next_inference

    def enlarged(construction, order):
        step = real(construction, order)
        bigger = step.main + Clause([order.max_literal(step.main)])
        return dataclasses.replace(step, conclusion=bigger)

    monkeypatch.setattr(superposition, "next_inference", enlarged)
    with pytest.raises(RuntimeError, match="not smaller than"):
        run_sup_mo(prob)
