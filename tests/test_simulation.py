"""Lockstep strategy: frozen end-to-end traces and invariant checking.

Every annotation (pair index, attention clause, factored-image map), trail,
learned clause, and sequence kind asserted below was derived by hand before
the strategy code existed. The mutation tests then confirm the invariant
checker actually rejects broken states rather than waving everything through.
"""

import dataclasses
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from lockstep import simulation
from lockstep.core import (
    Atom,
    Clause,
    ClauseSet,
    EMPTY_CLAUSE,
    GroundTerm,
    Literal,
    OrderingConfig,
    Problem,
    parse_problem,
)
from lockstep.harness import GenParams, random_problem
from lockstep.ordering import ProblemOrder
from lockstep.scl import (
    RuleError,
    TrailEntry,
    decide,
    initial_state,
    is_defined,
    literal_level,
    propagate,
)
from lockstep.superposition import SATISFIABLE, ModelConstruction, run_sup_mo, sfac
from lockstep.simulation import (
    Annotation,
    SimulationError,
    check_invariants,
    check_progress,
    filler_decisions,
    lockstep_verify,
    next_attention,
    run_scl_sup,
)


def T(name, *args):
    return GroundTerm(name, tuple(args))


def lit(text):
    positive = not text.startswith("-")
    return Literal(Atom(text.lstrip("-")), positive)


PA = Literal(T("P", T("a")))
PB = Literal(T("P", T("b")))
QA = Literal(T("Q", T("a")))
QB = Literal(T("Q", T("b")))

KBO_TEXT = """\
order: kbo
prec: a < b < P < Q
clause: P(a) | P(a)
clause: -P(a) | Q(b)
clause: -Q(b)
"""

LPO_TEXT = """\
order: lpo
prec: a < b < P < Q
clause: P(a)
clause: -P(b) | Q(a)
clause: -P(a) | Q(a) | Q(a)
clause: P(a) | -Q(a)
clause: -P(a) | -Q(a)
"""

THIRD_TEXT = """\
order: lpo
prec: a < b < P < Q
clause: P(a)
clause: -P(b)
clause: -P(a) | Q(a)
clause: P(b) | -Q(a)
"""

SAT_TEXT = THIRD_TEXT.replace("clause: -P(b)\n", "")


def annotations_of(run):
    return [(a.index, a.aid) for a in run.annotations]


def test_kbo_refutation_simulation_trace():
    p = parse_problem(KBO_TEXT)
    run = run_scl_sup(p)
    c1, c2, c3 = p.clauses.clauses()
    not_pa = Clause([PA.complement()])

    assert run.outcome == "unsatisfiable"
    assert [s.kind for s in run.seqs] == ["decide", "clash", "learn_negative", "refute"]
    assert annotations_of(run) == [
        (0, EMPTY_CLAUSE), (1, c1), (1, c2), (2, c1), (3, EMPTY_CLAUSE),
    ]
    assert run.annotations[0].gamma == {}
    assert run.annotations[1].gamma == {c1: Clause([PA])}
    assert run.learned == (not_pa, EMPTY_CLAUSE)
    assert run.state.u == (not_pa,)
    assert run.state.trail == () and run.state.k == 0
    assert run.state.conflict == EMPTY_CLAUSE
    assert run.model is None

    mid = run.boundary_states[2]         # after the propagate-then-conflict round
    assert [e.literal for e in mid.trail] == [PA, QB]
    assert mid.trail[0].is_decision and mid.trail[0].level == 1
    assert mid.trail[1].reason == c2
    assert mid.conflict == c3


def test_lpo_refutation_simulation_trace():
    p = parse_problem(LPO_TEXT)
    run = run_scl_sup(p)
    c1, c2, c3, c4, c5 = p.clauses.clauses()
    c6 = Clause([PA.complement(), QA])
    c7 = Clause([PA.complement(), PA.complement()])

    assert run.outcome == "unsatisfiable"
    assert [s.kind for s in run.seqs] == [
        "decide", "pass", "clash", "learn_negative", "refute",
    ]
    assert annotations_of(run) == [
        (0, EMPTY_CLAUSE), (0, c1), (0, c2), (1, c3), (2, c1), (4, EMPTY_CLAUSE),
    ]
    # the two copies of the duplicated top literal get resolved one per step,
    # which is why the pair index jumps by two at the end
    assert run.annotations[4].index == 2 and run.annotations[5].index == 4
    assert run.annotations[2].gamma == {}
    assert run.annotations[3].gamma == {c3: c6}
    assert run.learned == (c7, EMPTY_CLAUSE)
    assert run.state.u == (c7,)

    after_pass = run.boundary_states[2]
    assert [e.literal for e in after_pass.trail] == [PA, PB.complement()]
    assert after_pass.trail[1].is_decision and after_pass.trail[1].level == 2

    after_clash = run.boundary_states[3]
    assert [e.literal for e in after_clash.trail] == [PA, PB.complement(), QA]
    assert after_clash.trail[2].reason == c6
    assert after_clash.conflict == c5


def test_third_example_refutation_simulation_trace():
    p = parse_problem(THIRD_TEXT)
    run = run_scl_sup(p)
    c1, c2, c3, c4 = p.clauses.clauses()
    e2 = Clause([PA.complement(), PB])
    not_pa = Clause([PA.complement()])

    assert run.outcome == "unsatisfiable"
    assert [s.kind for s in run.seqs] == [
        "decide", "pass", "clash", "learn_propagate", "learn_negative", "refute",
    ]
    assert annotations_of(run) == [
        (0, EMPTY_CLAUSE), (0, c1), (0, c2), (0, c3), (1, e2), (2, c1),
        (3, EMPTY_CLAUSE),
    ]
    assert run.learned == (e2, not_pa, EMPTY_CLAUSE)

    relearned = run.boundary_states[4]   # after learning and re-propagating
    assert [e.literal for e in relearned.trail] == [PA, PB]
    assert relearned.trail[1].reason == e2     # justification is the learned clause
    assert relearned.conflict == c2
    assert relearned.u == (e2,)
    assert relearned.k == 1
    # the learned clause maps to itself, so the factored-image map stays empty
    assert run.annotations[4].gamma == {}


def test_third_example_satisfiable_variant_trace():
    p = parse_problem(SAT_TEXT)
    run = run_scl_sup(p)
    c1, c3, c4 = p.clauses.clauses()
    e2 = Clause([PA.complement(), PB])

    assert run.outcome == "satisfiable"
    assert [s.kind for s in run.seqs] == [
        "decide", "clash", "learn_decide", "decide", "pass",
    ]
    assert annotations_of(run) == [
        (0, EMPTY_CLAUSE), (0, c1), (0, c3), (1, e2), (1, c3), (1, c4),
    ]
    assert run.learned == (e2,)
    assert run.model == frozenset({PA.atom, PB.atom, QA.atom})
    final = run.state
    assert [e.literal for e in final.trail] == [PA, PB, QA]
    assert [e.is_decision for e in final.trail] == [True, True, True]
    assert final.k == 3
    assert final.conflict is None


def test_contradictory_units_refute_in_two_sequences():
    p = parse_problem("order: kbo\nprec: a < P\nclause: P(a)\nclause: -P(a)\n")
    run = run_scl_sup(p)
    assert run.outcome == "unsatisfiable"
    assert [s.kind for s in run.seqs] == ["clash", "refute"]
    assert run.learned == (EMPTY_CLAUSE,)
    assert run.state.u == ()       # refutation is reached without backtracking
    assert annotations_of(run)[-1] == (1, EMPTY_CLAUSE)


def test_attention_skips_satisfied_clauses():
    p = parse_problem("order: kbo\nprec: a < P < Q\nclause: P(a)\nclause: P(a) | Q(a)\n")
    run = run_scl_sup(p)
    assert run.outcome == "satisfiable"
    assert [s.kind for s in run.seqs] == ["decide", "pass"]
    assert run.model == frozenset({PA.atom})


def test_filler_decisions_cover_a_negative_maximum():
    p = parse_problem("order: kbo\nprec: a < P\nclause: -P(a)\n")
    run = run_scl_sup(p)
    assert run.outcome == "satisfiable"
    assert [s.kind for s in run.seqs] == ["pass"]
    final = run.state
    assert [e.literal for e in final.trail] == [PA.complement()]
    assert final.trail[0].is_decision
    assert run.model == frozenset()


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.prob"))),
    ids=os.path.basename)
def test_trail_queries_match_a_plain_trail_scan(path):
    """is_defined, literal_level and filler_decisions agree with scanning
    the trail for an equal atom, on every state of the golden trail runs;
    the probes are copies, so no answer rests on atom identity."""
    with open(path) as fh:
        p = parse_problem(fh.read())
    po = ProblemOrder(p)
    probes = [GroundTerm(a.name, a.args) for a in po.atoms_ascending]
    for state in run_scl_sup(p, po).states:
        def on_trail(atom):
            return [e for e in state.trail if e.literal.atom == atom]
        for atom in probes:
            found = on_trail(atom)
            assert is_defined(state, atom) == bool(found)
            for lit_ in (Literal(atom), Literal(atom, False)):
                if found:
                    assert literal_level(state, lit_) == found[0].level
                else:
                    with pytest.raises(ValueError):
                        literal_level(state, lit_)
            for bound in (Literal(atom), Literal(atom, False)):
                cut = po.literal_rank(bound)
                expected = [Literal(a, False) for a in po.atoms_ascending
                            if po.literal_rank(Literal(a)) < cut and not on_trail(a)]
                assert filler_decisions(po, state, bound) == expected


def test_next_attention_walks_the_image_order():
    p = parse_problem(KBO_TEXT)
    po = ProblemOrder(p)
    c1, c2, c3 = p.clauses.clauses()
    run = run_scl_sup(p)
    s0 = run.boundary_states[0]
    gamma = run.annotations[0].gamma
    assert next_attention(po, s0, Annotation(0, EMPTY_CLAUSE, gamma)) == c1
    assert next_attention(po, s0, Annotation(0, c1, gamma)) == c2
    assert next_attention(po, s0, Annotation(0, c3, gamma)) is None


def test_gamma_keys_and_strict_gamma_comparison():
    p = parse_problem(KBO_TEXT)
    po = ProblemOrder(p)
    c1, c2, _ = p.clauses.clauses()
    pa = Clause([PA])
    key = simulation._gamma_key
    g = {c1: pa}
    assert key(po, c1, g) == (po.clause_key(pa), po.clause_key(c1))
    assert key(po, c1, g)[0] < key(po, c2, g)[0]
    # image ties are not strict even though the clauses differ
    g2 = {**g, c2: pa}
    assert key(po, c1, g2)[0] == key(po, c2, g2)[0]
    assert key(po, c1, g2) < key(po, c2, g2)   # plain order breaks the tie


def test_factored_image_maps_hold_no_identity_entries():
    data = os.path.join(os.path.dirname(__file__), "data")
    texts = [KBO_TEXT, LPO_TEXT, THIRD_TEXT, SAT_TEXT]
    for path in sorted(glob.glob(os.path.join(data, "*.prob"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    problems = [parse_problem(t) for t in texts]
    params = GenParams(preds=("P", "Q", "R", "S"), clause_count=10, max_len=4)
    problems += [random_problem(dataclasses.replace(params, seed=s)) for s in range(300)]
    entries = 0
    for p in problems:
        run = run_scl_sup(p)
        for ann in run.annotations:
            identities = [c for c, img in ann.gamma.items() if img == c]
            assert not identities, (p, ann, identities)
            entries += len(ann.gamma)
    assert entries > 0          # the maps are not empty throughout


# ---------------------------------------------------------------------------
# Invariant checking on honest and tampered states
# ---------------------------------------------------------------------------

INVARIANT_NAMES = [
    "atoms-in-scope",
    "trail-below-bound",
    "membership",
    "factored-map-shape",
    "positives-match-production",
    "negatives-cover-gap",
    "trail-ascends",
    "producers-exist",
    "producer-preimages",
    "conflict-top-propagation",
    "conflict-is-minimal-false",
    "prefix-satisfied",
    "no-missed-conflict",
    "refutation-sync",
]


def _verdicts(reports):
    return {r.name: r.ok for r in reports}


def _golden_boundary():
    """Golden run plus its paired saturation run, at the first conflict."""
    p = parse_problem(LPO_TEXT)
    po = ProblemOrder(p)
    sim = run_scl_sup(p, po)
    sup = run_sup_mo(p, po)
    b = 3                                 # boundary after the clash sequence
    ann = sim.annotations[b]
    state = sim.boundary_states[b]
    snapshot = sup.snapshots[ann.index]
    return p, po, state, ann, snapshot


def test_all_invariants_hold_on_the_golden_boundary():
    p, po, state, ann, snapshot = _golden_boundary()
    reports = check_invariants(po, state, ann, snapshot)
    assert [r.name for r in reports] == INVARIANT_NAMES
    assert all(r.ok for r in reports), [r for r in reports if not r.ok]


def test_every_boundary_of_every_golden_run_checks_out():
    for text in (KBO_TEXT, LPO_TEXT, THIRD_TEXT):
        p = parse_problem(text)
        po = ProblemOrder(p)
        sim = run_scl_sup(p, po)
        sup = run_sup_mo(p, po)
        for b, (ann, state) in enumerate(zip(sim.annotations, sim.boundary_states)):
            reports = check_invariants(po, state, ann, sup.snapshots[ann.index])
            assert all(r.ok for r in reports), (text, b, [r for r in reports if not r.ok])


def test_a_passing_invariant_shares_one_report_and_builds_no_detail(monkeypatch):
    # every boundary of a sound run passes each invariant with the same
    # report object, and no failure detail is built
    real, built = simulation._report, []

    def watched(name, ok, detail):
        def spy():
            built.append(name)
            return detail()
        return real(name, ok, spy)

    monkeypatch.setattr(simulation, "_report", watched)
    shared = {}
    for text in (KBO_TEXT, LPO_TEXT, THIRD_TEXT, SAT_TEXT):
        result = lockstep_verify(parse_problem(text))
        for b in result.boundaries:
            for r in b.reports:
                assert r.ok and r.detail == ""
                assert shared.setdefault(r.name, r) is r
    assert list(shared) == list(simulation.INVARIANTS) == INVARIANT_NAMES and built == []


def test_each_boundary_reads_its_attention_prefix_once(monkeypatch):
    # invariants (v) and (vi) share the atoms produced below the attention
    # image, and (v) derives the image's own production from them
    real, reads = ModelConstruction.prefix_below, []

    def counted(self, clause):
        reads.append(clause)
        return real(self, clause)

    monkeypatch.setattr(ModelConstruction, "prefix_below", counted)
    for text in (KBO_TEXT, LPO_TEXT, THIRD_TEXT, SAT_TEXT):
        reads.clear()
        result = lockstep_verify(parse_problem(text))
        assert result.ok and len(reads) == len(result.boundaries)


def test_reversed_trail_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    bad = dataclasses.replace(state, trail=tuple(reversed(state.trail)))
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["trail-ascends"]


def test_missing_propagation_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    bad = dataclasses.replace(state, trail=state.trail[:-1])
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["positives-match-production"]
    assert not v["conflict-top-propagation"]


def test_missing_filler_decision_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    bad = dataclasses.replace(state, trail=(state.trail[0],) + state.trail[2:])
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["negatives-cover-gap"]


def test_wrong_conflict_clause_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    c4 = p.clauses.clauses()[3]
    bad = dataclasses.replace(state, conflict=c4)
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["conflict-is-minimal-false"]


def test_foreign_learned_clause_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    bad = dataclasses.replace(state, u=(Clause([PB.complement()]),))
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["membership"]


def test_stale_pair_index_is_caught():
    p = parse_problem(LPO_TEXT)
    po = ProblemOrder(p)
    sim = run_scl_sup(p, po)
    sup = run_sup_mo(p, po)
    ann = sim.annotations[3]
    state = sim.boundary_states[3]
    # pairing with the *initial* saturation state instead of the advanced one
    v = _verdicts(check_invariants(po, state, ann, sup.snapshots[0]))
    assert not v["factored-map-shape"]


def test_out_of_scope_atom_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    rogue = Clause([Literal(Atom("Zz"), False)])
    bad = dataclasses.replace(state, u=(rogue,))
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["atoms-in-scope"]


def test_atoms_past_the_bound_are_rejected():
    """Under the order of a problem over P alone, Q lies past the bound:
    the rules refuse to put it on a trail, and invariant (ii) flags a trail
    that holds it."""
    small = parse_problem("order: listed\natoms: P\nclause: P\n")
    po = ProblemOrder(small)
    p = parse_problem("order: listed\natoms: P < Q\nclause: P | Q\n")
    s0 = initial_state(p)
    q = lit("Q")
    with pytest.raises(RuleError) as e:
        decide(po, s0, q)
    assert e.value.guard == "atom-beyond-bound"
    with pytest.raises(RuleError) as e:
        propagate(po, s0, p.clauses.clauses()[0], q)
    assert e.value.guard == "atom-beyond-bound"
    state = decide(ProblemOrder(p), s0, q)
    snapshot = run_sup_mo(small, po).snapshots[0]
    reports = {r.name: r for r in
               check_invariants(po, state, Annotation(0, EMPTY_CLAUSE, {}), snapshot)}
    assert not reports["trail-below-bound"].ok
    assert reports["trail-below-bound"].detail == "atoms at or above the bound: [Q]"


def test_producer_without_a_preimage_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    producers = {
        snapshot.construction.producer[e.literal.atom]
        for e in state.trail if e.literal.positive
    }
    assert producers
    kept = tuple(c for c in state.n if ann.gamma.get(c, c) not in producers)
    v = _verdicts(check_invariants(po, dataclasses.replace(state, n=kept), ann, snapshot))
    assert not v["producer-preimages"]


def _wrong_image(p, state, ann):
    return state, dataclasses.replace(ann, gamma={**ann.gamma, p.clauses.clauses()[1]: p.clauses.clauses()[0]})


def _reason_replaced(p, state, ann):
    top = dataclasses.replace(state.trail[-1], reason=p.clauses.clauses()[1])
    return dataclasses.replace(state, trail=state.trail[:-1] + (top,)), ann


def _attention_emptied(p, state, ann):
    return state, dataclasses.replace(ann, aid=EMPTY_CLAUSE)


def _attention_moved(p, state, ann):
    return state, dataclasses.replace(ann, aid=p.clauses.clauses()[3])


def _conflict_satisfied(p, state, ann):
    return dataclasses.replace(state, conflict=p.clauses.clauses()[3]), ann


def _attention_unranked(p, state, ann):
    return state, dataclasses.replace(ann, aid=Clause([Literal(Atom("Zzz"))]))


_UNRANKED = "atom Zzz is outside this problem's universe"


# Each corruption of the golden boundary fails exactly these invariants, with
# these details.
@pytest.mark.parametrize("corrupt,failures", [
    (_wrong_image, {
        "factored-map-shape": "-P(b) | Q(a) maps to P(a), not its factored image",
    }),
    (_reason_replaced, {
        "producer-preimages":
            "justification -P(b) | Q(a) of Q(a) differs from the producer -P(a) | Q(a)",
        "conflict-is-minimal-false":
            "top justification -P(b) | Q(a) is not the attention image -P(a) | Q(a)",
    }),
    (_attention_emptied, {
        "positives-match-production":
            "trail makes ['P(a)', 'Q(a)'] true, construction expects []",
        "negatives-cover-gap": "trail makes ['P(b)'] false, expected []",
        "conflict-is-minimal-false": "attention is the empty clause during a conflict",
    }),
    (_attention_moved, {
        "conflict-is-minimal-false":
            "top justification -P(a) | Q(a) is not the attention image -Q(a) | P(a); "
            "top literal Q(a) is not the image's positive maximum",
    }),
    (_conflict_satisfied, {
        "conflict-is-minimal-false":
            "conflict is -Q(a) | P(a), construction says -P(a) | -Q(a); "
            "conflict clause is not falsified by the trail",
    }),
    (_attention_unranked, {
        "membership": "absent from the paired clause set: ['Zzz']",
        "positives-match-production": f"could not evaluate: {_UNRANKED}",
        "negatives-cover-gap": f"could not evaluate: {_UNRANKED}",
        "conflict-is-minimal-false": f"could not evaluate: {_UNRANKED}",
        "prefix-satisfied": f"could not evaluate: {_UNRANKED}",
    }),
], ids=["wrong-image", "reason-replaced", "attention-emptied", "attention-moved",
        "conflict-satisfied", "attention-unranked"])
def test_corrupted_boundary_reports_its_lines(corrupt, failures):
    p, po, state, ann, snapshot = _golden_boundary()
    reports = check_invariants(po, *corrupt(p, state, ann), snapshot)
    assert {r.name: r.detail for r in reports if not r.ok} == failures


def test_unsatisfied_prefix_clauses_are_listed_in_state_order():
    # with the trail emptied, every clause up to the attention clause
    # -P(b) | Q(a) is unsatisfied; the image order puts -P(a) | Q(a) | Q(a)
    # before it, the state after it, and the detail follows the state
    p, po, state, ann, snapshot = _golden_boundary()
    bad = dataclasses.replace(state, trail=(), conflict=None)
    moved = dataclasses.replace(ann, aid=p.clauses.clauses()[1])
    reports = {r.name: r for r in check_invariants(po, bad, moved, snapshot)}
    assert not reports["prefix-satisfied"].ok
    assert reports["prefix-satisfied"].detail == (
        "not satisfied yet: ['P(a)', '-P(b) | Q(a)', '-P(a) | Q(a) | Q(a)']")


@pytest.mark.parametrize("last, unsatisfied", [
    (PA, "['-P(b) | Q(a)', '-P(a) | Q(a) | Q(a)']"),
    (PA.complement(), "['P(a)', '-P(b) | Q(a)']"),
], ids=["last-true", "last-false"])
def test_an_atom_on_the_trail_twice_takes_its_last_value(last, unsatisfied):
    # P(a) pushed with one sign and again with the other: the filler
    # decisions skip it, and the prefix clauses count as satisfied by its
    # last value only
    p, po, state, ann, snapshot = _golden_boundary()
    first = dataclasses.replace(state.trail[0], literal=last.complement())
    second = dataclasses.replace(state.trail[0], literal=last)
    bad = dataclasses.replace(state, trail=(first, second), conflict=None)
    assert filler_decisions(po, bad, QA) == [PB.complement()]
    moved = dataclasses.replace(ann, aid=p.clauses.clauses()[1])
    reports = {r.name: r for r in check_invariants(po, bad, moved, snapshot)}
    assert reports["prefix-satisfied"].detail == f"not satisfied yet: {unsatisfied}"


def test_producing_clause_names_an_unforced_literal():
    p, po, state, ann, snapshot = _golden_boundary()
    with pytest.raises(SimulationError, match=r"^no clause can force P\(b\)$"):
        simulation._producing_clause(po, state, ann.gamma, PB)


def test_unclaimed_false_clause_is_caught():
    p, po, state, ann, snapshot = _golden_boundary()
    assert state.conflict is not None and not state.conflict.is_empty
    bad = dataclasses.replace(state, conflict=None)   # its clause is still false
    v = _verdicts(check_invariants(po, bad, ann, snapshot))
    assert not v["no-missed-conflict"]


def test_progress_check():
    p = parse_problem(KBO_TEXT)
    po = ProblemOrder(p)
    c1, c2, _ = p.clauses.clauses()
    g = {}
    assert check_progress(po, Annotation(0, c1, g), Annotation(1, c2, g)) is None
    assert check_progress(po, Annotation(0, c1, g), Annotation(0, c2, g)) is None
    backwards = check_progress(po, Annotation(1, c2, g), Annotation(1, c1, g))
    assert backwards is not None and "attention" in backwards
    regressed = check_progress(po, Annotation(2, c1, g), Annotation(1, c2, g))
    assert regressed is not None
    changed = check_progress(po, Annotation(1, c1, g), Annotation(1, c2, {c1: Clause([PA])}))
    assert changed is not None and "map" in changed


# ---------------------------------------------------------------------------
# Strategy dead ends
# ---------------------------------------------------------------------------

# Each row puts the driver in a state shape that no sound run reaches, over
# the clauses P, -P | Q and -Q with P < Q, and pins the error it raises.

DEAD_END_TEXT = """\
order: listed
atoms: P < Q
clause: P
clause: -P | Q
clause: -Q
"""


def _decided(literal):
    return TrailEntry(lit(literal), 1, None)


def _propagated(literal, reason):
    return TrailEntry(lit(literal), 0, Clause([lit(t) for t in reason.split(" | ")]))


@pytest.mark.parametrize("trail,conflict,attention,message", [
    ((_decided("P"),), None, "-P",
     "attention clause -P is unsatisfied although its maximal literal -P is negative"),
    ((_decided("-P"),), None, "P", "attention clause P is false at its own turn"),
    ((), "-P", None, "conflict mode without a top propagation"),
    ((_decided("P"),), "-P", None, "conflict mode without a top propagation"),
    ((_propagated("P", "P"),), "-Q", None, "conflict -Q does not mention the propagated P"),
    ((_propagated("P", "P"),), "-P | Q", None, "nowhere to backtrack for the resolvent Q"),
    ((_propagated("P", "P"), _propagated("Q", "-P | Q")), "-Q", None,
     "resolvent -P blocks on the propagation P instead of a decision"),
], ids=["negative-maximum", "false-at-its-turn", "empty-trail", "top-decision",
        "unmentioned-propagation", "nowhere-to-backtrack", "blocks-on-propagation"])
def test_a_dead_end_of_the_strategy_raises(trail, conflict, attention, message):
    p = parse_problem(DEAD_END_TEXT)
    order = ProblemOrder(p)
    state = dataclasses.replace(
        initial_state(p), trail=trail,
        conflict=None if conflict is None else Clause([lit(t) for t in conflict.split(" | ")]))
    ann = Annotation(0, EMPTY_CLAUSE, {})
    run = simulation.SimRun(order, ann, [state])
    with pytest.raises(SimulationError) as raised:
        if attention is None:
            simulation._round_conflict(run, ann)
        else:
            simulation._round_no_conflict(run, ann, Clause([lit(attention)]))
    assert str(raised.value) == message


def test_a_repropagation_that_exposes_no_conflict_raises(monkeypatch):
    # the learned clause is false once its negated maximum is forced again;
    # with the false-clause query emptied for that one call shape, the
    # first learn_negative round of double_conflict.prob has no conflict
    real = simulation.conflict_candidates
    monkeypatch.setattr(simulation, "conflict_candidates",
                        lambda state, assuming=None: [] if assuming is None
                        else real(state, assuming))
    with open(os.path.join(os.path.dirname(__file__), "data", "double_conflict.prob"),
              encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    with pytest.raises(SimulationError) as raised:
        run_scl_sup(problem)
    assert str(raised.value) == "forcing P(a) from P(a) exposed no conflict"


# ---------------------------------------------------------------------------
# Full lockstep verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [KBO_TEXT, LPO_TEXT, THIRD_TEXT])
def test_lockstep_verifier_passes_the_golden_refutations(text):
    result = lockstep_verify(parse_problem(text))
    assert result.ok, result.failures()
    assert result.sup.outcome == "unsatisfiable"
    assert result.sim.outcome == "unsatisfiable"
    assert result.regularity_failures == []
    assert result.progress_failures == []
    assert all(b.ok for b in result.boundaries)


def test_pair_index_past_the_snapshots_is_reported(monkeypatch):
    real = simulation.run_sup_mo

    def truncated(*args, **kwargs):
        run = real(*args, **kwargs)
        del run.records[:], run.record_snapshots[1:]
        return run

    monkeypatch.setattr(simulation, "run_sup_mo", truncated)
    result = lockstep_verify(parse_problem(KBO_TEXT))
    names = [[r.name for r in b.reports] for b in result.boundaries]
    assert [b.index for b in result.boundaries] == [0, 1, 1, 2, 3]
    assert names == [INVARIANT_NAMES] + [["pair-index-in-range"]] * 4
    assert not result.ok


# Each wrapper calls the real engine on double_conflict.prob and corrupts one
# field of its record (or caps its run); the verifier must report
# exactly the matching failure line.


def _pair_index_set_back(real, *args, **kwargs):
    run = real(*args, **kwargs)
    seq = run.seqs[1]
    run.seqs[1] = dataclasses.replace(
        seq, annotation=dataclasses.replace(seq.annotation, index=-1))
    return run


def _step_capped(real, *args, **kwargs):
    return real(*args, **{**kwargs, "max_steps": 0})


def _round_capped(real, *args, **kwargs):
    return real(*args, **{**kwargs, "max_sequences": 1})


def _verdict_flipped(real, *args, **kwargs):
    run = real(*args, **kwargs)
    run.outcome = SATISFIABLE
    return run


def _last_step_dropped(real, *args, **kwargs):
    run = real(*args, **kwargs)
    run.records[-1] = dataclasses.replace(run.records[-1], count=run.records[-1].count - 1)
    return run


def _trail_reopened(real, *args, **kwargs):
    run = real(*args, **kwargs)
    run.states.append(dataclasses.replace(run.states[-1], trail=run.states[2].trail))
    return run


_FOREIGN = Clause([Literal(Atom("Zzz"))])


def _foreign_attention(real, *args, **kwargs):
    run = real(*args, **kwargs)
    seq = run.seqs[1]
    run.seqs[1] = dataclasses.replace(
        seq, annotation=dataclasses.replace(seq.annotation, aid=_FOREIGN))
    return run


def _foreign_learned(real, *args, **kwargs):
    run = real(*args, **kwargs)
    run.states.append(dataclasses.replace(run.states[-1], u=run.states[-1].u + (_FOREIGN,)))
    return run


@pytest.mark.parametrize("engine,wrapper,message", [
    ("run_scl_sup", _pair_index_set_back,
     "boundary 2 (pair index -1): pair-index-in-range: index -1 but only 5 snapshots"),
    ("run_scl_sup", _pair_index_set_back,
     "progress: round 1 (pass): pair index went from 0 back to -1"),
    ("run_sup_mo", _step_capped, "final: the saturation run hit its step cap"),
    ("run_scl_sup", _round_capped, "final: the trail run hit its round cap"),
    ("run_sup_mo", _verdict_flipped,
     "final: verdicts disagree: trail side unsatisfiable, saturation side satisfiable"),
    ("run_sup_mo", _last_step_dropped,
     "final: final pair index 4 does not match the 3 saturation steps"),
    ("run_scl_sup", _trail_reopened, "final: refuted trail state is not the closed final shape"),
    ("run_scl_sup", _foreign_attention,
     "progress: round 1 (pass): could not evaluate: atom Zzz is outside this problem's universe"),
    ("run_scl_sup", _foreign_learned,
     "final: learned clause Zzz: could not evaluate: atom Zzz is outside this problem's universe"),
])
def test_verifier_reports_a_corrupted_run(monkeypatch, engine, wrapper, message):
    real = getattr(simulation, engine)
    monkeypatch.setattr(simulation, engine, lambda *a, **k: wrapper(real, *a, **k))
    with open(os.path.join(os.path.dirname(__file__), "data", "double_conflict.prob"),
              encoding="utf-8") as fh:
        result = lockstep_verify(parse_problem(fh.read()))
    assert not result.ok
    assert message in result.failures()


def test_verifier_reports_disagreeing_models(monkeypatch):
    # both problems are satisfiable over P < Q; the saturation side is swapped
    # for the run of the one whose model is {Q}
    ours = parse_problem("order: listed\natoms: P < Q\nclause: P\nclause: P | Q\n")
    other = parse_problem("order: listed\natoms: P < Q\nclause: Q\nclause: P | Q\n")
    monkeypatch.setattr(simulation, "run_sup_mo", lambda *a, **k: run_sup_mo(other))
    result = lockstep_verify(ours)
    assert not result.ok
    assert result.sim.model == {Atom("P")} and result.sup.model == {Atom("Q")}
    assert "final: models disagree: frozenset({P}) vs frozenset({Q})" in result.failures()


def test_lockstep_verifier_passes_the_satisfiable_variant():
    result = lockstep_verify(parse_problem(SAT_TEXT))
    assert result.ok, result.failures()
    assert result.sup.outcome == "satisfiable"
    assert result.sim.model == result.sup.model


def test_verifier_checks_learned_clauses_against_derived_ones():
    result = lockstep_verify(parse_problem(LPO_TEXT))
    derived = set(result.sup.snapshots[-1].clauses)
    po = result.order
    for learned in result.sim.learned:
        assert sfac(learned, po) in {sfac(c, po) for c in derived}


_atoms = [Atom("P"), Atom("Q"), Atom("R")]
_lits = st.builds(Literal, st.sampled_from(_atoms), st.booleans())
_problems = st.lists(
    st.lists(_lits, min_size=1, max_size=4).map(Clause),
    min_size=1, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(_problems)
def test_random_problems_verify_cleanly(cls):
    occurring = {l.atom.name for c in cls for l in c.literals}
    kept = tuple(a for a in _atoms if a.name in occurring)
    p = Problem(
        clauses=ClauseSet(cls),
        ordering=OrderingConfig(kind="listed", listed_atoms=kept),
    )
    result = lockstep_verify(p)
    assert result.ok, result.failures()
    assert result.sim.outcome == result.sup.outcome
