"""The attention index against the full scans it replaces.

The driver and the verifier read the clauses of a state in the
factored-image order from an index built once per map version. The
reference implementations below are the plain scans over every clause of
the state that the index replaced; the index must name the same clause,
the same object included, at every boundary, and a reused index must read
exactly as a fresh one.
"""

import dataclasses
import glob
import importlib.util
import os
from operator import itemgetter

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
from lockstep.superposition import run_sup_mo
from lockstep.simulation import (
    Annotation,
    SimulationError,
    _AttentionIndex,
    _gamma_key,
    _index_for,
    check_invariants,
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
    every clause the driver forces from is the scan's producing clause; and
    every boundary but those of the 15-atom instance is probed with the
    maximal literal of every image."""
    forced = []
    real = simulation._producing_clause

    def recorded(order, state, gamma, literal):
        forced.append((order, state, gamma, literal))
        return real(order, state, gamma, literal)

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


def _parts(index):
    return index.ranked, index.images, index.atoms, index.map_entries


def test_a_reused_index_reads_as_a_fresh_one(monkeypatch):
    """At every boundary the verifier checks, its index holds what a fresh
    index of that boundary holds, and the invariants read through it report
    exactly what a call without an index reports. Boundaries right after a
    factoring round, where the map changes and the learned clauses do not,
    are among them."""
    calls = []
    real = simulation.check_invariants

    def recorded(order, state, ann, snapshot, index=None):
        calls.append((order, state, ann, snapshot, index))
        return real(order, state, ann, snapshot, index)

    monkeypatch.setattr(simulation, "check_invariants", recorded)
    remapped = 0
    for p in _problems():
        calls.clear()
        assert lockstep_verify(p).ok
        last = None
        for order, state, ann, snapshot, index in calls:
            assert index is not None
            assert _parts(index) == _parts(_AttentionIndex(order, state, ann.gamma))
            assert (real(order, state, ann, snapshot, index)
                    == real(order, state, ann, snapshot))
            if last is not None and last[0] is not ann.gamma and last[1] is state.u:
                remapped += 1
            last = ann.gamma, state.u
    assert remapped > 20


TIE_TEXT = """\
order: listed
atoms: P < Q < R
clause: -P | R
clause: P | Q
clause: -Q | R
"""


def test_equal_keys_keep_state_order():
    """A learned clause equal to an input clause ties with it on the key:
    the walk and the producing clause name the input copy, the one a
    ``min`` over the state finds first, and prefix-satisfied lists both
    copies in state order."""
    p = parse_problem(TIE_TEXT)
    order = ProblemOrder(p)
    pr, pq, qr = p.clauses.clauses()          # ascending: P | Q, -P | R, -Q | R
    twin = Clause(pr.literals)
    assert twin == pr and twin is not pr
    state = dataclasses.replace(initial_state(p), u=(twin,))
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
