"""Lockstep driver: the trail calculus shadowing the saturation strategy.

run_scl_sup plays the trail calculus under a fixed strategy whose rounds
mirror the model-driven saturation loop one for one. Every round boundary
carries an annotation: a pair index (how many saturation steps the shadowed
run has taken by now), the clause currently holding attention, and a map
sending clauses to their factored images. Attention walks the clauses in
the factored-image order: by image, ties broken by the clause itself. The
run records every state and rule application once; the annotations and
states at the boundaries are read from that record.

check_invariants confronts one annotated trail state with the saturation
snapshot its pair index claims to match. lockstep_verify runs both sides
independently and checks all round boundaries, strict progress of the
annotations, regularity of the rule log, and agreement of the final
verdicts, models, and learned clauses.

Both read a state's clauses through an attention index, one per map
version. It holds the clauses sorted by their factored-image key (ties in
state order) with the list of those keys, the set of their images, and
for each map entry whether its image is the clause's factored image; the
set of the clauses and the set of their atoms are the state's, which each
state hands on to its successors. It follows what changed since the last
index: it is reused while the map object and the state's clauses are the
same objects, and derived from the last one when the state's learned
clauses extend the last ones object by object (in a run, the input
clauses never change), whatever the map. A derived index inserts the
keys of the new clauses by bisection and moves only the clauses whose
image object changed, instead of sorting again; see ``_AttentionIndex``
for each part and why its derivation is sound. Any other state gets a new
index. All tests are by identity, since no state, clause or map is ever
changed in place. So the walk and invariant (xii) bisect the sorted keys
instead of ranking every clause at every boundary, and invariant (iv)
computes a factored image only for a map entry whose image changed. The
verifier builds its own indexes from the recorded states and shares none
with the driver.

check_invariants reads each boundary as a version plus an attention
clause. A version is one trail state under one map, paired with one
snapshot; a pass round that needs no filler decision changes only the
attention clause, so the boundary after it has the same version as the one
before. Whatever the invariants read of the version alone (the nine
reports that do not mention attention, the learned clauses absent from the
snapshot, and the first clause in the factored-image order that the trail
leaves unsatisfied) is held in one facts object per version, computed on
first read and reused while the state, the map and the snapshot are the
same objects. Reuse is sound because each of these is a pure function of
those three objects, none of which is ever changed in place. A new
version's facts are computed afresh over an index that the version before
lends or derives. Only the attention half is computed at every boundary:
membership of the attention clause, (v), (vi), (xi), and (xii) from the
version's first unsatisfied clause up to the attention clause.

Most rounds are such pass rounds, and they come in runs: the model
construction walks the clauses in ascending order, and a clause that is
already true produces nothing. The driver records a run of them with one
walk of the version's attention index (``_sweep_passes``): a clause passes
without a rule application exactly when its image is true and no atom
below its maximal literal is undefined. The state does not change, so the
atoms known to be defined only grow along the walk, and most clauses take
a single rank comparison.
The verifier checks a version's first boundary in full. The boundaries of
the same version that follow it form a pass run, which it decides with one
range test (``_VersionFacts.passes_run``) instead of one invariant check
and one progress check per boundary: the state is fixed and the attention
images climb, so what the attention half demands only grows along the
run, and a run that passes check_invariants at both ends, whose attention
clauses are in the snapshot and whose attention keys strictly ascend
passes at every boundary in between. The test is exact in the sense that
it passes only where every invariant and every progress check holds. A
run it cannot show is checked in full at every boundary, the last one by
the test's own end check, so every failure line comes from
check_invariants and check_progress.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import is_
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from .core import (
    Atom,
    Clause,
    EMPTY_CLAUSE,
    Literal,
    Problem,
    atoms_of,
    memo,
)
from .ordering import ClauseKey, ProblemOrder
from .scl import (
    RuleApp,
    SclState,
    audit_regular,
    backtrack,
    conflict,
    conflict_candidates,
    decide,
    initial_state,
    is_defined,
    is_false,
    is_true,
    propagate,
    resolve,
    skip,
)
from .superposition import (
    CAP_EXCEEDED,
    MAX_STEPS,
    SATISFIABLE,
    UNSATISFIABLE,
    SupRun,
    SupSnapshot,
    run_sup_mo,
    sfac,
)


class SimulationError(Exception):
    """The strategy reached a state shape none of its cases can handle.

    This never fires on a sound run; it means an earlier round already broke
    the pairing, so failing loudly beats guessing a continuation.
    """


@dataclass(frozen=True)
class Annotation:
    """Bookkeeping carried across round boundaries.

    ``index`` counts the saturation steps the shadowed run has taken so far.
    ``aid`` is the clause currently holding attention; the empty clause
    stands in before the first round and after a refutation. ``gamma`` maps
    clauses to their factored images; it holds no identity entries, is never
    changed in place, and is read with ``gamma.get(c, c)``.
    """

    index: int
    aid: Clause
    gamma: Dict[Clause, Clause]


@dataclass(frozen=True)
class SimSeq:
    """One strategy round: its kind, the clause it acted on, the annotation
    it produced, and the half-open slice of the rule log it occupies."""

    kind: str
    attention: Optional[Clause]
    annotation: Annotation
    app_range: Tuple[int, int]


@dataclass
class SimRun:
    """A trail run, recorded once.

    Stored: the rule log (``states[i]`` is the state ``apps[i]`` was applied
    in, ``states[-1]`` the state after the last application), the
    annotation before the first round, the rounds in ``seqs`` and the
    outcome. Derived: ``annotations`` and ``boundary_states``, one entry per
    round boundary (boundary ``i + 1`` is the end of round ``i``); the
    ``learned`` clauses, the final state's plus the empty clause when the
    run is unsatisfiable; and ``model``, the positive trail atoms when it is
    satisfiable. The ``repr`` gives the outcome and sizes, never a clause.
    """

    order: ProblemOrder
    start: Annotation
    states: List[SclState]
    apps: List[RuleApp] = field(default_factory=list)
    seqs: List[SimSeq] = field(default_factory=list)
    outcome: str = CAP_EXCEEDED

    @property
    def state(self) -> SclState:
        return self.states[-1]

    @property
    def learned(self) -> Tuple[Clause, ...]:
        refuted = (EMPTY_CLAUSE,) if self.outcome == UNSATISFIABLE else ()
        return self.state.u + refuted

    @property
    def model(self) -> Optional[FrozenSet[Atom]]:
        if self.outcome != SATISFIABLE:
            return None
        return frozenset(e.literal.atom for e in self.state.trail if e.literal.positive)

    @property
    def annotations(self) -> List[Annotation]:
        return [self.start] + [seq.annotation for seq in self.seqs]

    @property
    def boundary_states(self) -> List[SclState]:
        return [self.states[0]] + [self.states[seq.app_range[1]] for seq in self.seqs]

    def apply(self, app: RuleApp, rule: Callable[..., SclState], *args) -> None:
        """Apply ``rule`` to the current state and record it as ``app``."""
        self.states.append(rule(self.order, self.state, *args))
        self.apps.append(app)

    def __repr__(self) -> str:
        return f"<SimRun {self.outcome}: {len(self.seqs)} rounds, {len(self.apps)} rule apps>"


def _gamma_key(order: ProblemOrder, clause: Clause,
               gamma: Mapping[Clause, Clause]) -> Tuple[ClauseKey, ClauseKey]:
    """Sort key for the factored-image order: a clause ranks by its image
    under ``gamma``, ties broken by the clause itself."""
    return (order.clause_key(gamma.get(clause, clause)), order.clause_key(clause))


def _extends(old: tuple, new: tuple) -> bool:
    """Whether ``new`` holds the very objects of ``old``, position by
    position, possibly followed by more."""
    return old is new or (len(new) >= len(old) and all(map(is_, old, new)))


class _AttentionIndex:
    """A state's clauses in the factored-image order under one map.

    It describes every state whose input clause tuple and learned clauses
    are those it was built for, object by object, under the same map
    object: its version. ``_index_for`` tests this by identity, since
    states, clauses and maps are never changed in place. Each part is
    computed on its first read, so a reader pays only for what it reads,
    once per version:

    - ``ranked``: the keys, state positions and clauses, stably sorted by
      ``_gamma_key``, so ties keep state order;
    - ``images``: the set of the clauses' images under the map;
    - ``map_entries``: each map entry with whether its image is the
      clause's factored image and whether the clause is in the state,
      read from the state's clause set, ``own``.

    An index made from ``last``, the index of a state whose learned clauses
    this state's extend, derives each part ``last`` has computed from it
    instead of computing it afresh:

    - ``ranked``: each new clause's key is inserted by bisection after its
      equal keys, since it follows every old clause in state order; each
      clause whose image object differs between the two maps is taken out
      at its old key and put back at its new one, among equal keys by
      state position. The other clauses keep their keys and so their
      relative order.
    - ``images``: the old ones plus the new clauses' when the map is the
      same object. Under another map it is built again: an image that
      left with one clause may still be another clause's.
    - ``map_entries``: an entry whose clause maps to the same image object
      keeps its ``factored`` flag, which depends on the two alone; any
      other entry computes it again.

    The new index keeps ``last``'s computed parts, not ``last``, and drops
    each when its own part is read, so indexes never hold a chain of their
    predecessors. A part the order cannot rank raises the order's
    ValueError on every read, just as a direct computation would: the
    derivation keys the clauses it has to in state order, the order in
    which a full sort keys them.
    """

    _PARTS = ("ranked", "images", "map_entries")

    def __init__(self, order: ProblemOrder, state: SclState,
                 gamma: Dict[Clause, Clause], last: Optional["_AttentionIndex"] = None):
        self.order = order
        self.n, self.u, self.own = state.n, state.u, state.clause_set
        self.gamma = gamma
        self._prior = {} if last is None else {
            name: last.__dict__[name] for name in self._PARTS if name in last.__dict__}
        if self._prior:
            self._prior_gamma, self._since = last.gamma, len(last.u)

    @memo
    def ranked(self) -> Tuple[List[Tuple[ClauseKey, ClauseKey]], List[int], List[Clause]]:
        order, gamma, clauses = self.order, self.gamma, self.n + self.u
        prior = self._prior.pop("ranked", None)
        if prior is None:
            keyed = sorted((_gamma_key(order, c, gamma), i, c) for i, c in enumerate(clauses))
            return [k for k, _, _ in keyed], [i for _, i, _ in keyed], [c for _, _, c in keyed]
        keys, positions, ranked = (list(part) for part in prior)

        def place(key: Tuple[ClauseKey, ClauseKey], i: int) -> None:
            lo = bisect_left(keys, key)
            at = bisect_left(positions, i, lo, bisect_right(keys, key, lo))
            keys.insert(at, key)
            positions.insert(at, i)
            ranked.insert(at, clauses[i])

        old, held = self._prior_gamma, len(self.n) + self._since
        if old is not gamma:
            moved = {c for c in old.keys() | gamma.keys() if old.get(c, c) is not gamma.get(c, c)}
            for i, c in enumerate(clauses[:held]):
                if c in moved:
                    at = positions.index(i, bisect_left(keys, _gamma_key(order, c, old)))
                    del keys[at], positions[at], ranked[at]
                    place(_gamma_key(order, c, gamma), i)
        for i in range(held, len(clauses)):
            place(_gamma_key(order, clauses[i], gamma), i)
        return keys, positions, ranked

    @memo
    def images(self) -> FrozenSet[Clause]:
        prior = self._prior.pop("images", None)
        if prior is None or self._prior_gamma is not self.gamma:
            return frozenset(self.gamma.get(c, c) for c in self.n + self.u)
        return prior.union(self.gamma.get(c, c) for c in self._added)

    @memo
    def map_entries(self) -> List[Tuple[Clause, Clause, bool, bool]]:
        prior = self._prior.pop("map_entries", ())
        known = {c: (img, factored) for c, img, factored, _ in prior}
        own, entries = self.own, []
        for c, img in self.gamma.items():
            before = known.get(c)
            factored = (before[1] if before is not None and before[0] is img
                        else img == sfac(c, self.order))
            entries.append((c, img, factored, c in own))
        return entries

    @property
    def _added(self) -> Tuple[Clause, ...]:
        """The learned clauses past ``last``'s."""
        return self.u[self._since:]

    def after(self, key: Tuple[ClauseKey, ClauseKey]) -> Optional[Clause]:
        """The first clause whose key lies strictly above ``key``."""
        keys, _, clauses = self.ranked
        i = bisect_right(keys, key)
        return clauses[i] if i < len(clauses) else None

    def up_to(self, key: Tuple[ClauseKey, ClauseKey],
              start: int) -> Iterator[Tuple[int, Clause]]:
        """The clauses from ranked position ``start`` on whose key is at
        most ``key``, with their state positions, in the factored-image
        order."""
        keys, positions, clauses = self.ranked
        return islice(zip(positions, clauses), start, bisect_right(keys, key))


def _index_for(order: ProblemOrder, state: SclState, gamma: Dict[Clause, Clause],
               last: Optional[_AttentionIndex] = None) -> _AttentionIndex:
    """``last`` if it was built for this map and these clause tuples; an
    index derived from ``last`` if the input clause tuple is ``last``'s and
    the learned clauses extend ``last``'s object by object, whatever the
    map; otherwise a new index for them."""
    if last is None or last.n is not state.n:
        return _AttentionIndex(order, state, gamma)
    if last.u is state.u and last.gamma is gamma:
        return last
    return _AttentionIndex(order, state, gamma, last if _extends(last.u, state.u) else None)


def initial_gamma(problem: Problem, order: ProblemOrder) -> Dict[Clause, Clause]:
    """Map each input clause to its factored image when the input set already
    contains that image and the image differs from the clause."""
    images = {c: sfac(c, order) for c in problem.clauses}
    return {c: img for c, img in images.items() if img != c and img in problem.clauses}


def next_attention(order: ProblemOrder, state: SclState, ann: Annotation,
                   index: Optional[_AttentionIndex] = None) -> Optional[Clause]:
    """The smallest clause, in the factored-image order, strictly past the
    clause currently holding attention. None once the walk is exhausted.
    ``index`` is read when it fits the state and map, and built otherwise."""
    index = _index_for(order, state, ann.gamma, index)
    return index.after(_gamma_key(order, ann.aid, ann.gamma))


def filler_decisions(order: ProblemOrder, state: SclState,
                     bound: Literal) -> List[Literal]:
    """Negative decisions covering every undefined atom whose positive
    literal sits below ``bound``, in ascending atom order."""
    return [Literal(a, False) for a in order.atoms_below(bound) if not is_defined(state, a)]


def _act_on_positive_max(run: SimRun, j: int, clause: Clause,
                         gamma: Dict[Clause, Clause], top: Literal,
                         kinds: Tuple[str, str]) -> Tuple[str, Annotation]:
    """Act on ``clause``, whose image has the positive maximum ``top``.

    The extra copies of ``top`` pair with the factoring steps the shadowed
    run takes here, and the map records the factored image. Then ``top`` is
    propagated from the clause when deciding it would falsify some clause,
    the smallest such clause becoming the conflict (``kinds[0]``), and
    decided otherwise (``kinds[1]``).
    """
    order = run.order
    image = gamma.get(clause, clause)
    mult = order.max_multiplicity(image)
    if mult >= 2:
        gamma = {**gamma, clause: sfac(image, order)}
        j += mult - 1
    false_after = conflict_candidates(run.state, assuming=top)
    if false_after:
        run.apply(RuleApp("propagate", literal=top, clause=clause), propagate, clause, top)
        false_clause = min(false_after, key=order.clause_key)
        run.apply(RuleApp("conflict", clause=false_clause), conflict, false_clause)
        return kinds[0], Annotation(j, clause, gamma)
    run.apply(RuleApp("decide", literal=top), decide, top)
    return kinds[1], Annotation(j, clause, gamma)


def _round_no_conflict(run: SimRun, ann: Annotation,
                       d: Clause) -> Tuple[str, Annotation]:
    """Process the next attention clause.

    Kinds: "pass" when the clause is already satisfied (possibly thanks to
    the fresh filler decisions), "decide" when guessing its maximal atom is
    safe, "clash" when that atom must be propagated because it falsifies
    some clause, which immediately enters conflict mode.
    """
    order = run.order
    g = ann.gamma.get(d, d)
    top_lit = order.max_literal(g)

    for f in filler_decisions(order, run.state, top_lit):
        run.apply(RuleApp("decide", literal=f), decide, f)

    if is_true(run.state, g):
        return "pass", Annotation(ann.index, d, ann.gamma)
    if not top_lit.positive:
        raise SimulationError(
            f"attention clause {d} is unsatisfied although its maximal "
            f"literal {top_lit} is negative"
        )
    if is_defined(run.state, top_lit.atom):
        raise SimulationError(f"attention clause {d} is false at its own turn")
    return _act_on_positive_max(run, ann.index, d, ann.gamma, top_lit, ("clash", "decide"))


def _producing_clause(order: ProblemOrder, state: SclState,
                      gamma: Dict[Clause, Clause], literal: Literal) -> Clause:
    """The attention-order smallest clause whose image forces ``literal``.

    Forcing needs more than the literal being strictly maximal in the image:
    the rest of the image must be false on the current trail, otherwise the
    clause is satisfied without the literal and produces nothing. Skipping
    that test can select a clause whose leftover part is true, or never
    false at all because it carries both polarities of some atom.
    """
    def forces(c: Clause) -> bool:
        img = gamma.get(c, c)
        return (order.is_strictly_maximal_in(literal, img)
                and is_false(state, img.with_count(literal, 0)))

    best = min(filter(forces, state.all_clauses()),
               key=lambda c: _gamma_key(order, c, gamma), default=None)
    if best is None:
        raise SimulationError(f"no clause can force {literal}")
    return best


def _round_conflict(run: SimRun, ann: Annotation) -> Tuple[str, Annotation]:
    """Process the pending conflict.

    The conflict is resolved against the top propagation once per occurrence
    of the complemented literal; each resolution pairs with one saturation
    step. An empty resolvent ends the run ("refute"). Otherwise the trail is
    unwound to the blocking decision and the resolvent is learned; what
    happens next depends on its maximal literal. A negative maximum means
    its atom must be forced again from the clause that produces it, which
    re-exposes a conflict ("learn_negative"). A positive maximum is guessed
    when that is safe ("learn_decide") and propagated from the learned
    clause itself when it is not ("learn_propagate").
    """
    order = run.order
    top = run.state.trail[-1] if run.state.trail else None
    if top is None or top.is_decision:
        raise SimulationError("conflict mode without a top propagation")
    comp = top.literal.complement()

    steps = 0
    while run.state.conflict.contains(comp):
        run.apply(RuleApp("resolve", literal=run.state.trail[-1].literal), resolve)
        steps += 1
    if steps == 0:
        raise SimulationError(
            f"conflict {run.state.conflict} does not mention the propagated "
            f"{top.literal}"
        )
    j = ann.index + steps
    learned = run.state.conflict

    # unwind to the decision the resolvent blocks on; the empty resolvent
    # blocks on none, so a refutation unwinds the whole trail
    while run.state.trail and not learned.contains(
            run.state.trail[-1].literal.complement()):
        run.apply(RuleApp("skip", literal=run.state.trail[-1].literal), skip)
    if learned.is_empty:
        return "refute", Annotation(j, EMPTY_CLAUSE, ann.gamma)
    if not run.state.trail:
        raise SimulationError(f"nowhere to backtrack for the resolvent {learned}")
    if not run.state.trail[-1].is_decision:
        raise SimulationError(
            f"resolvent {learned} blocks on the propagation "
            f"{run.state.trail[-1].literal} instead of a decision"
        )
    run.apply(RuleApp("backtrack", clause=learned), backtrack)

    lmax = order.max_literal(learned)
    if lmax.positive:
        return _act_on_positive_max(run, j, learned, ann.gamma, lmax,
                                    ("learn_propagate", "learn_decide"))
    forced = lmax.complement()
    source = _producing_clause(order, run.state, ann.gamma, forced)
    run.apply(RuleApp("propagate", literal=forced, clause=source), propagate, source, forced)
    false_now = conflict_candidates(run.state)
    if not false_now:
        raise SimulationError(f"forcing {forced} from {source} exposed no conflict")
    false_clause = min(false_now, key=order.clause_key)
    run.apply(RuleApp("conflict", clause=false_clause), conflict, false_clause)
    return "learn_negative", Annotation(j, source, ann.gamma)


def _sweep_passes(run: SimRun, ann: Annotation, index: _AttentionIndex,
                  max_sequences: int) -> Tuple[Annotation, Optional[Clause]]:
    """Record the pass rounds that follow a pass round with no filler
    decision; return the last annotation and the next attention clause,
    None at the end of the walk.

    Such a round leaves the state and the map alone, so ``index`` still
    fits them and the next attention clause is the next key of its ranked
    order. Each clause from there on is one more "pass" round with no rule
    application, exactly as ``_round_no_conflict`` would record it, while
    its image is true on the trail and needs no filler decision: every
    atom whose positive literal lies below the image's maximal literal is
    defined. The round just played needed none, so every atom below its
    image's bound is defined; images only climb, so a clause whose bound is
    no higher is one rank comparison, and a higher bound asks only about
    the atoms between the two. The sweep stops at the first clause that
    fails either test, which it hands over for its round to run as usual,
    at the end of the walk, or at the round cap.
    """
    order, state, gamma = run.order, run.state, ann.gamma
    keys, _, clauses = index.ranked
    key = _gamma_key(order, ann.aid, gamma)
    # an image's bound: (its maximal literal rank + 1) // 2 atoms lie below it
    defined = (key[0][0][0] + 1) // 2
    at, i = len(run.apps), bisect_right(keys, key)
    while i < len(clauses) and len(run.seqs) < max_sequences:
        d = clauses[i]
        if not is_true(state, gamma.get(d, d)):
            break
        bound = (keys[i][0][0][0] + 1) // 2
        if bound > defined:
            if not all(is_defined(state, a) for a in order.atoms_ascending[defined:bound]):
                break
            defined = bound
        ann = Annotation(ann.index, d, gamma)
        run.seqs.append(SimSeq("pass", d, ann, (at, at)))
        i = bisect_right(keys, keys[i], i)
    return ann, clauses[i] if i < len(clauses) else None


MAX_ROUNDS = 10000                 # run_scl_sup's default round cap


def run_scl_sup(problem: Problem, order: Optional[ProblemOrder] = None,
                max_sequences: int = MAX_ROUNDS) -> SimRun:
    """Run the trail calculus under the lockstep strategy to a verdict.

    The cap bounds the number of rounds and only guards against defects;
    on sound inputs the strategy terminates with a verdict by itself. A
    negative cap raises ValueError.

    A pass round that needs no filler decision changes neither the state
    nor the map, and so does every pass round after it until one needs a
    filler decision or meets a clause the trail leaves unsatisfied. Such a
    run of rounds is recorded by one walk of the version's attention index
    (``_sweep_passes``) instead of one index lookup and one
    ``_round_no_conflict`` call per round. It records the same rounds and
    annotations as those calls would, and the round cap counts each of
    them.
    """
    if max_sequences < 0:
        raise ValueError(f"max_sequences must be at least 0, not {max_sequences}")
    order = order or ProblemOrder(problem)
    ann = Annotation(0, EMPTY_CLAUSE, initial_gamma(problem, order))
    run = SimRun(order, ann, [initial_state(problem)])
    index, swept = None, False

    while len(run.seqs) < max_sequences:
        start = len(run.apps)
        if run.state.conflict is not None:
            kind, ann = _round_conflict(run, ann)
            attention = None
        else:
            if not swept:        # else the sweep has handed over the next clause
                index = _index_for(order, run.state, ann.gamma, index)
                attention = next_attention(order, run.state, ann, index)
            if attention is None:
                run.outcome = SATISFIABLE
                break
            kind, ann = _round_no_conflict(run, ann, attention)
        run.seqs.append(SimSeq(kind, attention, ann, (start, len(run.apps))))
        if kind == "refute":
            run.outcome = UNSATISFIABLE
            break
        swept = kind == "pass" and len(run.apps) == start
        if swept:
            ann, attention = _sweep_passes(run, ann, index, max_sequences)
    return run


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    name: str
    ok: bool
    detail: str = ""


# The invariants check_invariants reports on, in its (i)-(xiv) order.
INVARIANTS = (
    "atoms-in-scope", "trail-below-bound", "membership", "factored-map-shape",
    "positives-match-production", "negatives-cover-gap", "trail-ascends",
    "producers-exist", "producer-preimages", "conflict-top-propagation",
    "conflict-is-minimal-false", "prefix-satisfied", "no-missed-conflict",
    "refutation-sync",
)
_PASSED = {name: InvariantReport(name, True) for name in INVARIANTS}


def _report(name: str, ok: bool, detail: Callable[[], str]) -> InvariantReport:
    """A passing invariant's one shared report, or a failing one's report
    with its detail, which ``detail`` builds only then."""
    return _PASSED[name] if ok else InvariantReport(name, False, detail())


def _guarded(name: str, fn: Callable[[], Optional[str]]) -> InvariantReport:
    """The report of ``fn``, which returns None when the invariant holds
    and its failure detail otherwise, failing as well when the order cannot
    evaluate it."""
    try:
        detail = fn()
    except ValueError as e:
        detail = f"could not evaluate: {e}"
    return _report(name, detail is None, lambda: detail)


class _VersionFacts:
    """What check_invariants reads of one version: a trail state under a
    map, paired with a snapshot, whatever clause holds attention.

    ``_facts_for`` reuses it for every boundary of that version, tested by
    identity: each part is a pure function of the state, the map and the
    snapshot, and none of them is ever changed in place. The attention
    index comes from the last version's, reused or derived when it fits.
    Each part is computed on its first read:

    - ``positives`` and ``negatives``: the trail's positive and negative atoms;
    - ``reports``: invariants (i), (ii), (iv), (vii)-(x), (xiii) and (xiv),
      in that order;
    - ``unlearned``: the learned clauses absent from the snapshot, the part
      of (iii) that is not about attention;
    - ``first_unsatisfied``: the position in the index's ranked order of the
      first clause the trail leaves unsatisfied, or the clause count when
      it satisfies them all.

    ``passes_run`` decides a run of the version's boundaries at once, from
    ``check_invariants`` at its first and last boundary. ``check`` gives a
    boundary's reports, those of the last end check where it declined a
    run at that boundary, so that no boundary is checked twice.

    A new version's parts are computed afresh, not carried from the
    version before: resuming the ``first_unsatisfied`` scan and asking only
    about newly learned clauses saves as much on long derivations as its
    guards cost on short ones.
    """

    def __init__(self, order: ProblemOrder, state: SclState, gamma: Dict[Clause, Clause],
                 snapshot: SupSnapshot, index: _AttentionIndex):
        self.order = order
        self.state, self.gamma, self.snapshot = state, gamma, snapshot
        self.index = index
        self._end: Tuple[Optional[Annotation], List[InvariantReport]] = (None, [])

    def check(self, ann: Annotation) -> List[InvariantReport]:
        """``check_invariants`` at the version's boundary annotated ``ann``,
        kept from ``passes_run``'s end check where that was its boundary."""
        end, reports = self._end
        if end is ann:
            return reports
        return check_invariants(self.order, self.state, ann, self.snapshot, self)

    @memo
    def positives(self) -> FrozenSet[Atom]:
        return frozenset(e.literal.atom for e in self.state.trail if e.literal.positive)

    @memo
    def negatives(self) -> FrozenSet[Atom]:
        return frozenset(e.literal.atom for e in self.state.trail if not e.literal.positive)

    @memo
    def unlearned(self) -> List[Clause]:
        return [c for c in self.state.u if not self.snapshot.contains(c)]

    @memo
    def first_unsatisfied(self) -> int:
        clauses = self.index.ranked[2]
        return next((k for k, c in enumerate(clauses) if not is_true(self.state, c)),
                    len(clauses))

    def passes_run(self, first: List[InvariantReport], run: Sequence[Annotation]) -> bool:
        """Whether every boundary of ``run`` after its first passes all
        fourteen invariants and every round between two of its boundaries
        passes ``check_progress``. ``run[0]`` is this version's first
        boundary, whose reports are ``first``; the others share its
        version: this state, this map object and this pair index. False
        means "not shown", never "fails".

        It holds when ``first`` passes, the attention keys strictly ascend
        along ``run``, each later attention clause is in the snapshot, and
        ``check_invariants`` passes the last boundary. Then each boundary in
        between passes as well:

        - the nine reports and the learned clauses missing from the
          snapshot are the version's; (iii) adds the attention clause,
          which is in the snapshot;
        - (xi) reads the attention image only under a live conflict, and
          passes there only where the image is the top justification: both
          ends have that one image, and the keys, which rank by image
          first, give it to every boundary in between;
        - each attention image is in the snapshot: the clause itself or,
          by (iv), its map image; only the first may instead be the empty
          clause, which produces nothing. A member's production lies below
          every larger member, so E, the atoms produced below the image
          plus its own production, only grows with the image. (v) asks
          that E be the positive atoms, which it is at both ends, so in
          between;
        - (vi) asks that N, the negative atoms, be B less P, with B the
          atoms below the image's bound and P those produced below the
          image; B and P only grow. N lies in the first boundary's B, so in
          each later B, and outside the last boundary's P, so outside each
          earlier P. An atom of B less P in between that is in the last
          boundary's P is positive by (v) there, so by (v) in between it
          is that image's own production, whose atom is not below its bound;
        - (xii) asks that the clauses up to the attention clause be
          satisfied, a prefix of those up to the last boundary's;
        - progress: the pair index and the map stand still and the key
          climbs.
        """
        if not all(r.ok for r in first):
            return False
        order, gamma, contains = self.order, self.gamma, self.snapshot.contains
        try:
            key = _gamma_key(order, run[0].aid, gamma)
            for ann in run[1:]:
                climbed = _gamma_key(order, ann.aid, gamma)
                if climbed <= key or not contains(ann.aid):
                    return False
                key = climbed
        except ValueError:
            return False
        self._end = (run[-1], check_invariants(order, self.state, run[-1], self.snapshot, self))
        return all(r.ok for r in self._end[1])

    @memo
    def reports(self) -> Tuple[InvariantReport, ...]:
        order, state, index = self.order, self.state, self.index
        con = self.snapshot.construction
        positives = self.positives

        # (ii) the trail never reaches the bound
        beyond = [e.literal.atom for e in state.trail if not order.below_beta(e.literal.atom)]
        bound = _report("trail-below-bound", not beyond,
                        lambda: f"atoms at or above the bound: {beyond}")

        # (i) every atom the state mentions comes from the input signature:
        #     the ranked atoms, so the trail's foreign atoms are those of (ii)
        foreign = order.unranked(state.atoms).union(beyond)
        if state.conflict is not None:
            foreign |= {a for a in atoms_of([state.conflict]) if not order.below_beta(a)}
        scope = _report("atoms-in-scope", not foreign,
                        lambda: f"foreign atoms {sorted(a.text for a in foreign)}")

        # (iv) the map stores exactly factored images that the paired set
        #      contains
        def map_shape() -> Optional[str]:
            problems = []
            for c, img, factored, own in index.map_entries:
                if not factored:
                    problems.append(f"{c} maps to {img}, not its factored image")
                elif not self.snapshot.contains(img):
                    problems.append(f"image {img} is not in the paired set")
                elif not own:
                    problems.append(f"{c} is neither input nor learned")
            return "; ".join(problems) if problems else None

        # (vii) trail atoms strictly ascend
        def ascends() -> Optional[str]:
            ranks = [order.atom_rank(e.literal.atom) for e in state.trail]
            if all(a < b for a, b in zip(ranks, ranks[1:])):
                return None
            return f"trail atom ranks {ranks} are not strictly ascending"

        # (viii) every positive trail atom is produced on the paired side
        unproduced = [a.text for a in positives if con.producer_of(a) is None]

        # (ix) each producer has a preimage under the map, and propagations
        #      record exactly the producing clause as their justification
        problems9: List[str] = []
        for e in state.trail:
            if not e.literal.positive:
                continue
            producer = con.producer_of(e.literal.atom)
            if producer is None:
                problems9.append(f"{e.literal.atom} has no producer")
                continue
            if producer not in index.images:
                problems9.append(f"no clause maps onto the producer {producer}")
            if not e.is_decision and e.reason != producer:
                problems9.append(
                    f"justification {e.reason} of {e.literal} differs from the "
                    f"producer {producer}"
                )

        # (x) a live conflict always sits on top of a propagation
        live = state.conflict is not None and not state.conflict.is_empty
        on_top = bool(state.trail) and not state.trail[-1].is_decision

        # (xiii) outside conflict mode no clause is false
        overlooked = conflict_candidates(state) if state.conflict is None else []

        # (xiv) the two sides refute together
        here = state.conflict == EMPTY_CLAUSE
        there = self.snapshot.contains(EMPTY_CLAUSE)

        return (
            scope,
            bound,
            _guarded("factored-map-shape", map_shape),
            _guarded("trail-ascends", ascends),
            _report("producers-exist", not unproduced,
                    lambda: f"no producer for {sorted(unproduced)}"),
            _report("producer-preimages", not problems9, lambda: "; ".join(problems9)),
            _report("conflict-top-propagation", not live or on_top,
                    lambda: "conflict without a top propagation"),
            _report("no-missed-conflict", not overlooked,
                    lambda: f"falsified but unclaimed: {[str(c) for c in overlooked]}"),
            _report("refutation-sync", here == there,
                    lambda: f"trail side refuted: {here}, saturation side refuted: {there}"),
        )


def _same_version(ann: Annotation, state: SclState,
                  other: Annotation, other_state: SclState) -> bool:
    """Whether two boundaries share one version: the state object, the map
    object and the pair index."""
    return other_state is state and other.gamma is ann.gamma and other.index == ann.index


def _facts_for(order: ProblemOrder, state: SclState, gamma: Dict[Clause, Clause],
               snapshot: SupSnapshot, last: Optional[_VersionFacts] = None) -> _VersionFacts:
    """``last`` if it was built for this state, map and snapshot, otherwise
    new facts for them, over an index reused or derived from ``last``'s."""
    if (last is not None and last.state is state and last.gamma is gamma
            and last.snapshot is snapshot):
        return last
    index = _index_for(order, state, gamma, None if last is None else last.index)
    return _VersionFacts(order, state, gamma, snapshot, index)


def check_invariants(order: ProblemOrder, state: SclState, ann: Annotation,
                     snapshot: SupSnapshot,
                     facts: Optional[_VersionFacts] = None) -> List[InvariantReport]:
    """Confront one annotated trail state with one saturation snapshot.

    Returns one report per invariant, in the (i)-(xiv) order below. The
    checks are defensive: a state too broken to even rank its clauses fails
    the affected invariant instead of raising. ``facts`` is read when it
    fits the state, map and snapshot, and built otherwise; only invariants
    (iii), (v), (vi), (xi) and (xii) read the attention clause, and only
    they are computed anew at each boundary of a version.
    """
    facts = _facts_for(order, state, ann.gamma, snapshot, facts)
    con = snapshot.construction
    image = ann.gamma.get(ann.aid, ann.aid)

    # (v) and (vi) share the atoms produced below the attention image; when
    # the order cannot rank it, each of them computes it again and reports
    try:
        below: Optional[FrozenSet[Atom]] = con.prefix_below(image)
    except ValueError:
        below = None

    (scope, bound, map_shape, ascends, producers, preimages, conflict_top,
     missed, sync) = facts.reports

    # (iii) the attention clause and all learned clauses exist on the paired side
    missing = list(facts.unlearned)
    if not ann.aid.is_empty and not snapshot.contains(ann.aid):
        missing.append(ann.aid)
    membership = _report("membership", not missing,
                         lambda: f"absent from the paired clause set: {[str(c) for c in missing]}")

    # (v) positive trail atoms = atoms produced below the attention image,
    #     plus that image's own production
    def positives_match() -> Optional[str]:
        prefix = con.prefix_below(image) if below is None else below
        expected = set(prefix)
        delta = con.delta_of(image, prefix)
        if delta is not None:
            expected.add(delta)
        if facts.positives == expected:
            return None
        return (
            f"trail makes {sorted(a.text for a in facts.positives)} true, "
            f"construction expects {sorted(a.text for a in expected)}"
        )

    # (vi) negative trail atoms = atoms below the image's maximal literal
    #      that are not produced below it
    def negatives_match() -> Optional[str]:
        if image.is_empty:
            expected = set()
        else:
            prefix = con.prefix_below(image) if below is None else below
            expected = {a for a in order.atoms_below(order.max_literal(image))
                        if a not in prefix}
        if facts.negatives == expected:
            return None
        return (
            f"trail makes {sorted(a.text for a in facts.negatives)} false, "
            f"expected {sorted(a.text for a in expected)}"
        )

    # (xi) the conflict clause is the smallest false clause of the paired
    #      construction and the top justification is the attention image
    def conflict_shape() -> Optional[str]:
        if state.conflict is None:
            return None
        problems = []
        if con.minimal_false != state.conflict:
            problems.append(
                f"conflict is {state.conflict}, construction says "
                f"{con.minimal_false}"
            )
        if not state.conflict.is_empty:
            if not is_false(state, state.conflict):
                problems.append("conflict clause is not falsified by the trail")
            top = state.trail[-1] if state.trail else None
            if top is None or top.is_decision:
                problems.append("no top propagation to resolve against")
            elif image.is_empty:
                problems.append("attention is the empty clause during a conflict")
            else:
                if top.reason != image:
                    problems.append(
                        f"top justification {top.reason} is not the attention "
                        f"image {image}"
                    )
                if top.literal != order.max_literal(image) or not top.literal.positive:
                    problems.append(
                        f"top literal {top.literal} is not the image's "
                        "positive maximum"
                    )
        return "; ".join(problems) if problems else None

    # (xii) everything up to the attention clause is satisfied; the clauses
    #       before the version's first unsatisfied one are
    def prefix_satisfied() -> Optional[str]:
        prefix = facts.index.up_to(_gamma_key(order, ann.aid, ann.gamma),
                                   facts.first_unsatisfied)
        unsat = [(i, c) for i, c in prefix if not is_true(state, c)]
        if not unsat:
            return None
        return f"not satisfied yet: {[str(c) for _, c in sorted(unsat)]}"

    return [
        scope,
        bound,
        membership,
        map_shape,
        _guarded("positives-match-production", positives_match),
        _guarded("negatives-cover-gap", negatives_match),
        ascends,
        producers,
        preimages,
        conflict_top,
        _guarded("conflict-is-minimal-false", conflict_shape),
        _guarded("prefix-satisfied", prefix_satisfied),
        missed,
        sync,
    ]


def check_progress(order: ProblemOrder, before: Annotation,
                   after: Annotation) -> Optional[str]:
    """None if the second annotation strictly advances past the first:
    either the pair index grows, or it stands still while the map is
    unchanged and the attention clause strictly climbs. An attention
    clause the order cannot rank is reported, not raised."""
    if after.index > before.index:
        return None
    if after.index < before.index:
        return f"pair index went from {before.index} back to {after.index}"
    if after.gamma != before.gamma:
        return "factored-image map changed while the pair index stood still"
    try:
        if _gamma_key(order, after.aid, after.gamma) <= _gamma_key(order, before.aid, before.gamma):
            return "attention clause did not advance"
    except ValueError as e:
        return f"could not evaluate: {e}"
    return None


# ---------------------------------------------------------------------------
# The lockstep verifier
# ---------------------------------------------------------------------------


@dataclass
class BoundaryReport:
    boundary: int                  # position in the annotation list
    index: int                     # paired saturation snapshot
    reports: List[InvariantReport]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)


@dataclass
class VerifyResult:
    order: ProblemOrder
    sup: SupRun
    sim: SimRun
    boundaries: List[BoundaryReport] = field(default_factory=list)
    progress_failures: List[str] = field(default_factory=list)
    regularity_failures: List[str] = field(default_factory=list)
    final_failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(b.ok for b in self.boundaries)
            and not self.progress_failures
            and not self.regularity_failures
            and not self.final_failures
        )

    def failures(self) -> List[str]:
        out = []
        for b in self.boundaries:
            for r in b.reports:
                if not r.ok:
                    out.append(
                        f"boundary {b.boundary} (pair index {b.index}): "
                        f"{r.name}: {r.detail}"
                    )
        out.extend(f"progress: {m}" for m in self.progress_failures)
        out.extend(f"regularity: {m}" for m in self.regularity_failures)
        out.extend(f"final: {m}" for m in self.final_failures)
        return out

    def __repr__(self) -> str:
        return (f"<VerifyResult {'ok' if self.ok else 'failed'}: "
                f"{len(self.boundaries)} boundaries, {self.sim!r}, {self.sup!r}>")


def lockstep_verify(problem: Problem, max_sequences: int = MAX_ROUNDS) -> VerifyResult:
    """Run both calculi independently and check them against each other.

    Every round boundary of the trail run is confronted with the saturation
    snapshot its pair index names; on top of that the verifier demands
    strictly advancing annotations, a regular rule log, matching verdicts
    and models, equal step counts, and learned clauses whose factored images
    all occur among the derived ones. The saturation run's step cap is the
    trail run's last pair index, or ``run_sup_mo``'s default if that is
    larger: the trail run states how many steps it paired. The trail rules
    never forget a learned clause, so the learned clauses of each boundary
    must extend those of the boundary before, by value; a regularity line
    names each boundary where they do not.

    A version's first boundary is checked in full. The boundaries after it
    that share its version (``_same_version``) form a pass run, decided by
    ``_VersionFacts.passes_run`` with one more full check, at the run's last
    boundary: where it passes, each of them gets the passing reports and
    the rounds between them no progress check, since the test shows both
    to hold. A run it cannot show is checked in full at every boundary but
    the last one the test checked, whose reports are kept, so every report
    and every progress line is the one a check of each boundary on its own
    gives.
    """
    order = ProblemOrder(problem)
    sim = run_scl_sup(problem, order, max_sequences=max_sequences)
    sup = run_sup_mo(problem, order, max_steps=max(MAX_STEPS, sim.annotations[-1].index))
    result = VerifyResult(order=order, sup=sup, sim=sim)

    annotations, states = sim.annotations, sim.boundary_states
    snapshots, steps = sup.snapshots, sup.step_count
    facts, learned, forgotten = None, (), []
    shown = -1                 # the last boundary of a run passes_run has shown
    for b, (ann, state) in enumerate(zip(annotations, states)):
        if b <= shown:
            result.boundaries.append(BoundaryReport(b, ann.index, list(_PASSED.values())))
            continue
        if b:
            msg = check_progress(order, annotations[b - 1], ann)
            if msg is not None:
                result.progress_failures.append(f"round {b - 1} ({sim.seqs[b - 1].kind}): {msg}")
        if state.u is not learned and not (_extends(learned, state.u)
                                           or state.u[:len(learned)] == learned):
            forgotten.append(f"boundary {b}: the learned clauses do not extend "
                             f"those of boundary {b - 1}")
        learned = state.u
        if 0 <= ann.index <= steps:
            snapshot = snapshots[ann.index]
            last, facts = facts, _facts_for(order, state, ann.gamma, snapshot, facts)
            reports = facts.check(ann)
            if facts is not last:
                end = b + 1
                while end < len(states) and _same_version(ann, state, annotations[end],
                                                          states[end]):
                    end += 1
                if end > b + 1 and facts.passes_run(reports, annotations[b:end]):
                    shown = end - 1
        else:
            reports = [InvariantReport(
                "pair-index-in-range", False,
                f"index {ann.index} but only {steps + 1} snapshots",
            )]
        result.boundaries.append(BoundaryReport(b, ann.index, reports))

    result.regularity_failures = audit_regular(sim.states, sim.apps) + forgotten

    ff = result.final_failures
    if sim.outcome == CAP_EXCEEDED:
        ff.append("the trail run hit its round cap")
    if sup.outcome == CAP_EXCEEDED:
        ff.append("the saturation run hit its step cap")
    if not ff:
        if sim.outcome != sup.outcome:
            ff.append(
                f"verdicts disagree: trail side {sim.outcome}, "
                f"saturation side {sup.outcome}"
            )
        final_index = annotations[-1].index
        if final_index != steps:
            ff.append(
                f"final pair index {final_index} does not match the "
                f"{steps} saturation steps"
            )
        final = snapshots[-1]
        for c in sim.learned:
            try:
                if not final.contains(sfac(c, order)):
                    ff.append(
                        f"learned clause {c} has no factored twin among the "
                        "derived clauses"
                    )
            except ValueError as e:
                ff.append(f"learned clause {c}: could not evaluate: {e}")
        here = EMPTY_CLAUSE in sim.learned
        there = final.contains(EMPTY_CLAUSE)
        if here != there:
            ff.append("only one side of the pair refuted")
        if sim.outcome == SATISFIABLE and sim.model != sup.model:
            ff.append(f"models disagree: {sim.model} vs {sup.model}")
        if sim.outcome == UNSATISFIABLE:
            fs = sim.state
            if fs.trail or fs.k != 0 or fs.conflict != EMPTY_CLAUSE:
                ff.append("refuted trail state is not the closed final shape")
    return result
