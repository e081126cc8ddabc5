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
state order) with the list of those keys, the set of their images, for
each map entry whether its image is the clause's factored image and
whether its clause is the state's, and for each saturation ledger the
stage by which every state clause has joined it. It follows what changed
since the last index: it is reused while the map object and the state's
clauses are the same objects, and derived from the last one when the
state's learned clauses extend the last ones object by object (in a run,
the input clauses never change), whatever the map. A derived index
inserts the keys of the new clauses by bisection and moves only the
clauses whose image object changed, instead of sorting again; see
``_AttentionIndex`` for each part and why its derivation is sound. Any
other state gets a new index. All tests are by identity, since no state,
clause or map is ever changed in place. So the walk and invariant (xii)
bisect the sorted keys instead of ranking every clause at every boundary,
the producing clause of a literal is found in the one range of keys whose
images it tops, invariant (iv) computes a factored image only for a map
entry whose image changed, and invariant (iii) asks the saturation ledger
about a state clause once per index, when it is new, instead of at every
check. The verifier builds its own indexes from the recorded states and
shares none with the driver.

check_invariants computes its fourteen reports afresh at each boundary
it checks. What it reads of the state's clauses in the factored-image
order comes from the attention index, which lockstep_verify hands from
one check to the next through ``_index_for``, as run_scl_sup and
next_attention do; an index that does not fit the boundary is ignored or
derived from, so it never changes a report. A pass round that needs no
filler decision changes only the attention clause, so the index of the
boundary before fits the one after it.

Most rounds are such pass rounds, and they come in runs: the model
construction walks the clauses in ascending order, and a clause that is
already true produces nothing. The driver records a run of them with one
walk of the version's attention index (``_sweep_passes``) as one record, a
``PassSweep``, which holds the attention clauses it passed and the pair
index, map and state they share: a clause passes without a rule
application exactly when its image is true and no atom below its maximal
literal is undefined. The state does not change, so the atoms known to be
defined only grow along the walk, and most clauses take a single rank
comparison. A run's rounds, annotations and boundary states are read-only
views that expand the records on read, so a pass round costs no object of
its own. They are ``core.Expanded`` views, as are the verifier's
boundaries and the saturation run's steps and snapshots.

The verifier reads the records, not the views, as trail runs
(``_in_trail_run``): maximal stretches outside conflict mode that share one
pair index, one map object and one clause tuple, each trail holding the one
before object by object, possibly followed by more. Pass runs are the trail
runs whose state never changes; decide rounds, and pass rounds with filler
decisions, extend the trail within a run. At each boundary the trail is
meant to be the model construction's partial model up to the attention
image, and the construction produces atoms in ascending order, so along a
run the trail only grows by the atoms between one image and the next. The
verifier checks a run's first and last boundary in full and decides the
ones in between with one range test (``_passes_trail_run``), one step per
record, instead of one invariant check and one progress check per
boundary: each record's attention clauses are, by identity, the next keys
of the verifier's own attention index, so they are state clauses, which
invariant (iii) at the run's ends puts in the snapshot, and their keys
climb; at each record's two ends the trail holds as many entries as the
model for the attention image has atoms; and one sweep of the index finds
the clauses up to the record's last key true. That model has β(key) atoms,
those below the image's maximal literal, plus one when a member at or below
the image produces that literal's positive atom; this count never
decreases as the key grows, so on a record's one trail a length equal at
its two ends is equal at every boundary in between. The last boundary's
check makes its trail the model for its image, and the model for a smaller
image is its prefix of that length, so the length alone settles (v) and
(vi); the other invariants either read the trail entry by entry, which
only grows, or read objects the run holds fixed. The test is exact in the
sense that it passes only where every invariant and every progress check
holds, and a run it passes is one shared passing entry of the result. A
run it cannot show is expanded and checked in full at every boundary, the
last one's reports kept from the first check of it, so every failure line
comes from check_invariants and check_progress.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, is_, lt
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple, Union

from .core import (
    Atom,
    Clause,
    EMPTY_CLAUSE,
    Expanded,
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
    is_false_except,
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
    _Ledger,
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
    it produced, and the half-open slice of the rule log it occupies. As a
    record of ``SimRun`` it stands for one round."""

    kind: str
    attention: Optional[Clause]
    annotation: Annotation
    app_range: Tuple[int, int]

    rounds = 1

    @property
    def aids(self) -> Tuple[Clause, ...]:
        return (self.annotation.aid,)

    @property
    def first(self) -> Annotation:
        return self.annotation

    last = first

    @property
    def end(self) -> int:
        """The position in the rule log of the state the round ends in."""
        return self.app_range[1]

    def seq(self, j: int) -> "SimSeq":
        return self


@dataclass(frozen=True)
class PassSweep:
    """A run of pass rounds that apply no rule, recorded by one sweep
    (``_sweep_passes``): the attention clause each round leaves, in order,
    and the pair index, map and rule-log position of the state they all
    share. Round ``j`` is ``seq(j)``, the round ``_round_no_conflict``
    records for ``aids[j]``."""

    aids: Tuple[Clause, ...]
    index: int
    gamma: Dict[Clause, Clause]
    end: int

    kind = "pass"

    @property
    def rounds(self) -> int:
        return len(self.aids)

    @memo
    def first(self) -> Annotation:
        return Annotation(self.index, self.aids[0], self.gamma)

    @memo
    def last(self) -> Annotation:
        return Annotation(self.index, self.aids[-1], self.gamma)

    def seq(self, j: int) -> SimSeq:
        return SimSeq("pass", self.aids[j], Annotation(self.index, self.aids[j], self.gamma),
                      (self.end, self.end))


Record = Union[SimSeq, PassSweep]


_rounds = attrgetter("rounds")


@dataclass
class SimRun:
    """A trail run, recorded once.

    Stored: the rule log (``states[i]`` is the state ``apps[i]`` was applied
    in, ``states[-1]`` the state after the last application), the
    annotation before the first round, the round records and the outcome.
    A record is a ``SimSeq``, one round, or a ``PassSweep``, a run of pass
    rounds that apply no rule, however long. Derived, on read:
    ``seqs``, one ``SimSeq`` per round, and ``annotations`` and
    ``boundary_states``, one entry per round boundary (boundary ``i + 1``
    is the end of round ``i``), each a read-only sequence that expands the
    records (``core.Expanded``); the ``learned`` clauses, the final state's
    plus the empty clause when the run is unsatisfiable; and ``model``, the
    positive trail atoms when it is satisfiable. A boundary's state is the
    rule log's state at its record's ``end`` (``end_states``). The
    ``repr`` gives the outcome and sizes, never a clause.
    """

    order: ProblemOrder
    start: Annotation
    states: List[SclState]
    apps: List[RuleApp] = field(default_factory=list)
    records: List[Record] = field(default_factory=list)
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
    def seqs(self) -> Sequence[SimSeq]:
        return Expanded((), self.records, _rounds, lambda record, j: record.seq(j))

    @property
    def annotations(self) -> Sequence[Annotation]:
        return Expanded((self.start,), self.records, _rounds,
                        lambda record, j: record.seq(j).annotation)

    @property
    def boundary_states(self) -> Sequence[SclState]:
        start, *ends = self.end_states()
        return Expanded((start,), zip(self.records, ends),
                        lambda pair: pair[0].rounds, lambda pair, j: pair[1])

    def end_states(self) -> List[SclState]:
        """The initial state, then the state each record's rounds end in."""
        states = self.states
        return [states[0]] + [states[record.end] for record in self.records]

    def apply(self, app: RuleApp, rule: Callable[..., SclState], *args) -> None:
        """Apply ``rule`` to the current state and record it as ``app``."""
        self.states.append(rule(self.order, self.state, *args))
        self.apps.append(app)

    def __repr__(self) -> str:
        rounds = sum(map(_rounds, self.records))
        return f"<SimRun {self.outcome}: {rounds} rounds, {len(self.apps)} rule apps>"


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
      clause's factored image and whether the clause is one of the
      state's input or learned clauses, ``own``;
    - ``stages``: by saturation ledger, the latest ledger stage at which
      every clause of the state, input or learned, has joined, or None if
      one never joins (``joined``), filled in for each ledger the first
      time it is asked.

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
      other entry computes it again. An entry of ``last`` keeps ``own``
      when it was set, since the input clauses are the same tuple and the
      learned ones only extend, and otherwise asks the new clauses alone;
      only an entry new to the map asks every clause.
    - ``stages``: each ledger's stage is the later of the old one and the
      new learned clauses' stages, since a clause's stage never changes
      once it has joined; a ledger that one of the old clauses never joins
      keeps None, since a recorded run's ledger no longer grows.

    The new index keeps ``last``'s computed parts, not ``last``, and drops
    each when its own part is read, so indexes never hold a chain of their
    predecessors. A part the order cannot rank raises the order's
    ValueError on every read, just as a direct computation would: the
    derivation keys the clauses it has to in state order, the order in
    which a full sort keys them.
    """

    _PARTS = ("ranked", "images", "map_entries", "stages")

    def __init__(self, order: ProblemOrder, state: SclState,
                 gamma: Dict[Clause, Clause], last: Optional["_AttentionIndex"] = None):
        self.order = order
        self.n, self.u = state.n, state.u
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
        known = {entry[0]: entry for entry in prior}
        added = self._added if prior else ()
        entries = []
        for c, img in self.gamma.items():
            before = known.get(c)
            if before is None:
                factored, own = img == sfac(c, self.order), c in self.n or c in self.u
            else:
                factored = before[2] if before[1] is img else img == sfac(c, self.order)
                own = before[3] or c in added
            entries.append((c, img, factored, own))
        return entries

    @memo
    def stages(self) -> Dict[_Ledger, Optional[int]]:
        prior = self._prior.pop("stages", None)
        if not prior:
            return {}
        added = self._added
        return {ledger: ledger.joined(added, at) for ledger, at in prior.items()}

    def joined(self, ledger: _Ledger) -> Optional[int]:
        """The latest stage of ``ledger`` at which every input and learned
        clause has joined it, or None if one never does."""
        stages = self.stages
        if ledger not in stages:
            stages[ledger] = ledger.joined(self.n + self.u)
        return stages[ledger]

    @property
    def _added(self) -> Tuple[Clause, ...]:
        """The learned clauses past ``last``'s."""
        return self.u[self._since:]

    def after(self, key: Tuple[ClauseKey, ClauseKey]) -> Optional[Clause]:
        """The first clause whose key lies strictly above ``key``."""
        keys, _, clauses = self.ranked
        i = bisect_right(keys, key)
        return clauses[i] if i < len(clauses) else None

    def up_to(self, key: Tuple[ClauseKey, ClauseKey]) -> Iterator[Tuple[int, Clause]]:
        """The clauses whose key is at most ``key``, with their state
        positions, in the factored-image order."""
        keys, positions, clauses = self.ranked
        return islice(zip(positions, clauses), bisect_right(keys, key))


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


def _producing_clause(order: ProblemOrder, state: SclState, gamma: Dict[Clause, Clause],
                      literal: Literal, index: Optional[_AttentionIndex] = None) -> Clause:
    """The attention-order smallest clause whose image forces ``literal``.

    Forcing needs more than the literal being strictly maximal in the image:
    the rest of the image must be false on the current trail, otherwise the
    clause is satisfied without the literal and produces nothing. Skipping
    that test can select a clause whose leftover part is true, or never
    false at all because it carries both polarities of some atom.

    The images in which ``literal`` is strictly maximal are those whose key
    starts with the run ``(rank, 1)``. The attention keys sort by image key
    first, so these clauses form one range of the version's index
    (``_index_for``, from ``index``), ties in state order, and the first of
    them whose image is false without ``literal`` is the smallest.
    """
    keys, _, clauses = _index_for(order, state, gamma, index).ranked
    rank = order.literal_rank(literal)
    lo = bisect_left(keys, (((rank, 1),),))
    for c in islice(clauses, lo, bisect_left(keys, (((rank, 2),),), lo)):
        if is_false_except(state, gamma.get(c, c), literal):
            return c
    raise SimulationError(f"no clause can force {literal}")


def _round_conflict(run: SimRun, ann: Annotation, index: Optional[_AttentionIndex] = None
                    ) -> Tuple[str, Annotation, Optional[_AttentionIndex]]:
    """Process the pending conflict; return the round's kind, the
    annotation it leaves and the attention index to read next, ``index``
    or, where the round reads one, the index of the state after backtrack.

    The conflict is resolved against the top propagation once per occurrence
    of the complemented literal; each resolution pairs with one saturation
    step. An empty resolvent ends the run ("refute"). Otherwise the trail is
    unwound to the blocking decision and the resolvent is learned; what
    happens next depends on its maximal literal. A negative maximum means
    its atom must be forced again from the clause that produces it, which
    re-exposes a conflict ("learn_negative"). A positive maximum is guessed
    when that is safe ("learn_decide") and propagated from the learned
    clause itself when it is not ("learn_propagate"). Only a
    "learn_negative" round reads the index, to find the producing clause.
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
        return "refute", Annotation(j, EMPTY_CLAUSE, ann.gamma), index
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
        kind, after = _act_on_positive_max(run, j, learned, ann.gamma, lmax,
                                           ("learn_propagate", "learn_decide"))
        return kind, after, index
    forced = lmax.complement()
    index = _index_for(order, run.state, ann.gamma, index)
    source = _producing_clause(order, run.state, ann.gamma, forced, index)
    run.apply(RuleApp("propagate", literal=forced, clause=source), propagate, source, forced)
    false_now = conflict_candidates(run.state)
    if not false_now:
        raise SimulationError(f"forcing {forced} from {source} exposed no conflict")
    false_clause = min(false_now, key=order.clause_key)
    run.apply(RuleApp("conflict", clause=false_clause), conflict, false_clause)
    return "learn_negative", Annotation(j, source, ann.gamma), index


def _beta(key: Tuple[ClauseKey, ClauseKey]) -> int:
    """How many atoms lie below the maximal literal of the image keyed by
    ``key``: its rank plus one, halved, since positive ranks are even."""
    return (key[0][0][0] + 1) // 2


def _sweep_passes(run: SimRun, ann: Annotation, index: _AttentionIndex,
                  room: int) -> Tuple[Annotation, Optional[Clause], int]:
    """Record the pass round with no filler decision just played, which
    left ``ann``, and the pass rounds that follow it as one ``PassSweep``
    of at most ``room`` rounds; return the last annotation, the next
    attention clause (None at the end of the walk) and how many rounds the
    sweep recorded.

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
    at the end of the walk, or when it holds ``room`` rounds.
    """
    order, state, gamma = run.order, run.state, ann.gamma
    keys, _, clauses = index.ranked
    key = _gamma_key(order, ann.aid, gamma)
    defined = _beta(key)
    passed = [ann.aid]
    i = bisect_right(keys, key)
    while i < len(clauses) and len(passed) < room:
        d = clauses[i]
        if not is_true(state, gamma.get(d, d)):
            break
        bound = _beta(keys[i])
        if bound > defined:
            if not all(is_defined(state, a) for a in order.atoms_ascending[defined:bound]):
                break
            defined = bound
        passed.append(d)
        i = bisect_right(keys, keys[i], i)
    run.records.append(PassSweep(tuple(passed), ann.index, gamma, len(run.apps)))
    last = ann if len(passed) == 1 else Annotation(ann.index, passed[-1], gamma)
    return last, clauses[i] if i < len(clauses) else None, len(passed)


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
    (``_sweep_passes``) as one ``PassSweep`` record, instead of one index
    lookup, one ``_round_no_conflict`` call and one ``SimSeq`` per round.
    Its expansion holds the same rounds and annotations as those calls
    would record, and the round cap counts each of them.
    """
    if max_sequences < 0:
        raise ValueError(f"max_sequences must be at least 0, not {max_sequences}")
    order = order or ProblemOrder(problem)
    ann = Annotation(0, EMPTY_CLAUSE, initial_gamma(problem, order))
    run = SimRun(order, ann, [initial_state(problem)])
    index, swept, rounds = None, False, 0

    while rounds < max_sequences:
        start = len(run.apps)
        if run.state.conflict is not None:
            kind, ann, index = _round_conflict(run, ann, index)
            attention = None
        else:
            if not swept:        # else the sweep has handed over the next clause
                index = _index_for(order, run.state, ann.gamma, index)
                attention = next_attention(order, run.state, ann, index)
            if attention is None:
                run.outcome = SATISFIABLE
                break
            kind, ann = _round_no_conflict(run, ann, attention)
        swept = kind == "pass" and len(run.apps) == start
        if swept:
            ann, attention, passed = _sweep_passes(run, ann, index, max_sequences - rounds)
            rounds += passed
            continue
        run.records.append(SimSeq(kind, attention, ann, (start, len(run.apps))))
        rounds += 1
        if kind == "refute":
            run.outcome = UNSATISFIABLE
            break
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


def check_invariants(order: ProblemOrder, state: SclState, ann: Annotation,
                     snapshot: SupSnapshot,
                     index: Optional[_AttentionIndex] = None) -> List[InvariantReport]:
    """Confront one annotated trail state with one saturation snapshot.

    Returns one report per invariant, in the (i)-(xiv) order below. The
    checks are defensive: a state too broken to even rank its clauses fails
    the affected invariant instead of raising. ``index`` is an attention
    index, typically the boundary before's: it is read when it fits the
    state and map, derived from when the learned clauses extend its own,
    and ignored otherwise (``_index_for``), so it never changes a report.
    """
    index = _index_for(order, state, ann.gamma, index)
    con = snapshot.construction
    image = ann.gamma.get(ann.aid, ann.aid)
    positives = frozenset(e.literal.atom for e in state.trail if e.literal.positive)
    negatives = frozenset(e.literal.atom for e in state.trail if not e.literal.positive)

    # (v) and (vi) share the atoms produced below the attention image; when
    # the order cannot rank it, each of them computes it again and reports
    try:
        below: Optional[FrozenSet[Atom]] = con.prefix_below(image)
    except ValueError:
        below = None

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

    # (iii) the attention clause and all input and learned clauses exist on
    #       the paired side; the state's clauses are listed one by one, in
    #       state order, only when one of them has not joined the run's
    #       ledger by this snapshot
    missing: List[Clause] = []
    joined = index.joined(snapshot.ledger)
    if joined is None or joined > snapshot.index:
        missing = [c for c in state.all_clauses() if not snapshot.contains(c)]
    if not ann.aid.is_empty and not snapshot.contains(ann.aid):
        missing.append(ann.aid)
    membership = _report("membership", not missing,
                         lambda: f"absent from the paired clause set: {[str(c) for c in missing]}")

    # (iv) the map stores exactly factored images that the paired set
    #      contains
    def map_shape() -> Optional[str]:
        problems = []
        for c, img, factored, own in index.map_entries:
            if not factored:
                problems.append(f"{c} maps to {img}, not its factored image")
            elif not snapshot.contains(img):
                problems.append(f"image {img} is not in the paired set")
            elif not own:
                problems.append(f"{c} is neither input nor learned")
        return "; ".join(problems) if problems else None

    # (v) positive trail atoms = atoms produced below the attention image,
    #     plus that image's own production
    def positives_match() -> Optional[str]:
        prefix = con.prefix_below(image) if below is None else below
        expected = set(prefix)
        delta = con.delta_of(image, prefix)
        if delta is not None:
            expected.add(delta)
        if positives == expected:
            return None
        return (
            f"trail makes {sorted(a.text for a in positives)} true, "
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
        if negatives == expected:
            return None
        return (
            f"trail makes {sorted(a.text for a in negatives)} false, "
            f"expected {sorted(a.text for a in expected)}"
        )

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

    # (xii) everything up to the attention clause is satisfied
    def prefix_satisfied() -> Optional[str]:
        prefix = index.up_to(_gamma_key(order, ann.aid, ann.gamma))
        unsat = [(i, c) for i, c in prefix if not is_true(state, c)]
        if not unsat:
            return None
        return f"not satisfied yet: {[str(c) for _, c in sorted(unsat)]}"

    # (xiii) outside conflict mode no clause is false
    overlooked = conflict_candidates(state) if state.conflict is None else []

    # (xiv) the two sides refute together
    here = state.conflict == EMPTY_CLAUSE
    there = snapshot.contains(EMPTY_CLAUSE)

    return [
        scope,
        bound,
        membership,
        _guarded("factored-map-shape", map_shape),
        _guarded("positives-match-production", positives_match),
        _guarded("negatives-cover-gap", negatives_match),
        _guarded("trail-ascends", ascends),
        _report("producers-exist", not unproduced,
                lambda: f"no producer for {sorted(unproduced)}"),
        _report("producer-preimages", not problems9, lambda: "; ".join(problems9)),
        _report("conflict-top-propagation", not live or on_top,
                lambda: "conflict without a top propagation"),
        _guarded("conflict-is-minimal-false", conflict_shape),
        _guarded("prefix-satisfied", prefix_satisfied),
        _report("no-missed-conflict", not overlooked,
                lambda: f"falsified but unclaimed: {[str(c) for c in overlooked]}"),
        _report("refutation-sync", here == there,
                lambda: f"trail side refuted: {here}, saturation side refuted: {there}"),
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


def _in_trail_run(before: Annotation, state: SclState,
                  ann: Annotation, after: SclState) -> bool:
    """Whether the boundary annotated ``ann`` with ``after`` continues the
    trail run of the boundary before it: the same pair index, map object
    and input and learned clause tuples, neither state in conflict mode,
    and the later trail holding the earlier one's entries object by
    object, possibly followed by more."""
    return (ann.index == before.index and ann.gamma is before.gamma
            and after.n is state.n and after.u is state.u
            and state.conflict is None and after.conflict is None
            and _extends(state.trail, after.trail))


def _model_length(order: ProblemOrder, con, key: Tuple[ClauseKey, ClauseKey],
                  image: Clause) -> int:
    """How many atoms the model for ``image``, keyed ``key``, has: β(key),
    plus one when its maximal literal is positive and a member at or below
    the image produces that literal's atom."""
    top = order.max_literal(image)
    return _beta(key) + (top.positive and con.produces_up_to(top.atom, image))


def _passes_trail_run(order: ProblemOrder, index: _AttentionIndex, snapshot: SupSnapshot,
                      first: List[InvariantReport], last: List[InvariantReport],
                      run: List[Tuple[Record, SclState]]) -> bool:
    """Whether every boundary of the trail run ``run``, its records each
    with the state its rounds end in, passes all fourteen invariants and
    every round between two of them passes ``check_progress``. ``first``
    and ``last`` are the reports of ``check_invariants`` at its two ends,
    ``index`` the attention index of the run's clauses under its map and
    ``snapshot`` the one its pair index names. False means "not shown",
    never "fails".

    It holds when both ends pass, each record's boundaries in between take
    as attention clauses, by identity, the next distinct keys of the
    index after the boundary before, the last boundary's key climbs past
    those, and at each record's two ends the trail holds as many entries as
    the model for the attention image g has atoms, and one sweep of the
    index finds the clauses up to the record's last key true on its trail.
    That model has β(g) atoms, those below g's maximal literal, plus that
    literal's atom when the literal is positive and a member at or below g
    produces it. Then each boundary in between passes as well:

    - the attention clauses are state clauses, which (iii) at the ends puts
      in the snapshot, and their keys climb; only the first may instead be
      the empty clause. The keys rank by image first, so the images climb
      and each is a member: the clause itself or, by (iv), its map image;
    - the length: β(key) + produced never decreases as the key grows, since
      β counts the atoms below the image's maximal literal, which climbs,
      and the production term can fall back from one to zero only where
      that literal's atom joins the atoms below. A record's boundaries
      share one trail, so a length equal to the model's at both ends is
      equal at every boundary in between;
    - (v), (vi) and (vii) make the last trail the model for its image in
      ascending order, and an earlier trail is a prefix of it. Members
      ascend by maximal literal and no atom is produced twice, so a member
      above g produces no atom of the model for g, which is therefore the
      prefix of the last model that has its length. So (v) and (vi) hold
      exactly where the length does;
    - (i), (ii), (vii), (viii) and (ix) read the trail entry by entry, and
      each entry is one of the last trail's. No atom repeats on it, so a
      literal true or false on a trail stays so on the later ones, and a
      clause false in between would be false at the last boundary: (xiii);
    - (iii), (iv) and (xiv) read the state's clauses, the map and the
      snapshot, which are the run's, and the attention clause, which is a
      state clause; outside conflict mode (x) and (xi) hold;
    - (xii): the clauses up to the first attention clause hold at the first
      boundary, so on every later trail. The sweep tests each later one on
      the first trail that must satisfy it, so it holds on the trails
      after. A trail as long as the last one has its entries and is
      covered by its check;
    - progress: the pair index and the map stand still and the key climbs.
    """
    if not all(r.ok for r in first) or not all(r.ok for r in last):
        return False
    gamma, con = index.gamma, snapshot.construction
    keys, _, clauses = index.ranked
    full = len(run[-1][1].trail)
    between = [(record.aids, state) for record, state in run]
    head, tail = between[0][0], between[-1][0]
    between[0] = head[1:], between[0][1]
    between[-1] = between[-1][0][:-1], between[-1][1]
    try:
        key = _gamma_key(order, head[0], gamma)
        swept = bisect_right(keys, key)
        for aids, state in between:
            if not aids:
                continue
            at = bisect_right(keys, key)
            upto = at + len(aids)
            if not (upto <= len(clauses) and all(map(is_, aids, clauses[at:upto]))
                    and all(map(lt, keys[at:upto - 1], keys[at + 1:upto]))):
                return False
            length = len(state.trail)
            for end in {at, upto - 1}:
                image = gamma.get(clauses[end], clauses[end])
                if length != _model_length(order, con, keys[end], image):
                    return False
            if length < full:
                if not all(is_true(state, c) for c in clauses[swept:upto]):
                    return False
                swept = upto
            key = keys[upto - 1]
        return _gamma_key(order, tail[-1], gamma) > key
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# The lockstep verifier
# ---------------------------------------------------------------------------


@dataclass
class BoundaryReport:
    boundary: int                  # position in the annotation list
    index: int                     # paired saturation snapshot
    reports: List[InvariantReport]
    count: int = 1                 # boundaries from ``boundary`` on sharing the reports

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)


def _boundary(entry: BoundaryReport, j: int) -> BoundaryReport:
    """The report of the ``j``-th boundary an entry stands for."""
    return entry if entry.count == 1 else BoundaryReport(entry.boundary + j, entry.index,
                                                         entry.reports)


@dataclass
class VerifyResult:
    """What ``lockstep_verify`` found.

    Stored: one entry per boundary checked on its own, and one shared entry,
    with the passing reports and a ``count``, for each trail run the range
    test decides; the progress, regularity and final failure lines. Derived,
    on read: ``boundaries``, one report per round boundary, a read-only
    sequence that expands the entries (``core.Expanded``). ``ok`` and
    ``failures()`` read the entries, and a shared entry passes.
    """

    order: ProblemOrder
    sup: SupRun
    sim: SimRun
    entries: List[BoundaryReport] = field(default_factory=list)
    progress_failures: List[str] = field(default_factory=list)
    regularity_failures: List[str] = field(default_factory=list)
    final_failures: List[str] = field(default_factory=list)

    @property
    def boundaries(self) -> Sequence[BoundaryReport]:
        return Expanded((), self.entries, attrgetter("count"), _boundary)

    @property
    def ok(self) -> bool:
        return (
            all(e.ok for e in self.entries)
            and not self.progress_failures
            and not self.regularity_failures
            and not self.final_failures
        )

    def failures(self) -> List[str]:
        out = []
        for e in self.entries:
            for r in e.reports:
                if not r.ok:
                    out.append(
                        f"boundary {e.boundary} (pair index {e.index}): "
                        f"{r.name}: {r.detail}"
                    )
        out.extend(f"progress: {m}" for m in self.progress_failures)
        out.extend(f"regularity: {m}" for m in self.regularity_failures)
        out.extend(f"final: {m}" for m in self.final_failures)
        return out

    def __repr__(self) -> str:
        return (f"<VerifyResult {'ok' if self.ok else 'failed'}: "
                f"{len(self.boundaries)} boundaries, {self.sim!r}, {self.sup!r}>")


def _blocks(sim: SimRun) -> List[Tuple[Record, SclState]]:
    """The records of ``sim``, after one for boundary 0, each with the state
    its rounds end in. Consecutive boundaries of a sweep differ in attention
    alone, so they continue each other's trail run (``_in_trail_run``)
    exactly when the sweep's state is outside conflict mode; a sweep in
    conflict mode is split into its rounds, each a trail run of its own."""
    start, *ends = sim.end_states()
    blocks: List[Tuple[Record, SclState]] = [(SimSeq("start", None, sim.start, (0, 0)), start)]
    for record, state in zip(sim.records, ends):
        if state.conflict is not None and record.rounds > 1:
            blocks.extend((record.seq(j), state) for j in range(record.rounds))
        else:
            blocks.append((record, state))
    return blocks


def _rounds_of(run: List[Tuple[Record, SclState]]) -> Iterator[Tuple[SimSeq, SclState]]:
    """Each boundary of ``run`` as the round that ends there and its state."""
    for record, state in run:
        for j in range(record.rounds):
            yield record.seq(j), state


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
    must extend those of the boundary before, clause by clause (equal
    clauses are one object); a regularity line names each boundary where
    they do not.

    The verifier reads the run's records, not its expanded views. The
    boundaries fall into trail runs (``_in_trail_run``), maximal stretches
    outside conflict mode that share a pair index, a map and the clauses,
    each trail extending the one before; a run is a sequence of whole
    records (``_blocks``), so finding its end takes one call per record. A
    run is checked in full at its first and last boundary, and
    ``_passes_trail_run`` decides the boundaries in between from those two
    checks, one step per record: where it passes, the whole run is one
    shared passing entry and the rounds inside it get no progress check,
    since the test shows both to hold. A run it cannot show is expanded and
    checked in full at every boundary but the last, whose reports are kept,
    so every report and every progress line is the one a check of each
    boundary on its own gives. A trail run has one attention index, since
    its boundaries share the clauses and the map: the verifier takes it
    from the last run's through ``_index_for`` and hands it to each check
    and to the range test.
    """
    order = ProblemOrder(problem)
    sim = run_scl_sup(problem, order, max_sequences=max_sequences)
    blocks = _blocks(sim)
    final_index = blocks[-1][0].last.index
    sup = run_sup_mo(problem, order, max_steps=max(MAX_STEPS, final_index))
    result = VerifyResult(order=order, sup=sup, sim=sim)

    snapshots, steps = sup.snapshots, sup.step_count
    entries, progress = result.entries, result.progress_failures
    index, learned, forgotten = None, (), []
    b = k = 0                  # the first boundary and block of the trail run
    while k < len(blocks):
        stop, size = k + 1, blocks[k][0].rounds
        while stop < len(blocks) and _in_trail_run(blocks[stop - 1][0].last, blocks[stop - 1][1],
                                                   blocks[stop][0].first, blocks[stop][1]):
            size += blocks[stop][0].rounds
            stop += 1
        run = blocks[k:stop]
        (head, state), (tail, end) = run[0], run[-1]
        ann = head.first
        if b:
            msg = check_progress(order, blocks[k - 1][0].last, ann)
            if msg is not None:
                progress.append(f"round {b - 1} ({head.kind}): {msg}")
        if not _extends(learned, state.u):
            forgotten.append(f"boundary {b}: the learned clauses do not extend "
                             f"those of boundary {b - 1}")
        learned = state.u
        in_range, shown = 0 <= ann.index <= steps, False
        if in_range:
            snapshot = snapshots[ann.index]
            index = _index_for(order, state, ann.gamma, index)
            reports = check_invariants(order, state, ann, snapshot, index)
            if size > 1:
                last = check_invariants(order, end, tail.last, snapshot, index)
                shown = _passes_trail_run(order, index, snapshot, reports, last, run)
        else:
            reports = last = [InvariantReport(
                "pair-index-in-range", False,
                f"index {ann.index} but only {steps + 1} snapshots",
            )]
        entries.append(BoundaryReport(b, ann.index, reports, size if shown else 1))
        if size > 1 and not shown:
            rounds = _rounds_of(run)
            before = next(rounds)[0].annotation
            for i, (seq, at) in enumerate(rounds, b + 1):
                here = seq.annotation
                msg = check_progress(order, before, here)
                if msg is not None:
                    progress.append(f"round {i - 1} ({seq.kind}): {msg}")
                if in_range and i < b + size - 1:
                    reports = check_invariants(order, at, here, snapshot, index)
                else:
                    reports = last
                entries.append(BoundaryReport(i, here.index, reports))
                before = here
        b, k = b + size, stop

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
