"""Ground saturation driven by a partial-model construction.

The strategy never enumerates inferences blindly. Each round builds a
candidate interpretation bottom-up along the clause order: a clause whose
maximal literal is positive, strictly maximal, and still false gets to make
that atom true ("produce" it); everything else keeps the interpretation as
is. The smallest clause this construction leaves false, when one exists,
pinpoints the one inference to perform next:

* maximal literal negative: resolve that occurrence against the producer of
  its atom (superposition into the false clause),
* maximal literal positive but duplicated: factor out one copy.

A clause whose maximal literal is positive and strictly maximal cannot be
the smallest false clause (it would have produced), so the split is total.
The derived clause is always smaller than the clause it repairs and is never
already present; both facts are checked at runtime rather than assumed.

The first fact keeps the rounds cheap. The construction below the new
clause cannot change, and nothing above the smallest false clause decides
the next inference. So the run keeps one ascending list of its clauses, and
a step inserts the conclusion, keeps the productions below it and walks on
from there only to the next smallest false clause. A snapshot stores those
productions alone, as an ordered map from each produced atom to its
producing clause, and completes its construction only when a read needs
more.

It also makes steps come in chains. When the maximal literal of the
smallest false clause M has k copies, the conclusion is false, smaller than
M, and sits over the same construction, so it is the next smallest false
clause, with the same maximal literal and the same producer: the inference
repeats on the same side premise and pivot. A factoring chain takes k - 1
steps and ends at ``M.with_count(top, 1)``, which produces ``top``. A
superposition chain on ``¬A`` takes k steps and ends at
``M.with_count(¬A, 0) + k·(S - A)``, S being the producer of A. ``SupChain``
is the one record of inferences: it holds a chain's premises, step count and
end, and the closed form of every clause on it, built once on first read. A
single step is a chain of one. A chain that would pass the step cap is cut
short there, so the cap still counts single steps.

The clause list holds the chain ends alone. A chain's intermediate
conclusions never matter to a later walk: each holds every distinct literal
of the chain's end, and a clause that produces between the end and them
produces an atom at or above the end's maximal literal. So they are true
whenever the end is true or produces, and lie above it when it is left
false: none of them is ever the smallest false clause, and none produces.
The walks skip them. Membership, the ordered clause set and the
construction's rows add them back in closed form, and ``SupRun.steps`` and
``SupRun.snapshots`` expand each record into its single steps and snapshots
on read, as views of ``core.Expanded``, the one class that expands every
run record of the package.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from heapq import merge
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import Atom, Clause, Expanded, Literal, Problem, eval_herbrand, memo
from .ordering import ClauseKey, ProblemOrder

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
CAP_EXCEEDED = "cap_exceeded"
MAX_STEPS = 10000                  # run_sup_mo's default step cap

FACTORING = "factoring"
SUPERPOSITION_LEFT = "superposition_left"

_first = itemgetter(0)
_text = attrgetter("text")


def sfac(clause: Clause, order: ProblemOrder) -> Clause:
    """Exhaustive factoring: while the maximal literal is positive and
    duplicated, drop a copy of it. Only the maximum is ever touched;
    duplicates of smaller literals survive. The extra copies all go in one
    pass, giving the clause that repeated ``factoring_step`` ends with."""
    if clause.is_empty:
        return clause
    m = order.max_literal(clause)
    if not m.positive or order.max_multiplicity(clause) < 2:
        return clause
    return clause.with_count(m, 1)


def factoring_step(clause: Clause, order: ProblemOrder) -> Optional[Clause]:
    """One factoring application on the maximal literal, or None if the
    maximum is negative, unique, or the clause is empty."""
    if clause.is_empty:
        return None
    m = order.max_literal(clause)
    if m.positive and order.max_multiplicity(clause) >= 2:
        return clause.without_one(m)
    return None


def _superposable(false_clause: Clause, producer: Clause, order: ProblemOrder) -> Literal:
    """The maximal literal ``¬A`` of ``false_clause``, once it is checked
    that ``producer`` holds ``A`` strictly maximal; misuse raises
    ValueError."""
    if false_clause.is_empty:
        raise ValueError("cannot superpose into the empty clause")
    m = order.max_literal(false_clause)
    if m.positive:
        raise ValueError(f"maximal literal {m} of {false_clause} is not negative")
    b = Literal(m.atom)
    if not producer.contains(b):
        raise ValueError(f"producer {producer} has no positive occurrence of {m.atom}")
    if not order.is_strictly_maximal_in(b, producer):
        raise ValueError(f"{b} is not strictly maximal in producer {producer}")
    return m


def superposition_left(false_clause: Clause, producer: Clause, order: ProblemOrder) -> Clause:
    """Resolve the maximal negative literal of ``false_clause`` against the
    strictly maximal positive occurrence of the same atom in ``producer``.

    Exactly one occurrence is removed on each side; remaining duplicates are
    kept. Misuse (wrong polarity, wrong atom, non-maximal occurrences) is
    rejected rather than silently repaired.
    """
    m = _superposable(false_clause, producer, order)
    return false_clause.without_one(m) + producer.without_one(m.complement())


@dataclass(frozen=True)
class SupChain:
    """``count`` inferences of one kind on one side premise and one pivot,
    each on the previous one's conclusion: ``main`` is the first main
    premise and ``conclusion`` the last, computed in closed form when left
    out. A single step is a chain of one.

    The closed form is built once, on first read: after ``j`` steps the
    main premise holds ``base[i] + j * delta[i]`` copies of
    ``distinct[i]``. ``delta`` is -1 on the pivot literal, the maximal
    literal of every clause on the chain, and for superposition the copies
    of ``S - A`` elsewhere. The intermediates are the conclusions of the
    steps ``0 < j < count``, and every count of theirs is positive."""

    kind: str                      # FACTORING or SUPERPOSITION_LEFT
    main: Clause
    side: Optional[Clause]         # producing clause (superposition only)
    pivot: Atom
    count: int
    conclusion: Optional[Clause] = None   # computed when left out

    def __post_init__(self) -> None:
        if self.conclusion is None:
            object.__setattr__(self, "conclusion", self.at(self.count))

    @memo
    def _form(self) -> Tuple[Tuple[Literal, ...], Tuple[int, ...], Tuple[int, ...], int]:
        """``distinct``, ``base``, ``delta``, the pivot literal's position."""
        top = Literal(self.pivot, self.kind == FACTORING)
        copies = dict(zip(self.main.distinct, self.main.counts))
        step: Dict[Literal, int] = {top: -1}
        if self.kind == SUPERPOSITION_LEFT:
            rest = self.side.without_one(top.complement())
            for l, n in zip(rest.distinct, rest.counts):
                step[l] = step.get(l, 0) + n
        for l in step:
            copies.setdefault(l, 0)
        distinct = tuple(sorted(copies, key=_text))
        return (distinct, tuple(copies[l] for l in distinct),
                tuple(step.get(l, 0) for l in distinct), distinct.index(top))

    @property
    def distinct(self) -> Tuple[Literal, ...]:
        """The distinct literals of every clause the chain passes through."""
        return self._form[0]

    def _counts(self, j: int) -> Tuple[int, ...]:
        _, base, delta, _ = self._form
        return tuple(b + j * d for b, d in zip(base, delta))

    def at(self, j: int) -> Clause:
        """The conclusion of step ``j``."""
        distinct, counts = self._form[0], self._counts(j)
        if 0 in counts:
            kept = [(l, n) for l, n in zip(distinct, counts) if n]
            return Clause.from_runs(tuple(l for l, _ in kept), tuple(n for _, n in kept))
        return Clause.from_runs(distinct, counts)

    def single(self, j: int) -> "SupChain":
        """Step ``j`` alone, as a chain of one; a chain of one is its own
        step."""
        if self.count == 1:
            return self
        main = self.main if j == 0 else self.at(j)
        conclusion = self.conclusion if j + 1 == self.count else self.at(j + 1)
        return SupChain(self.kind, main, self.side, self.pivot, 1, conclusion)

    def singles(self) -> Iterator["SupChain"]:
        """Every ``single(j)`` in order, each intermediate built once and
        passed on as the next main premise, where ``single`` builds two."""
        kind, side, pivot, main = self.kind, self.side, self.pivot, self.main
        for j in range(1, self.count):
            conclusion = self.at(j)
            yield SupChain(kind, main, side, pivot, 1, conclusion)
            main = conclusion
        yield self if self.count == 1 else SupChain(kind, main, side, pivot, 1, self.conclusion)

    def step_of(self, clause: Clause) -> Optional[int]:
        """The ``j`` of the intermediate equal to ``clause``, which holds
        the same distinct literals, or None."""
        _, base, _, top = self._form
        j = base[top] - clause.counts[top]
        if 0 < j < self.count and clause.counts == self._counts(j):
            return j
        return None

    def meets(self, other: "SupChain") -> Optional[int]:
        """The first ``j`` whose intermediate is also one of ``other``'s,
        which holds the same distinct literals, or None. Equal clauses
        have the same maximal literal, so the pivots agree, and the pivot
        counts tie ``other``'s step to ``j + s``; each literal then asks
        ``j * (d - d') == b' + s * d' - b``. Where the pivots differ, this
        chain's pivot asks ``(1 + d') * (j + s) == 0`` with ``d' >= 0``,
        which puts ``other``'s step at 0, outside its range: None."""
        _, base, delta, top = self._form
        _, base2, delta2, _ = other._form
        s = base2[top] - base[top]
        lo, hi = max(1, 1 - s), min(self.count - 1, other.count - 1 - s)
        for b, d, b2, d2 in zip(base, delta, base2, delta2):
            a, r = d - d2, b2 + s * d2 - b
            if a == 0:
                if r:
                    return None
            elif r % a:
                return None
            else:
                lo, hi = max(lo, r // a), min(hi, r // a)
        return lo if lo <= hi else None


@dataclass(frozen=True)
class ModelEntry:
    """One clause's row in the bottom-up construction. Rows between two
    productions share one prefix set."""

    clause: Clause
    prefix: FrozenSet[Atom]        # atoms produced by strictly smaller clauses


class _Ledger:
    """A growing clause set in ascending order, shared by the constructions
    over its stages: ``keyed`` holds the input clauses and the chain ends
    with their keys under the order's cached clause key, ascending, and
    ``born`` maps each of them to the stage at which it joined. ``chains``
    holds, by their distinct literals, a ``(stage, chain)`` pair for each
    chain whose intermediates the set also holds: the conclusion of its
    step ``j`` joins at ``stage + j``. It refers to no construction, so the
    records of a run hold no reference cycle."""

    def __init__(self, order: ProblemOrder, clauses: Iterable[Clause]):
        self.order = order
        self.keyed: List[Tuple[ClauseKey, Clause]] = sorted(
            ((order.clause_key(c), c) for c in set(clauses)), key=_first)
        self.born: Dict[Clause, int] = {c: 0 for _, c in self.keyed}
        self.chains: Dict[Tuple[Literal, ...], List[Tuple[int, SupChain]]] = {}

    def insert(self, clause: Clause, stage: int) -> int:
        """Add ``clause`` as of ``stage`` and return its position."""
        key = self.order.clause_key(clause)
        pos = bisect_left(self.keyed, key, key=_first)
        self.keyed.insert(pos, (key, clause))
        self.born[clause] = stage
        return pos

    def add_chain(self, stage: int, chain: SupChain) -> None:
        """Hold ``chain``'s intermediates from its stages on."""
        self.chains.setdefault(chain.distinct, []).append((stage, chain))

    def stage_of(self, clause: Clause) -> Optional[int]:
        """The stage at which ``clause`` joined, or None if it never did."""
        born = self.born.get(clause)
        if born is None and self.chains:
            for stage, chain in self.chains.get(clause.distinct, ()):
                j = chain.step_of(clause)
                if j is not None:
                    return stage + j
        return born

    def joined(self, clauses: Iterable[Clause], at: Optional[int] = 0) -> Optional[int]:
        """The latest of ``at`` and the stages at which ``clauses`` joined,
        or None if ``at`` is None or one of them never joined. A clause
        joins at most once (``run_sup_mo`` raises on a clause already
        present), so its stage never changes."""
        if at is None:
            return None
        for c in clauses:
            stage = self.stage_of(c)
            if stage is None:
                return None
            if stage > at:
                at = stage
        return at

    def present_on(self, chain: SupChain, low: ClauseKey, high: ClauseKey) -> Optional[Clause]:
        """An intermediate of ``chain`` that the set already holds, or None:
        a stored clause strictly between the keys ``low`` and ``high``,
        where the intermediates lie, or an intermediate of an earlier chain
        over the same distinct literals."""
        lo = bisect_right(self.keyed, low, key=_first)
        for _, c in islice(self.keyed, lo, bisect_left(self.keyed, high, key=_first)):
            if c.distinct == chain.distinct and chain.step_of(c) is not None:
                return c
        for _, other in self.chains.get(chain.distinct, ()):
            j = chain.meets(other)
            if j is not None:
                return chain.at(j)
        return None

    def members(self, index: int) -> Iterator[Tuple[ClauseKey, Clause]]:
        """The clauses joined at or before ``index`` with their keys,
        ascending, intermediates included."""
        born, key = self.born, self.order.clause_key
        stored = ((k, c) for k, c in self.keyed if born[c] <= index)
        inner = sorted(((key(c), c) for chains in self.chains.values() for stage, chain in chains
                        for c in map(chain.at, range(1, min(chain.count, index - stage + 1)))),
                       key=_first)
        return merge(stored, inner, key=_first) if inner else stored


def _production(false_clause: Clause, order: ProblemOrder) -> Optional[Atom]:
    """The atom a clause that the model built so far leaves false produces:
    the atom of its maximal literal when that literal is positive and
    strictly maximal, None otherwise (and for the empty clause)."""
    if false_clause.is_empty:
        return None
    m = order.max_literal(false_clause)
    if m.positive and order.is_strictly_maximal_in(m, false_clause):
        return m.atom
    return None


def _walk(keyed: Iterator[Tuple[ClauseKey, Clause]], order: ProblemOrder,
          producer: Dict[Atom, Clause], keys: List[ClauseKey],
          produced: Set[Atom]) -> Optional[Clause]:
    """Extend a construction over the ``keyed`` clauses, which ascend from
    above every clause it has seen: each clause that the atoms ``produced``
    so far leave false produces its atom when it can, which extends
    ``producer``, ``keys`` (the producing clauses' keys, in the same order)
    and ``produced`` (the same atoms as a set). Returns the first false
    clause that produces nothing, leaving the clauses after it in the
    iterator, or None once the clauses run out."""
    for key, c in keyed:
        if eval_herbrand(produced, c):
            continue
        atom = _production(c, order)
        if atom is None:
            return c
        producer[atom] = c
        keys.append(key)
        produced.add(atom)
    return None


class ModelConstruction:
    """The bottom-up construction over one stage of a clause set, built up
    to its minimal false clause and completed only when a read needs more.

    The walk visits the clauses in ascending order. A clause that the atoms
    produced below it (its prefix) leave false produces the atom of its
    maximal literal when that literal is positive and strictly maximal.
    ``minimal_false`` is the smallest clause left false (None when the set
    is satisfied), and the walk stops there. Stored: the productions up to
    that point, as an ordered map from each produced atom to its producing
    clause, with the producing clauses' keys in a list beside it; the prefix
    sets and the model are derived from them on read.
    ``index`` is the stage: the clause set holds the clauses of the ledger
    that joined at or before it. The walks visit the stored clauses alone,
    since chain intermediates never produce (see the module docstring).

    Reads inside the built part are answered from the stored productions:
    ``minimal_false``, ``producer_of`` an atom produced below it, and
    ``prefix_below``, ``delta_of`` and ``produces_up_to`` of a clause not
    above it. Any other read completes the walk from ``minimal_false``
    onward, past every further false clause that produces nothing:
    ``model``, ``producer``, ``entries``, a ``producer_of`` that misses, and
    a ``prefix_below`` or ``produces_up_to`` above ``minimal_false``. The
    completion extends the stored productions, whose atoms are then the
    model; ``entries`` is rebuilt on each read.
    """

    def __init__(self, ledger: _Ledger, index: int, producer: Dict[Atom, Clause],
                 keys: List[ClauseKey], rest: Iterator[Tuple[ClauseKey, Clause]]):
        self.order = ledger.order
        self.index = index
        self._ledger = ledger
        self._producer = producer              # atom -> clause, ascending
        self._keys = keys                      # their keys, ascending
        self.minimal_false = _walk(rest, self.order, producer, keys, set(producer))
        self._complete = self.minimal_false is None

    def _finish(self) -> None:
        """Walk on from ``minimal_false`` to the end of this stage's set,
        unless that is done already."""
        if self._complete:
            return
        ledger, index = self._ledger, self.index
        start = bisect_right(ledger.keyed, self.order.clause_key(self.minimal_false),
                             key=_first)
        rest = ((key, c) for key, c in islice(ledger.keyed, start, None)
                if ledger.born[c] <= index)
        produced = set(self._producer)
        while _walk(rest, self.order, self._producer, self._keys, produced) is not None:
            pass
        self._complete = True

    def _produced_below(self, key: ClauseKey) -> int:
        """How many stored productions come from clauses below ``key``."""
        return bisect_left(self._keys, key)

    def _from(self, index: int, key: ClauseKey,
              rest: Iterator[Tuple[ClauseKey, Clause]]) -> "ModelConstruction":
        """The construction of stage ``index``, which agrees with this one
        below ``key`` and walks ``rest`` from there."""
        j = self._produced_below(key)
        return ModelConstruction(self._ledger, index, dict(islice(self._producer.items(), j)),
                                 self._keys[:j], rest)

    def _resumed(self, index: int, start: int) -> "ModelConstruction":
        """The construction of stage ``index``, whose one new clause sits at
        ledger position ``start``: the productions below it stay, and the
        walk resumes there."""
        keyed = self._ledger.keyed
        return self._from(index, keyed[start][0], islice(keyed, start, None))

    def _inside(self, index: int, clause: Clause) -> "ModelConstruction":
        """The construction of stage ``index`` inside the chain that starts
        at this one, whose intermediate ``clause`` is then the smallest
        false clause: the productions below it stay, and the rest is this
        stage's, since intermediates never produce."""
        key = self.order.clause_key(clause)
        return self._from(index, key, iter(((key, clause),)))

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clause set, ascending."""
        return tuple(c for _, c in self._ledger.members(self.index))

    def contains(self, clause: Clause) -> bool:
        born = self._ledger.stage_of(clause)
        return born is not None and born <= self.index

    @property
    def producer(self) -> Dict[Atom, Clause]:
        """The clause that produced each atom, in ascending order."""
        self._finish()
        return self._producer

    def producer_of(self, atom: Atom) -> Optional[Clause]:
        """The clause that produced ``atom``, or None."""
        found = self._producer.get(atom)
        if found is None:
            self._finish()
            found = self._producer.get(atom)
        return found

    @property
    def model(self) -> FrozenSet[Atom]:
        """Every produced atom."""
        self._finish()
        return frozenset(self._producer)

    @property
    def entries(self) -> List[ModelEntry]:
        """One row per clause, ascending, rebuilt from the productions on
        each read; rows between two productions share one prefix set."""
        productions = iter(self.producer.items())
        atom, next_producer = next(productions, (None, None))
        prefix: FrozenSet[Atom] = frozenset()
        rows = []
        for c in self.clauses:
            rows.append(ModelEntry(c, prefix))
            if c is next_producer:
                prefix = prefix | {atom}
                atom, next_producer = next(productions, (None, None))
        return rows

    def _built_to(self, clause: Clause) -> ClauseKey:
        """``clause``'s key, once the walk has reached it: it goes on past
        ``minimal_false`` only when the key lies above it."""
        key = self.order.clause_key(clause)
        if not self._complete and key > self.order.clause_key(self.minimal_false):
            self._finish()
        return key

    def prefix_below(self, clause: Clause) -> FrozenSet[Atom]:
        """Atoms produced by set members strictly smaller than ``clause``."""
        return frozenset(islice(self._producer, self._produced_below(self._built_to(clause))))

    def produces_up_to(self, atom: Atom, clause: Clause) -> bool:
        """Whether a set member at or below ``clause`` produces ``atom``."""
        key = self._built_to(clause)
        producer = self._producer.get(atom)
        return producer is not None and self.order.clause_key(producer) <= key

    def delta_of(self, clause: Clause,
                 below: Optional[FrozenSet[Atom]] = None) -> Optional[Atom]:
        """The atom ``clause`` would produce over this set, or None.

        For set members this coincides with the construction; for outside
        clauses it applies the same production condition relative to the
        atoms produced below them. ``below``, when given, is those atoms as
        ``prefix_below(clause)`` returns them, so that a caller that has
        read them already does not read them again.
        """
        if below is None:
            below = self.prefix_below(clause)
        if eval_herbrand(below, clause):
            return None
        return _production(clause, self.order)


def construct_model(clauses: Iterable[Clause], order: ProblemOrder) -> ModelConstruction:
    """The complete construction over ``clauses``, walked from scratch."""
    ledger = _Ledger(order, clauses)
    construction = ModelConstruction(ledger, 0, {}, [], iter(ledger.keyed))
    construction._finish()
    return construction


def next_inference(construction: ModelConstruction, order: ProblemOrder) -> SupChain:
    """The chain of inferences the construction prescribes, run to its end.

    Requires a nonempty minimal false clause; the caller handles the
    satisfiable (no false clause) and refuted (empty clause) ends. The
    chain's conclusion is computed in closed form (see the module
    docstring).
    """
    c = construction.minimal_false
    if c is None:
        raise ValueError("construction satisfies the set; no inference to draw")
    if c.is_empty:
        raise ValueError("the empty clause is already present")
    m = order.max_literal(c)
    copies = order.max_multiplicity(c)
    if not m.positive:
        d = construction.producer_of(m.atom)
        if d is None:
            raise RuntimeError(
                f"false clause {c} has maximal literal {m} but {m.atom} has no producer"
            )
        _superposable(c, d, order)
        kind, side, count = SUPERPOSITION_LEFT, d, copies
    elif copies >= 2:
        kind, side, count = FACTORING, None, copies - 1
    else:
        raise RuntimeError(
            f"false clause {c} has a strictly maximal positive literal; "
            "it should have produced"
        )
    return SupChain(kind, c, side, m.atom, count)


@dataclass(frozen=True, eq=False)
class SupSnapshot:
    """The clause set and its construction at one point of the run: after
    ``index`` steps. The set is a view of the run's shared clause list.
    Two snapshots are equal when they are one stage of one run, however
    far each has walked its construction, so a snapshot built again on
    read equals the one read before."""

    construction: ModelConstruction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupSnapshot):
            return NotImplemented
        return (self.construction._ledger is other.construction._ledger
                and self.index == other.index)

    def __hash__(self) -> int:
        return hash((id(self.construction._ledger), self.index))

    @property
    def index(self) -> int:
        return self.construction.index

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clause set, ascending under the order."""
        return self.construction.clauses

    def contains(self, clause: Clause) -> bool:
        """Membership in the clause set, without building it."""
        return self.construction.contains(clause)

    @property
    def ledger(self) -> _Ledger:
        """The run's clause ledger, which every snapshot of the run shares:
        the stage at which each clause joins is read from it."""
        return self.construction._ledger


_count = attrgetter("count")


def _snapshot(record: Tuple[SupChain, SupSnapshot, SupSnapshot], j: int) -> SupSnapshot:
    """The snapshot after step ``j`` of a ``(chain, start, end)`` record."""
    chain, start, end = record
    if j + 1 == chain.count:
        return end
    return SupSnapshot(start.construction._inside(start.index + j + 1, chain.at(j + 1)))


@dataclass
class SupRun:
    """A saturation run, recorded once, chain by chain.

    Stored: the chain records and the snapshot at each record boundary
    (``record_snapshots[r]`` is the one before ``records[r]``, and the last
    one follows the last record), and the outcome. Derived, on read:
    ``step_count``, the sum of the record counts, a plain ``int`` that may
    pass ``sys.maxsize``; ``steps``, the single steps as chains of one (a
    record of count 1 is its own step; ``len(steps)`` is ``step_count``
    while that fits the machine word), and
    ``snapshots``, one per step boundary (step ``i`` leads from snapshot
    ``i`` to snapshot ``i + 1``), both read-only sequences that expand the
    records through their closed forms; and ``model``, the last snapshot's
    model when the run is satisfiable. Only a read builds a snapshot or a
    conclusion inside a chain; the clause list holds the chain ends alone.

    Each read of ``steps`` or ``snapshots`` makes a view of the records as
    they stand then (``core.Expanded``), so a caller that reads many
    positions keeps one. The ``repr`` gives the outcome and sizes, never a
    clause.
    """

    order: ProblemOrder
    records: List[SupChain] = field(default_factory=list)
    record_snapshots: List[SupSnapshot] = field(default_factory=list)
    outcome: str = CAP_EXCEEDED

    @property
    def step_count(self) -> int:
        return sum(chain.count for chain in self.records)

    @property
    def steps(self) -> Sequence[SupChain]:
        return Expanded((), self.records, _count, SupChain.single, SupChain.singles)

    @property
    def snapshots(self) -> Sequence[SupSnapshot]:
        """The first record snapshot, then for each record the snapshots
        inside it, built on read from the one at its start, and the stored
        one at its end."""
        snaps = self.record_snapshots
        return Expanded(snaps[:1], zip(self.records, snaps, snaps[1:]),
                        lambda record: record[0].count, _snapshot)

    @property
    def model(self) -> Optional[FrozenSet[Atom]]:
        if self.outcome != SATISFIABLE:
            return None
        return self.record_snapshots[-1].construction.model

    def __repr__(self) -> str:
        return f"<SupRun {self.outcome}: {len(self.records)} records, {self.step_count} steps>"


def run_sup_mo(problem: Problem, order: Optional[ProblemOrder] = None,
               max_steps: int = MAX_STEPS) -> SupRun:
    """Run the model-driven strategy to a verdict or the step cap.

    Termination is by verdict on every ground input; the cap only guards
    against defects. It counts single steps: a chain that would pass it is
    cut short there. Each chain is recorded once, its end computed in
    closed form (``M.with_count(top, 1)`` for factoring,
    ``M.with_count(¬A, 0) + m·(S - A)`` for superposition). The end is
    inserted into the run's one ascending clause list and the construction
    resumes there; the intermediates are never stored, since none of them
    is ever the smallest false clause or produces at a later stage (see
    the module docstring). Only a satisfiable run's last construction walks
    to the end. A chain end or intermediate that is already present, or an
    end not smaller than its main premise, raises RuntimeError, and a
    negative cap raises ValueError.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, not {max_steps}")
    order = order or ProblemOrder(problem)
    run = SupRun(order=order)
    ledger = _Ledger(order, problem.clauses)
    construction = ModelConstruction(ledger, 0, {}, [], iter(ledger.keyed))
    steps = 0

    while True:
        run.record_snapshots.append(SupSnapshot(construction))
        if construction.minimal_false is None:
            run.outcome = SATISFIABLE
            break
        if construction.minimal_false.is_empty:
            run.outcome = UNSATISFIABLE
            break
        if steps >= max_steps:
            run.outcome = CAP_EXCEEDED
            break
        chain = next_inference(construction, order)
        if chain.count > max_steps - steps:
            chain = replace(chain, count=max_steps - steps, conclusion=None)
        if ledger.stage_of(chain.conclusion) is not None:
            raise RuntimeError(
                f"derived clause {chain.conclusion} is already present; "
                "the strategy must always produce a new clause"
            )
        low, high = order.clause_key(chain.conclusion), order.clause_key(chain.main)
        if low >= high:
            raise RuntimeError(
                f"derived clause {chain.conclusion} is not smaller than the "
                f"clause {chain.main} it repairs"
            )
        if chain.count > 1:
            again = ledger.present_on(chain, low, high)
            if again is not None:
                raise RuntimeError(
                    f"derived clause {again} is already present; "
                    "the strategy must always produce a new clause"
                )
            ledger.add_chain(steps, chain)
        run.records.append(chain)
        steps += chain.count
        start = ledger.insert(chain.conclusion, steps)
        construction = construction._resumed(steps, start)
    return run
