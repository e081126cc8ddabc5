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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .core import Atom, Clause, Literal, Problem, eval_herbrand
from .ordering import ClauseKey, ProblemOrder

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
CAP_EXCEEDED = "cap_exceeded"

FACTORING = "factoring"
SUPERPOSITION_LEFT = "superposition_left"

_first = itemgetter(0)


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


def superposition_left(false_clause: Clause, producer: Clause, order: ProblemOrder) -> Clause:
    """Resolve the maximal negative literal of ``false_clause`` against the
    strictly maximal positive occurrence of the same atom in ``producer``.

    Exactly one occurrence is removed on each side; remaining duplicates are
    kept. Misuse (wrong polarity, wrong atom, non-maximal occurrences) is
    rejected rather than silently repaired.
    """
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
    return false_clause.without_one(m) + producer.without_one(b)


@dataclass(frozen=True)
class ModelEntry:
    """One clause's row in the bottom-up construction. Rows between two
    productions share one prefix set."""

    clause: Clause
    prefix: FrozenSet[Atom]        # atoms produced by strictly smaller clauses


class _Ledger:
    """A growing clause set in ascending order, shared by the constructions
    over its stages: ``keyed`` holds its clauses with their keys under the
    order's cached clause key, ascending, and ``born`` maps each clause to
    the stage at which it joined. It refers to no construction, so the
    records of a run hold no reference cycle."""

    def __init__(self, order: ProblemOrder, clauses: Iterable[Clause]):
        self.order = order
        self.keyed: List[Tuple[ClauseKey, Clause]] = sorted(
            ((order.clause_key(c), c) for c in set(clauses)), key=_first)
        self.born: Dict[Clause, int] = {c: 0 for _, c in self.keyed}

    def insert(self, clause: Clause, stage: int) -> int:
        """Add ``clause`` as of ``stage`` and return its position."""
        key = self.order.clause_key(clause)
        pos = bisect_left(self.keyed, key, key=_first)
        self.keyed.insert(pos, (key, clause))
        self.born[clause] = stage
        return pos


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
    that joined at or before it.

    Reads inside the built part are answered from the stored productions:
    ``minimal_false``, ``producer_of`` an atom produced below it, and
    ``prefix_below`` and ``delta_of`` of a clause not above it. Any other
    read completes the walk from ``minimal_false`` onward, past every
    further false clause that produces nothing: ``model``, ``producer``,
    ``entries``, a ``producer_of`` that misses and a ``prefix_below`` above
    ``minimal_false``. The completion extends the stored productions, whose
    atoms are then the model; ``entries`` is rebuilt on each read.
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

    def _resumed(self, index: int, start: int) -> "ModelConstruction":
        """The construction of stage ``index``, whose one new clause sits at
        ledger position ``start``: the productions below it stay, and the
        walk resumes there."""
        ledger = self._ledger
        j = self._produced_below(ledger.keyed[start][0])
        return ModelConstruction(ledger, index, dict(islice(self._producer.items(), j)),
                                 self._keys[:j], islice(ledger.keyed, start, None))

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clause set, ascending."""
        born, index = self._ledger.born, self.index
        return tuple(c for _, c in self._ledger.keyed if born[c] <= index)

    def contains(self, clause: Clause) -> bool:
        born = self._ledger.born.get(clause)
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

    def prefix_below(self, clause: Clause) -> FrozenSet[Atom]:
        """Atoms produced by set members strictly smaller than ``clause``."""
        key = self.order.clause_key(clause)
        if not self._complete and key > self.order.clause_key(self.minimal_false):
            self._finish()
        return frozenset(islice(self._producer, self._produced_below(key)))

    def delta_of(self, clause: Clause) -> Optional[Atom]:
        """The atom ``clause`` would produce over this set, or None.

        For set members this coincides with the construction; for outside
        clauses it applies the same production condition relative to the
        atoms produced below them.
        """
        if eval_herbrand(self.prefix_below(clause), clause):
            return None
        return _production(clause, self.order)


def construct_model(clauses: Iterable[Clause], order: ProblemOrder) -> ModelConstruction:
    """The complete construction over ``clauses``, walked from scratch."""
    ledger = _Ledger(order, clauses)
    construction = ModelConstruction(ledger, 0, {}, [], iter(ledger.keyed))
    construction._finish()
    return construction


@dataclass(frozen=True)
class SupStep:
    """One recorded inference: what was false, what repaired it, the result."""

    kind: str                      # FACTORING or SUPERPOSITION_LEFT
    main: Clause                   # the smallest false clause
    side: Optional[Clause]         # producing clause (superposition only)
    pivot: Optional[Atom]          # atom resolved on / factored
    conclusion: Clause


def next_inference(construction: ModelConstruction, order: ProblemOrder) -> SupStep:
    """The unique inference the construction prescribes.

    Requires a nonempty minimal false clause; the caller handles the
    satisfiable (no false clause) and refuted (empty clause) ends.
    """
    c = construction.minimal_false
    if c is None:
        raise ValueError("construction satisfies the set; no inference to draw")
    if c.is_empty:
        raise ValueError("the empty clause is already present")
    m = order.max_literal(c)
    if not m.positive:
        d = construction.producer_of(m.atom)
        if d is None:
            raise RuntimeError(
                f"false clause {c} has maximal literal {m} but {m.atom} has no producer"
            )
        return SupStep(
            kind=SUPERPOSITION_LEFT,
            main=c,
            side=d,
            pivot=m.atom,
            conclusion=superposition_left(c, d, order),
        )
    reduced = factoring_step(c, order)
    if reduced is None:
        raise RuntimeError(
            f"false clause {c} has a strictly maximal positive literal; "
            "it should have produced"
        )
    return SupStep(kind=FACTORING, main=c, side=None, pivot=m.atom, conclusion=reduced)


@dataclass(frozen=True)
class SupSnapshot:
    """The clause set and its construction at one point of the run: after
    ``index`` steps. The set is a view of the run's shared clause list."""

    construction: ModelConstruction

    @property
    def index(self) -> int:
        return self.construction.index

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clause set, ascending under the order."""
        return self.construction.clauses

    def contains(self, clause: Clause) -> bool:
        """Membership in the clause set, in constant time."""
        return self.construction.contains(clause)


@dataclass
class SupRun:
    """A saturation run, recorded once.

    Stored: one snapshot per step boundary, the steps between them (step
    ``i`` leads from snapshot ``i`` to snapshot ``i + 1``) and the outcome.
    Derived: ``derived``, the step conclusions in order, and ``model``, the
    last snapshot's model when the run is satisfiable.
    """

    order: ProblemOrder
    snapshots: List[SupSnapshot] = field(default_factory=list)
    steps: List[SupStep] = field(default_factory=list)
    outcome: str = CAP_EXCEEDED

    @property
    def derived(self) -> Tuple[Clause, ...]:
        return tuple(step.conclusion for step in self.steps)

    @property
    def model(self) -> Optional[FrozenSet[Atom]]:
        if self.outcome != SATISFIABLE:
            return None
        return self.snapshots[-1].construction.model


def run_sup_mo(problem: Problem, order: Optional[ProblemOrder] = None,
               max_steps: int = 10000) -> SupRun:
    """Run the model-driven strategy to a verdict or the step cap.

    Termination is by verdict on every ground input; the cap only guards
    against defects. Each step inserts its conclusion into the run's one
    ascending clause list and resumes the construction there (see the
    module docstring); only a satisfiable run's last construction walks to
    the end. A derived clause that is already present or not smaller than
    its main premise raises RuntimeError, and a negative cap raises
    ValueError.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, not {max_steps}")
    order = order or ProblemOrder(problem)
    run = SupRun(order=order)
    ledger = _Ledger(order, problem.clauses)
    construction = ModelConstruction(ledger, 0, {}, [], iter(ledger.keyed))

    while True:
        run.snapshots.append(SupSnapshot(construction))
        if construction.minimal_false is None:
            run.outcome = SATISFIABLE
            break
        if construction.minimal_false.is_empty:
            run.outcome = UNSATISFIABLE
            break
        if len(run.steps) >= max_steps:
            run.outcome = CAP_EXCEEDED
            break
        step = next_inference(construction, order)
        if step.conclusion in ledger.born:
            raise RuntimeError(
                f"derived clause {step.conclusion} is already present; "
                "the strategy must always produce a new clause"
            )
        if order.clause_key(step.conclusion) >= order.clause_key(step.main):
            raise RuntimeError(
                f"derived clause {step.conclusion} is not smaller than the "
                f"clause {step.main} it repairs"
            )
        run.steps.append(step)
        start = ledger.insert(step.conclusion, len(run.steps))
        construction = construction._resumed(len(run.steps), start)
    return run
