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
already present; both facts are asserted at runtime rather than assumed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .core import Atom, Clause, Literal, Problem, eval_herbrand
from .ordering import ProblemOrder

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
CAP_EXCEEDED = "cap_exceeded"

FACTORING = "factoring"
SUPERPOSITION_LEFT = "superposition_left"


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


@dataclass
class ModelConstruction:
    """The full bottom-up pass over one clause set.

    entries are in ascending clause order. The prefix set is replaced only
    when a clause produces, so the entries hold at most one prefix set per
    production plus the empty one, and ``model``, the union of all produced
    atoms, is the last of them. ``producer`` names the clause that produced
    each atom and ``minimal_false`` the smallest clause the construction
    leaves false (None when it satisfies everything); every other entry is
    true under its prefix or produces. prefix_below and delta_of answer the
    same questions for arbitrary clauses, members of the set or not.
    """

    order: ProblemOrder
    entries: List[ModelEntry]
    producer: Dict[Atom, Clause]
    model: FrozenSet[Atom]
    minimal_false: Optional[Clause]

    def prefix_below(self, clause: Clause) -> FrozenSet[Atom]:
        """Atoms produced by set members strictly smaller than ``clause``:
        the stored prefix of the first entry not below it, or the whole
        model when every entry is below it."""
        i = bisect_left(self.entries, self.order.clause_key(clause),
                        key=lambda e: self.order.clause_key(e.clause))
        return self.entries[i].prefix if i < len(self.entries) else self.model

    def delta_of(self, clause: Clause) -> Optional[Atom]:
        """The atom ``clause`` would produce over this set, or None.

        For set members this coincides with the recorded entry; for outside
        clauses it applies the same production condition relative to the
        atoms produced below them.
        """
        if eval_herbrand(self.prefix_below(clause), clause):
            return None
        return _production(clause, self.order)


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


def construct_model(clauses: Iterable[Clause], order: ProblemOrder) -> ModelConstruction:
    prefix: FrozenSet[Atom] = frozenset()
    entries: List[ModelEntry] = []
    producer: Dict[Atom, Clause] = {}
    minimal_false: Optional[Clause] = None
    for c in order.sorted_clauses(set(clauses)):
        entries.append(ModelEntry(c, prefix))
        if eval_herbrand(prefix, c):
            continue
        produced = _production(c, order)
        if produced is not None:
            producer[produced] = c
            prefix = prefix | {produced}
        elif minimal_false is None:
            minimal_false = c
    return ModelConstruction(
        order=order,
        entries=entries,
        producer=producer,
        model=prefix,
        minimal_false=minimal_false,
    )


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
        d = construction.producer.get(m.atom)
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
    """Clause set plus its construction at one point of the run."""

    clauses: Tuple[Clause, ...]    # ascending under the order
    construction: ModelConstruction


@dataclass
class SupRun:
    """A saturation run, recorded once.

    Stored: one snapshot per construction pass, the steps between them
    (step ``i`` leads from snapshot ``i`` to snapshot ``i + 1``) and the
    outcome. Derived: ``derived``, the step conclusions in order, and
    ``model``, the last snapshot's model when the run is satisfiable.
    """

    problem: Problem
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
    against defects. Every snapshot (including the final one) carries a full
    construction, so downstream checks can replay any point of the run; its
    entries share one prefix set per production. The clause set grows by
    one conclusion per step and is the only clause collection kept. A
    negative cap raises ValueError.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, not {max_steps}")
    order = order or ProblemOrder(problem)
    run = SupRun(problem=problem, order=order)
    present = set(problem.clauses)

    while True:
        construction = construct_model(present, order)
        ordered = tuple(e.clause for e in construction.entries)
        run.snapshots.append(SupSnapshot(clauses=ordered, construction=construction))
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
        if step.conclusion in present:
            raise RuntimeError(
                f"derived clause {step.conclusion} is already present; "
                "the strategy must always produce a new clause"
            )
        run.steps.append(step)
        present.add(step.conclusion)
    return run
