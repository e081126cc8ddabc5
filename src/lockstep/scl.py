"""Conflict-driven trail calculus over ground clauses.

A state is a trail of annotated literals plus the input clauses, the learned
clauses, and the current conflict (None meaning no conflict, the empty clause
meaning refuted); the decision level k is read off the trail. Seven rules
move between states: propagate, decide, and conflict operate outside
conflict mode; skip, factorize, resolve, and backtrack operate inside it.

Every rule is a pure function taking the ambient order and a state,
returning the successor state. The atom bound is not part of the state: it
lies above every atom the order ranks, and the rules that extend the trail
check against it. A violated side condition raises RuleError with a stable
guard name instead of silently doing nothing, which keeps drivers honest: a
driver that calls a rule out of turn crashes loudly.

Levels count decisions: a decision is pushed with level k+1, a propagation
with the current k, so k is the level of the top entry (0 on an empty
trail). Backtracking pops exactly the topmost decision (which must sit on
top of the trail), learns the conflict, and returns to level k-1; copies of
the complement of that decision inside the conflict are exempt from the
usual lower-level requirement on the rest.

A trail has one valuation, each atom taking its last trail entry: the set
of the literals it makes true and the set of those it makes false. Literals
are interned, so a clause is tested against these sets on its distinct
literals themselves. A state computes its valuation once and keeps it
(states are never changed in place), and likewise the clauses it
falsifies; rules and drivers read them only through ``is_true``,
``is_false``, ``is_defined``, ``literal_level`` and
``conflict_candidates``. The set of its clauses, which the guards of
propagate and conflict test membership in, and the set of their atoms,
which the guard of decide tests, pass from each state to the state a rule
makes of it, so a run builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import Atom, Clause, Literal, Problem, atoms_of, memo
from .ordering import ProblemOrder


class RuleError(Exception):
    """A rule was applied in a state that fails one of its side conditions."""

    def __init__(self, rule: str, guard: str, message: str):
        super().__init__(f"{rule}: {message} [{guard}]")
        self.rule = rule
        self.guard = guard


@dataclass(frozen=True)
class TrailEntry:
    literal: Literal
    level: int
    reason: Optional[Clause]       # None for decisions, justification otherwise

    @property
    def is_decision(self) -> bool:
        return self.reason is None

    def render(self) -> str:
        tag = str(self.level) if self.is_decision else str(self.reason)
        return f"{self.literal}^{tag}"


@dataclass(frozen=True)
class SclState:
    trail: Tuple[TrailEntry, ...]
    n: Tuple[Clause, ...]          # input clauses
    u: Tuple[Clause, ...]          # learned clauses, in learning order
    conflict: Optional[Clause]     # None = no conflict, EMPTY_CLAUSE = refuted
    # the input and learned clauses as a set, once ``clause_set`` has built
    # it or ``_successor`` handed it on; a copy made by ``dataclasses.replace``
    # starts without it, so it never holds another state's clauses
    _clauses: Optional[FrozenSet[Clause]] = field(
        default=None, init=False, compare=False, repr=False)
    # likewise the atoms of those clauses, once ``atoms`` has built them or
    # ``_successor`` handed them on
    _atoms: Optional[FrozenSet[Atom]] = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        """The decision level: the level of the top trail entry."""
        return self.trail[-1].level if self.trail else 0

    def all_clauses(self) -> Tuple[Clause, ...]:
        return self.n + self.u

    @memo
    def _last_entry(self) -> Dict[Atom, TrailEntry]:
        return {e.literal.atom: e for e in self.trail}

    @memo
    def _valuation(self) -> Tuple[FrozenSet[Literal], FrozenSet[Literal]]:
        true = frozenset(e.literal for e in self._last_entry.values())
        return true, frozenset(map(Literal.complement, true))

    @property
    def clause_set(self) -> FrozenSet[Clause]:
        """The input and learned clauses, for the membership guards. A rule's
        successor state takes it over (see ``_successor``), so a run builds
        it once and adds each learned clause to it."""
        if self._clauses is None:
            object.__setattr__(self, "_clauses", frozenset(self.n + self.u))
        return self._clauses

    @property
    def atoms(self) -> FrozenSet[Atom]:
        """The atoms of the input and learned clauses, for the guard of
        decide; handed on like ``clause_set``."""
        if self._atoms is None:
            object.__setattr__(self, "_atoms", frozenset(atoms_of(self.n + self.u)))
        return self._atoms

    @memo
    def _false_clauses(self) -> Tuple[Clause, ...]:
        false = self._valuation[1].issuperset
        return tuple(c for c in self.all_clauses() if false(c.distinct))

    def valuation(self) -> Tuple[FrozenSet[Literal], FrozenSet[Literal]]:
        """The literals the trail makes true, and those it makes false, each
        atom taking its last value on the trail."""
        return self._valuation

    def render(self) -> str:
        trail = ", ".join(e.render() for e in self.trail)
        conflict = "top" if self.conflict is None else str(self.conflict)
        learned = "{" + ", ".join(str(c) for c in self.u) + "}"
        return f"([{trail}]; U={learned}; k={self.k}; {conflict})"


def initial_state(problem: Problem) -> SclState:
    return SclState(trail=(), n=problem.clauses.clauses(), u=(), conflict=None)


def _successor(state: SclState, trail: Tuple[TrailEntry, ...], u: Tuple[Clause, ...],
               conflict: Optional[Clause]) -> SclState:
    """The state a rule leaves behind ``state``: the same input clauses,
    with ``trail``, ``u`` and ``conflict``. It takes over ``state``'s clause
    set and atom set, plus the clauses ``u`` learns past ``state.u`` and
    their atoms, so a run builds each set once."""
    after = SclState(trail=trail, n=state.n, u=u, conflict=conflict)
    clauses, atoms = state.clause_set, state.atoms
    if u is not state.u:
        learned = u[len(state.u):]
        clauses, atoms = clauses.union(learned), atoms.union(atoms_of(learned))
    object.__setattr__(after, "_clauses", clauses)
    object.__setattr__(after, "_atoms", atoms)
    return after


# ---------------------------------------------------------------------------
# Trail queries
# ---------------------------------------------------------------------------


def is_defined(state: SclState, atom: Atom) -> bool:
    """Whether the trail assigns ``atom``."""
    return atom in state._last_entry


def literal_level(state: SclState, literal: Literal) -> int:
    entry = state._last_entry.get(literal.atom)
    if entry is None:
        raise ValueError(f"literal {literal} is undefined on the trail")
    return entry.level


def is_true(state: SclState, clause: Clause) -> bool:
    """Whether some literal of ``clause`` is true on the trail."""
    return not state._valuation[0].isdisjoint(clause.distinct)


def is_false(state: SclState, clause: Clause) -> bool:
    """Whether every literal of ``clause`` is false on the trail."""
    return state._valuation[1].issuperset(clause.distinct)


def conflict_candidates(state: SclState,
                        assuming: Optional[Literal] = None) -> List[Clause]:
    """Clauses (input or learned) that the trail falsifies, in state order.

    With ``assuming``, the trail is read as if that literal were pushed on
    top of it: the clauses returned are those a propagation or decision of
    the literal would falsify. This is the one false-clause query; callers
    wanting the smallest such clause take the minimum under the order.
    Without ``assuming`` the state keeps the answer, and each call returns
    a fresh list of it.
    """
    if assuming is None:
        return list(state._false_clauses)
    false = ((state._valuation[1] - {assuming}) | {assuming.complement()}).issuperset
    return [c for c in state.all_clauses() if false(c.distinct)]


# ---------------------------------------------------------------------------
# Rules outside conflict mode
# ---------------------------------------------------------------------------


def _need_no_conflict(rule: str, state: SclState) -> None:
    if state.conflict is not None:
        raise RuleError(rule, "conflict-active", "a conflict is being processed")


def _check_bound(rule: str, order: ProblemOrder, atom: Atom) -> None:
    if not order.below_beta(atom):
        raise RuleError(rule, "atom-beyond-bound", f"atom {atom} is not below the bound")


def propagate(order: ProblemOrder, state: SclState, clause: Clause, literal: Literal) -> SclState:
    """Push ``literal`` as forced by ``clause``: every other literal of the
    clause is false on the trail. The recorded justification drops duplicate
    copies of the propagated literal."""
    _need_no_conflict("propagate", state)
    if clause not in state.clause_set:
        raise RuleError("propagate", "unknown-clause", f"{clause} is not an input or learned clause")
    if not clause.contains(literal):
        raise RuleError("propagate", "literal-not-in-clause", f"{literal} does not occur in {clause}")
    if is_defined(state, literal.atom):
        raise RuleError("propagate", "literal-defined", f"{literal.atom} is already on the trail")
    for l in clause.distinct:
        _check_bound("propagate", order, l.atom)
    remainder = clause.with_count(literal, 0)
    if not is_false(state, remainder):
        raise RuleError(
            "propagate", "remainder-not-false",
            f"{remainder} is not falsified by the trail",
        )
    entry = TrailEntry(literal=literal, level=state.k, reason=clause.with_count(literal, 1))
    return _successor(state, state.trail + (entry,), state.u, None)


def decide(order: ProblemOrder, state: SclState, literal: Literal) -> SclState:
    """Guess ``literal`` and open level k+1. The atom must occur in the
    clauses and lie below the bound."""
    _need_no_conflict("decide", state)
    if literal.atom not in state.atoms:
        raise RuleError("decide", "unknown-atom", f"{literal.atom} occurs in no clause")
    if is_defined(state, literal.atom):
        raise RuleError("decide", "literal-defined", f"{literal.atom} is already on the trail")
    _check_bound("decide", order, literal.atom)
    entry = TrailEntry(literal=literal, level=state.k + 1, reason=None)
    return _successor(state, state.trail + (entry,), state.u, None)


def conflict(order: ProblemOrder, state: SclState, clause: Clause) -> SclState:
    """Enter conflict mode on a clause the trail falsifies."""
    _need_no_conflict("conflict", state)
    if clause not in state.clause_set:
        raise RuleError("conflict", "unknown-clause", f"{clause} is not an input or learned clause")
    if not is_false(state, clause):
        raise RuleError("conflict", "clause-not-false", f"{clause} is not falsified by the trail")
    return _successor(state, state.trail, state.u, clause)


# ---------------------------------------------------------------------------
# Rules inside conflict mode
# ---------------------------------------------------------------------------


def _need_conflict(rule: str, state: SclState) -> Clause:
    if state.conflict is None:
        raise RuleError(rule, "no-conflict", "no conflict is being processed")
    return state.conflict


def _need_top(rule: str, state: SclState) -> TrailEntry:
    if not state.trail:
        raise RuleError(rule, "empty-trail", "the trail is empty")
    return state.trail[-1]


def skip(order: ProblemOrder, state: SclState) -> SclState:
    """Pop the top trail entry; allowed only when its complement does not
    occur in the conflict. Popping a decision closes its level."""
    d = _need_conflict("skip", state)
    top = _need_top("skip", state)
    if d.contains(top.literal.complement()):
        raise RuleError(
            "skip", "complement-in-conflict",
            f"{top.literal.complement()} occurs in the conflict {d}",
        )
    return _successor(state, state.trail[:-1], state.u, d)


def factorize(order: ProblemOrder, state: SclState, literal: Optional[Literal] = None) -> SclState:
    """Merge two copies of a duplicated conflict literal into one.

    Without an explicit literal the first duplicated one (in the clause's
    text order) is taken, which makes the rule deterministic.
    """
    d = _need_conflict("factorize", state)
    if literal is None:
        literal = next((l for l, n in zip(d.distinct, d.counts) if n >= 2), None)
        if literal is None:
            raise RuleError("factorize", "no-duplicate", f"{d} has no duplicated literal")
    elif d.count(literal) < 2:
        raise RuleError(
            "factorize", "literal-not-duplicated",
            f"{literal} does not occur twice in {d}",
        )
    return _successor(state, state.trail, state.u, d.without_one(literal))


def resolve(order: ProblemOrder, state: SclState) -> SclState:
    """Resolve the conflict with the justification of the top propagation.

    One occurrence of the complement of the propagated literal leaves the
    conflict; the propagation's side literals move in. The trail is kept,
    since further copies may still need resolving against the same entry.
    """
    d = _need_conflict("resolve", state)
    top = _need_top("resolve", state)
    if top.is_decision:
        raise RuleError("resolve", "top-not-propagation", f"{top.literal} is a decision")
    comp = top.literal.complement()
    if not d.contains(comp):
        raise RuleError(
            "resolve", "complement-not-in-conflict",
            f"{comp} does not occur in the conflict {d}",
        )
    assert top.reason is not None
    resolvent = d.without_one(comp) + top.reason.without_one(top.literal)
    return _successor(state, state.trail, state.u, resolvent)


def backtrack(order: ProblemOrder, state: SclState) -> SclState:
    """Learn the conflict and pop the topmost decision.

    The top of the trail must be the decision of the current level and its
    complement must occur in the conflict; every conflict literal other than
    copies of that complement must sit strictly below the current level.
    The learned clause joins U, the conflict is discharged, k drops by one.
    """
    d = _need_conflict("backtrack", state)
    top = _need_top("backtrack", state)
    if not top.is_decision:
        raise RuleError("backtrack", "top-not-decision", f"{top.literal} is a propagation")
    learned_lit = top.literal.complement()
    if not d.contains(learned_lit):
        raise RuleError(
            "backtrack", "decision-not-complemented",
            f"{learned_lit} does not occur in the conflict {d}",
        )
    for l in d.distinct:
        if l == learned_lit:
            continue
        if literal_level(state, l) >= state.k:
            raise RuleError(
                "backtrack", "residue-level",
                f"{l} sits at level {literal_level(state, l)}, not below {state.k}",
            )
    new_u = state.u if d in state.u else state.u + (d,)
    return _successor(state, state.trail[:-1], new_u, None)


# ---------------------------------------------------------------------------
# Run records and the regularity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleApp:
    """One applied rule with its payload, for logs and audits."""

    rule: str
    literal: Optional[Literal] = None
    clause: Optional[Clause] = None

    def render(self) -> str:
        parts = [self.rule]
        if self.literal is not None:
            parts.append(str(self.literal))
        if self.clause is not None:
            parts.append(f"[{self.clause}]")
        return " ".join(parts)


def audit_regular(states: Sequence[SclState], apps: Sequence[RuleApp]) -> List[str]:
    """Check a rule log for regularity.

    Two disciplines are enforced: whenever some clause is false outside
    conflict mode, the next rule must be conflict (conflict precedence); and
    a decision must never falsify a clause on the spot. states[i] is the
    state apps[i] was applied in; a final state beyond the last app is
    allowed but not required.
    """
    out: List[str] = []
    for j, state in enumerate(states):
        decided = 0 < j <= len(apps) and apps[j - 1].rule == "decide"
        applied = (j < len(apps) and state.conflict is None
                   and apps[j].rule != "conflict")
        false_now = conflict_candidates(state) if decided or applied else None
        if not false_now:
            continue
        if decided:
            out.append(f"step {j - 1}: decide {apps[j - 1].literal} made {false_now[0]} false")
        if applied:
            out.append(f"step {j}: {apps[j].rule} applied while {false_now[0]} was false")
    return out
