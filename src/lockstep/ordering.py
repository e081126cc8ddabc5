"""Term, atom, literal and clause orderings.

Three ordering kinds are supported. KBO and LPO are the usual ground
simplification orderings driven by a total symbol precedence (KBO also by
weights); 'listed' skips terms entirely and totally orders the occurring
atoms by an explicit list. Atoms are compared as terms with the predicate as
root symbol. Literals compare by atom first, and on the same atom the
negative literal is the larger one. Clauses compare by the multiset
extension of the literal order.

Ground KBO is a tuple key: (weight, root precedence, argument keys), with
every weight at least 1, so Python's tuple order on the keys is the term
order, and kbo atoms are ranked by sorting on that key. LPO has no such key
and is compared structurally.

For a total literal order the multiset extension boils down to comparing the
descending-sorted literal sequences lexicographically, with a strict prefix
counting as smaller. ``ProblemOrder`` precomputes integer ranks over a
problem's atom universe so the strategy loops never re-run the structural
comparison. Maximal-literal queries (maximum, its multiplicity, maximality
and strict maximality) are answered from the head of the cached clause key,
which is built with one rank lookup per distinct literal.

This module only compares and ranks. Whether a declaration is usable is
checked once, where it is built: ``OrderingConfig`` checks its own values
and ``Problem`` checks that it covers the clauses (see ``lockstep.core``).
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Dict, FrozenSet, List, Tuple

from .core import (
    Atom,
    Clause,
    GroundTerm,
    Literal,
    OrderingConfig,
    Problem,
)

# descending (literal rank, copies) runs; see ProblemOrder
ClauseKey = Tuple[Tuple[int, int], ...]

LESS = -1
EQUAL = 0
GREATER = 1


# ---------------------------------------------------------------------------
# Term comparison: a sort key for kbo, a recursion for lpo
# ---------------------------------------------------------------------------


def _prec_table(config: OrderingConfig) -> Dict[str, int]:
    return {name: i for i, name in enumerate(config.precedence)}


def _prec_of(name: str, prec: Dict[str, int]) -> int:
    try:
        return prec[name]
    except KeyError:
        raise ValueError(f"symbol '{name}' missing from precedence") from None


def _kbo_key(term: GroundTerm, config: OrderingConfig, prec: Dict[str, int]) -> tuple:
    """Ground KBO as a sort key: (weight, root precedence, argument keys).

    The weight is the root's plus the first entry of each argument key.
    Every weight is at least 1, so tuple order on these keys is exactly
    ground KBO, and equal keys mean equal terms.
    """
    args = [_kbo_key(a, config, prec) for a in term.args]
    weight = config.weights.get(term.name, config.default_weight) + sum(k[0] for k in args)
    return (weight, _prec_of(term.name, prec), *args)


def _lpo_gt(s: GroundTerm, t: GroundTerm, prec: Dict[str, int],
            memo: Dict[Tuple[GroundTerm, GroundTerm], bool]) -> bool:
    """Whether ``s`` is above ``t`` in ground lpo.

    The recursion asks about the same pair of subterms again and again, and
    without ``memo`` its time doubles with each level of nesting. The memo
    holds the answer per pair; it is valid for one precedence and is kept
    for one comparison or one sort."""
    key = (s, t)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _lpo_decide(s, t, prec, memo)
    return found


def _lpo_decide(s: GroundTerm, t: GroundTerm, prec: Dict[str, int],
                memo: Dict[Tuple[GroundTerm, GroundTerm], bool]) -> bool:
    if s == t:
        return False
    for si in s.args:
        if si == t or _lpo_gt(si, t, prec, memo):
            return True
    ps = _prec_of(s.name, prec)
    pt = _prec_of(t.name, prec)
    if ps > pt:
        return all(_lpo_gt(s, tj, prec, memo) for tj in t.args)
    if ps == pt:
        # same symbol, hence same arity: lexicographic on arguments
        for i, (si, ti) in enumerate(zip(s.args, t.args)):
            if si != ti:
                if not _lpo_gt(si, ti, prec, memo):
                    return False
                return all(_lpo_gt(s, tj, prec, memo) for tj in t.args[i + 1:])
        return False
    return False


def _lpo_compare(t1: GroundTerm, t2: GroundTerm, prec: Dict[str, int],
                 memo: Dict[Tuple[GroundTerm, GroundTerm], bool]) -> int:
    if t1 == t2:
        return EQUAL
    return GREATER if _lpo_gt(t1, t2, prec, memo) else LESS


def compare_terms(t1: GroundTerm, t2: GroundTerm, config: OrderingConfig) -> int:
    """Compare two ground terms under a kbo or lpo config (LESS/EQUAL/GREATER)."""
    if config.kind == "kbo":
        prec = _prec_table(config)
        k1, k2 = _kbo_key(t1, config, prec), _kbo_key(t2, config, prec)
        return EQUAL if k1 == k2 else LESS if k1 < k2 else GREATER
    if config.kind == "lpo":
        return _lpo_compare(t1, t2, _prec_table(config), {})
    raise ValueError("the 'listed' ordering defines no term comparison")


def compare_atoms(a1: Atom, a2: Atom, config: OrderingConfig) -> int:
    """Compare two atoms. kbo/lpo treat them as terms; listed uses positions."""
    if config.kind == "listed":
        if a1 == a2:
            return EQUAL
        try:
            i1 = config.listed_atoms.index(a1)
            i2 = config.listed_atoms.index(a2)
        except ValueError:
            missing = a1 if a1 not in config.listed_atoms else a2
            raise ValueError(f"atom {missing} not covered by the listed order") from None
        return LESS if i1 < i2 else GREATER
    return compare_terms(a1, a2, config)


def compare_literals(l1: Literal, l2: Literal, config: OrderingConfig) -> int:
    """Literal order: by atom, then positive below negative on the same atom."""
    r = compare_atoms(l1.atom, l2.atom, config)
    if r != EQUAL:
        return r
    if l1.positive == l2.positive:
        return EQUAL
    return LESS if l1.positive else GREATER


def compare_clauses(c1: Clause, c2: Clause, config: OrderingConfig) -> int:
    """Multiset extension of the literal order.

    With a total literal order this is the lexicographic comparison of the
    descending literal sequences, a strict prefix being smaller. The empty
    clause is the minimum.
    """
    key = cmp_to_key(lambda a, b: compare_literals(a, b, config))
    d1, d2 = (sorted(c.literals, key=key, reverse=True) for c in (c1, c2))
    for l1, l2 in zip(d1, d2):
        r = compare_literals(l1, l2, config)
        if r != EQUAL:
            return r
    if len(d1) == len(d2):
        return EQUAL
    return LESS if len(d1) < len(d2) else GREATER


def _rank_atoms(problem: Problem) -> List[Atom]:
    """The problem's atoms in ascending order.

    A listed order is its own ranking, and kbo sorts the atom universe on
    its tuple key, one key per atom. lpo sorts by the term comparison;
    ``Problem`` has already checked that the declaration covers the
    clauses, so the only check left is strictness: a ValueError names two
    atoms the comparison leaves tied.
    """
    cfg = problem.ordering
    if cfg.kind == "listed":
        return list(cfg.listed_atoms)
    if cfg.kind == "kbo":
        prec = _prec_table(cfg)
        return sorted(problem.atom_universe, key=lambda a: _kbo_key(a, cfg, prec))
    prec, memo = _prec_table(cfg), {}

    def compare(a: Atom, b: Atom) -> int:
        return _lpo_compare(a, b, prec, memo)

    ranked = sorted(sorted(problem.atom_universe, key=lambda a: a.text),
                    key=cmp_to_key(compare))
    for left, right in zip(ranked, ranked[1:]):
        if compare(left, right) == EQUAL:
            raise ValueError(f"atoms {left} and {right} are not strictly ordered")
    return ranked


# ---------------------------------------------------------------------------
# Rank-table engine over a concrete problem
# ---------------------------------------------------------------------------


class ProblemOrder:
    """Precomputed total order over one problem's atom universe.

    Atom ranks are assigned by sorting the universe once: a listed order
    is its own ranking, kbo sorts on the ground KBO tuple key, and lpo
    sorts by the term comparison, raising ValueError for two atoms it
    ties. The problem's own construction has checked the declaration. The
    trail bound lies above every ranked atom, so an atom is below it
    exactly when it is ranked. Literal rank doubles the atom rank and adds
    one for negation, so literal comparison is integer comparison. A
    clause key lists its distinct literal ranks in descending order, each
    paired with its count: ``(rank, count)`` runs. Python's tuple order on
    these keys is exactly the multiset extension, since of two runs of one
    rank the shorter is followed by a smaller rank or by nothing; clauses
    are compared and sorted on ``clause_key``.

    Keys are cached per clause, and the maximal-literal queries read the
    first run: the maximum is its rank, its multiplicity its count, and a
    literal is strictly maximal when it heads the key with count one. A
    rank-to-literal table turns a rank back into a literal, and
    ``atoms_below`` turns a literal into the ascending atoms whose positive
    literal lies below it: a prefix of ``atoms_ascending``.
    """

    def __init__(self, problem: Problem):
        ranked = _rank_atoms(problem)
        self.atoms_ascending: Tuple[Atom, ...] = tuple(ranked)
        self._atom_rank: Dict[Atom, int] = {a: i for i, a in enumerate(ranked)}
        # literal rank -> literal, laid out as literal_rank numbers them
        self._literal_of: Tuple[Literal, ...] = tuple(
            Literal(a, positive) for a in ranked for positive in (True, False)
        )
        self._clause_key: Dict[Clause, ClauseKey] = {}

    # -- atoms ------------------------------------------------------------

    def atom_rank(self, atom: Atom) -> int:
        try:
            return self._atom_rank[atom]
        except KeyError:
            raise ValueError(f"atom {atom} is outside this problem's universe") from None

    def below_beta(self, atom: Atom) -> bool:
        """Whether ``atom`` lies below the trail bound, that is, is ranked."""
        return atom in self._atom_rank

    def unranked(self, atoms: FrozenSet[Atom]) -> FrozenSet[Atom]:
        """The atoms of ``atoms`` that the order does not rank: one set
        difference, whose lookups hash the interned atoms by identity."""
        return atoms.difference(self._atom_rank)

    # -- literals ----------------------------------------------------------

    def literal_rank(self, literal: Literal) -> int:
        return 2 * self.atom_rank(literal.atom) + (0 if literal.positive else 1)

    def atoms_below(self, literal: Literal) -> Tuple[Atom, ...]:
        """The atoms whose positive literal lies below ``literal``, ascending.

        Positive ranks are the even ones, so these are the atoms of rank
        below half the literal's rank, rounded up.
        """
        return self.atoms_ascending[:(self.literal_rank(literal) + 1) // 2]

    # -- clauses -----------------------------------------------------------

    def clause_key(self, clause: Clause) -> ClauseKey:
        key = self._clause_key.get(clause)
        if key is None:
            key = tuple(sorted(zip(map(self.literal_rank, clause.distinct), clause.counts),
                               reverse=True))
            self._clause_key[clause] = key
        return key

    def max_literal(self, clause: Clause) -> Literal:
        key = self.clause_key(clause)
        if not key:
            raise ValueError("the empty clause has no maximal literal")
        return self._literal_of[key[0][0]]

    def max_multiplicity(self, clause: Clause) -> int:
        """How often the maximal literal occurs in the clause."""
        key = self.clause_key(clause)
        if not key:
            raise ValueError("the empty clause has no maximal literal")
        return key[0][1]

    def is_strictly_maximal_in(self, literal: Literal, clause: Clause) -> bool:
        """The literal occurs once and no other occurrence is >= it."""
        run = (self.literal_rank(literal), 1)
        key = self.clause_key(clause)
        return bool(key) and key[0] == run
