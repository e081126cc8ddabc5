"""Ground first-order syntax (no equality), problem files, and evaluation.

Everything in this package works on *ground* inputs: terms contain no
variables, clauses are finite multisets of ground literals, and a problem
carries an explicit term-ordering declaration next to its clauses.

The problem file format is line oriented::

    # comment (also allowed after content)
    order: kbo | lpo | listed
    prec: a < b < P < Q          # total precedence, kbo/lpo
    weights: default=1 P=2       # kbo only, every weight >= 1
    atoms: P(a) < P(b) < Q(a)    # listed only, covers every occurring atom
    clause: P(a) | -Q(b)         # '-' or '~' negates a literal

An empty clause in the input is rejected: refutations are something a run
derives, not something a problem states.

Terms, atoms and literals are interned: one object per text, so their
equality is identity and their hash the interpreter's, and every set or dict
lookup on them, the innermost operation of both engines, runs without a
Python-level call. Clauses are interned too, one object per multiset: the
engines and the verifier ask at every step whether a clause is in a set or
a map, and clauses of separate runs that hold the same copies are one
object, so that question is an identity lookup as well.
"""

from __future__ import annotations

from _weakref import _remove_dead_weakref
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import attrgetter, eq
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple
from weakref import WeakValueDictionary, ref

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CHARS = IDENT_START | set("0123456789")

# The most argument lists a term may nest one inside another (``P(f(a))``
# nests two). The orderings rank terms by recursion, which Python's default
# recursion limit stops a few hundred levels down; a term at this bound
# parses, ranks under kbo and lpo, and simulates.
MAX_TERM_DEPTH = 100


class memo:
    """A part an object computes on its first read and keeps: the decorated
    method runs once per object, and its value goes into the object's
    ``__dict__`` under the attribute's own name, where every later read
    finds it without calling this descriptor. Frozen dataclasses keep their
    parts this way too, since the value bypasses ``__setattr__``. Read on
    the class, the attribute is the descriptor itself, whose ``func`` is the
    method.

    This is the standard library's cached property as Python 3.12 has it.
    Before 3.12 that descriptor takes a lock shared by every instance of the
    class on each first read; the engines make and read parts from one thread,
    and a part is a pure function of its object, so two threads that both
    computed one would store equal values.
    """

    def __init__(self, func: Callable[[Any], Any]):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Expanded(Sequence):
    """A read-only sequence of items expanded on read from records: the
    items of ``head``, then for each record ``item(record, j)`` for ``j``
    below ``size(record)``. Iteration takes a record's items from
    ``items(record)`` instead, when given, for records whose items are
    cheaper built in order. It holds the records as they stood when it was
    made: appending to the list they came from leaves it as it was.

    ``len`` is constant time, an index, negative included, costs one bisect
    over the record starts, summed on the first index, and a slice is a
    list. It equals any sequence of equal items. The size may pass
    ``sys.maxsize``, where ``len()`` raises ``OverflowError``; truth,
    indexes, slices, ``reversed``, equality and the ``repr``, which gives
    sizes and never an item, read it without ``len()``."""

    def __init__(self, head: Iterable, records: Iterable, size: Callable[[Any], int],
                 item: Callable[[Any, int], Any],
                 items: Optional[Callable[[Any], Iterable]] = None):
        self._head, self._records = tuple(head), tuple(records)
        self._size, self._item, self._items = size, item, items
        self._len = len(self._head) + sum(map(size, self._records))
        self._starts: Optional[List[int]] = None

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("index out of range")
        if i < len(self._head):
            return self._head[i]
        if self._starts is None:
            self._starts = list(accumulate(map(self._size, self._records),
                                           initial=len(self._head)))
        r = bisect_right(self._starts, i) - 1
        return self._item(self._records[r], i - self._starts[r])

    def __bool__(self) -> bool:
        return self._len > 0

    def __reversed__(self) -> Iterator:
        return map(self.__getitem__, range(self._len - 1, -1, -1))

    def __iter__(self) -> Iterator:
        expand = self._items or self._expand
        return chain(self._head, chain.from_iterable(map(expand, self._records)))

    def _expand(self, record: Any) -> Iterator:
        return map(self._item, repeat(record), range(self._size(record)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        size = other._len if isinstance(other, Expanded) else len(other)
        return self._len == size and all(map(eq, self, other))

    __hash__ = None            # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<Expanded: {self._len} items from {len(self._records)} records>"


class GroundTerm:
    """A ground term: a symbol name applied to zero or more ground terms.

    Atoms reuse this representation with the predicate as root symbol, so a
    single comparison covers both terms and atoms.

    Terms are interned (hash-consed): building a term whose text a live term
    already has returns that term, so two terms are equal exactly when they
    are one object. Equality is identity and hashing is the interpreter's
    own, with no Python-level call on a set or dict hit. The table holds
    its terms weakly, so a term that nothing else refers to leaves it.
    Each term holds its two literals, see ``Literal``. ``copy``,
    ``deepcopy`` and ``pickle`` rebuild a term through the table, so they
    return the interned term, also in another process.
    """

    __slots__ = ("name", "args", "text", "_pos", "_neg", "__weakref__")

    def __new__(cls, name: str, args: Tuple["GroundTerm", ...] = ()) -> "GroundTerm":
        text = name + "(" + ",".join(a.text for a in args) + ")" if args else name
        term = _TERMS.get(text)
        if term is None:
            term = object.__new__(cls)
            term.name, term.args, term.text = name, args, text
            term._pos, term._neg = Literal._pair(term)
            _TERMS[text] = term
        return term

    def __reduce__(self) -> Tuple[type, Tuple[str, Tuple["GroundTerm", ...]]]:
        return GroundTerm, (self.name, self.args)

    def __repr__(self) -> str:
        return self.text

    def symbols(self) -> Iterator[Tuple[str, int]]:
        """Yield every (symbol, arity) occurrence in this term, root first."""
        yield (self.name, len(self.args))
        for a in self.args:
            yield from a.symbols()


# every live term, by its text
_TERMS: WeakValueDictionary[str, GroundTerm] = WeakValueDictionary()

# An atom is a ground term whose root symbol is the predicate.
Atom = GroundTerm


class Literal:
    """A ground literal: an atom with a sign.

    Literals are interned with their atom, which holds both of them:
    ``Literal(atom, positive)`` returns one and ``complement()`` the other,
    so like atoms they are equal exactly when they are one object, and
    ``copy``, ``deepcopy`` and ``pickle`` return the interned literal.
    """

    __slots__ = ("atom", "positive", "text", "_complement")

    def __new__(cls, atom: Atom, positive: bool = True) -> "Literal":
        return atom._pos if positive else atom._neg

    @classmethod
    def _pair(cls, atom: Atom) -> Tuple["Literal", "Literal"]:
        """The positive and the negative literal of a new atom."""
        pos, neg = object.__new__(cls), object.__new__(cls)
        pos.atom, pos.positive, pos.text, pos._complement = atom, True, atom.text, neg
        neg.atom, neg.positive, neg.text, neg._complement = atom, False, "-" + atom.text, pos
        return pos, neg

    def complement(self) -> "Literal":
        return self._complement

    def __reduce__(self) -> Tuple[type, Tuple[Atom, bool]]:
        return Literal, (self.atom, self.positive)

    def __repr__(self) -> str:
        return self.text


class Clause:
    """A finite multiset of ground literals, held once.

    ``distinct`` lists the literals without repeats, sorted by their rendered
    text, and ``counts`` the copies of each, so a multiset has one spelling
    whatever the input order. ``count``, ``contains``, ``without_one``,
    ``with_count`` and the sum ``+`` act on these runs, never on single
    copies; truth is evaluated over ``distinct``, because extra copies cannot
    change a clause's truth value. ``literals`` and ``text`` spell out every
    copy, in text order, for rendering. A clause has no ``len()``, as its
    copies may pass ``sys.maxsize``. The empty clause prints as ⊥ and is only
    ever produced by inference, never parsed.

    Clauses are interned (hash-consed) like terms: every way of building one
    (``Clause(literals)``, ``from_runs``, ``with_count``, ``without_one``,
    ``+``, and ``copy``, ``deepcopy`` and ``pickle``, also in another
    process) returns the live clause of that multiset if there is one. Two
    clauses are equal exactly when they are one object, so equality is
    identity and hashing is the interpreter's own, and every clause-keyed
    set or dict lookup of the engines and the verifier runs without a
    Python-level call. The table holds its clauses weakly: an entry leaves
    it when its clause dies. Interning is single-threaded, as it is for
    terms.
    """

    __slots__ = ("distinct", "counts", "__weakref__")

    def __new__(cls, literals: Iterable[Literal] = ()) -> "Clause":
        copies: Dict[Literal, int] = {}
        for l in literals:
            copies[l] = copies.get(l, 0) + 1
        return _of_copies(copies)

    @staticmethod
    def from_runs(distinct: Tuple[Literal, ...], counts: Tuple[int, ...]) -> "Clause":
        """The clause with ``counts[i]`` copies of ``distinct[i]``, taken as
        given: the caller vouches that ``distinct`` is in text order without
        repeats and that every count is positive."""
        key = (distinct, counts)
        entry = _CLAUSES.get(key)
        clause = None if entry is None else entry()
        if clause is None:
            clause = object.__new__(Clause)
            clause.distinct, clause.counts = distinct, counts
            entry = _CLAUSES[key] = _Entry(clause, _drop)
            entry.key = key
        return clause

    def __reduce__(self) -> Tuple[Any, Tuple[Tuple[Literal, ...], Tuple[int, ...]]]:
        return Clause.from_runs, (self.distinct, self.counts)

    def __repr__(self) -> str:
        return " | ".join(l.text for l in self.literals) if self.distinct else "⊥"

    text = property(__repr__)

    def __add__(self, other: "Clause") -> "Clause":
        """Multiset sum: the copies of both clauses."""
        copies = dict(zip(self.distinct, self.counts))
        for l, n in zip(other.distinct, other.counts):
            copies[l] = copies.get(l, 0) + n
        return _of_copies(copies)

    @property
    def literals(self) -> Tuple[Literal, ...]:
        """Every copy, sorted by text. The list grows by runs of known
        length; a tuple built from an iterator of unknown length grows by
        reallocation, which fragments the heap when such tuples are built
        and dropped one after another."""
        copies: List[Literal] = []
        for l, n in zip(self.distinct, self.counts):
            copies += repeat(l, n)
        return tuple(copies)

    @property
    def is_empty(self) -> bool:
        return not self.distinct

    def count(self, literal: Literal) -> int:
        distinct = self.distinct
        return self.counts[distinct.index(literal)] if literal in distinct else 0

    def contains(self, literal: Literal) -> bool:
        return self.count(literal) > 0

    def with_count(self, literal: Literal, n: int) -> "Clause":
        """Return the clause holding exactly ``n`` copies of ``literal``."""
        copies = dict(zip(self.distinct, self.counts))
        if n:
            copies[literal] = n
        else:
            copies.pop(literal, None)
        return _of_copies(copies)

    def without_one(self, literal: Literal) -> "Clause":
        """Return the clause with one occurrence of ``literal`` removed."""
        n = self.count(literal)
        if not n:
            raise ValueError(f"literal {literal} not in clause {self}")
        return self.with_count(literal, n - 1)


_text = attrgetter("text")


def _of_copies(copies: Dict[Literal, int]) -> Clause:
    """The clause with ``copies[l]`` copies of each ``l``, every count
    positive."""
    distinct = tuple(sorted(copies, key=_text))
    return Clause.from_runs(distinct, tuple(map(copies.__getitem__, distinct)))


class _Entry(ref):
    """The table's weak reference to a clause, holding its key, so that one
    callback, ``_drop``, serves every entry. Building an entry runs no
    Python-level ``__new__`` or ``__init__``."""

    __slots__ = ("key",)


# every live clause, by its (distinct, counts) runs
_CLAUSES: Dict[Tuple[Tuple[Literal, ...], Tuple[int, ...]], _Entry] = {}


def _drop(entry: _Entry, table: Dict = _CLAUSES,
          remove: Callable[[Dict, Any], None] = _remove_dead_weakref) -> None:
    """Remove a dead clause's entry, unless a new clause of the same
    multiset has already taken its key. The table and the removal are
    bound as defaults, as ``WeakValueDictionary`` binds its own, so that
    the callback still finds them while the interpreter shuts down."""
    remove(table, entry.key)


EMPTY_CLAUSE = Clause(())


def is_tautology(clause: Clause) -> bool:
    """True when the clause contains an atom with both signs."""
    pos = {l.atom for l in clause.distinct if l.positive}
    neg = {l.atom for l in clause.distinct if not l.positive}
    return bool(pos & neg)


class ClauseSet:
    """An immutable clause collection, built once from an iterable.

    Duplicate clause content is dropped, the first position winning;
    ``clauses()`` lists the rest in input order. Two sets are equal when
    they list equal clauses in the same order.
    """

    def __init__(self, clauses: Iterable[Clause] = ()):
        self._members: Dict[Clause, None] = dict.fromkeys(clauses)
        self._clauses: Tuple[Clause, ...] = tuple(self._members)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self._members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClauseSet) and self._clauses == other._clauses

    def __hash__(self) -> int:
        return hash(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def clauses(self) -> Tuple[Clause, ...]:
        return self._clauses


def eval_herbrand(model: Set[Atom], clause: Clause) -> bool:
    """Herbrand evaluation: a positive literal holds when its atom is in the
    model, a negative literal when its atom is absent. The empty clause is
    false in every model."""
    for l in clause.distinct:
        if l.positive:
            if l.atom in model:
                return True
        elif l.atom not in model:
            return True
    return False


def atoms_of(clauses: Iterable[Clause]) -> Set[Atom]:
    """Every atom occurring in the clauses; repeated copies are read once."""
    return {l.atom for c in clauses for l in c.distinct}


# ---------------------------------------------------------------------------
# Ordering declaration (checked data; semantics live in lockstep.ordering)
# ---------------------------------------------------------------------------


class OrderingError(ValueError):
    """An unusable ordering declaration.

    ``code`` is the parser's error code for the fault and ``directive`` the
    problem-file directive at fault: 'order', 'prec', 'weights' or 'atoms'.
    """

    def __init__(self, message: str, code: str, directive: str):
        super().__init__(message)
        self.message = message
        self.code = code
        self.directive = directive


@dataclass(frozen=True)
class OrderingConfig:
    """Declared term ordering of a problem.

    kind 'kbo': precedence + weights (default weight applies to unlisted
    symbols). kind 'lpo': precedence only. kind 'listed': an explicit total
    order on the occurring atoms, no term order at all.
    precedence is ascending (smallest first), as written in the file.

    Construction raises OrderingError for an unknown kind, a field its kind
    does not use (weights outside kbo, a precedence under listed, listed
    atoms under kbo and lpo), a weight below 1 and a repeated precedence
    symbol or listed atom; ``weights`` is held read-only, so a built
    declaration cannot change behind these checks. A read-only mapping
    cannot be pickled, so ``copy``, ``deepcopy`` and ``pickle`` rebuild the
    declaration from its fields, through these checks; nor hashed, so the
    hash takes the weights as sorted pairs, and equal declarations, and
    the problems holding them, hash equal.
    """

    kind: str
    precedence: Tuple[str, ...] = ()
    weights: Mapping[str, int] = field(default_factory=dict)
    default_weight: int = 1
    listed_atoms: Tuple[Atom, ...] = ()

    ORDER_KINDS = ("kbo", "lpo", "listed")

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        if self.kind not in self.ORDER_KINDS:
            raise OrderingError(f"unknown ordering kind '{self.kind}'", "unknown-order-kind", "order")
        if self.kind != "kbo" and (self.weights or self.default_weight != 1):
            raise OrderingError("'weights:' is only meaningful for kbo", "weights-non-kbo", "weights")
        if self.kind == "listed" and self.precedence:
            raise OrderingError("'prec:' is not used by the listed ordering", "syntax", "prec")
        if self.kind != "listed" and self.listed_atoms:
            raise OrderingError("'atoms:' is only used by the listed ordering", "syntax", "atoms")
        for name, w in (*self.weights.items(), ("default", self.default_weight)):
            if w < 1:
                raise OrderingError(f"weight {w} for '{name}' is below 1", "bad-weight", "weights")
        if len(set(self.precedence)) != len(self.precedence):
            raise OrderingError("repeated symbol in precedence", "syntax", "prec")
        if len(set(self.listed_atoms)) != len(self.listed_atoms):
            raise OrderingError("repeated atom in 'atoms:' order", "syntax", "atoms")

    def __hash__(self) -> int:
        return hash((self.kind, self.precedence, tuple(sorted(self.weights.items())),
                     self.default_weight, self.listed_atoms))

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return OrderingConfig, (self.kind, self.precedence, dict(self.weights),
                                self.default_weight, self.listed_atoms)


@dataclass(frozen=True)
class Problem:
    """A problem: its clauses and its ordering declaration.

    The empty clause is rejected with ValueError, as the parser rejects it,
    and since a clause set is built once it cannot be added later. The
    declaration must cover the clauses, or OrderingError is raised: under
    kbo and lpo the precedence names every occurring symbol, and under
    listed the atoms are exactly the occurring ones. The atom universe and
    the symbol table are read off the clauses.
    """

    clauses: ClauseSet
    ordering: OrderingConfig

    def __post_init__(self) -> None:
        if EMPTY_CLAUSE in self.clauses:
            raise ValueError("empty clause in input: refutations are derived, not stated")
        cfg = self.ordering
        if cfg.kind != "listed":
            missing = sorted(set(self.symbol_arities).difference(cfg.precedence))
            if missing:
                raise OrderingError("precedence omits occurring symbol(s): " + ", ".join(missing),
                                    "precedence-missing-symbol", "order")
            return
        universe = self.atom_universe
        missing = sorted(a.text for a in universe.difference(cfg.listed_atoms))
        if missing:
            raise OrderingError("'atoms:' omits occurring atom(s): " + ", ".join(missing),
                                "atoms-missing", "atoms")
        extra = sorted(a.text for a in cfg.listed_atoms if a not in universe)
        if extra:
            raise OrderingError("'atoms:' lists non-occurring atom(s): " + ", ".join(extra),
                                "atoms-unknown", "atoms")

    @property
    def atom_universe(self) -> Set[Atom]:
        return atoms_of(self.clauses)

    @property
    def symbol_arities(self) -> Dict[str, int]:
        """Every occurring symbol (predicates, functions, constants alike)
        mapped to its arity; the parser enforces that each has one."""
        return {name: arity for a in self.atom_universe for name, arity in a.symbols()}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(Exception):
    """Problem file rejection with position and a stable error code."""

    def __init__(self, message: str, line: int, col: int = 1, code: str = "syntax"):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.code = code


class _TermScanner:
    """Recursive-descent scanner for ground terms inside one line."""

    def __init__(self, text: str, line: int, offset: int):
        self.text = text
        self.line = line
        self.offset = offset  # column of text[0] in the original line, 1-based
        self.pos = 0

    def error(self, message: str, code: str = "syntax") -> ParseError:
        return ParseError(message, self.line, self.offset + self.pos, code)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in IDENT_START:
            raise self.error("expected identifier")
        while self.pos < len(self.text) and self.text[self.pos] in IDENT_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def term(self) -> GroundTerm:
        """One ground term; a term nesting more than MAX_TERM_DEPTH
        argument lists is rejected at its first column."""
        self.skip_ws()
        return self._term(self.pos, MAX_TERM_DEPTH)

    def _term(self, start: int, room: int) -> GroundTerm:
        name = self.ident()
        if self.peek() == "(":
            if not room:
                raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels",
                                 self.line, self.offset + start, code="term-too-deep")
            self.expect("(")
            args = [self._term(start, room - 1)]
            while self.peek() == ",":
                self.expect(",")
                args.append(self._term(start, room - 1))
            self.expect(")")
            return GroundTerm(name, tuple(args))
        return GroundTerm(name)


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _record_arities(term: GroundTerm, arities: Dict[str, int], line: int, col: int) -> None:
    for name, arity in term.symbols():
        seen = arities.get(name)
        if seen is None:
            arities[name] = arity
        elif seen != arity:
            raise ParseError(
                f"symbol '{name}' used with arities {seen} and {arity}",
                line, col, code="arity-mismatch",
            )


def parse_problem(text: str) -> Problem:
    """Parse a problem file. Raises ParseError on any rejection.

    The parser checks only what needs the file text; OrderingConfig checks
    the declaration's values and Problem its coverage of the clauses. Their
    OrderingError is reported on its directive's line, at the value column
    for a value and at column 1 for coverage.
    """
    seen: Dict[str, Tuple[int, int]] = {}   # directive -> (line, value column)
    order_kind = ""
    prec: Tuple[str, ...] = ()
    weights: Dict[str, int] = {}
    default_weight = 1
    listed: List[Atom] = []
    clauses: List[Clause] = []
    arities: Dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).strip()
        if not body:
            continue
        if ":" not in body:
            raise ParseError("expected 'directive: ...'", lineno, raw.find(body[0]) + 1)
        head, _, rest = body.partition(":")
        head = head.strip()
        rest_offset = raw.index(rest, raw.find(":") + 1) + 1 if rest else len(raw) + 1
        if head in ("order", "prec", "weights", "atoms"):
            if head in seen:
                raise ParseError(f"duplicate '{head}:' directive", lineno, 1,
                                 code="duplicate-directive")
            seen[head] = (lineno, rest_offset)

        if head == "order":
            order_kind = rest.strip()
        elif head == "prec":
            names = [p.strip() for p in rest.split("<")]
            if any(not n for n in names):
                raise ParseError("empty entry in precedence chain", lineno, rest_offset)
            for n in names:
                if n[0] not in IDENT_START or any(c not in IDENT_CHARS for c in n):
                    raise ParseError(f"bad symbol '{n}' in precedence", lineno, rest_offset)
            prec = tuple(names)
        elif head == "weights":
            for item in rest.split():
                name, eq, value = item.partition("=")
                if not eq or not value:
                    raise ParseError(f"expected sym=weight, got '{item}'", lineno, rest_offset)
                try:
                    w = int(value)
                except ValueError:
                    raise ParseError(f"weight '{value}' is not an integer", lineno, rest_offset) from None
                if name == "default":
                    default_weight = w
                else:
                    weights[name] = w
        elif head == "atoms":
            col = rest_offset                   # column of each part's first character
            for part in rest.split("<"):
                scanner = _TermScanner(part, lineno, col)
                col += len(part) + 1
                scanner.skip_ws()
                term_col = scanner.offset + scanner.pos
                atom = scanner.term()
                if not scanner.at_end():
                    raise scanner.error("trailing input after atom")
                _record_arities(atom, arities, lineno, term_col)
                listed.append(atom)
        elif head == "clause":
            if not rest.strip():
                raise ParseError("empty clause in input", lineno, 1, code="empty-clause")
            lits: List[Literal] = []
            col = rest_offset
            for part in rest.split("|"):
                scanner = _TermScanner(part, lineno, col)
                col += len(part) + 1
                scanner.skip_ws()
                positive = True
                if scanner.peek() in ("-", "~"):
                    positive = False
                    scanner.pos += 1
                    scanner.skip_ws()
                term_col = scanner.offset + scanner.pos
                atom = scanner.term()
                if not scanner.at_end():
                    raise scanner.error("trailing input after literal")
                _record_arities(atom, arities, lineno, term_col)
                lits.append(Literal(atom, positive))
            clauses.append(Clause(lits))
        else:
            raise ParseError(f"unknown directive '{head}'", lineno, 1)

    if "order" not in seen:
        raise ParseError("missing 'order:' directive", 1, 1, code="missing-order")
    # only the fields the kind uses; the directive checks below reject the rest
    is_kbo, is_listed = order_kind == "kbo", order_kind == "listed"
    try:
        config = OrderingConfig(kind=order_kind, precedence=() if is_listed else prec,
                                weights=weights if is_kbo else {},
                                default_weight=default_weight if is_kbo else 1,
                                listed_atoms=tuple(listed) if is_listed else ())
    except OrderingError as e:
        raise ParseError(e.message, *seen[e.directive], code=e.code) from None

    order_line = seen["order"][0]
    if "weights" in seen and order_kind != "kbo":
        raise ParseError("'weights:' is only meaningful for kbo", order_line, 1,
                         code="weights-non-kbo")
    if order_kind == "listed":
        if "prec" in seen:
            raise ParseError("'prec:' is not used by the listed ordering", order_line, 1)
        if "atoms" not in seen:
            raise ParseError("'listed' needs an 'atoms:' line", order_line, 1, code="atoms-missing")
    else:
        if "atoms" in seen:
            raise ParseError("'atoms:' is only used by the listed ordering", seen["atoms"][0], 1)
        if "prec" not in seen:
            raise ParseError(f"'{order_kind}' needs a 'prec:' line", order_line, 1,
                             code="precedence-missing-symbol")

    try:
        return Problem(clauses=ClauseSet(clauses), ordering=config)
    except OrderingError as e:
        raise ParseError(e.message, seen[e.directive][0], 1, e.code) from None


def print_problem(problem: Problem) -> str:
    """Render a problem back to file syntax; parse(print(p)) reproduces p."""
    cfg = problem.ordering
    lines = [f"order: {cfg.kind}"]
    if cfg.kind in ("kbo", "lpo"):
        lines.append("prec: " + " < ".join(cfg.precedence))
    if cfg.kind == "kbo":
        parts = [f"default={cfg.default_weight}"]
        parts += [f"{name}={w}" for name, w in sorted(cfg.weights.items())]
        lines.append("weights: " + " ".join(parts))
    if cfg.kind == "listed":
        lines.append("atoms: " + " < ".join(a.text for a in cfg.listed_atoms))
    for clause in problem.clauses:
        lines.append("clause: " + " | ".join(l.text for l in clause.literals))
    return "\n".join(lines) + "\n"
