"""Syntax, problem parsing, and evaluation semantics."""

import copy
import dataclasses
import gc
import json
import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from lockstep import core
from lockstep.core import (
    Atom,
    Clause,
    ClauseSet,
    EMPTY_CLAUSE,
    GroundTerm,
    Literal,
    MAX_TERM_DEPTH,
    OrderingConfig,
    ParseError,
    Problem,
    atoms_of,
    eval_herbrand,
    is_tautology,
    parse_problem,
    print_problem,
)
from lockstep.harness import emit_trace
from lockstep.ordering import ProblemOrder
from lockstep.superposition import sfac
from lockstep.scl import (
    SclState,
    TrailEntry,
    conflict_candidates,
    is_defined,
    is_false,
    is_true,
    literal_level,
)


def T(name, *args):
    return GroundTerm(name, tuple(args))


def lit(text):
    positive = not text.startswith("-")
    name = text.lstrip("-")
    return Literal(Atom(name), positive)


def test_memo_computes_a_part_once_per_object_and_keeps_it_under_its_name():
    calls = []

    def compute(self):
        "The part."
        calls.append(self)
        return [len(calls)]

    class Holder:
        part = core.memo(compute)

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        x: int

        @core.memo
        def double(self):
            calls.append(self)
            return 2 * self.x

    a, b = Holder(), Holder()
    assert a.part == [1] and a.part is a.part and calls == [a]
    assert a.__dict__ == {"part": [1]}
    assert b.part == [2] and a.part == [1] and calls == [a, b]
    descriptor = Holder.__dict__["part"]
    assert Holder.part is descriptor and isinstance(descriptor, core.memo)
    assert descriptor.func is compute and descriptor.__doc__ == "The part."
    f = Frozen(3)
    assert f.double == 6 and f.double == 6 and f.__dict__ == {"x": 3, "double": 6}
    assert calls == [a, b, f]
    assert dataclasses.replace(f).double == 6 and len(calls) == 4


def test_term_text_and_equality():
    a = T("a")
    fab = T("f", T("a"), T("b"))
    assert a.text == "a"
    assert fab.text == "f(a,b)"
    assert T("f", T("a"), T("b")) == fab
    assert T("f", T("b"), T("a")) != fab
    assert list(fab.symbols()) == [("f", 2), ("a", 0), ("b", 0)]


def test_literal_text_and_complement():
    p = Literal(T("P", T("a")))
    assert p.text == "P(a)"
    n = p.complement()
    assert n.text == "-P(a)"
    assert n.complement() == p


def test_atoms_and_literals_are_interned():
    a = T("P", T("a"))
    assert T("P", T("a")) is a and a.args[0] is T("a")
    assert Literal(a) is Literal(a) is Literal(a, True)
    assert Literal(a, False) is Literal(a).complement()
    for l in (Literal(a), Literal(a, False)):
        assert l.complement().complement() is l
        assert l.complement() is not l and l.complement().atom is a


def test_equality_and_hashing_of_atoms_and_literals_are_the_interpreter_s():
    # identity equality and a C-level hash: a Python-level method here
    # would run on every set or dict hit of both engines
    for cls in (GroundTerm, Literal):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_a_problem_parsed_twice_shares_its_atoms_and_literals():
    path = os.path.join(os.path.dirname(__file__), "data", "double_conflict.prob")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    first, second = parse_problem(text), parse_problem(text)
    for c, d in zip(first.clauses, second.clauses, strict=True):
        assert all(l is m and l.atom is m.atom for l, m in zip(c.distinct, d.distinct))


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, _pickled],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_atoms_and_literals_are_the_interned_objects(copier):
    a = T("P", T("f", T("a")), T("b"))
    assert copier(a) is a
    assert copier(Literal(a)) is Literal(a) and copier(Literal(a, False)) is Literal(a, False)
    c = Clause([Literal(a), Literal(a), lit("-Q")])
    twin = copier(c)
    assert twin == c and hash(twin) == hash(c)
    assert all(l is m for l, m in zip(twin.distinct, c.distinct, strict=True))
    assert twin in {c} and twin.count(Literal(a)) == 2


def test_an_unreferenced_atom_leaves_the_table():
    atom = T("Unreferenced", T("c7"))
    assert core._TERMS.get("Unreferenced(c7)") is atom
    del atom
    gc.collect()
    assert "Unreferenced(c7)" not in core._TERMS and "c7" not in core._TERMS


def test_clause_is_a_multiset():
    c1 = Clause([lit("P"), lit("-Q"), lit("P")])
    c2 = Clause([lit("-Q"), lit("P"), lit("P")])
    c3 = Clause([lit("P"), lit("-Q")])
    assert c1 == c2
    assert c1 != c3
    assert c1.count(lit("P")) == 2
    assert sum(c1.counts) == 3


def test_without_one_removes_a_single_copy():
    c = Clause([lit("P"), lit("P"), lit("-Q")])
    c2 = c.without_one(lit("P"))
    assert c2.count(lit("P")) == 1
    assert c2.count(lit("-Q")) == 1
    with pytest.raises(ValueError):
        c.without_one(lit("R"))


def test_empty_clause_prints_as_falsum():
    assert EMPTY_CLAUSE.text == "⊥"
    assert EMPTY_CLAUSE.is_empty
    assert not eval_herbrand({Atom("P")}, EMPTY_CLAUSE)


def test_tautology_detection():
    assert is_tautology(Clause([lit("P"), lit("-P")]))
    assert not is_tautology(Clause([lit("P"), lit("-Q")]))
    assert not is_tautology(EMPTY_CLAUSE)


def test_clause_set_ids_are_stable_and_deduplicated():
    c1 = Clause([lit("P")])
    c2 = Clause([lit("Q")])
    cs = ClauseSet([c1, c2, Clause([lit("P")])])
    assert len(cs) == 2
    assert cs.clauses()[1] == c2
    assert list(cs) == [c1, c2]


def test_herbrand_evaluation():
    pa = Atom("P")
    qa = Atom("Q")
    c = Clause([Literal(pa), Literal(qa, False)])
    assert eval_herbrand(set(), c)          # -Q true in the empty model
    assert eval_herbrand({pa, qa}, c)       # P true
    assert not eval_herbrand({qa}, c)


def _status(assignment, clause):
    """The clause's status on a trail of decisions setting each atom of
    ``assignment`` in turn, read through scl's queries. The same trail with
    its top atom pushed first with the other value gives the same answers,
    since each atom's last entry counts: a clause is never both true and
    false, is_defined and literal_level name each atom's last entry, and
    assuming the top literal on the trail below it falsifies the same
    clauses mentioning the top atom as the full trail does."""
    pushes = list(assignment.items())
    variants = [pushes]
    if pushes:
        top_atom, top_value = pushes[-1]
        variants.append([(top_atom, not top_value)] + pushes)
    answers = set()
    for variant in variants:
        trail = tuple(TrailEntry(Literal(a, v), i + 1, None) for i, (a, v) in enumerate(variant))
        state = SclState(trail, (clause,), (), None)
        true, false = is_true(state, clause), is_false(state, clause)
        assert not (true and false)
        answers.add("true" if true else "false" if false else "undefined")
        for a in _POOL:
            assert is_defined(state, a) == (a in assignment)
            levels = [e.level for e in trail if e.literal.atom == a]
            for l in (Literal(a), Literal(a, False)):
                if levels:
                    assert literal_level(state, l) == levels[-1]
                else:
                    with pytest.raises(ValueError):
                        literal_level(state, l)
        if trail:
            top = trail[-1].literal
            mentioning = tuple(c for c in (clause, Clause([top]), Clause([top.complement()]))
                               if top.atom in atoms_of([c]))
            below = SclState(trail[:-1], mentioning, (), None)
            assert (conflict_candidates(below, assuming=top)
                    == conflict_candidates(SclState(trail, mentioning, (), None)))
    [answer] = answers
    return answer


def test_three_valued_status():
    pa, qa = Atom("P"), Atom("Q")
    c = Clause([Literal(pa), Literal(qa, False)])
    assert _status({}, c) == "undefined"
    assert _status({pa: True}, c) == "true"
    assert _status({pa: False}, c) == "undefined"
    assert _status({pa: False, qa: True}, c) == "false"
    assert _status({qa: False}, c) == "true"
    assert _status({}, EMPTY_CLAUSE) == "false"
    assert _status({pa: True, qa: True}, EMPTY_CLAUSE) == "false"
    tautology = Clause([Literal(pa), Literal(pa, False), Literal(pa)])
    assert _status({}, tautology) == "undefined"
    assert _status({pa: False}, tautology) == "true"
    assert _status({pa: True}, tautology) == "true"


_POOL = [Atom("P"), Atom("Q"), Atom("R"), Atom("S")]

_literals = st.builds(Literal, st.sampled_from(_POOL), st.booleans())
_clauses = st.lists(_literals, max_size=6).map(Clause)
_assignments = st.fixed_dictionaries({a: st.booleans() for a in _POOL})


@given(_clauses, _assignments)
def test_total_assignment_status_matches_herbrand(clause, assignment):
    model = {a for a, v in assignment.items() if v}
    want = "true" if eval_herbrand(model, clause) else "false"
    assert _status(assignment, clause) == want


# Few distinct literals, many copies: the shape saturation derives.
_duplicated_clauses = st.lists(_literals, max_size=3).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=12) if base else st.just([])
).map(Clause)
_partial_assignments = st.dictionaries(st.sampled_from(_POOL), st.booleans())


def _reference_herbrand(model, clause):
    """Some copy holds: a direct loop over every literal occurrence."""
    return any((l.atom in model) == l.positive for l in clause.literals)


def _reference_status(assignment, clause):
    values = [(assignment.get(l.atom), l.positive) for l in clause.literals]
    if any(v is not None and v == positive for v, positive in values):
        return "true"
    if any(v is None for v, _ in values):
        return "undefined"
    return "false"


@given(_duplicated_clauses, st.sets(st.sampled_from(_POOL)))
def test_herbrand_evaluation_matches_a_loop_over_every_copy(clause, model):
    assert eval_herbrand(model, clause) == _reference_herbrand(model, clause)


@given(_duplicated_clauses, _partial_assignments)
def test_status_matches_a_loop_over_every_copy(clause, assignment):
    assert _status(assignment, clause) == _reference_status(assignment, clause)


def test_distinct_literals_leave_the_multiset_alone():
    c = Clause([lit("P"), lit("-Q"), lit("P"), lit("P")])
    assert c.distinct == (lit("-Q"), lit("P"))
    assert sum(c.counts) == 4
    assert c.count(lit("P")) == 3
    assert c.text == "-Q | P | P | P"
    assert c != Clause([lit("P"), lit("-Q")])
    assert c.without_one(lit("P")) == Clause([lit("-Q"), lit("P"), lit("P")])
    assert EMPTY_CLAUSE.distinct == ()


def test_a_clause_past_the_machine_word_works_on_its_runs():
    # saturation conclusions pass sys.maxsize copies of one literal; what
    # the engines read of a clause acts on its runs, never on single copies
    giant = 2 ** 70
    p = parse_problem("order: listed\natoms: P < Q\nclause: P | Q\n")
    po = ProblemOrder(p)
    c = Clause([lit("P"), lit("-Q")]).with_count(lit("P"), giant)
    assert c.counts == (1, giant)
    assert po.clause_key(c) == ((3, 1), (0, giant))
    assert po.max_literal(c) == lit("-Q") and po.max_multiplicity(c) == 1
    top = c.with_count(lit("Q"), giant).with_count(lit("-Q"), 0)
    assert po.max_literal(top) == lit("Q") and po.max_multiplicity(top) == giant
    assert sfac(top, po) == Clause([lit("P"), lit("Q")]).with_count(lit("P"), giant)
    assert sfac(c, po) is c
    assert eval_herbrand({Atom("P")}, c) and not eval_herbrand({Atom("Q")}, c)
    doubled = c + c
    assert doubled.counts == (2, 2 * giant) and doubled == c.with_count(lit("-Q"), 2).with_count(
        lit("P"), 2 * giant)
    assert hash(doubled) == hash(Clause.from_runs(doubled.distinct, doubled.counts))


@given(_duplicated_clauses, _duplicated_clauses)
def test_clause_matches_a_counter_reference(c, d):
    # the multiset a clause stands for, as literal text -> copies
    ref, other = Counter(l.text for l in c.literals), Counter(l.text for l in d.literals)
    shuffled = Clause(reversed(c.literals))
    assert shuffled == c and hash(shuffled) == hash(c)
    assert (c == d) == (ref == other)
    assert c != d or hash(c) == hash(d)
    assert sum(c.counts) == sum(ref.values())
    assert [l.text for l in c.literals] == sorted(ref.elements())
    assert c.text == (" | ".join(sorted(ref.elements())) or "⊥")
    assert [l.text for l in c.distinct] == sorted(ref)
    assert c.counts == tuple(ref[t] for t in sorted(ref))

    def as_counter(clause):
        return Counter(l.text for l in clause.literals)

    assert as_counter(c + d) == ref + other
    assert c + d == Clause(c.literals + d.literals)
    for l in {*c.distinct, *d.distinct, lit("R"), lit("-S")}:
        assert c.count(l) == ref[l.text]
        assert c.contains(l) == (ref[l.text] > 0)
        for n in range(4):
            want = ref.copy()
            want[l.text] = n
            assert as_counter(c.with_count(l, n)) == +want
            assert c.with_count(l, n) == Clause(
                [x for x in c.literals if x != l] + [l] * n)
        if ref[l.text]:
            assert as_counter(c.without_one(l)) == ref - Counter([l.text])
        else:
            with pytest.raises(ValueError):
                c.without_one(l)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

KBO_TEXT = """\
# tiny refutation input
order: kbo
prec: a < b < P < Q
weights: default=1 Q=2
clause: P(a) | P(a)
clause: -P(a) | Q(b)   # comment after content
clause: ~Q(b)
"""


def test_parse_kbo_problem():
    p = parse_problem(KBO_TEXT)
    assert p.ordering.kind == "kbo"
    assert p.ordering.precedence == ("a", "b", "P", "Q")
    assert p.ordering.weights == {"Q": 2}
    assert p.ordering.default_weight == 1
    assert len(p.clauses) == 3
    assert p.clauses.clauses()[0].count(Literal(T("P", T("a")))) == 2
    assert p.clauses.clauses()[2] == Clause([Literal(T("Q", T("b")), False)])
    assert p.symbol_arities == {"P": 1, "Q": 1, "a": 0, "b": 0}
    assert p.atom_universe == {T("P", T("a")), T("Q", T("b"))}


def test_parse_listed_problem():
    text = """\
order: listed
atoms: P(a) < Q(a)
clause: P(a) | -Q(a)
clause: Q(a)
"""
    p = parse_problem(text)
    assert p.ordering.listed_atoms == (T("P", T("a")), T("Q", T("a")))


@pytest.mark.parametrize("kind", ["kbo", "lpo", "listed"])
def test_print_parse_round_trip(kind):
    if kind == "listed":
        text = "order: listed\natoms: Q < P(a,b)\nclause: P(a,b) | -Q\nclause: Q | Q\n"
    else:
        text = f"order: {kind}\nprec: a < b < P < Q\n"
        if kind == "kbo":
            text += "weights: default=2 P=3\n"
        text += "clause: P(a,b) | -Q(a)\nclause: Q(a) | Q(a)\n"
    p1 = parse_problem(text)
    p2 = parse_problem(print_problem(p1))
    assert p2.ordering == p1.ordering
    assert p2.clauses.clauses() == p1.clauses.clauses()
    assert p2.symbol_arities == p1.symbol_arities


GOLDEN_SYMBOLS = {"P": 1, "Q": 1, "a": 0, "b": 0}


@pytest.mark.parametrize("name", ["double_conflict", "factoring_chain",
                                  "repropagation", "satisfiable"])
def test_symbol_table_of_each_golden_file(name):
    path = os.path.join(os.path.dirname(__file__), "data", name + ".prob")
    with open(path, encoding="utf-8") as fh:
        assert parse_problem(fh.read()).symbol_arities == GOLDEN_SYMBOLS


def test_parser_keeps_one_object_per_atom_text():
    text = ("order: listed\natoms: Q(a) < P(a)\n"
            "clause: P(a) | -Q(a) | P(a)\nclause: Q(a) | -P(a)\n")
    p = parse_problem(text)
    seen = {}
    for c in p.clauses:
        for l in c.literals:
            assert seen.setdefault(l.atom.text, l.atom) is l.atom
    assert [seen[a.text] is a for a in p.ordering.listed_atoms] == [True, True]


def test_duplicate_clause_lines_merge():
    text = "order: lpo\nprec: a < P\nclause: P(a)\nclause: P(a)\n"
    p = parse_problem(text)
    assert len(p.clauses) == 1


# Each case has exactly one fault; its code, position and message are pinned.
PARSE_REJECTIONS = [
    ("clause: P(a)\n", "missing-order", 1, 1, "missing 'order:' directive"),
    ("order: mbo\nclause: P\n", "unknown-order-kind", 1, 7, "unknown ordering kind 'mbo'"),
    ("order: kbo\norder: kbo\n", "duplicate-directive", 2, 1, "duplicate 'order:' directive"),
    ("order: kbo\nprec: a < P\nprec: a < P\nclause: P(a)\n",
     "duplicate-directive", 3, 1, "duplicate 'prec:' directive"),
    ("order: kbo\nprec: a < P\nweights: P=2\nweights: P=2\nclause: P(a)\n",
     "duplicate-directive", 4, 1, "duplicate 'weights:' directive"),
    ("order: listed\natoms: P\natoms: P\nclause: P\n",
     "duplicate-directive", 3, 1, "duplicate 'atoms:' directive"),
    ("order: kbo\nprec: a < P\nclause:\n", "empty-clause", 3, 1, "empty clause in input"),
    ("order: kbo\nprec: a < P\nclause:   \n", "empty-clause", 3, 1, "empty clause in input"),
    ("order: kbo\nprec: P\nclause: P(a)\n", "precedence-missing-symbol", 1, 1,
     "precedence omits occurring symbol(s): a"),
    ("order: kbo\nclause: P\n", "precedence-missing-symbol", 1, 1,
     "'kbo' needs a 'prec:' line"),
    ("order: kbo\nprec: a < P\nweights: P=0\nclause: P(a)\n", "bad-weight", 3, 9,
     "weight 0 for 'P' is below 1"),
    ("order: kbo\nprec: a < P\nweights: default=0\nclause: P(a)\n", "bad-weight", 3, 9,
     "weight 0 for 'default' is below 1"),
    ("order: lpo\nprec: a < P\nweights: P=2\nclause: P(a)\n", "weights-non-kbo", 1, 1,
     "'weights:' is only meaningful for kbo"),
    ("order: listed\nweights: P=2\nclause: P\n", "weights-non-kbo", 1, 1,
     "'weights:' is only meaningful for kbo"),
    ("order: listed\nclause: P\n", "atoms-missing", 1, 1, "'listed' needs an 'atoms:' line"),
    ("order: listed\natoms: P\nclause: P | Q\n", "atoms-missing", 2, 1,
     "'atoms:' omits occurring atom(s): Q"),
    ("order: listed\natoms: P < Q < R\nclause: P | Q\n", "atoms-unknown", 2, 1,
     "'atoms:' lists non-occurring atom(s): R"),
    ("order: kbo\nprec: a < P\natoms: P(a)\nclause: P(a)\n", "syntax", 3, 1,
     "'atoms:' is only used by the listed ordering"),
    ("order: lpo\nprec: a < P\natoms: R(b)\nclause: P(a)\n", "syntax", 3, 1,
     "'atoms:' is only used by the listed ordering"),
    ("order: listed\nprec: P\natoms: P\nclause: P\n", "syntax", 1, 1,
     "'prec:' is not used by the listed ordering"),
    ("order: kbo\nprec: a < P\nclause: P(a) | P(a,a)\n", "arity-mismatch", 3, 16,
     "symbol 'P' used with arities 1 and 2"),
    ("order: listed\natoms: P(a) < P(a,a)\nclause: P(a)\n", "arity-mismatch", 2, 15,
     "symbol 'P' used with arities 1 and 2"),
    ("order: kbo\nprec: a < P\nclause: P(a) | - P(a,a)\n", "arity-mismatch", 3, 18,
     "symbol 'P' used with arities 1 and 2"),
    ("order: kbo\nprec: a < P\nclause: P(a\n", "syntax", 3, 12, "expected ')'"),
    ("order: kbo\nprec: a < P\nclause: P(a) |  -P(a\n", "syntax", 3, 21, "expected ')'"),
    ("order: kbo\nprec: a < P\nclause: P(a) -P(a)\n", "syntax", 3, 14,
     "trailing input after literal"),
    ("order: listed\natoms: P Q\nclause: P\n", "syntax", 2, 10, "trailing input after atom"),
    ("order: listed\natoms: P < Q R\nclause: P | Q\n", "syntax", 2, 14,
     "trailing input after atom"),
    ("order: listed\natoms: P < P\nclause: P\n", "syntax", 2, 7,
     "repeated atom in 'atoms:' order"),
    ("order: kbo\nprec: a < < P\nclause: P(a)\n", "syntax", 2, 6,
     "empty entry in precedence chain"),
    ("order: kbo\nprec: a < 1P\nclause: P(a)\n", "syntax", 2, 6,
     "bad symbol '1P' in precedence"),
    ("order: kbo\nprec: a < P < a\nclause: P(a)\n", "syntax", 2, 6,
     "repeated symbol in precedence"),
    ("order: kbo\nweights: x\nprec: a < P\nclause: P(a)\n", "syntax", 2, 9,
     "expected sym=weight, got 'x'"),
    ("order: kbo\nprec: a < P\nweights: P=x\nclause: P(a)\n", "syntax", 3, 9,
     "weight 'x' is not an integer"),
    ("bogus: 1\n", "syntax", 1, 1, "unknown directive 'bogus'"),
    ("order kbo\n", "syntax", 1, 1, "expected 'directive: ...'"),
]


@pytest.mark.parametrize("text,code,line,col,message", PARSE_REJECTIONS,
                         ids=[f"{text}-{code}" for text, code, *_ in PARSE_REJECTIONS])
def test_parse_rejections(text, code, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.code, exc.value.line, exc.value.col, exc.value.message) == (
        code, line, col, message)


COPY_PROBLEMS = {
    "kbo": "order: kbo\nprec: a < b < P < Q\nweights: default=2 P=3\n"
           "clause: P(a) | Q(b)\nclause: -P(a) | Q(a)\nclause: -Q(a) | -Q(b)\nclause: -Q(b)\n",
    "lpo": "order: lpo\nprec: a < b < P < Q\n"
           "clause: P(a) | P(a)\nclause: -P(a) | Q(b)\nclause: -Q(b)\n",
    "listed": "order: listed\natoms: Q < P(a,b)\nclause: P(a,b) | -Q\nclause: Q | Q\n",
}


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("kind", list(COPY_PROBLEMS))
def test_a_copied_problem_is_equal_and_verifies_identically(kind, copier):
    # the read-only weights mapping cannot be pickled itself, so the
    # ordering declaration is rebuilt from its fields
    problem = parse_problem(COPY_PROBLEMS[kind])
    twin = copier(problem)
    assert twin == problem and twin.ordering.kind == kind
    assert twin.clauses.clauses() == problem.clauses.clauses()
    assert twin.ordering.weights == problem.ordering.weights
    assert print_problem(twin) == print_problem(problem)
    assert (json.dumps(emit_trace(twin), sort_keys=True)
            == json.dumps(emit_trace(problem), sort_keys=True))


# reads a pickled list of problems on standard input; prints, for each, whether
# every clause rebuilt from its literals is found in the problem's clause set
# and whether the problem verifies
UNPICKLE_AND_VERIFY = """\
import pickle, sys
from lockstep.core import Clause
from lockstep.simulation import lockstep_verify
for p in pickle.load(sys.stdin.buffer):
    print(all(Clause(c.literals) in p.clauses for c in p.clauses), lockstep_verify(p).ok)
"""


def test_a_problem_pickled_in_one_process_works_in_another():
    # hashes differ from process to process: an unpickled clause must hash
    # as a clause built there does, and its atoms must be that process's
    problems = [parse_problem(text) for text in COPY_PROBLEMS.values()]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", UNPICKLE_AND_VERIFY],
                          input=pickle.dumps(problems), env=env, capture_output=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == ["True True"] * len(problems)


@pytest.mark.parametrize("kind", list(COPY_PROBLEMS))
def test_equal_problems_hash_equal_and_key_a_dict(kind):
    # the read-only weights mapping cannot be hashed itself, so the
    # declaration hashes its weights as sorted pairs
    problem, twin = (parse_problem(COPY_PROBLEMS[kind]) for _ in range(2))
    assert twin == problem and twin is not problem
    assert hash(twin.ordering) == hash(problem.ordering) and hash(twin) == hash(problem)
    assert {problem: kind}[twin] == kind and {problem.ordering: kind}[twin.ordering] == kind
    if kind == "kbo":       # weights given in another order
        one, other = (OrderingConfig(kind="kbo", precedence=("a", "P", "Q"), weights=weights)
                      for weights in ({"P": 3, "Q": 2}, {"Q": 2, "P": 3}))
        assert one == other and hash(one) == hash(other)


def test_problem_rejects_the_empty_clause():
    # the parser's "empty-clause" rejection, for problems built in code
    clauses = ClauseSet([Clause([lit("P")]), EMPTY_CLAUSE])
    with pytest.raises(ValueError, match="empty clause"):
        Problem(clauses=clauses,
                ordering=OrderingConfig(kind="listed", listed_atoms=(Atom("P"),)))


def nested_atom(depth):
    """P(f(...f(a)...)), nesting ``depth`` argument lists."""
    return "P(" + "f(" * (depth - 1) + "a" + ")" * depth


def deep_problem(kind, depth):
    """An unsatisfiable problem over Q(a) and one atom nesting ``depth``
    argument lists, which line 3 names at column 16."""
    atom = nested_atom(depth)
    return (f"order: {kind}\nprec: a < f < P < Q\n"
            f"clause: Q(a) | {atom}\nclause: Q(a) | -{atom}\nclause: -Q(a)\n")


@pytest.mark.parametrize("kind,ascending", [("kbo", "QP"), ("lpo", "PQ")])
def test_a_term_at_the_depth_bound_parses_and_ranks(kind, ascending):
    p = parse_problem(deep_problem(kind, MAX_TERM_DEPTH))
    assert {a.text for a in p.atom_universe} == {"Q(a)", nested_atom(MAX_TERM_DEPTH)}
    assert "".join(a.name for a in ProblemOrder(p).atoms_ascending) == ascending


@pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 5000])
@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_a_term_past_the_depth_bound_is_a_parse_error(kind, depth):
    # far past the bound, the scanner used to overflow Python's stack
    with pytest.raises(ParseError) as exc:
        parse_problem(deep_problem(kind, depth))
    assert (exc.value.code, exc.value.line, exc.value.col, exc.value.message) == (
        "term-too-deep", 3, 16, f"term nested deeper than {MAX_TERM_DEPTH} levels")


def test_a_term_past_the_depth_bound_is_rejected_in_the_atom_list():
    atom = nested_atom(MAX_TERM_DEPTH + 1)
    with pytest.raises(ParseError) as exc:
        parse_problem(f"order: listed\natoms: Q < {atom}\nclause: Q | {atom}\n")
    assert (exc.value.code, exc.value.line, exc.value.col) == ("term-too-deep", 2, 12)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("order: kbo\nprec: a < P\nclause: P(a) | | P(a)\n")
    assert exc.value.line == 3


def test_atoms_of_collects_across_clauses():
    p = parse_problem("order: lpo\nprec: a < P < Q\nclause: P(a)\nclause: -Q(a) | P(a)\n")
    assert atoms_of(p.clauses) == {T("P", T("a")), T("Q", T("a"))}


def test_atoms_of_reads_each_duplicated_literal_once():
    heavy = Clause([lit("P")] * 7 + [lit("-P")] * 5 + [lit("Q")] * 3)
    assert atoms_of([heavy]) == {Atom("P"), Atom("Q")}
    assert atoms_of([heavy, heavy, EMPTY_CLAUSE, Clause([lit("-R")] * 4)]) == {
        Atom("P"), Atom("Q"), Atom("R")
    }
    assert atoms_of([]) == set() and atoms_of([EMPTY_CLAUSE]) == set()
