"""Ordering semantics.

The scalar expectations in here were worked out by hand from the ordering
definitions before the comparison code existed; they are the reference, not
a mirror of the implementation. The multiset extension is additionally
cross-checked against a direct Dershowitz-Manna style oracle, and ground
KBO against a direct recursion on weight, precedence and arguments.
"""

import os
import random
import re
import time
from collections import Counter
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from lockstep.core import (
    Atom,
    Clause,
    ClauseSet,
    EMPTY_CLAUSE,
    GroundTerm,
    Literal,
    MAX_TERM_DEPTH,
    OrderingConfig,
    OrderingError,
    Problem,
    parse_problem,
)
from lockstep.harness import GenParams, random_problem
from lockstep.ordering import (
    EQUAL,
    GREATER,
    LESS,
    ProblemOrder,
    compare_atoms,
    compare_clauses,
    compare_literals,
    compare_terms,
)


def T(name, *args):
    return GroundTerm(name, tuple(args))


def clause(*texts):
    lits = []
    for t in texts:
        positive = not t.startswith("-")
        lits.append(Literal(Atom(t.lstrip("-")), positive))
    return Clause(lits)


# ---------------------------------------------------------------------------
# Term comparison, hand-frozen cases
# ---------------------------------------------------------------------------

KBO_UNIT = OrderingConfig(kind="kbo", precedence=("a", "b", "f", "P"))


def test_kbo_weight_beats_precedence():
    # w(f(a)) = 2 > w(b) = 1, even though f is above b in the precedence
    assert compare_terms(T("f", T("a")), T("b"), KBO_UNIT) == GREATER
    assert compare_terms(T("b"), T("f", T("a")), KBO_UNIT) == LESS


def test_kbo_precedence_on_equal_weight():
    assert compare_terms(T("a"), T("b"), KBO_UNIT) == LESS
    assert compare_terms(T("P", T("a")), T("P", T("b")), KBO_UNIT) == LESS
    assert compare_terms(T("a"), T("a"), KBO_UNIT) == EQUAL


def test_kbo_declared_weights_shift_the_balance():
    cfg = OrderingConfig(kind="kbo", precedence=("a", "b", "f", "Q"))
    # unit weights: f(a,b) at weight 3 outweighs Q(a) at weight 2
    assert compare_terms(T("f", T("a"), T("b")), T("Q", T("a")), cfg) == GREATER
    heavy_q = OrderingConfig(kind="kbo", precedence=("a", "b", "f", "Q"), weights={"Q": 2})
    # Q=2 levels the weights at 3 and the precedence (f below Q) decides
    assert compare_terms(T("f", T("a"), T("b")), T("Q", T("a")), heavy_q) == LESS


def test_kbo_and_lpo_can_disagree():
    kbo = OrderingConfig(kind="kbo", precedence=("a", "b", "f"), weights={"b": 5})
    lpo = OrderingConfig(kind="lpo", precedence=("a", "b", "f"))
    b, fa = T("b"), T("f", T("a"))
    assert compare_terms(b, fa, kbo) == GREATER   # weight 5 vs 2
    assert compare_terms(b, fa, lpo) == LESS      # f above b, f(a) > b


LPO_CFG = OrderingConfig(kind="lpo", precedence=("a", "b", "P", "Q"))


def test_lpo_head_precedence():
    assert compare_terms(T("Q", T("a")), T("P", T("b")), LPO_CFG) == GREATER


def test_lpo_argument_lexicographic():
    assert compare_terms(T("P", T("b")), T("P", T("a")), LPO_CFG) == GREATER
    assert compare_terms(T("P", T("a")), T("P", T("a")), LPO_CFG) == EQUAL


def test_lpo_subterm_property():
    cfg = OrderingConfig(kind="lpo", precedence=("a", "g"))
    assert compare_terms(T("g", T("a")), T("a"), cfg) == GREATER


def test_lpo_precedence_dominates_structure():
    cfg = OrderingConfig(kind="lpo", precedence=("a", "b", "g", "P", "Q"))
    assert compare_terms(T("Q", T("a")), T("P", T("g", T("b"))), cfg) == GREATER


def test_listed_has_no_term_comparison():
    cfg = OrderingConfig(kind="listed", listed_atoms=(Atom("P"), Atom("Q")))
    with pytest.raises(ValueError):
        compare_terms(T("P"), T("Q"), cfg)
    assert compare_atoms(Atom("P"), Atom("Q"), cfg) == LESS
    with pytest.raises(ValueError):
        compare_atoms(Atom("R"), Atom("P"), cfg)


def test_missing_precedence_symbol_is_an_error():
    cfg = OrderingConfig(kind="kbo", precedence=("a",))
    with pytest.raises(ValueError):
        compare_terms(T("a"), T("b"), cfg)


# ---------------------------------------------------------------------------
# Ground KBO against a direct recursion
# ---------------------------------------------------------------------------


def _ref_weight(term, config):
    return config.weights.get(term.name, config.default_weight) + sum(
        _ref_weight(a, config) for a in term.args)


def _ref_kbo(s, t, config):
    """Ground KBO spelled out: weight, then root precedence, then the
    arguments left to right."""
    if s == t:
        return EQUAL
    ws, wt = _ref_weight(s, config), _ref_weight(t, config)
    if ws != wt:
        return LESS if ws < wt else GREATER
    if s.name != t.name:
        prec = config.precedence
        return LESS if prec.index(s.name) < prec.index(t.name) else GREATER
    for si, ti in zip(s.args, t.args):
        r = _ref_kbo(si, ti, config)
        if r != EQUAL:
            return r
    return EQUAL


_REF_SYMBOLS = ("a", "b", "c", "f", "g", "h", "P", "Q", "R")
_ref_terms = st.recursive(
    st.sampled_from([T("a"), T("b"), T("c")]),
    lambda kids: st.builds(lambda x: T("f", x), kids)
    | st.builds(lambda x: T("h", x), kids)
    | st.builds(lambda x, y: T("g", x, y), kids, kids),
    max_leaves=6,
)
_ref_atoms = (st.just(T("R")) | st.builds(lambda x: T("P", x), _ref_terms)
              | st.builds(lambda x, y: T("Q", x, y), _ref_terms, _ref_terms))
_ref_configs = st.builds(
    lambda prec, weights, default: OrderingConfig(
        kind="kbo", precedence=tuple(prec), weights=weights, default_weight=default),
    st.permutations(_REF_SYMBOLS),
    st.dictionaries(st.sampled_from(_REF_SYMBOLS), st.integers(1, 4)),
    st.integers(1, 4),
)


@given(_ref_configs, _ref_terms | _ref_atoms, _ref_terms | _ref_atoms)
def test_kbo_comparison_matches_the_direct_recursion(config, s, t):
    assert compare_terms(s, t, config) == _ref_kbo(s, t, config)


@settings(max_examples=300)
@given(_ref_configs, st.lists(_ref_atoms, min_size=1, max_size=10))
def test_kbo_ranking_matches_the_direct_recursion(config, atoms):
    problem = Problem(clauses=ClauseSet([Clause([Literal(a)]) for a in atoms]),
                      ordering=config)
    expected = sorted(set(atoms), key=cmp_to_key(lambda s, t: _ref_kbo(s, t, config)))
    assert ProblemOrder(problem).atoms_ascending == tuple(expected)


# ---------------------------------------------------------------------------
# Ground LPO against the unmemoised recursion
# ---------------------------------------------------------------------------


def _ref_lpo_gt(s, t, prec):
    """Ground LPO as a plain recursion, without a memo; its time doubles
    with each level of nesting, so it is run only on shallow terms."""
    if s == t:
        return False
    for si in s.args:
        if si == t or _ref_lpo_gt(si, t, prec):
            return True
    ps = prec[s.name]
    pt = prec[t.name]
    if ps > pt:
        return all(_ref_lpo_gt(s, tj, prec) for tj in t.args)
    if ps == pt:
        for i, (si, ti) in enumerate(zip(s.args, t.args)):
            if si != ti:
                if not _ref_lpo_gt(si, ti, prec):
                    return False
                return all(_ref_lpo_gt(s, tj, prec) for tj in t.args[i + 1:])
        return False
    return False


def _ref_lpo(s, t, config):
    prec = {name: i for i, name in enumerate(config.precedence)}
    return EQUAL if s == t else GREATER if _ref_lpo_gt(s, t, prec) else LESS


def _random_term(rng, depth):
    """A term over a, b, c, unary f and h, and binary g, at most ``depth``
    argument lists deep; terms that share subterms are common."""
    if depth == 0 or rng.random() < 0.2:
        return T(rng.choice("abc"))
    if rng.random() < 0.15:
        return T("g", _random_term(rng, depth - 1), _random_term(rng, depth - 1))
    return T(rng.choice("fh"), _random_term(rng, depth - 1))


def test_lpo_comparison_matches_the_unmemoised_recursion():
    rng = random.Random(8)
    symbols = list("abcfgh") + ["P"]
    for _ in range(60):
        rng.shuffle(symbols)
        config = OrderingConfig(kind="lpo", precedence=tuple(symbols))
        atoms = [T("P", _random_term(rng, 7)) for _ in range(6)]
        for s in atoms + [a.args[0] for a in atoms]:
            for t in atoms + [a.args[0] for a in atoms]:
                assert compare_terms(s, t, config) == _ref_lpo(s, t, config), (s, t)
        problem = Problem(clauses=ClauseSet([Clause([Literal(a)]) for a in atoms]),
                          ordering=config)
        expected = sorted(set(atoms), key=cmp_to_key(lambda s, t: _ref_lpo(s, t, config)))
        assert ProblemOrder(problem).atoms_ascending == tuple(expected)


def test_lpo_ranks_atoms_at_the_depth_bound_quickly():
    # the two atoms differ only at the bottom of MAX_TERM_DEPTH levels; the
    # unmemoised recursion doubles its time with each level
    atoms = ["P(" + "f(" * (MAX_TERM_DEPTH - 1) + c + ")" * MAX_TERM_DEPTH for c in "ab"]
    text = (f"order: lpo\nprec: a < b < f < P\n"
            f"clause: {atoms[0]} | {atoms[1]}\nclause: -{atoms[1]}\n")
    started = time.monotonic()
    problem = parse_problem(text)
    ranked = ProblemOrder(problem).atoms_ascending
    assert compare_terms(*problem.atom_universe, problem.ordering) != EQUAL
    elapsed = time.monotonic() - started
    assert [a.text for a in ranked] == atoms
    assert elapsed < 1.0, f"ranked in {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Literal order
# ---------------------------------------------------------------------------

LISTED_PQR = OrderingConfig(kind="listed", listed_atoms=(Atom("P"), Atom("Q"), Atom("R")))


def test_negative_literal_sits_above_positive_on_same_atom():
    assert compare_literals(Literal(Atom("P")), Literal(Atom("P"), False), LISTED_PQR) == LESS
    assert compare_literals(Literal(Atom("P"), False), Literal(Atom("P")), LISTED_PQR) == GREATER


def test_atom_order_dominates_sign():
    # -P is still below Q because the atoms decide first
    assert compare_literals(Literal(Atom("P"), False), Literal(Atom("Q")), LISTED_PQR) == LESS


# ---------------------------------------------------------------------------
# Clause order: frozen cases plus the Dershowitz-Manna cross-check
# ---------------------------------------------------------------------------


def dm_greater(c1, c2, config):
    """Direct multiset-extension oracle: c1 > c2 iff the multisets differ and
    every literal c2 holds in excess is beaten by one c1 holds in excess."""
    m1 = Counter(c1.literals)
    m2 = Counter(c2.literals)
    if m1 == m2:
        return False
    excess1 = list((m1 - m2).elements())
    excess2 = list((m2 - m1).elements())
    return all(
        any(compare_literals(m, n, config) == GREATER for m in excess1)
        for n in excess2
    )


@pytest.mark.parametrize(
    "c1,c2,expect",
    [
        (clause("P"), clause("Q"), LESS),
        (clause("-P"), clause("P"), GREATER),
        (clause("Q"), clause("P", "P", "P"), GREATER),
        (clause("P", "Q"), clause("Q"), GREATER),          # strict superset wins
        (clause("-P", "P"), clause("-P"), GREATER),
        (clause(), clause("P"), LESS),
        (clause(), clause(), EQUAL),
        (clause("P", "R"), clause("Q", "Q", "Q"), GREATER),
        (clause("-Q"), clause("Q", "P"), GREATER),
        (clause("P", "Q"), clause("Q", "P"), EQUAL),
    ],
)
def test_clause_comparison_frozen(c1, c2, expect):
    assert compare_clauses(c1, c2, LISTED_PQR) == expect
    assert compare_clauses(c2, c1, LISTED_PQR) == -expect
    if expect == GREATER:
        assert dm_greater(c1, c2, LISTED_PQR)
    elif expect == LESS:
        assert dm_greater(c2, c1, LISTED_PQR)


_lits = st.builds(
    Literal, st.sampled_from([Atom("P"), Atom("Q"), Atom("R")]), st.booleans()
)
_small_clauses = st.lists(_lits, max_size=5).map(Clause)


@given(_small_clauses, _small_clauses)
def test_clause_comparison_matches_dm_oracle(c1, c2):
    got = compare_clauses(c1, c2, LISTED_PQR)
    if Counter(c1.literals) == Counter(c2.literals):
        assert got == EQUAL
    elif dm_greater(c1, c2, LISTED_PQR):
        assert got == GREATER
    else:
        assert dm_greater(c2, c1, LISTED_PQR)
        assert got == LESS


_kbo_terms = st.recursive(
    st.sampled_from([T("a"), T("b")]),
    lambda kids: st.builds(lambda x: T("f", x), kids),
    max_leaves=3,
)
_kbo_atoms = st.builds(lambda x: T("P", x), _kbo_terms) | st.builds(lambda x: T("Q", x), _kbo_terms)
_KBO_DEEP = OrderingConfig(kind="kbo", precedence=("a", "b", "f", "P", "Q"), weights={"Q": 2})
_kbo_clauses = st.lists(st.builds(Literal, _kbo_atoms, st.booleans()), max_size=4).map(Clause)


@given(_kbo_clauses, _kbo_clauses)
def test_clause_comparison_matches_dm_oracle_kbo(c1, c2):
    got = compare_clauses(c1, c2, _KBO_DEEP)
    if Counter(c1.literals) == Counter(c2.literals):
        assert got == EQUAL
    elif dm_greater(c1, c2, _KBO_DEEP):
        assert got == GREATER
    else:
        assert got == LESS


# ---------------------------------------------------------------------------
# Declaration checks: OrderingConfig checks its values, Problem its coverage
# ---------------------------------------------------------------------------


def _problem(clauses, ordering):
    return Problem(clauses=ClauseSet(clauses), ordering=ordering)


def _rejection(exc):
    return exc.value.code, exc.value.directive


def test_validate_accepts_parsed_problems():
    p = parse_problem("order: kbo\nprec: a < P < Q\nclause: P(a) | -Q(a)\n")
    assert ProblemOrder(p).atoms_ascending == (T("P", T("a")), T("Q", T("a")))


def test_validate_flags_missing_precedence_symbol():
    cfg = OrderingConfig(kind="kbo", precedence=("P",))
    with pytest.raises(OrderingError, match=re.escape("omits occurring symbol(s): Q")) as exc:
        _problem([clause("P", "-Q")], cfg)
    assert _rejection(exc) == ("precedence-missing-symbol", "order")


def test_validate_flags_bad_weight():
    with pytest.raises(OrderingError, match="below 1") as exc:
        OrderingConfig(kind="kbo", precedence=("P",), weights={"P": 0})
    assert _rejection(exc) == ("bad-weight", "weights")
    with pytest.raises(OrderingError, match="below 1"):
        OrderingConfig(kind="kbo", precedence=("P",), default_weight=0)


def test_validate_flags_repeated_precedence():
    with pytest.raises(OrderingError, match="repeated") as exc:
        OrderingConfig(kind="kbo", precedence=("P", "P"))
    assert _rejection(exc) == ("syntax", "prec")


def test_config_rejects_a_repeated_listed_atom():
    with pytest.raises(OrderingError, match="repeated atom") as exc:
        OrderingConfig(kind="listed", listed_atoms=(Atom("P"), Atom("Q"), Atom("P")))
    assert _rejection(exc) == ("syntax", "atoms")


@pytest.mark.parametrize("config,code,directive,message", [
    (dict(kind="lpo", precedence=("P",), weights={"P": 2}),
     "weights-non-kbo", "weights", "'weights:' is only meaningful for kbo"),
    (dict(kind="listed", listed_atoms=(Atom("P"),), default_weight=2),
     "weights-non-kbo", "weights", "'weights:' is only meaningful for kbo"),
    (dict(kind="listed", precedence=("P",), listed_atoms=(Atom("P"),)),
     "syntax", "prec", "'prec:' is not used by the listed ordering"),
    (dict(kind="kbo", precedence=("P",), listed_atoms=(Atom("P"),)),
     "syntax", "atoms", "'atoms:' is only used by the listed ordering"),
    (dict(kind="lpo", precedence=("P",), listed_atoms=(Atom("P"),)),
     "syntax", "atoms", "'atoms:' is only used by the listed ordering"),
])
def test_config_rejects_the_fields_its_kind_does_not_use(config, code, directive, message):
    # print_problem writes no such field, so accepting one would break the
    # round trip through the text format
    with pytest.raises(OrderingError) as exc:
        _problem([clause("P")], OrderingConfig(**config))
    assert (_rejection(exc), str(exc.value)) == ((code, directive), message)


def test_validate_flags_listed_mismatch():
    with pytest.raises(OrderingError, match=re.escape("omits occurring atom(s): Q")) as exc:
        _problem([clause("P", "Q")], OrderingConfig(kind="listed", listed_atoms=(Atom("P"),)))
    assert _rejection(exc) == ("atoms-missing", "atoms")
    with pytest.raises(OrderingError, match=re.escape("non-occurring atom(s): Q")) as exc:
        _problem([clause("P")],
                 OrderingConfig(kind="listed", listed_atoms=(Atom("P"), Atom("Q"))))
    assert _rejection(exc) == ("atoms-unknown", "atoms")


def test_validate_flags_unknown_kind():
    with pytest.raises(OrderingError) as exc:
        OrderingConfig(kind="rpo")
    assert str(exc.value) == "unknown ordering kind 'rpo'"
    assert _rejection(exc) == ("unknown-order-kind", "order")
    assert isinstance(exc.value, ValueError)


def test_weights_are_read_only_once_ranked():
    path = os.path.join(os.path.dirname(__file__), "data", "factoring_chain.prob")
    with open(path, encoding="utf-8") as fh:
        p = parse_problem(fh.read())
    before = ProblemOrder(p).atoms_ascending
    with pytest.raises(TypeError):
        p.ordering.weights["P"] = 5
    assert dict(p.ordering.weights) == {}
    assert ProblemOrder(p).atoms_ascending == before == (T("P", T("a")), T("Q", T("b")))


# ---------------------------------------------------------------------------
# ProblemOrder rank tables
# ---------------------------------------------------------------------------

KBO_PROBLEM = """\
order: kbo
prec: a < b < P < Q
clause: P(a) | P(a)
clause: -P(a) | Q(b)
clause: -Q(b)
"""


def _kbo_order():
    return ProblemOrder(parse_problem(KBO_PROBLEM))


def test_rank_table_ascends_with_the_declared_order():
    po = _kbo_order()
    pa, qb = T("P", T("a")), T("Q", T("b"))
    assert po.atoms_ascending == (pa, qb)
    assert po.atom_rank(pa) == 0
    assert po.atom_rank(qb) == 1


def test_bound_atom_tops_the_order():
    """The trail bound lies above every ranked atom and below none."""
    po = _kbo_order()
    for a in po.atoms_ascending:
        assert po.below_beta(a)
    assert not po.below_beta(T("Q", T("a")))       # unranked


def test_literal_ranks_interleave_signs():
    po = _kbo_order()
    pa, qb = T("P", T("a")), T("Q", T("b"))
    ranks = [
        po.literal_rank(Literal(pa)),
        po.literal_rank(Literal(pa, False)),
        po.literal_rank(Literal(qb)),
        po.literal_rank(Literal(qb, False)),
    ]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == 4


def _golden_and_generated_orders():
    data = os.path.join(os.path.dirname(__file__), "data")
    for name in sorted(os.listdir(data)):
        if name.endswith(".prob"):
            with open(os.path.join(data, name), encoding="utf-8") as fh:
                yield ProblemOrder(parse_problem(fh.read()))
    for seed in range(100):
        yield ProblemOrder(random_problem(GenParams(max_arity=seed % 3, seed=seed)))


def test_atoms_below_filters_the_positive_literals_below():
    for po in _golden_and_generated_orders():
        for l in (Literal(a, sign) for a in po.atoms_ascending for sign in (True, False)):
            cut = po.literal_rank(l)
            assert po.atoms_below(l) == tuple(
                a for a in po.atoms_ascending if po.literal_rank(Literal(a)) < cut), l


def test_clause_keys_and_sorting():
    p = parse_problem(KBO_PROBLEM)
    po = ProblemOrder(p)
    c1, c2, c3 = p.clauses.clauses()
    assert po.clause_key(c1) == ((0, 2),)
    assert po.clause_key(c2) == ((2, 1), (1, 1))
    assert po.clause_key(c3) == ((3, 1),)
    assert po.clause_key(EMPTY_CLAUSE) == ()
    assert sorted([c3, c1, c2, EMPTY_CLAUSE], key=po.clause_key) == [EMPTY_CLAUSE, c1, c2, c3]
    assert po.clause_key(EMPTY_CLAUSE) < po.clause_key(c1)
    assert not po.clause_key(c2) < po.clause_key(c2)


def test_max_literal_and_maximality():
    p = parse_problem(KBO_PROBLEM)
    po = ProblemOrder(p)
    c1, c2, _ = p.clauses.clauses()
    pa = Literal(T("P", T("a")))
    qb = Literal(T("Q", T("b")))
    assert po.max_literal(c2) == qb
    assert po.is_strictly_maximal_in(qb, c2)
    assert po.max_literal(c1) == pa
    assert not po.is_strictly_maximal_in(pa, c1)   # two copies
    assert po.max_multiplicity(c1) == 2
    with pytest.raises(ValueError):
        po.max_literal(EMPTY_CLAUSE)


_KBO_DUP_TEXT = """\
order: kbo
prec: a < b < f < P < Q
weights: default=1 Q=2
clause: P(a) | P(b) | P(f(a)) | P(f(b)) | P(f(f(a))) | Q(a) | Q(b) | Q(f(a)) | Q(f(b)) | Q(f(f(a)))
"""
_KBO_DUP_PROBLEM = parse_problem(_KBO_DUP_TEXT)
_KBO_DUP_ORDER = ProblemOrder(_KBO_DUP_PROBLEM)
_kbo_dup_literals = st.builds(
    Literal, st.sampled_from(_KBO_DUP_ORDER.atoms_ascending), st.booleans()
)
# Few distinct literals, many copies: the shape saturation derives.
_kbo_dup_clauses = st.lists(_kbo_dup_literals, min_size=1, max_size=4).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=16)
).map(Clause)


def _scan_max(c, config):
    best = c.literals[0]
    for l in c.literals[1:]:
        if compare_literals(l, best, config) == GREATER:
            best = l
    return best


@given(_kbo_dup_clauses, _kbo_dup_literals)
def test_key_based_max_queries_match_a_scan(c, probe):
    po, cfg = _KBO_DUP_ORDER, _KBO_DUP_PROBLEM.ordering
    top = _scan_max(c, cfg)
    assert po.max_literal(c) == top
    assert po.max_multiplicity(c) == sum(1 for l in c.literals if l == top)
    for l in (probe, top, *c.literals):
        not_below = [x for x in c.literals if compare_literals(x, l, cfg) != LESS]
        assert po.is_strictly_maximal_in(l, c) == (not_below == [l])


def test_key_based_max_queries_reject_foreign_atoms_and_the_empty_clause():
    po = _KBO_DUP_ORDER
    inside = Literal(po.atoms_ascending[0])
    foreign = Literal(T("R", T("a")))
    mixed = Clause([inside, inside, foreign])
    for query in (po.max_literal, po.max_multiplicity):
        with pytest.raises(ValueError):
            query(mixed)
        with pytest.raises(ValueError):
            query(EMPTY_CLAUSE)
    with pytest.raises(ValueError):
        po.is_strictly_maximal_in(foreign, Clause([inside]))
    with pytest.raises(ValueError):
        po.is_strictly_maximal_in(inside, mixed)
    assert not po.is_strictly_maximal_in(inside, EMPTY_CLAUSE)


def test_rank_comparison_agrees_with_structural_comparison():
    p = parse_problem(
        "order: lpo\nprec: a < b < P < Q\n"
        "clause: P(a)\nclause: -P(b) | Q(a)\nclause: -P(a) | Q(a) | Q(a)\n"
        "clause: P(a) | -Q(a)\nclause: -P(a) | -Q(a)\n"
    )
    po = ProblemOrder(p)
    assert po.atoms_ascending == (T("P", T("a")), T("P", T("b")), T("Q", T("a")))
    cs = list(p.clauses)
    for c in cs:
        for d in cs:
            k, l = po.clause_key(c), po.clause_key(d)
            expected = compare_clauses(c, d, p.ordering)
            assert {LESS: k < l, EQUAL: k == l, GREATER: k > l}[expected]


def test_listed_order_uses_the_declared_positions():
    p = parse_problem("order: listed\natoms: Q < P\nclause: P | -Q\n")
    po = ProblemOrder(p)
    assert po.atoms_ascending == (Atom("Q"), Atom("P"))
    assert po.atom_rank(Atom("Q")) < po.atom_rank(Atom("P"))


def test_problem_order_rejects_broken_configs():
    # a broken declaration never reaches ProblemOrder: building the problem fails
    with pytest.raises(ValueError):
        _problem([clause("P", "Q")], OrderingConfig(kind="listed", listed_atoms=(Atom("P"),)))


def test_atom_outside_universe_is_rejected():
    po = _kbo_order()
    with pytest.raises(ValueError):
        po.atom_rank(Atom("R"))
