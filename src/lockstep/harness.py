"""Independent oracles, a problem generator, and the fuzz campaign.

The brute-force routines here never look at the calculi; they enumerate
assignments directly, so they can arbitrate when the two engines are
suspected of agreeing on a wrong answer. The enumeration is bit-parallel
over the lowest INNER_ATOMS atoms, whose every assignment is one bit of a
clause's truth-table integer, and counts the remaining atoms up one
assignment at a time; it returns the same first model, in bitmask
counting order, as a loop over every mask would.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .core import (
    Atom,
    Clause,
    ClauseSet,
    GroundTerm,
    IDENT_CHARS,
    IDENT_START,
    Literal,
    OrderingConfig,
    Problem,
    atoms_of,
    eval_herbrand,
    print_problem,
)
from .ordering import ProblemOrder
from .simulation import MAX_ROUNDS, lockstep_verify
from .superposition import SATISFIABLE, UNSATISFIABLE

MAX_ORACLE_ATOMS = 20
# Atoms per bit-parallel block of the oracle: a clause's truth table over
# them is a 4,096-bit integer (512 bytes), so the 20-atom cap leaves 256
# outer assignments to count in Python. A larger block makes every AND
# longer and tests more inner assignments before an early exit can stop
# it; a smaller one moves the loop back into Python.
INNER_ATOMS = 12


def _universe(clauses: Iterable[Clause]) -> List[Atom]:
    return sorted(atoms_of(clauses), key=lambda a: a.text)


def _columns(width: int) -> List[int]:
    """Truth-table columns over the lowest ``width`` atoms: a
    ``2**width``-bit integer per atom ``i`` whose bit ``m`` is bit ``i`` of
    ``m``. Each is one period of its pattern doubled until it fills the
    table."""
    size = 1 << width
    columns = []
    for i in range(width):
        run = 1 << i
        pattern, period = ((1 << run) - 1) << run, run << 1
        while period < size:
            pattern |= pattern << period
            period <<= 1
        columns.append(pattern)
    return columns


def brute_force_sat(clauses: Iterable[Clause]) -> Optional[frozenset]:
    """First satisfying model in bitmask counting order, None if there is
    none. Atoms are bit-indexed in text order, so smaller assignments (fewer
    and textually earlier true atoms) are tried first.

    The lowest INNER_ATOMS atoms are enumerated bit-parallel: each clause
    becomes one truth-table integer over them, the OR of its inner
    literals' columns, so one AND tests every inner assignment at once. The
    outer atoms are counted up one assignment at a time; under each, the
    clauses it does not already satisfy are ANDed until nothing is left,
    and the lowest surviving bit completes the first model in the same
    counting order as a plain loop over every mask.
    """
    clauses = list(clauses)
    atoms = _universe(clauses)
    if len(atoms) > MAX_ORACLE_ATOMS:
        raise ValueError(
            f"{len(atoms)} atoms exceed the brute-force cap of {MAX_ORACLE_ATOMS}"
        )
    index = {a: i for i, a in enumerate(atoms)}
    inner = min(len(atoms), INNER_ATOMS)
    columns = _columns(inner)
    table = (1 << (1 << inner)) - 1   # every inner assignment
    always = table                    # AND of the clauses without outer atoms
    sig = []                          # per other clause: outer pos and neg bits, table
    for c in clauses:
        pos = neg = vec = 0
        for l in c.distinct:
            i = index[l.atom]
            if i < inner:
                vec |= columns[i] if l.positive else table ^ columns[i]
            elif l.positive:
                pos |= 1 << (i - inner)
            else:
                neg |= 1 << (i - inner)
        if pos or neg:
            sig.append((pos, neg, vec))
        else:
            always &= vec
    if not always:
        return None
    for high in range(1 << (len(atoms) - inner)):
        live = always
        for pos, neg, vec in sig:
            if not (high & pos or neg & ~high):
                live &= vec
                if not live:
                    break
        else:
            mask = (live & -live).bit_length() - 1 | high << inner
            return frozenset(a for a in atoms if mask >> index[a] & 1)
    return None


def entails(premises: Iterable[Clause], conclusion: Clause) -> bool:
    """True when every total assignment satisfying the premises satisfies
    the conclusion as well: the premises plus the unit complement of each
    distinct conclusion literal have no model. An empty conclusion is
    entailed only by unsatisfiable premises; a tautology by any. Raises
    ValueError past MAX_ORACLE_ATOMS atoms, conclusion atoms included."""
    negated = [Clause([l.complement()]) for l in conclusion.distinct]
    return brute_force_sat(list(premises) + negated) is None


def is_redundant(clauses: Iterable[Clause], clause: Clause,
                 order: ProblemOrder) -> bool:
    """Whether the strictly smaller clauses of the set already entail the
    clause. Conclusions of either engine must never be redundant with
    respect to the clauses present when they were derived."""
    key = order.clause_key
    smaller = [d for d in clauses if key(d) < key(clause)]
    return entails(smaller, clause)


# ---------------------------------------------------------------------------
# Problem generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random problem generator. One seed, one problem."""

    preds: Tuple[str, ...] = ("P", "Q", "R")
    consts: Tuple[str, ...] = ("a", "b")
    max_arity: int = 1
    clause_count: int = 6
    max_len: int = 4
    seed: int = 0
    allow_tautologies: bool = False


def _check_params(params: GenParams) -> None:
    """Raise ValueError, naming the field, on parameters that cannot give a
    well-formed problem."""
    for name, least in (("clause_count", 1), ("max_len", 1), ("max_arity", 0)):
        if getattr(params, name) < least:
            raise ValueError(f"{name} must be at least {least}, not {getattr(params, name)}")
    for name in ("preds", "consts"):
        names = getattr(params, name)
        for n in names:
            if not n or n[0] not in IDENT_START or any(c not in IDENT_CHARS for c in n):
                raise ValueError(f"{name}: {n!r} is not an identifier")
        if len(set(names)) != len(names):
            raise ValueError(f"{name} repeats a name")
    if not params.preds:
        raise ValueError("preds must name at least one predicate")
    if not params.consts and params.max_arity > 0:
        raise ValueError("consts must name at least one constant when max_arity is above 0")
    shared = sorted(set(params.preds) & set(params.consts))
    if shared:
        raise ValueError(f"preds and consts both name {', '.join(shared)}")


def random_problem(params: GenParams) -> Problem:
    """Deterministically generate a ground problem from the seed.

    Clauses are multisets over a small constant-only atom pool; duplicate
    literals are allowed on purpose since they are what exercises factoring.
    The ordering declaration is drawn from all three kinds. Parameters that
    cannot give a well-formed problem raise ValueError: a clause count or
    maximum length below 1, a negative maximum arity, a name that is not an
    identifier, a repeated name, or a name both predicate and constant.
    """
    _check_params(params)
    rng = random.Random(params.seed)

    arities = [rng.randint(0, params.max_arity) for _ in params.preds]
    size = sum(len(params.consts) ** arity for arity in arities)
    if size > MAX_ORACLE_ATOMS:
        raise ValueError(f"atom pool of {size} is past the oracle cap")
    pool = [Atom(pred, tuple(GroundTerm(c) for c in combo))
            for pred, arity in zip(params.preds, arities)
            for combo in itertools.product(params.consts, repeat=arity)]

    clauses: List[Clause] = []
    for _ in range(rng.randint(1, params.clause_count)):
        length = rng.randint(1, params.max_len)
        lits: List[Literal] = []
        for _ in range(length):
            while True:
                lit = Literal(rng.choice(pool), rng.random() < 0.5)
                if params.allow_tautologies or lit.complement() not in lits:
                    break
            lits.append(lit)
        clauses.append(Clause(lits))
    clause_set = ClauseSet(clauses)

    kind = rng.choice(OrderingConfig.ORDER_KINDS)
    if kind == "listed":
        occurring = _universe(clause_set)
        rng.shuffle(occurring)
        cfg = OrderingConfig(kind="listed", listed_atoms=tuple(occurring))
    else:
        symbols = sorted({name for a in atoms_of(clause_set) for name, _ in a.symbols()})
        rng.shuffle(symbols)
        cfg = OrderingConfig(kind=kind, precedence=tuple(symbols))

    return Problem(clauses=clause_set, ordering=cfg)


def pigeonhole(n: int, kind: str) -> Problem:
    """PHP(n+1, n): n + 1 pigeons in n holes, unsatisfiable by counting,
    whose resolution refutations grow exponentially with n (Haken, "The
    Intractability of Resolution", TCS 1985).

    Atom ``In(p,h)`` says that pigeon ``p`` sits in hole ``h``; pigeons are
    ``p1``..``p(n+1)`` and holes ``h1``..``hn``, n(n+1) atoms in all. One
    clause per pigeon puts it in some hole, and one clause per hole and
    pair of pigeons keeps the two from sharing it. ``kind`` is 'kbo' or
    'lpo', under the precedence ``h1 < .. < hn < p1 < .. < p(n+1) < In``;
    both compare two atoms by their arguments left to right, so both rank
    the atoms by pigeon, then hole. An ``n`` below 1 or another kind raises
    ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    if kind not in ("kbo", "lpo"):
        raise ValueError(f"kind must be 'kbo' or 'lpo', not {kind!r}")
    pigeons = [GroundTerm(f"p{i}") for i in range(1, n + 2)]
    holes = [GroundTerm(f"h{j}") for j in range(1, n + 1)]

    def sits(p: GroundTerm, h: GroundTerm, positive: bool = True) -> Literal:
        return Literal(Atom("In", (p, h)), positive)

    clauses = [Clause([sits(p, h) for h in holes]) for p in pigeons]
    clauses += [Clause([sits(p, h, False), sits(q, h, False)])
                for h in holes for p, q in itertools.combinations(pigeons, 2)]
    precedence = tuple(t.name for t in holes + pigeons) + ("In",)
    return Problem(clauses=ClauseSet(clauses),
                   ordering=OrderingConfig(kind=kind, precedence=precedence))


# ---------------------------------------------------------------------------
# Trace emission and fuzzing
# ---------------------------------------------------------------------------


def emit_trace(problem: Problem, max_sequences: int = MAX_ROUNDS) -> dict:
    """Run the lockstep verifier and serialize everything that happened as
    one JSON-ready dictionary."""
    result = lockstep_verify(problem, max_sequences=max_sequences)
    sup, sim = result.sup, result.sim

    def s(x) -> Optional[str]:
        return None if x is None else str(x)

    sup_events = [
        {
            "kind": step.kind,
            "main": str(step.main),
            "side": s(step.side),
            "pivot": s(step.pivot),
            "conclusion": str(step.conclusion),
        }
        for step in sup.steps
    ]
    scl_events = [
        {"rule": app.rule, "literal": s(app.literal), "clause": s(app.clause)}
        for app in sim.apps
    ]
    rounds = [
        {
            "kind": seq.kind,
            "attention": s(seq.attention),
            "pair_index": seq.annotation.index,
            "apps": list(seq.app_range),
        }
        for seq in sim.seqs
    ]
    verify_events = [
        {
            "event": "boundary",
            "boundary": b.boundary,
            "pair_index": b.index,
            "ok": b.ok,
            "failures": [f"{r.name}: {r.detail}" for r in b.reports if not r.ok],
        }
        for b in result.boundaries
    ]
    verify_events.append({
        "event": "progress",
        "ok": not result.progress_failures,
        "failures": list(result.progress_failures),
    })
    verify_events.append({
        "event": "regularity",
        "ok": not result.regularity_failures,
        "failures": list(result.regularity_failures),
    })
    verify_events.append({
        "event": "final",
        "ok": not result.final_failures,
        "failures": list(result.final_failures),
    })

    return {
        "problem": print_problem(problem),
        "ordering": {
            "kind": problem.ordering.kind,
            "atoms_ascending": [a.text for a in result.order.atoms_ascending],
        },
        "outcome": sim.outcome,
        "agreed": sup.outcome == sim.outcome,
        "model": sorted(a.text for a in sim.model) if sim.model is not None else None,
        "learned": [str(c) for c in sim.learned],
        "rounds": rounds,
        "sup_events": sup_events,
        "scl_events": scl_events,
        "verify_events": verify_events,
        "ok": result.ok,
        "failures": result.failures(),
    }


@dataclass
class FuzzReport:
    total: int
    failures: List[Tuple[int, List[str]]]

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_campaign(count: int, base_seed: int = 0,
                  params: Optional[GenParams] = None,
                  max_sequences: int = MAX_ROUNDS) -> FuzzReport:
    """Generate ``count`` problems, verify each in lockstep, and arbitrate
    every verdict against the brute-force oracle. A negative count or round
    cap, or bad generator parameters, raise ValueError before any instance
    runs."""
    for name, value in (("count", count), ("max_sequences", max_sequences)):
        if value < 0:
            raise ValueError(f"{name} must be at least 0, not {value}")
    params = params or GenParams()
    _check_params(params)
    failures: List[Tuple[int, List[str]]] = []
    for i in range(count):
        seed = base_seed + i
        problem = random_problem(dataclasses.replace(params, seed=seed))
        msgs: List[str] = []
        try:
            result = lockstep_verify(problem, max_sequences=max_sequences)
        except Exception as e:   # a crash is a finding, not an abort
            failures.append((seed, [f"crash: {e!r}"]))
            continue
        msgs.extend(result.failures())
        oracle_model = brute_force_sat(problem.clauses.clauses())
        verdict = SATISFIABLE if oracle_model is not None else UNSATISFIABLE
        if result.sim.outcome != verdict:
            msgs.append(f"trail verdict {result.sim.outcome}, oracle says {verdict}")
        if result.sup.outcome != verdict:
            msgs.append(f"saturation verdict {result.sup.outcome}, oracle says {verdict}")
        model = result.sim.model
        if model is not None:
            for c in problem.clauses:
                if not eval_herbrand(model, c):
                    msgs.append(f"claimed model does not satisfy {c}")
        if msgs:
            failures.append((seed, msgs))
    return FuzzReport(count, failures)
