"""Workload inputs, instance runners, correctness checks and work counts.

Every function that touches the program goes through the ``lockstep``
module attributes at call time (``simulation.lockstep_verify`` and so on),
so the tracer in ``spans.py`` sees the benchmark's own calls as well.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from lockstep import core, harness, simulation, superposition

POOL_FILE = Path(__file__).with_name("pool.json")

CAMPAIGN_PARAMS = harness.GenParams(
    preds=("P", "Q", "R", "S"), consts=("a", "b"), max_arity=1,
    clause_count=10, max_len=4,
)
CAMPAIGN_SIZE = 3000
CAMPAIGN_BASE = 10000

# Random fixed-length 3-literal problems at the hard clause/atom ratio of
# random 3-SAT (Mitchell, Selman & Levesque, AAAI 1992).
RATIO = 4.3
CLAUSE_LEN = 3


def ladder_text(atoms: int, gen_seed: int, variant=None) -> tuple:
    """Problem file text and the map from its atom names to canonical ones.

    The generator seed fixes the problem: ``round(RATIO * atoms)`` clauses of
    three distinct atoms with random signs, under a ``listed`` atom order
    shuffled by the same seed. A ``variant`` seed renames the atoms and
    shuffles the clauses and their literals. Every variant is the same
    problem up to names, so it takes the same derivation and the same work.
    """
    rng = random.Random(gen_seed)
    clauses = [
        [(a, rng.random() < 0.5) for a in rng.sample(range(atoms), CLAUSE_LEN)]
        for _ in range(round(RATIO * atoms))
    ]
    order = sorted({a for c in clauses for a, _ in c})
    rng.shuffle(order)
    names = [f"p{i}" for i in range(atoms)]
    if variant is not None:
        v = random.Random(f"{variant}/{atoms}/{gen_seed}")
        v.shuffle(names)
        v.shuffle(clauses)
        for c in clauses:
            v.shuffle(c)
    lines = ["order: listed", "atoms: " + " < ".join(names[a] for a in order)]
    lines += ["clause: " + " | ".join(names[a] if pos else "-" + names[a] for a, pos in c)
              for c in clauses]
    return "\n".join(lines) + "\n", {name: f"p{i}" for i, name in enumerate(names)}


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def fingerprint(run, canonical: dict) -> str:
    """Hash of a saturation step log under canonical atom names: each step's
    kind and its conclusion's literals, sorted."""
    rename = {}
    h = hashlib.sha256()
    for step in run.steps:
        lits = []
        for l in step.conclusion.literals:
            text = rename.get(l.text)
            if text is None:
                text = rename[l.text] = ("" if l.positive else "-") + canonical[l.atom.text]
            lits.append(text)
        lits.sort()
        h.update(f"{step.kind}\t{' | '.join(lits)}\n".encode())
    return h.hexdigest()


def _satisfies(model, clauses) -> bool:
    return all(any((l.atom in model) == l.positive for l in c.literals)
               for c in clauses)


def _oracle(problem) -> str:
    model = harness.brute_force_sat(problem.clauses.clauses())
    return superposition.SATISFIABLE if model is not None else superposition.UNSATISFIABLE


def verify_failures(problem, result, verdict: str) -> list:
    """Failures of one lockstep run against the oracle's verdict."""
    out = list(result.failures())
    for side, run in (("trail", result.sim), ("saturation", result.sup)):
        if run.outcome != verdict:
            out.append(f"{side} verdict {run.outcome}, oracle says {verdict}")
        if run.model is not None and not _satisfies(run.model, problem.clauses):
            out.append(f"{side} model does not satisfy the input")
    return out


class Instance:
    """One benchmark input: ``setup()`` parses it (set-up time), ``run()``
    does the timed work and returns an outcome, ``check(outcome)`` returns
    failure messages, and ``count(counts, outcome)`` adds the work done and
    returns failure messages of its own."""

    label = ""

    def setup(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, outcome) -> list:
        raise NotImplementedError

    def count(self, counts: "WorkCounts", outcome) -> list:
        raise NotImplementedError


class CampaignInstance(Instance):
    def __init__(self, seed: int):
        self.seed = seed
        self.label = f"seed {seed}"

    def run(self):
        return harness.fuzz_campaign(1, base_seed=self.seed, params=CAMPAIGN_PARAMS)

    def check(self, report) -> list:
        if report.total != 1:
            return [f"campaign ran {report.total} instances, not 1"]
        return [m for _, msgs in report.failures for m in msgs]

    def count(self, counts, report) -> list:
        """``fuzz_campaign`` returns only a report, so the counts come from a
        second, untimed lockstep run of the same generated problem, whose
        verdicts and models are checked against the oracle too."""
        problem = harness.random_problem(
            dataclasses.replace(CAMPAIGN_PARAMS, seed=self.seed))
        result = simulation.lockstep_verify(problem)
        counts.add_verify(result)
        return verify_failures(problem, result, _oracle(problem))


class GeneratedInstance(Instance):
    """A pool problem from ``ladder_text``, as the variant the seed names."""

    def __init__(self, entry: dict, variant=None):
        self.atoms, self.seed = entry["atoms"], entry["seed"]
        self.label = f"{self.atoms} atoms seed {self.seed}"
        self.text, self.canonical = ladder_text(self.atoms, self.seed, variant)
        self.problem = None

    def setup(self) -> None:
        self.problem = core.parse_problem(self.text)


class LadderInstance(GeneratedInstance):
    def run(self):
        result = simulation.lockstep_verify(self.problem)
        return result, _oracle(self.problem)

    def check(self, outcome) -> list:
        result, verdict = outcome
        return verify_failures(self.problem, result, verdict)

    def count(self, counts, outcome) -> list:
        counts.add_verify(outcome[0])
        return []


class SaturateInstance(GeneratedInstance):
    def __init__(self, entry: dict, budget: int, variant=None):
        super().__init__(entry, variant)
        self.fingerprint = entry.get("fingerprint")
        self.budget = budget

    def run(self):
        run = superposition.run_sup_mo(self.problem, max_steps=self.budget)
        if run.outcome == superposition.CAP_EXCEEDED:
            return run, fingerprint(run, self.canonical)
        return run, _oracle(self.problem)

    def check(self, outcome) -> list:
        run, evidence = outcome
        if run.outcome == superposition.CAP_EXCEEDED:
            if len(run.steps) != self.budget:
                return [f"stopped after {len(run.steps)} of {self.budget} steps"]
            if evidence != self.fingerprint:
                return ["step log differs from the recorded fingerprint"]
            return []
        if run.outcome != evidence:
            return [f"saturation verdict {run.outcome}, oracle says {evidence}"]
        if run.model is not None and not _satisfies(run.model, self.problem.clauses):
            return ["saturation model does not satisfy the input"]
        return []

    def count(self, counts, outcome) -> list:
        counts.add_sup(outcome[0])
        return []


def make_instances(workload: str, seed: int) -> list:
    """The instances of one workload for one seed, not yet set up.

    ``campaign`` takes CAMPAIGN_SIZE consecutive generator seeds starting
    at ``CAMPAIGN_BASE + CAMPAIGN_SIZE * seed``. ``ladder`` and ``saturate``
    take every problem of their pool, each as the variant named by the seed.
    """
    if workload == "campaign":
        base = CAMPAIGN_BASE + CAMPAIGN_SIZE * seed
        return [CampaignInstance(base + i) for i in range(CAMPAIGN_SIZE)]
    pool = load_pool()[workload]
    if workload == "ladder":
        return [LadderInstance(e, seed) for e in pool["instances"]]
    return [SaturateInstance(e, pool["budget"], seed) for e in pool["instances"]]


# ---------------------------------------------------------------------------
# Work counts, read from the returned objects
# ---------------------------------------------------------------------------

RULES = ("decide", "propagate", "conflict", "skip", "factorize", "resolve", "backtrack")


class WorkCounts:
    """Exact counts of the work one pass did; equal inputs give equal counts."""

    def __init__(self):
        self.c = Counter()
        self.clause_len = 0
        self.clause_distinct = 0

    def add_sup(self, run) -> None:
        c = self.c
        for step in run.steps:
            c["superposition.steps." + step.kind] += 1
            lits = step.conclusion.literals
            distinct = len(set(lits))
            c["literals"] += len(lits)
            c["distinct"] += distinct
            self.clause_len = max(self.clause_len, len(lits))
            self.clause_distinct = max(self.clause_distinct, distinct)
        for snap in run.snapshots:
            entries = snap.construction.entries
            c["superposition.snapshot_entries"] += len(entries)
            c["superposition.snapshot_prefix_atoms"] += sum(len(e.prefix) for e in entries)

    def add_verify(self, result) -> None:
        self.add_sup(result.sup)
        sim = result.sim
        self.c["simulation.rounds"] += len(sim.seqs)
        self.c["simulation.boundaries"] += len(result.boundaries)
        for app in sim.apps:
            self.c["scl.rule." + app.rule] += 1

    def metrics(self) -> dict:
        c = self.c
        out = {
            "superposition.steps.factoring": c["superposition.steps.factoring"],
            "superposition.steps.superposition_left":
                c["superposition.steps.superposition_left"],
            "superposition.clause_len.max": self.clause_len,
            "superposition.clause_distinct.max": self.clause_distinct,
            "superposition.distinct_share":
                c["distinct"] / c["literals"] if c["literals"] else 1.0,
            "superposition.snapshot_entries": c["superposition.snapshot_entries"],
            "superposition.snapshot_prefix_atoms":
                c["superposition.snapshot_prefix_atoms"],
            "simulation.rounds": c["simulation.rounds"],
            "simulation.boundaries": c["simulation.boundaries"],
        }
        for rule in RULES:
            out["scl.rule." + rule] = c["scl.rule." + rule]
        return out
