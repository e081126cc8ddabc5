"""The fields the benchmark reads stay readable.

``perfbench/workloads.py`` counts and checks the work of a run through the
objects the program returns: ``steps``, ``snapshots[*].construction
.entries[*].prefix``, ``model``, ``seqs``, ``apps`` and ``boundaries``. It is
imported here unchanged, and its counting, fingerprinting and checks run on
the golden problems and on one instance of each workload, so a renamed or
dropped field fails this suite and not only a benchmark run. The expected
counts and fingerprints are those of the current derivations.
"""

import glob
import importlib.util
import os

import pytest

from lockstep import simulation
from lockstep.core import parse_problem

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")

_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN_COUNTS = {
    "superposition.steps.factoring": 2,
    "superposition.steps.superposition_left": 9,
    "superposition.clause_len.max": 2,
    "superposition.clause_distinct.max": 2,
    "superposition.distinct_share": 11 / 12,
    "superposition.snapshot_entries": 82,
    "superposition.snapshot_prefix_atoms": 98,
    "simulation.rounds": 20,
    "simulation.boundaries": 24,
    "scl.rule.decide": 9,
    "scl.rule.propagate": 8,
    "scl.rule.conflict": 8,
    "scl.rule.skip": 9,
    "scl.rule.factorize": 0,
    "scl.rule.resolve": 9,
    "scl.rule.backtrack": 5,
}

GOLDEN_FINGERPRINTS = {
    "double_conflict.prob":
        "5860716c10d5ca282bf008cbda3bca0feaf04dfedbbd7183db84f08fae692715",
    "factoring_chain.prob":
        "298f0ecdca9a82ae50ae27faa7ea3d21e8ee6f67d20154bf2f49bccae5ebbda8",
    "repropagation.prob":
        "88f6570545ccf9a3dcb548504118bff3b87a287af0be7418f2ac2917b4214258",
    "satisfiable.prob":
        "f8dfec680c6040d48a39676ee77b0a9e0a569057630e571a18bea15537fa9d11",
}


def test_work_counts_and_fingerprints_of_the_golden_runs():
    counts = workloads.WorkCounts()
    prints = {}
    for path in sorted(glob.glob(os.path.join(DATA, "*.prob"))):
        with open(path) as fh:
            problem = parse_problem(fh.read())
        result = simulation.lockstep_verify(problem)
        counts.add_verify(result)
        verdict = workloads._oracle(problem)
        assert workloads.verify_failures(problem, result, verdict) == [], path
        canonical = {a.text: a.text for a in problem.atom_universe}
        prints[os.path.basename(path)] = workloads.fingerprint(result.sup, canonical)
    assert counts.metrics() == GOLDEN_COUNTS
    assert prints == GOLDEN_FINGERPRINTS


@pytest.mark.parametrize("workload", ["campaign", "ladder", "saturate"])
def test_one_instance_of_each_workload_runs_checks_and_counts(workload):
    inst = workloads.make_instances(workload, 0)[0]
    inst.setup()
    outcome = inst.run()
    assert inst.check(outcome) == []
    counts = workloads.WorkCounts()
    assert inst.count(counts, outcome) == []
    assert counts.metrics()["superposition.snapshot_entries"] > 0
