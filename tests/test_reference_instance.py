"""The hard reference instance, and what the verifier reads of a run.

The reference instance is ``ladder_text(15, 1)`` from
``perfbench/workloads.py``: 15 atoms, unsatisfiable after 1,209 saturation
steps, with conclusions of up to 819 literals. On a sound run the verifier
reads each snapshot only up to its minimal false clause, so it never makes
a construction walk on past it.
"""

import glob
import importlib.util
import os
import time

import pytest

from lockstep import simulation, superposition
from lockstep.core import parse_problem

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")

_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture
def completions(monkeypatch):
    """The index of every snapshot whose construction gets completed."""
    done = []
    finish = superposition.ModelConstruction._finish

    def counted(self):
        if not self._complete:
            done.append(self.index)
        finish(self)

    monkeypatch.setattr(superposition.ModelConstruction, "_finish", counted)
    return done


def test_the_verifier_completes_no_construction_on_sound_runs(completions):
    problems = []
    for path in sorted(glob.glob(os.path.join(DATA, "*.prob"))):
        with open(path) as fh:
            problems.append(parse_problem(fh.read()))
    ladder = workloads.make_instances("ladder", 0)[0]
    ladder.setup()
    problems.append(ladder.problem)
    for problem in problems:
        result = simulation.lockstep_verify(problem)
        assert result.ok, result.failures()
    assert completions == []
    result.sup.snapshots[0].construction.model      # a read past it completes
    assert completions == [0]


def test_the_15_atom_reference_instance_verifies_within_5_seconds():
    text, _ = workloads.ladder_text(15, 1)
    problem = parse_problem(text)
    start = time.perf_counter()
    result = simulation.lockstep_verify(problem)
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures()[:3]
    assert result.sup.outcome == superposition.UNSATISFIABLE
    assert len(result.sup.steps) == 1209
    assert elapsed < 5.0


@pytest.mark.parametrize("atoms,seed,outcome,steps", [
    (18, 1, superposition.SATISFIABLE, 615),
    (20, 3, superposition.SATISFIABLE, 1059),
    (22, 2, superposition.SATISFIABLE, 75),
    (30, 2, superposition.SATISFIABLE, 178),
], ids=["18:1", "20:3", "22:2", "30:2"])
def test_hard_instances_verify_within_5_seconds(atoms, seed, outcome, steps):
    """More hard instances, ``ladder_text(18, 1)``, ``ladder_text(20, 3)``
    and, past the 20-atom oracle, ``ladder_text(22, 2)`` and
    ``ladder_text(30, 2)``: satisfiable, with 1,811, 1,275, 933 and 1,590
    trail rounds, so most of their verification time goes to the round
    boundaries."""
    text, _ = workloads.ladder_text(atoms, seed)
    problem = parse_problem(text)
    start = time.perf_counter()
    result = simulation.lockstep_verify(problem)
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures()[:3]
    assert result.sup.outcome == outcome
    assert len(result.sup.steps) == steps
    assert elapsed < 5.0
