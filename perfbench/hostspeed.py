"""Host speed probe: a fixed computation timed between chunks of a workload.

The benchmark runs on a shared host whose speed drifts: the same pass of
identical work has taken from 3.5 s to 8 s, in slow and fast phases that last
from seconds to minutes. Process CPU time drifts with wall time, so the
process is not waiting; it runs slower. A 40-second run cannot average that
out. So the run times this probe every PROBE_EVERY_S of workload time, and
the end-to-end timings are given at nominal speed: each instance time is
scaled by REFERENCE_S over the probe's local median time.

The probe is a small DPLL search over a fixed random 3-SAT formula, plain
Python of the same kind as the program (tuples, dicts, recursion) that does
not touch ``lockstep``: a change to the program moves the instance times and
leaves the probe as it was. It runs with the cyclic collector off, so that a
collection of the program's objects is never charged to the probe.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Probe seconds at the nominal speed: about its median on the 2-vCPU host
# the benchmark was written on. A constant, so that a figure reads in the
# same units whatever host it ran on.
REFERENCE_S = 0.0045
# Workload seconds between probes, and how many probes on each side of a
# chunk its speed is taken over (about a second either way).
PROBE_EVERY_S = 0.25
SPAN = 4

_rng = random.Random(3)
FORMULA = tuple(
    tuple((a + 1) * (1 if _rng.random() < 0.5 else -1) for a in _rng.sample(range(12), 3))
    for _ in range(52)
)
SOLVES = 2


def _dpll(clauses, assign: dict):
    while True:
        unit, rest = None, []
        for c in clauses:
            if any(assign.get(abs(l)) == (l > 0) for l in c):
                continue
            free = [l for l in c if abs(l) not in assign]
            if not free:
                return None
            if len(free) == 1 and unit is None:
                unit = free[0]
            rest.append(c)
        if not rest:
            return assign
        if unit is None:
            break
        assign = {**assign, abs(unit): unit > 0}
        clauses = rest
    atom = next(abs(l) for l in rest[0] if abs(l) not in assign)
    for value in (True, False):
        model = _dpll(rest, {**assign, atom: value})
        if model is not None:
            return model
    return None


def probe() -> float:
    """Seconds the fixed search takes now. One untimed solve first brings
    its code and data back into the caches, so that what the workload left
    there does not weigh on the timed ones."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _dpll(FORMULA, {})
        start = time.perf_counter()
        for _ in range(SOLVES):
            _dpll(FORMULA, {})
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scales(probes: list) -> list:
    """Factor to nominal speed for each chunk between consecutive probes:
    REFERENCE_S over the median of the probes within SPAN of the chunk."""
    return [REFERENCE_S / statistics.median(probes[max(0, j + 1 - SPAN): j + 1 + SPAN])
            for j in range(len(probes) - 1)]
