"""Walk one unsatisfiable problem through both engines, side by side.

The problem is tiny on purpose: a duplicated positive unit, a clause that
propagates from it, and a unit that contradicts the propagation. It touches
factoring, propagation, conflict resolution, and the final refutation.
"""

from lockstep.core import parse_problem
from lockstep.simulation import lockstep_verify

TEXT = """\
order: kbo
prec: a < b < P < Q
clause: P(a) | P(a)
clause: -P(a) | Q(b)
clause: -Q(b)
"""


def main() -> None:
    problem = parse_problem(TEXT)
    result = lockstep_verify(problem)
    sup, sim = result.sup, result.sim

    print("input clauses:")
    for c in sup.snapshots[0].clauses:
        print(f"  {c}")

    print("\nsaturation side:")
    for n, step in enumerate(sup.steps, 1):
        with_part = f" with {step.side}" if step.side is not None else ""
        print(f"  step {n}: {step.kind}: {step.main}{with_part} => {step.conclusion}")

    print("\ntrail side, one round per line:")
    for i, seq in enumerate(sim.seqs):
        attention = f" on {seq.attention}" if seq.attention is not None else ""
        print(f"  round {i}: {seq.kind}{attention}, now paired with "
              f"saturation step {seq.annotation.index}")
        lo, hi = seq.app_range
        for app in sim.apps[lo:hi]:
            print(f"      {app.render()}")

    print(f"\nlearned clauses: {', '.join(str(c) for c in sim.learned)}")
    print(f"verdicts: saturation {sup.outcome}, trail {sim.outcome}")
    print(f"lockstep verification: {'ok' if result.ok else 'FAILED'} "
          f"({len(result.boundaries)} boundaries, "
          f"{sum(len(b.reports) for b in result.boundaries)} invariant checks)")


if __name__ == "__main__":
    main()
