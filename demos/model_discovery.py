"""Watch a satisfiable problem converge: the trail grows round by round
until neither engine finds anything false, and both report the same model.

One clause gets learned along the way; satisfiable does not mean conflict
free, it means the conflicts run out.
"""

from lockstep.core import parse_problem
from lockstep.harness import brute_force_sat
from lockstep.simulation import lockstep_verify

TEXT = """\
order: lpo
prec: a < b < P < Q
clause: P(a)
clause: -P(a) | Q(a)
clause: P(b) | -Q(a)
"""


def main() -> None:
    problem = parse_problem(TEXT)
    result = lockstep_verify(problem)
    sim = result.sim

    print("input clauses:")
    for c in problem.clauses:
        print(f"  {c}")

    print("\ntrail after each round:")
    for i, (seq, state) in enumerate(zip(sim.seqs, sim.boundary_states[1:])):
        trail = ", ".join(e.render() for e in state.trail) or "(empty)"
        print(f"  round {i} ({seq.kind:>14}): {trail}")

    print(f"\nlearned along the way: "
          f"{', '.join(str(c) for c in sim.state.u) or '(nothing)'}")
    print(f"trail model:      {{{', '.join(sorted(a.text for a in sim.model))}}}")
    print(f"saturation model: {{{', '.join(sorted(a.text for a in result.sup.model))}}}")

    oracle = brute_force_sat(problem.clauses.clauses())
    print(f"oracle model:     {{{', '.join(sorted(a.text for a in oracle))}}}")
    print(f"lockstep verification: {'ok' if result.ok else 'FAILED'}")


if __name__ == "__main__":
    main()
