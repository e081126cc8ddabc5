"""Command line front end.

Subcommands: sup and scl run one engine each, simulate runs both in
lockstep with the verifier, oracle brute-forces the verdict, check
validates a problem file, gen prints a random problem, fuzz runs a whole
verification campaign.

Exit codes: 0 satisfiable (or success), 1 unsatisfiable and nothing else,
2 for everything else: an unreadable or non-UTF-8 file, a parse error, a
bad flag, an engine defect, a reached cap, running out of memory and a
strict-mode verification failure. Commands raise; ``main`` alone turns an
error into one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import harness
from .core import ParseError, Problem, parse_problem, print_problem
from .harness import (
    GenParams,
    brute_force_sat,
    emit_trace,
    fuzz_campaign,
    random_problem,
)
from .ordering import ProblemOrder
from .scl import RuleError
from .simulation import MAX_ROUNDS, SimulationError, run_scl_sup
from .superposition import MAX_STEPS, SATISFIABLE, UNSATISFIABLE, run_sup_mo


def _load(path: str) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _verdict_exit(outcome: str) -> int:
    if outcome == SATISFIABLE:
        return 0
    if outcome == UNSATISFIABLE:
        return 1
    return 2


def _print_model(texts) -> None:
    print("model: {" + ", ".join(sorted(texts)) + "}")


def _check_caps(args) -> None:
    """Step and round caps below 0 are usage errors, not engine verdicts."""
    for name in ("max_steps", "max_rounds"):
        value = getattr(args, name, 0)
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 0, not {value}")


def _cmd_sup(args) -> int:
    problem = _load(args.file)
    run = run_sup_mo(problem, max_steps=args.max_steps)
    for c in run.snapshots[0].clauses:
        print(f"input: {c}")
    for n, step in enumerate(run.steps, 1):
        if step.side is not None:
            print(f"step {n}: {step.kind}: {step.main} with {step.side} "
                  f"on {step.pivot} => {step.conclusion}")
        else:
            print(f"step {n}: {step.kind}: {step.main} => {step.conclusion}")
    print(f"verdict: {run.outcome}")
    if run.model is not None:
        _print_model(a.text for a in run.model)
    if run.outcome not in (SATISFIABLE, UNSATISFIABLE):
        print("error: step cap exceeded", file=sys.stderr)
    return _verdict_exit(run.outcome)


def _cmd_scl(args) -> int:
    problem = _load(args.file)
    run = run_scl_sup(problem, max_sequences=args.max_rounds)
    for app in run.apps:
        print(app.render())
    for c in run.state.u:
        print(f"learned: {c}")
    print(f"verdict: {run.outcome}")
    if run.model is not None:
        _print_model(a.text for a in run.model)
    if run.outcome not in (SATISFIABLE, UNSATISFIABLE):
        print("error: round cap exceeded", file=sys.stderr)
    return _verdict_exit(run.outcome)


def _cmd_simulate(args) -> int:
    problem = _load(args.file)
    if args.json:
        trace = emit_trace(problem, max_sequences=args.max_rounds)
        print(json.dumps(trace, indent=2))
        ok, outcome = trace["ok"], trace["outcome"]
    else:
        # the text report reads the verifier's result and serializes no event
        result = harness.lockstep_verify(problem, max_sequences=args.max_rounds)
        sim, ok, outcome = result.sim, result.ok, result.sim.outcome
        for i, seq in enumerate(sim.seqs):
            attention = f" attention={seq.attention}" if seq.attention is not None else ""
            print(f"round {i}: {seq.kind}{attention} pair_index={seq.annotation.index}")
        if ok:
            print(f"verification: ok ({len(result.boundaries)} boundaries checked)")
        else:
            print("verification: FAILED")
            for line in result.failures():
                print(f"  {line}", file=sys.stderr)
        print(f"verdict: {outcome}")
        if sim.model is not None:
            _print_model(a.text for a in sim.model)
    if args.strict and not ok:
        return 2
    return _verdict_exit(outcome)


def _cmd_oracle(args) -> int:
    problem = _load(args.file)
    model = brute_force_sat(problem.clauses.clauses())
    if model is None:
        print("verdict: unsatisfiable")
        return 1
    print("verdict: satisfiable")
    _print_model(a.text for a in model)
    return 0


def _cmd_check(args) -> int:
    problem = _load(args.file)
    ProblemOrder(problem)
    print(f"ok: {len(problem.clauses)} clauses, "
          f"{len(problem.atom_universe)} atoms, {problem.ordering.kind} order")
    return 0


def _gen_params(args) -> GenParams:
    # an empty list names nothing; the generator rejects what it cannot use
    return GenParams(
        preds=tuple(args.preds.split(",")) if args.preds else (),
        consts=tuple(args.consts.split(",")) if args.consts else (),
        max_arity=args.max_arity,
        clause_count=args.clauses,
        max_len=args.max_len,
        seed=args.seed,
        allow_tautologies=args.allow_tautologies,
    )


def _cmd_gen(args) -> int:
    text = print_problem(random_problem(_gen_params(args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_fuzz(args) -> int:
    report = fuzz_campaign(args.count, base_seed=args.seed,
                           params=_gen_params(args),
                           max_sequences=args.max_rounds)
    if args.json:
        print(json.dumps({
            "total": report.total,
            "ok": report.ok,
            "failures": [[seed, msgs] for seed, msgs in report.failures],
        }, indent=2))
    elif report.ok:
        print(f"{report.total} instances, all agreed and verified")
    else:
        print(f"{report.total} instances, {len(report.failures)} with failures")
        for seed, msgs in report.failures:
            for m in msgs:
                print(f"  seed {seed}: {m}", file=sys.stderr)
    return 0 if report.ok else 2


def _add_gen_flags(sub) -> None:
    sub.add_argument("--preds", default="P,Q,R", help="comma-separated predicate names")
    sub.add_argument("--consts", default="a,b", help="comma-separated constant names")
    sub.add_argument("--max-arity", type=int, default=1)
    sub.add_argument("--clauses", type=int, default=6, help="maximum clause count")
    sub.add_argument("--max-len", type=int, default=4, help="maximum clause length")
    sub.add_argument("--allow-tautologies", action="store_true")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockstep",
        description="Ground reasoning workbench: a saturation engine and a "
                    "trail engine that can be run separately or verified in "
                    "lockstep against each other.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sup", help="run the saturation engine on a problem file")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS)
    p.set_defaults(fn=_cmd_sup)

    p = sub.add_parser("scl", help="run the trail engine on a problem file")
    p.add_argument("file")
    p.add_argument("--max-rounds", type=int, default=MAX_ROUNDS)
    p.set_defaults(fn=_cmd_scl)

    p = sub.add_parser("simulate", help="run both engines in lockstep and verify")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when any verification check fails")
    p.add_argument("--json", action="store_true", help="emit the full trace as JSON")
    p.add_argument("--max-rounds", type=int, default=MAX_ROUNDS)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force the verdict, no calculi involved")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("check", help="validate a problem file and its ordering")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("gen", help="generate a random problem")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")
    _add_gen_flags(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("fuzz", help="generate many problems and verify each")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-rounds", type=int, default=MAX_ROUNDS)
    _add_gen_flags(p)
    p.set_defaults(fn=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_caps(args)
        return args.fn(args)
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuleError, RuntimeError, SimulationError) as e:
        print(f"error: engine defect: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
