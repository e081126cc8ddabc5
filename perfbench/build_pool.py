#!/usr/bin/env python3
"""Build ``perfbench/pool.json``, the problem pools of ``ladder`` and ``saturate``.

    python3 perfbench/build_pool.py

Runs every candidate generator seed once under canonical atom names, with
the step budget, and records its outcome and step count. ``ladder`` keeps
the seeds whose saturation reaches a verdict within the budget and lists
the others as excluded. ``saturate`` keeps every seed and records, for each
run that stops at the budget, the fingerprint of its step log, which every
later run must reproduce. The pool is data of record: rebuild it only
together with a new baseline, never to make a run pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from lockstep import core, superposition  # noqa: E402

BUDGET = 150
LADDER_SEEDS = {10: range(1, 31), 12: range(1, 17)}
SATURATE_SEEDS = {12: range(1, 31)}


def saturate_canonical(atoms: int, seed: int):
    text, canonical = workloads.ladder_text(atoms, seed)
    return superposition.run_sup_mo(core.parse_problem(text), max_steps=BUDGET), canonical


def ladder() -> dict:
    kept, excluded = [], []
    for atoms, seeds in LADDER_SEEDS.items():
        for seed in seeds:
            run, _ = saturate_canonical(atoms, seed)
            entry = {"atoms": atoms, "seed": seed}
            if run.outcome == superposition.CAP_EXCEEDED:
                excluded.append(entry)
            else:
                kept.append({**entry, "outcome": run.outcome, "steps": len(run.steps)})
    return {
        "selection": f"generator seeds whose run_sup_mo reaches a verdict "
                     f"within {BUDGET} steps, the saturate budget",
        "seeds": {str(a): [s.start, s.stop - 1] for a, s in LADDER_SEEDS.items()},
        "excluded": excluded,
        "instances": kept,
    }


def saturate() -> dict:
    kept = []
    for atoms, seeds in SATURATE_SEEDS.items():
        for seed in seeds:
            run, canonical = saturate_canonical(atoms, seed)
            entry = {"atoms": atoms, "seed": seed, "outcome": run.outcome,
                     "steps": len(run.steps)}
            if run.outcome == superposition.CAP_EXCEEDED:
                entry["fingerprint"] = workloads.fingerprint(run, canonical)
            kept.append(entry)
    return {
        "selection": "every generator seed in the range",
        "seeds": {str(a): [s.start, s.stop - 1] for a, s in SATURATE_SEEDS.items()},
        "budget": BUDGET,
        "instances": kept,
    }


def main() -> None:
    pool = {
        "generator": {
            "clause_len": workloads.CLAUSE_LEN,
            "ratio": workloads.RATIO,
            "order": "listed, atoms shuffled by the generator seed",
        },
        "ladder": ladder(),
        "saturate": saturate(),
    }
    workloads.POOL_FILE.write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
