#!/usr/bin/env python3
"""Benchmark of lockstep: three sequential closed-loop workloads.

    python3 perfbench/run.py --workload campaign|ladder|saturate \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all    # each workload in a fresh process

Run from any directory; the program is imported from ``src/`` next to this
directory. One process runs one workload on one thread: the next instance
starts when the previous one has finished and been checked. The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
with timings at nominal host speed (see ``hostspeed.py``); with
``--trace 1`` they are the per-layer ones from a traced pass, plus the
tracing overhead, and every span is written under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("campaign", "ladder", "saturate")
SETUP_REPEATS = 11
MIN_PASSES = 3

# (span name, field, unit) reported by the traced run
TRACED = (
    ("superposition.construct_model", "s", "s"),
    ("superposition.construct_model", "calls", "count"),
    ("superposition.run_sup_mo", "self_s", "s"),
    ("simulation.sfac", "s", "s"),
    ("simulation.sfac", "calls", "count"),
    ("simulation.check_invariants", "self_s", "s"),
    ("simulation.check_invariants", "calls", "count"),
    ("simulation.run_scl_sup", "s", "s"),
    ("simulation.audit_regular", "s", "s"),
    ("simulation.lockstep_verify", "self_s", "s"),
    ("ordering.ProblemOrder", "s", "s"),
    ("harness.random_problem", "s", "s"),
    ("harness.brute_force_sat", "s", "s"),
    ("harness.brute_force_sat", "calls", "count"),
    ("core.parse_problem", "s", "s"),
)
RATIO_COUNTS = {"superposition.distinct_share"}


def run_instance(inst):
    """Run and check one instance; a crash is a failure, not an abort."""
    start = time.perf_counter()
    try:
        outcome = inst.run()
        failures = inst.check(outcome)
    except Exception as e:
        outcome, failures = None, [f"crash: {e!r}"]
    return time.perf_counter() - start, outcome, failures


class Measurement:
    """Timed passes over one workload's instances, with their failures."""

    def __init__(self, instances, counts):
        self.instances = instances
        self.counts = counts
        self.passes: list = []         # per pass: seconds of each instance
        self.chunks: list = []         # per pass: each instance's probe chunk
        self.probes: list = []         # host speed probe seconds, whole run
        self.attempted = 0
        self.failures: list = []

    def one_pass(self) -> float:
        """Run every instance once, with a host speed probe every
        PROBE_EVERY_S of instance time; the first pass also takes the work
        counts, outside the timed part. Returns the pass's timed seconds."""
        first = not self.passes
        times, chunks, since = [], [], 0.0
        if not self.probes:
            self.probes.append(hostspeed.probe())
        for inst in self.instances:
            seconds, outcome, failures = run_instance(inst)
            if first and outcome is not None:
                try:
                    failures += inst.count(self.counts, outcome)
                except Exception as e:
                    failures.append(f"crash while counting: {e!r}")
            del outcome
            times.append(seconds)
            chunks.append(len(self.probes) - 1)
            since += seconds
            if since >= hostspeed.PROBE_EVERY_S:
                self.probes.append(hostspeed.probe())
                since = 0.0
            self.attempted += 1
            if failures:
                self.failures.append((inst.label, failures))
        if since:
            self.probes.append(hostspeed.probe())
        self.passes.append(times)
        self.chunks.append(chunks)
        return sum(times)

    def run(self, seconds: float) -> None:
        """Whole passes until the next one would end past ``seconds``, and
        at least MIN_PASSES."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            self.one_pass()
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - t
            if len(self.passes) >= MIN_PASSES and elapsed + last > seconds:
                return

    def write_times(self, path) -> None:
        """Every instance's time in every pass, for finding slow instances."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            inst.label: [p[i] for p in self.passes]
            for i, inst in enumerate(self.instances)
        }, indent=0) + "\n")

    def end_to_end(self) -> tuple:
        """Throughput, median and tail over every pass of the run, from
        instance times at nominal host speed. The tail is at the highest
        whole percentile with at least ten samples beyond it in MIN_PASSES
        passes, the fewest a run makes, so every run of a workload reports
        the same percentile."""
        n = len(self.instances)
        scale = hostspeed.scales(self.probes)
        samples = sorted(t * scale[c] for p, cs in zip(self.passes, self.chunks)
                         for t, c in zip(p, cs))
        wall = sorted(t for p in self.passes for t in p)
        least = n * MIN_PASSES
        tail = 100 * (least - 10) // least
        return {
            "instances_per_s": (len(samples) / sum(samples), "1/s"),
            "instance_ms.p50": (1000 * harrell_davis(samples, 0.5), "ms"),
            "instance_ms.tail": (1000 * harrell_davis(samples, tail / 100), "ms"),
        }, {
            "instances": n,
            "samples": len(samples),
            "tail_percentile": tail,
            "beyond_tail": round(len(samples) * (100 - tail) / 100, 1),
            "pass_s": " ".join(f"{sum(p):.3f}" for p in self.passes),
            "probes": len(self.probes),
            "probe_ms.median": round(1000 * statistics.median(self.probes), 4),
            "wall.instances_per_s": round(len(wall) / sum(wall), 4),
            "wall.instance_ms.p50": round(1000 * harrell_davis(wall, 0.5), 4),
            "wall.instance_ms.tail": round(1000 * harrell_davis(wall, tail / 100), 4),
        }


def harrell_davis(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples: the mean
    of all of them weighted by a Beta((n+1)p, (n+1)(1-p)) density, taken at
    the midpoint of each sample's rank interval. Instance costs are spread
    thin, so a single order statistic jumps between far-apart neighbours;
    this estimate moves smoothly."""
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workloads, workload: str, seed: int):
    """Generate and parse every instance; returns (instances, seconds)."""
    start = time.perf_counter()
    instances = workloads.make_instances(workload, seed)
    for inst in instances:
        inst.setup()
    return instances, time.perf_counter() - start


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def import_seconds(src: Path) -> float:
    """Time from the start of a fresh interpreter to ``lockstep`` imported,
    process exit included."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); import lockstep"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - start


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "lockstep" / "__init__.py").is_file():
        print(f"no lockstep package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    # SETUP_REPEATS fresh-interpreter imports and set-ups, with a host speed
    # probe after each; setup_s is the sum of their medians at nominal speed.
    probes, imports, setups = [hostspeed.probe()], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds(src))
        probes.append(hostspeed.probe())
        instances = None  # one copy of the inputs at a time, for peak_rss_mib
        instances, seconds = setup(workloads, args.workload, args.seed)
        setups.append(seconds)
        probes.append(hostspeed.probe())
    setup_wall = statistics.median(imports) + statistics.median(setups)
    setup_s = setup_wall * hostspeed.REFERENCE_S / statistics.median(probes)

    m = Measurement(instances, workloads.WorkCounts())
    print(f"{args.workload}: seed {args.seed}, {len(instances)} instances, "
          f"trace {args.trace}")
    if args.trace:
        metrics = traced(args, workloads, m)
    else:
        m.run(args.seconds)
        metrics, info = m.end_to_end()
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        info["wall.setup_s"] = round(setup_wall, 6)
        print("  " + ", ".join(f"{k} {v}" for k, v in info.items()))
        print("  counts " + json.dumps(m.counts.metrics()))
        m.write_times(OUT_DIR / f"times-{args.workload}-seed{args.seed}.json")

    failed = len(m.failures)
    print(f"  failed_ratio {failed / m.attempted:.6g} ({failed} of {m.attempted})")
    for label, msgs in m.failures[:5]:
        print(f"  FAILED {label}: {'; '.join(msgs[:3])}", file=sys.stderr)
    emit(not m.failures, m.attempted, failed, metrics)
    return 0


def traced(args, workloads, m: Measurement) -> dict:
    """One untraced pass, then the same work again under the tracer."""
    import spans

    plain_s = m.one_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        instances, _ = setup(workloads, args.workload, args.seed)
        traced_s = 0.0
        for k, inst in enumerate(instances):
            tracer.instance = k
            seconds, _, failures = run_instance(inst)
            traced_s += seconds
            m.attempted += 1
            if failures:
                m.failures.append((inst.label, failures))
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")

    summary = tracer.summary()
    print(f"  untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s")
    print(f"  {'span':<36} {'s':>9} {'self_s':>9} {'calls':>8} {'share':>7}")
    for name, agg in sorted(summary.items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {name:<36} {agg['s']:9.4f} {agg['self_s']:9.4f} "
              f"{agg['calls']:8d} {agg['s'] / traced_s:7.1%}")
    metrics = {}
    for name, field, unit in TRACED:
        metrics[f"{name}.{field}"] = (summary.get(name, {}).get(field, 0), unit)
    for name, value in m.counts.metrics().items():
        metrics[name] = (value, "ratio" if name in RATIO_COUNTS else "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for workload, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}: correct {result['correct']}, "
              f"failed_ratio {ratio:.6g} ({result['failed']} of {result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
