#!/usr/bin/env python3
"""Perf gate: perfbench on a base checkout and on this one.

Usage: python scripts/perf_gate.py BASE_CHECKOUT

BASE_CHECKOUT is a checkout of the base commit (e.g. a git worktree of
``git merge-base origin/main HEAD``).  perfbench reads datasets from
``<checkout>/data``, so link this checkout's ``data/`` into it to build
each preset once.

For every workload in this checkout's ``BENCHMARK.json``, both
checkouts run ``perfbench/run.py --trace 0`` for the benchmark's
``run_seconds``: RUNS runs per side at one seed, alternating base and
head.  Each side keeps its best run per end-to-end metric.  The gate
fails when

- a head metric is worse than base's by more than the metric's
  ``bound``: a ``lower`` metric may grow to ``base * (1 + bound)``, a
  ``higher`` one fall to ``base * (1 - bound)``;
- a head run exits non-zero or reports ``correct: false``;
- head's share of failed iterations is above base's.

A workload with no base run (base does not know it) is reported and
not gated.  Then, on this checkout alone, the observability overhead:
OVERHEAD_PAIRS alternating ``REPRO_OBS=off`` and ``REPRO_OBS=full``
iterations of ``v4-campaign``, whose medians may differ by at most
OVERHEAD_BOUND.  Prints one row per (workload, metric) and exits 1 on
any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: perfbench runs per side and workload.
RUNS = 2
#: perfbench seed of every run.
SEED = 1
#: Workload, alternating off/full pairs and ``full/off`` median bound
#: of the observability overhead check.
OVERHEAD_WORKLOAD = "v4-campaign"
OVERHEAD_PAIRS = 16
OVERHEAD_BOUND = 1.05

#: ``better`` of a metric -> how to pick a side's best run.
BEST = {"lower": min, "higher": max}


def load_benchmark():
    """``(workload names, end-to-end metrics, run_seconds)``."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in document["workloads"]]
    return workloads, document["end_to_end"], document["run_seconds"]


def perfbench(checkout, workload, seconds):
    """The closing JSON record of one perfbench run; None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        print(f"{checkout}: {workload} exited {proc.returncode}: {tail}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def failed_share(records) -> float:
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    return failed / attempted if attempted else 0.0


def best(records, metric):
    """The best value of ``metric`` over the correct runs, or None."""
    values = [
        record["metrics"][metric["name"]]["value"]
        for record in records
        if record["correct"] and metric["name"] in record["metrics"]
    ]
    return BEST[metric["better"]](values) if values else None


def past_bound(base: float, head: float, metric) -> bool:
    if metric["better"] == "lower":
        return head > base * (1 + metric["bound"])
    return head < base * (1 - metric["bound"])


def compare(workload, base_runs, head_runs, metrics):
    """``(rows, failures)`` of one workload.

    ``base_runs`` and ``head_runs`` hold one perfbench record per run,
    None for a run that exited non-zero.
    """
    base = [record for record in base_runs if record is not None]
    head = [record for record in head_runs if record is not None]
    failures = []
    if len(head) < len(head_runs):
        failures.append(
            f"{workload}: {len(head_runs) - len(head)} head run(s) exited "
            "non-zero"
        )
    if not all(record["correct"] for record in head):
        failures.append(f"{workload}: a head run reported correct: false")
    if not base:
        return [f"{workload:15s} no base run: reported, not gated"], failures
    shares = failed_share(base), failed_share(head)
    if shares[1] > shares[0]:
        failures.append(
            f"{workload}: failed share {shares[0]:.3g} -> {shares[1]:.3g}"
        )
    rows = []
    for metric in metrics:
        name = metric["name"]
        old, new = best(base, metric), best(head, metric)
        if old is None or new is None:
            rows.append(f"{workload:15s} {name:22s} no correct run on a side")
            continue
        if old:
            change = new / old - 1
        else:
            change = 0.0 if new == old else float("inf")
        verdict = "ok"
        if past_bound(old, new, metric):
            verdict = "FAIL"
            failures.append(
                f"{workload}: {name} {old:.6g} -> {new:.6g} ({change:+.1%}),"
                f" past the {metric['bound']:.0%} bound"
            )
        rows.append(
            f"{workload:15s} {name:22s} {old:12.6g} -> {new:12.6g} "
            f"{change:+8.1%}  {metric['better']:6s} "
            f"bound {metric['bound']:.0%}  {verdict}"
        )
    return rows, failures


def overhead(off, full, wrong: int = 0):
    """``(row, failures)`` of the observability overhead check.

    ``off`` and ``full`` are iteration seconds; ``wrong`` counts the
    iterations whose output differed from the reference.
    """
    ratio = statistics.median(full) / statistics.median(off)
    row = (
        f"REPRO_OBS overhead on {OVERHEAD_WORKLOAD}: full/off median "
        f"{ratio:.3f} over {len(off)} pairs (bound {OVERHEAD_BOUND})"
    )
    failures = []
    if ratio > OVERHEAD_BOUND:
        failures.append(f"REPRO_OBS=full costs {ratio - 1:+.1%} over off")
    if wrong:
        failures.append(f"{wrong} overhead iteration(s) differ from the "
                        "reference")
    return row, failures


def measure_overhead():
    """``(off, full, wrong)`` from alternating iterations on this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run
    from perfbench.workloads import make_workload

    run.pin_environment()
    scratch = ROOT / ".perfbench" / "tmp" / f"perf-gate-{os.getpid()}"
    times = {"off": [], "full": []}
    wrong = 0
    try:
        workload = make_workload(OVERHEAD_WORKLOAD, SEED, ROOT / "data",
                                 scratch)
        run.build_datasets(workload, ROOT / "data")
        workload.setup()
        reference = workload.reference()
        for pair in range(OVERHEAD_PAIRS):
            # Neither mode always runs first.
            modes = ("off", "full") if pair % 2 == 0 else ("full", "off")
            for mode in modes:
                outcome = workload.iterate(mode)
                wrong += bool(
                    outcome.failure or outcome.digest != reference
                )
                times[mode].append(outcome.wall_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return times["off"], times["full"], wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    args = parser.parse_args(argv)
    if not (args.base / "perfbench" / "run.py").is_file():
        parser.error(f"{args.base} has no perfbench/run.py")
    workloads, metrics, seconds = load_benchmark()
    failures = []
    print(f"{'workload':15s} {'metric':22s} {'base':>12s}    {'head':>12s}")
    for workload in workloads:
        runs = {"base": [], "head": []}
        for _ in range(RUNS):
            runs["base"].append(perfbench(args.base, workload, seconds))
            runs["head"].append(perfbench(ROOT, workload, seconds))
        rows, problems = compare(workload, runs["base"], runs["head"],
                                 metrics)
        print("\n".join(rows), flush=True)
        failures += problems
    row, problems = overhead(*measure_overhead())
    print(row)
    failures += problems
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf gate {'failed' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
