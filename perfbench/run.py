#!/usr/bin/env python3
"""Campaign benchmark of repro-tass: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload v4-campaign --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics (see ``perfbench/spans.py``).
Every iteration's output is checked against a reference computed in
set-up; a mismatch is a failed operation, never a timing.  End-to-end
timings are rescaled to a reference host speed by a calibration kernel
timed around every set-up and iteration (see :class:`HostSpeed`); their
raw medians are printed beside them.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The resolved spec, pinned environment and metrics of
each run are also written to ``.perfbench/results/``, and the spans of
a traced run to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"

if __name__ == "__main__":
    # Run as a script: make this package and the program importable.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402  (imports nothing from repro)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: Fewest good iterations a run reports on (per kind in a traced run).
MIN_ITERATIONS = 3
#: A percentile is reported only with this many samples beyond it.
TAIL = 10
#: Pooled checkpoint gaps a run collects before it stops: enough for p90.
MIN_GAPS = 100
#: Keys the calibration kernel sorts and searches, drawn from a fixed
#: seed (never the benchmark's).
KERNEL_KEYS = 200_000
#: Interpreter steps of the calibration kernel.
KERNEL_STEPS = 100_000
#: The kernel's median seconds on an idle 2-vCPU Xeon VM (2.0 GHz,
#: Python 3.11.7): the host speed end-to-end timings are rescaled to.
REFERENCE_KERNEL_S = 0.05

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "probes_per_s": "probes/s",
    "checkpoint_gap_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "traffic_saved_frac": "fraction",
    "hosts_missed_frac": "fraction",
}

#: Per-layer metric -> (unit, span whose self time or call count it is).
LAYER_SPANS = {
    "census.setalg_s": ("s", "census.setalg"),
    "census.setalg_calls": ("count", "census.setalg"),
    "bgp.count_s": ("s", "bgp.count"),
    "bgp.count_calls": ("count", "bgp.count"),
    "core.plan_s": ("s", "core.plan"),
    "core.simulate_s": ("s", "core.simulate"),
    "orchestrator.explore_s": ("s", "orchestrator.explore"),
    "scan.targets_build_s": ("s", "scan.targets_build"),
    "scan.walk_s": ("s", "scan.walk"),
    "scan.walk_batches": ("count", "scan.walk"),
    "scan.map_s": ("s", "scan.map"),
    "scan.engine_s": ("s", "scan.engine"),
    "scan.run_sharded_s": ("s", "scan.run_sharded"),
    "scan.distributed.codec_s": ("s", "scan.distributed.codec"),
    "orchestrator.checkpoint_save_s": ("s", "orchestrator.checkpoint_save"),
    "orchestrator.checkpoint_saves": ("count", "orchestrator.checkpoint_save"),
    "orchestrator.checkpoint_load_s": ("s", "orchestrator.checkpoint_load"),
    "orchestrator.progress_s": ("s", "orchestrator.progress"),
}

#: Every per-layer metric with its unit.
LAYER_UNITS = {
    "census.load_s": "s",
    **{name: unit for name, (unit, _) in LAYER_SPANS.items()},
    "bgp.count_cache_hit_ratio": "fraction",
    "scan.probes": "count",
    "scan.responses": "count",
    "scan.blocked": "count",
    "scan.hit_ratio": "fraction",
    "scan.distributed.startup_s": "s",
    "scan.distributed.worker_busy_s": "s",
    "scan.distributed.frame_bytes": "bytes",
    "scan.distributed.failures": "count",
    "scan.distributed.respawns": "count",
    "scan.distributed.requeues": "count",
    "orchestrator.checkpoint_bytes": "bytes",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "fraction",
    "trace_overhead_frac": "fraction",
}

#: ``progress.json`` executor-telemetry key of each fleet counter.
TELEMETRY = {
    "scan.distributed.failures": "failures",
    "scan.distributed.respawns": "respawns",
    "scan.distributed.requeues": "speculative_requeues",
}


def kernel_s(keys) -> float:
    """Seconds of a fixed NumPy-and-interpreter kernel: the host's speed.

    It runs no program code, so only the host moves it.
    """
    start = time.perf_counter()
    np.searchsorted(np.sort(keys), keys)
    total = 0
    for step in range(KERNEL_STEPS):
        total += step * step % 7
    return time.perf_counter() - start


class HostSpeed:
    """Times the kernel between timed sections and rescales each section.

    A shared host's speed drifts in phases of seconds to minutes.  A
    section and the kernels timed just before and after it slow down
    alike, so their ratio cancels the drift, while a change to the
    program moves the section alone.
    """

    def __init__(self, kernel=None):
        if kernel is None:
            keys = np.random.default_rng(0).integers(0, 1 << 40, KERNEL_KEYS)
            kernel = functools.partial(kernel_s, keys)
        self.kernel = kernel
        self.samples: list[float] = []
        self.mark()

    def mark(self) -> None:
        """Time the kernel: the next section starts here."""
        self.samples.append(self.kernel())

    def scale(self) -> float:
        """Reference-speed factor of the section since the last mark."""
        self.mark()
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[-2:])


def reportable_percentiles(n, candidates=(50, 90, 99, 99.9), tail=TAIL):
    """The candidate percentiles of ``n`` samples with ``tail`` beyond."""
    # Rounded so that 99.9 of 10000 counts its 10 samples exactly.
    return [p for p in candidates if round(n * (100 - p) / 100, 9) >= tail]


def percentile(samples, p: float) -> float:
    """Linear-interpolation percentile; refuses one without a tail."""
    if p not in reportable_percentiles(len(samples), candidates=(p,)):
        raise ValueError(
            f"p{p} of {len(samples)} samples has fewer than {TAIL} beyond it"
        )
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def gaps_ms(outcome) -> list:
    """Milliseconds between consecutive durable points of each segment."""
    return [
        (later - earlier) / 1e6
        for segment in outcome.marks
        for earlier, later in zip(segment, segment[1:])
    ]


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def pin_environment() -> dict:
    """Strip ambient ``REPRO_*`` knobs and set the benchmark's own."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_OBS"] = "off"
    os.environ["REPRO_DIST_WORKERS"] = "2"
    return {key: os.environ[key] for key in ("REPRO_OBS", "REPRO_DIST_WORKERS")}


def build_datasets(workload, data_dir) -> None:
    """Generate any missing dataset preset, once per checkout.

    The generator runs in a child process so its memory never counts
    towards this process's peak RSS.
    """
    from perfbench.workloads import DATASET_SEED, dataset_path

    for preset in workload.presets:
        if dataset_path(data_dir, preset).exists():
            continue
        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from repro.census.loader import get_dataset; "
                "get_dataset(preset=sys.argv[1], seed=int(sys.argv[2]), "
                "cache_dir=sys.argv[3])",
                preset, str(DATASET_SEED), str(data_dir),
            ],
            env=env,
            check=True,
            timeout=600,
        )
        print(
            f"built dataset {preset} in {time.perf_counter() - start:.1f} s",
            file=sys.stderr,
        )


def run_iterations(workload, reference, seconds, trace, recorder, speed):
    """Iterate for ``seconds`` (longer if too few samples); check each.

    Returns ``(runs, failures)``: ``runs`` holds ``(traced, iteration,
    outcome)`` for every iteration whose output matched the reference,
    ``failures`` one message per failed iteration.
    """
    runs, failures, durations = [], [], []
    start = time.perf_counter()
    limit = 2 * seconds + 30
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        untraced = [o for traced, _, o in runs if not traced]
        enough = (
            len(untraced) >= MIN_ITERATIONS
            and sum(len(gaps_ms(o)) for o in untraced) >= MIN_GAPS
        )
        if trace:
            enough = len(runs) - len(untraced) >= MIN_ITERATIONS and len(
                untraced
            ) >= MIN_ITERATIONS
        # Start no iteration that would run past the budget.
        expected = statistics.median(durations) if durations else 0.0
        if elapsed >= limit or (enough and elapsed + expected > seconds):
            break
        index += 1
        traced = bool(trace) and index % 2 == 0
        began = time.perf_counter()
        try:
            if traced:
                recorder.iteration = index
                with spans.traced(recorder):
                    outcome = workload.iterate(workload.traced_observe)
            else:
                outcome = workload.iterate()
        except Exception as exc:  # a raising iteration is a failed one
            failures.append(f"iteration {index}: {type(exc).__name__}: {exc}")
            continue
        finally:
            durations.append(time.perf_counter() - began)
            scale = speed.scale()
        outcome.scale = scale
        if outcome.digest != reference:
            outcome.failure = "output differs from the reference"
            if isinstance(reference, dict):
                outcome.failure += ": " + ", ".join(
                    name for name in reference
                    if outcome.digest.get(name) != reference[name]
                )
        if outcome.failure:
            failures.append(f"iteration {index}: {outcome.failure}")
            continue
        runs.append((traced, index, outcome))
    return runs, failures


def end_to_end(workload, setup_times, outcomes) -> dict:
    """The end-to-end metrics; every timing at the reference speed."""
    walls = [o.wall_s * o.scale for o in outcomes]
    gaps = [gap * o.scale for o in outcomes for gap in gaps_ms(o)]
    wall = statistics.median(walls)
    last = outcomes[-1]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "probes_per_s": statistics.median(o.probes for o in outcomes) / wall,
        "checkpoint_gap_p90_ms": percentile(gaps, 90),
        "peak_rss_mb": peak_rss_mb(workload.spawns_workers),
        "traffic_saved_frac": last.traffic_saved_frac,
        "hosts_missed_frac": last.hosts_missed_frac,
    }


def distributed_startup_s(iteration_spans, events) -> float:
    """Σ over waves of (``run_sharded`` entry -> first shard result,
    minus the worker seconds of that shard).

    The k-th ``run_sharded`` span is the k-th wave span in the event
    log; the first result a wave releases is its lowest shard index.
    """
    calls = [s for s in iteration_spans if s[1] == "scan.run_sharded"]
    first = {
        s[4]: s[2] for s in iteration_spans if s[1] == spans.FIRST_RESULT
    }
    waves = [
        (e["run"], e["span"]) for e in events if e["type"] == "wave"
    ]
    results = defaultdict(dict)
    for e in events:
        if e["type"] == "shard_result":
            results[(e["run"], e["parent"])].setdefault(
                e["data"]["index"], e["data"]["seconds"]
            )
    if len(calls) != len(waves):
        raise ValueError(
            f"{len(calls)} run_sharded calls but {len(waves)} wave spans"
        )
    total = 0.0
    for call, wave in zip(calls, waves):
        if call[0] not in first:
            continue  # every shard of the wave was already complete
        shard_seconds = results[wave][min(results[wave])]
        total += (first[call[0]] - call[2]) / 1e9 - shard_seconds
    return total


def layer_row(recorder, iteration, outcome) -> dict:
    """Every per-layer metric of one traced iteration."""
    start = outcome.marks[0][0]
    wall_ns = int(outcome.wall_s * 1e9)
    mine = [
        s for s in recorder.spans
        if s[5] == iteration and start <= s[2] <= start + wall_ns
    ]
    totals = spans.layer_totals(mine)
    row = {}
    for name, (unit, span) in LAYER_SPANS.items():
        self_ns, calls = totals.get(span, (0, 0))
        row[name] = calls if unit == "count" else self_ns / 1e9
    hits, misses = outcome.artifacts["count_cache"]
    row["bgp.count_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    for name in ("scan.probes", "scan.responses", "scan.blocked"):
        row[name] = outcome.counts.get(name, 0)
    row["scan.hit_ratio"] = (
        row["scan.responses"] / row["scan.probes"] if row["scan.probes"]
        else 0.0
    )
    telemetry = outcome.artifacts.get("telemetry", {})
    for name, key in TELEMETRY.items():
        row[name] = telemetry.get(key, 0)
    metrics = outcome.artifacts.get("metrics", [])
    row["scan.distributed.worker_busy_s"] = sum(
        m.get("dist.shard_seconds", {}).get("sum", 0.0) for m in metrics
    )
    row["scan.distributed.frame_bytes"] = sum(
        m.get(key, {}).get("value", 0)
        for m in metrics
        for key in ("dist.bytes_in", "dist.bytes_out")
    )
    row["scan.distributed.startup_s"] = (
        distributed_startup_s(mine, outcome.artifacts["events"])
        if "events" in outcome.artifacts
        else 0.0
    )
    row["orchestrator.checkpoint_bytes"] = sum(
        size for it, size in recorder.checkpoint_bytes if it == iteration
    )
    row["traced_wall_s"] = outcome.wall_s
    row["unattributed_s"] = spans.unattributed_ns(mine, wall_ns) / 1e9
    row["unattributed_frac"] = row["unattributed_s"] / outcome.wall_s
    return row


def per_layer(recorder, runs) -> dict:
    traced = [(i, o) for is_traced, i, o in runs if is_traced]
    untraced = [o.wall_s for is_traced, _, o in runs if not is_traced]
    rows = [layer_row(recorder, i, o) for i, o in traced]
    metrics = {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
    }
    setup = [s for s in recorder.spans if s[5] == "setup"]
    selfs = spans.self_times(setup)
    loads = [selfs[s[0]] / 1e9 for s in setup if s[1] == "census.load"]
    metrics["census.load_s"] = statistics.median(loads) if loads else 0.0
    metrics["trace_overhead_frac"] = (
        metrics["traced_wall_s"] / statistics.median(untraced) - 1.0
    )
    return {name: metrics[name] for name in LAYER_UNITS}


def repeat_check(runs) -> str | None:
    """Deterministic counts must repeat exactly across iterations."""
    seen = {}
    for _, index, outcome in runs:
        for name, value in outcome.counts.items():
            if seen.setdefault(name, value) != value:
                return (
                    f"{name} changed between iterations "
                    f"({seen[name]} -> {value} at iteration {index})"
                )
    return None


def measure(workload, seconds, trace, setups=SETUPS, speed=None) -> dict:
    """Set up, iterate and derive the metrics of one benchmark run."""
    recorder = spans.SpanRecorder() if trace else None
    speed = speed or HostSpeed()
    raw_setups, setup_times = [], []
    for _ in range(setups):
        if trace:
            recorder.iteration = "setup"
        scope = spans.traced(recorder) if trace else contextlib.nullcontext()
        with scope:
            raw_setups.append(workload.setup())
        setup_times.append(raw_setups[-1] * speed.scale())
    reference = workload.reference()
    speed.mark()
    runs, failures = run_iterations(
        workload, reference, seconds, trace, recorder, speed
    )
    problem = repeat_check(runs)
    good = [o for traced, _, o in runs if not traced]
    if trace:
        ready = good and len(good) < len(runs)
        metrics = per_layer(recorder, runs) if ready else {}
        units = LAYER_UNITS
    else:
        metrics = end_to_end(workload, setup_times, good) if good else {}
        units = E2E_UNITS
    return {
        "correct": not failures and not problem and bool(metrics),
        "attempted": len(runs) + len(failures),
        "failed": len(failures),
        "failures": failures + ([problem] if problem else []),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
        "iterations": [
            {"index": i, "traced": t, "wall_s": o.wall_s, "scale": o.scale,
             "gaps_ms": [round(g, 3) for g in gaps_ms(o)]}
            for t, i, o in runs
        ],
        "gaps_ms": [gap * o.scale for o in good for gap in gaps_ms(o)],
        "raw": {
            "wall_s": (
                statistics.median(o.wall_s for o in good) if good else 0.0
            ),
            "setup_s": statistics.median(raw_setups),
            "kernel_s": statistics.median(speed.samples),
        },
        "recorder": recorder,
    }


def summary_lines(workload, args, env, result) -> list:
    lines = [
        f"workload {workload.name} seed {args.seed} trace {args.trace}",
        f"why: {workload.why}",
        "spec: " + json.dumps(workload.record(), sort_keys=True),
        "env: " + json.dumps(env, sort_keys=True),
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(
        f"{'error_rate':34s} {failed / attempted if attempted else 0:.6g} "
        f"fraction ({failed}/{attempted} failed)"
    )
    raw = result["raw"]
    if not args.trace:
        for name in ("wall_s", "setup_s"):
            lines.append(
                f"{'raw_' + name:34s} {raw[name]:.6g} s "
                "(median, not rescaled; unbounded)"
            )
    lines.append(
        f"{'host_kernel_s':34s} {raw['kernel_s']:.6g} s (median; "
        f"reference {REFERENCE_KERNEL_S:g} s)"
    )
    gaps = result["gaps_ms"]
    tail = reportable_percentiles(len(gaps))
    if not args.trace and tail:
        # The median gap is printed but carries no bound: its spread
        # between runs was wider than any bound the benchmark may set.
        lines.append(
            f"{'checkpoint_gap_p50_ms':34s} {percentile(gaps, 50):.6g} ms "
            f"(unbounded); {len(gaps)} gaps, highest percentile with "
            f"{TAIL} beyond: p{tail[-1]:g}"
        )
    lines.extend(f"FAILED {message}" for message in result["failures"])
    return lines


def write_record(workload, args, env, result) -> None:
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "resolved": workload.record(),
        "env": env,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        **{k: v for k, v in result.items() if k != "recorder"},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    recorder = result["recorder"]
    if recorder is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        with open(OUT / "spans" / f"{stem}.jsonl", "w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pin_environment()
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    scratch = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # The program's own temporary files (the coordinator keeps worker
    # stderr in one) then stay inside the checkout as well.
    os.environ["TMPDIR"] = str(scratch)
    try:
        workload = make_workload(
            args.workload, args.seed, ROOT / "data", scratch
        )
        build_datasets(workload, ROOT / "data")
        result = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_record(workload, args, env, result)
    print("\n".join(summary_lines(workload, args, env, result)))
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
