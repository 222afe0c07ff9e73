"""``python -m repro.orchestrator`` — plan / run / resume / status / verify.

The campaign directory is the unit of state: ``plan`` writes the
resolved spec there, ``run`` executes it from scratch (checkpointing
after every shard), ``resume`` continues from the latest checkpoint,
``status`` prints the deterministic status document, and ``verify``
fscks every artifact — spec, checkpoint generations (against their
journaled digests), status, progress, metrics, events — reporting
per-artifact findings and, with ``--repair``, quarantining or removing
the damage.  ``run`` and ``resume`` translate SIGTERM/SIGINT into a
clean exit — the durable checkpoint already on disk is the resume
point, so killing a campaign at any moment loses at most one partially
drained shard re-scanned on resume.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from repro import jsonio
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.orchestrator.campaign import (
    CampaignRunner,
    CampaignSpec,
    planned_spec,
    status_from_manifest,
)
from repro.orchestrator.checkpoint import CheckpointStore
from repro.orchestrator.waves import RESEED_MODES, ReseedPolicy

__all__ = ["main", "build_parser"]

#: Exit code after a termination signal (128 + SIGTERM).
SIGTERM_EXIT = 143


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.orchestrator",
        description="Resumable multi-wave TASS scan campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser(
        "plan", help="resolve a campaign spec and write campaign.json"
    )
    plan.add_argument("--dir", required=True, help="campaign directory")
    plan.add_argument("--name", default="campaign")
    plan.add_argument("--preset", default="tiny")
    plan.add_argument("--dataset-seed", type=int, default=0)
    plan.add_argument("--protocol", default="http")
    plan.add_argument("--phi", type=float, default=0.95)
    plan.add_argument(
        "--view",
        default=LESS_SPECIFIC,
        choices=(LESS_SPECIFIC, MORE_SPECIFIC),
    )
    plan.add_argument("--waves", type=int, default=3)
    plan.add_argument(
        "--reseed-mode", default="interval", choices=RESEED_MODES
    )
    plan.add_argument("--reseed-interval", type=int, default=0)
    plan.add_argument("--min-hitrate", type=float, default=0.0)
    plan.add_argument(
        "--reseed-scan",
        action="store_true",
        help="re-seed waves scan the full announced space",
    )
    plan.add_argument("--explore-frac", type=float, default=0.0)
    plan.add_argument("--shards", type=int, default=None)
    plan.add_argument(
        "--executor",
        default=None,
        help="shard executor: serial or "
        "distributed (coordinator + socket workers; fleet size via "
        "REPRO_DIST_WORKERS, pre-started remote workers via "
        "REPRO_DIST_ADDRESS_BOOK=host:port,..., handshake auth via "
        "REPRO_DIST_SECRET)",
    )
    plan.add_argument("--batch-size", type=int, default=1 << 16)
    plan.add_argument("--probe-budget", type=int, default=None)
    plan.add_argument("--probes-per-sec", type=float, default=None)
    plan.add_argument("--use-blocklist", action="store_true")
    plan.add_argument("--scan-seed", type=int, default=0)
    plan.add_argument(
        "--samples-per-prefix",
        type=int,
        default=64,
        help="v6 only: pseudorandom probe draws per selected prefix "
        "on top of the hitlist seeding",
    )
    plan.add_argument(
        "--wave-retries",
        type=int,
        default=0,
        help="bounded retries when the executor's infrastructure "
        "collapses mid-wave; each retry resumes from the last "
        "checkpointed shard",
    )
    plan.add_argument(
        "--wave-retry-backoff",
        type=float,
        default=0.5,
        help="base seconds of the deterministic exponential backoff "
        "slept between wave retries",
    )

    run = sub.add_parser(
        "run", help="execute the planned campaign from scratch"
    )
    run.add_argument("--dir", required=True)
    run.add_argument(
        "--fresh",
        action="store_true",
        help="discard an existing checkpoint instead of refusing to run",
    )
    run.add_argument(
        "--no-pace",
        action="store_true",
        help="ignore the spec's pacing rate for this invocation "
        "(results are pacing-invariant)",
    )

    resume = sub.add_parser(
        "resume", help="continue from the latest checkpoint"
    )
    resume.add_argument("--dir", required=True)
    resume.add_argument("--no-pace", action="store_true")

    status = sub.add_parser(
        "status", help="print the deterministic status document"
    )
    status.add_argument("--dir", required=True)
    status.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON (the kill-and-resume contract)",
    )
    status.add_argument(
        "--follow",
        action="store_true",
        help="after the status, tail the live trace-event log "
        "(events.jsonl; requires the campaign to run with "
        "REPRO_OBS=events or full) until the campaign finishes or "
        "Ctrl-C",
    )

    verify = sub.add_parser(
        "verify",
        help="audit every campaign artifact (checkpoint fsck)",
        description="Audit the campaign directory: the spec, every "
        "checkpoint generation against its journaled SHA-256 and "
        "per-array digests, the journal itself, stray tmp files, and "
        "the status/progress/metrics/events documents.  Exits 0 when "
        "everything verifies, 1 with a per-artifact report otherwise.",
    )
    verify.add_argument("--dir", required=True)
    verify.add_argument(
        "--repair",
        action="store_true",
        help="fix what can be fixed: quarantine corrupt generations "
        "and rewind the journal past them, rebuild a lost journal "
        "from the intact generations, remove stray tmp files and "
        "malformed derived documents (the exit code still reports "
        "that problems were found)",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="machine-readable findings instead of the report lines",
    )
    return parser


def _spec_from_args(args) -> CampaignSpec:
    # The spec validates every field and .resolved() the executor, so
    # a bad --shards or --executor fails at plan time with a clear
    # message instead of deep inside wave execution.  The address
    # family follows from the preset.
    return CampaignSpec(
        name=args.name,
        preset=args.preset,
        dataset_seed=args.dataset_seed,
        protocol=args.protocol,
        phi=args.phi,
        view=args.view,
        waves=args.waves,
        reseed=ReseedPolicy(
            mode=args.reseed_mode,
            interval=args.reseed_interval,
            min_hitrate=args.min_hitrate,
        ),
        reseed_scan=args.reseed_scan,
        explore_frac=args.explore_frac,
        shards=args.shards,
        executor=args.executor,
        batch_size=args.batch_size,
        probe_budget=args.probe_budget,
        probes_per_sec=args.probes_per_sec,
        use_blocklist=args.use_blocklist,
        scan_seed=args.scan_seed,
        samples_per_prefix=args.samples_per_prefix,
        wave_retries=args.wave_retries,
        wave_retry_backoff=args.wave_retry_backoff,
    ).resolved()


def _install_signal_handlers() -> None:
    def bail(signum, frame):
        # The checkpoint on disk is already consistent; just leave.
        sys.exit(SIGTERM_EXIT)

    signal.signal(signal.SIGTERM, bail)
    signal.signal(signal.SIGINT, bail)


def _render_plan(spec: CampaignSpec, runner: CampaignRunner) -> str:
    lines = [
        f"campaign {spec.name!r}: {spec.waves} wave(s) over preset "
        f"{spec.preset!r} / protocol {spec.protocol!r}",
        f"  phi={spec.phi} view={spec.view} family={spec.family} "
        f"shards={spec.shards} executor={spec.executor} "
        f"backend={spec.backend}",
        f"  reseed={spec.reseed.to_dict()} explore_frac="
        f"{spec.explore_frac} budget={spec.probe_budget} "
        f"pace={spec.probes_per_sec}",
        f"  announced addresses: {runner.announced}",
    ]
    for plan in runner.plans:
        reseed = (
            "reseed"
            if plan.reseed
            else "hold" if plan.reseed is not None else "conditional"
        )
        lines.append(
            f"  wave {plan.wave}: census month {plan.month} [{reseed}]"
        )
    return "\n".join(lines)


def _print_outcome(status: dict) -> None:
    totals = status["totals"]
    print(
        f"campaign {status['name']!r}: "
        f"{status['waves_completed']}/{status['waves_planned']} waves, "
        f"{totals['probes_sent']} probes, "
        f"{totals['responses']} responses, "
        f"{totals['reseeds']} reseed(s)"
        + (" [budget exhausted]" if status["budget_exhausted"] else "")
    )


def _follow_events(store: CheckpointStore) -> int:
    """Tail ``events.jsonl`` — one line per trace event, live.

    Follows until the campaign's ``campaign`` span ends (the run
    completed) or Ctrl-C.  Lines are written atomically (one
    ``O_APPEND`` write each), but the reader still buffers partial
    tails defensively and skips anything that does not parse — a
    follower must never crash on a log it is racing.
    """
    from repro.obs.report import format_event

    path = store.events_path
    position = 0
    buffered = ""
    try:
        while True:
            if not path.exists():
                time.sleep(0.2)
                continue
            with open(path) as fh:
                fh.seek(position)
                chunk = fh.read()
                position = fh.tell()
            buffered += chunk
            *lines, buffered = buffered.split("\n")
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = jsonio.loads(line)
                except ValueError:
                    continue
                try:
                    print(format_event(record), flush=True)
                except (KeyError, TypeError):
                    continue
                if (
                    record.get("ev") == "end"
                    and record.get("type") == "campaign"
                ):
                    return 0
            if not chunk:
                time.sleep(0.2)
    except KeyboardInterrupt:
        return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, FileNotFoundError) as exc:
        # Knob/spec/state errors are user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "plan":
        spec = _spec_from_args(args)
        runner = CampaignRunner(spec, directory=args.dir)
        runner.store.write_spec(runner.spec.to_dict())
        print(_render_plan(runner.spec, runner))
        return 0

    if args.command == "run":
        _install_signal_handlers()
        # Refuse before the (potentially expensive) dataset load, and
        # refuse a missing directory before a writing store creates it.
        if CheckpointStore(args.dir, sweep=False).has_checkpoint():
            if not args.fresh:
                print(
                    f"error: {args.dir} already has a checkpoint; "
                    "use `resume` to continue it or `run --fresh` to "
                    "start over",
                    file=sys.stderr,
                )
                return 2
            CheckpointStore(args.dir).clear()
        runner = CampaignRunner.from_directory(args.dir)
        status = runner.run(pace=not args.no_pace)
        _print_outcome(status)
        return 0

    if args.command == "resume":
        _install_signal_handlers()
        runner = CampaignRunner.resume(args.dir)
        status = runner.run(pace=not args.no_pace)
        _print_outcome(status)
        return 0

    if args.command == "status":
        # A reader beside a campaign that may be running: it sweeps no
        # tmp file and quarantines or rewrites nothing.
        store = CheckpointStore(args.dir, sweep=False)
        if store.has_checkpoint():
            # The manifest alone carries the whole status document —
            # no dataset load, no runner construction.
            manifest, _ = store.read_newest()
            status = status_from_manifest(manifest)
        else:
            status = CampaignRunner(planned_spec(store)).status()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            _print_outcome(status)
            for record in status["waves"]:
                print(
                    f"  wave {record['wave']} (month {record['month']}): "
                    f"{'reseed' if record['reseeded'] else 'hold'} "
                    f"hitrate={record['hitrate']:.4f} "
                    f"probes={record['probes_sent']} "
                    f"absorbed={record['absorbed_prefixes']}"
                )
        if args.follow:
            if not store.events_path.exists():
                print(
                    "waiting for events.jsonl — the campaign must run "
                    "with REPRO_OBS=events or REPRO_OBS=full",
                    file=sys.stderr,
                )
            return _follow_events(store)
        return 0

    if args.command == "verify":
        # sweep=False: the audit must *report* orphaned tmp strays,
        # not have the store's open-time sweep destroy the evidence.
        store = CheckpointStore(args.dir, sweep=False)
        findings = store.audit(repair=args.repair)
        problems = [f for f in findings if not f["ok"]]
        if args.json:
            print(json.dumps(findings, indent=2, sort_keys=True))
        else:
            for f in findings:
                line = (
                    f"{'ok  ' if f['ok'] else 'FAIL'}  "
                    f"{f['artifact']}: {f['detail']}"
                )
                if f["repaired"]:
                    line += f" [repaired: {f['repaired']}]"
                print(line)
            summary = (
                "all artifacts verify"
                if not problems
                else f"{len(problems)} problem(s) found"
                + (" (repairs applied)" if args.repair else "")
            )
            print(summary, file=sys.stderr)
        return 1 if problems else 0

    raise AssertionError(f"unhandled command {args.command!r}")
