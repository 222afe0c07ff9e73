"""``python -m repro.obs report`` — campaign introspection tables.

Reads the observability artifacts of one campaign directory —
``events.jsonl``, ``metrics.json``, ``progress.json``, and the
deterministic ``status.json``/checkpoint — and renders:

- a campaign-wide **rollup JSON** (``--json``): one machine-readable
  document joining status totals, progress telemetry, per-wave /
  per-shard / per-worker breakdowns, and the metrics snapshot;
- human **tables** (default): per-wave accounting with wall-clock
  durations, per-shard probe counters, and the per-worker fleet view
  (shards drained, probes, engine seconds, frame bytes, drops).

Everything here is read-only and wall-clock-side; a report never
touches campaign state.  Missing artifacts degrade gracefully — a
campaign run with ``REPRO_OBS=off`` still reports its status and
progress, just without the event-derived columns.
"""

from __future__ import annotations

from pathlib import Path

from repro import jsonio

__all__ = [
    "read_events",
    "load_rollup",
    "render_report",
    "format_event",
]


def read_events(path) -> list[dict]:
    """Parse an ``events.jsonl``; skips blank lines, raises on garbage."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(jsonio.loads(line))
    return records


def _read_json(path) -> dict | None:
    path = Path(path)
    if not path.exists():
        return None
    return jsonio.loads(path.read_text())


def _status_of(directory: Path) -> dict | None:
    status = _read_json(directory / "status.json")
    if status is not None:
        return status
    # Mid-campaign (or killed) directory: derive the deterministic
    # status from the latest checkpoint generation, exactly like
    # `status` does.
    from repro.orchestrator.campaign import status_from_manifest
    from repro.orchestrator.checkpoint import CheckpointStore

    # A reader: it must not sweep, quarantine or rewrite anything of a
    # campaign that may still be running.
    store = CheckpointStore(directory, sweep=False)
    if store.has_checkpoint():
        manifest, _ = store.read_newest()
        return status_from_manifest(manifest)
    return None


def _wave_rows(status, events) -> list[dict]:
    """Per-wave accounting joined with wall-clock span durations."""
    # span id -> begin record, then end records pair durations up.
    seconds: dict[int, float] = {}
    begun: dict[str, dict] = {}
    for record in events:
        if record["type"] != "wave":
            continue
        if record["ev"] == "begin":
            begun[record["span"]] = record
        elif record["ev"] == "end":
            start = begun.pop(record["span"], None)
            if start is not None:
                wave = start["data"].get("wave")
                delta = record["mono"] - start["mono"]
                seconds[wave] = seconds.get(wave, 0.0) + delta
    rows = []
    for record in (status or {}).get("waves", []):
        rows.append(dict(record, seconds=seconds.get(record["wave"])))
    return rows


def _shard_rows(events) -> list[dict]:
    return [
        {
            "wave": r["data"].get("wave"),
            "index": r["data"].get("index"),
            "probes_sent": r["data"].get("probes_sent"),
            "responses": r["data"].get("responses"),
            "blocked": r["data"].get("blocked"),
            "batches": r["data"].get("batches"),
            "seconds": r["data"].get("seconds"),
        }
        for r in events
        if r["type"] == "shard" and r["ev"] == "point"
    ]


def _worker_rows(events, metrics) -> list[dict]:
    """The fleet view: one row per worker pid seen in events/metrics."""
    workers: dict[int, dict] = {}

    def row(pid):
        return workers.setdefault(
            pid,
            {
                "pid": pid,
                "origin": None,
                "connects": 0,
                "drops": 0,
                "last_drop_reason": None,
                "shards": 0,
                "probes": 0,
                "seconds": 0.0,
                "bytes_in": None,
                "bytes_out": None,
            },
        )

    for record in events:
        data = record["data"]
        if record["type"] == "worker_connect":
            entry = row(data["pid"])
            entry["connects"] += 1
            entry["origin"] = data.get("origin") or entry["origin"]
        elif record["type"] == "worker_drop":
            entry = row(data["pid"])
            entry["drops"] += 1
            entry["last_drop_reason"] = data.get("reason")
        elif record["type"] == "shard_result":
            entry = row(data["pid"])
            entry["shards"] += 1
            entry["probes"] += data.get("probes_sent") or 0
            entry["seconds"] += data.get("seconds") or 0.0
    for name, instrument in (metrics or {}).items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "worker":
            try:
                pid = int(parts[1])
            except ValueError:
                continue
            if parts[2] in ("bytes_in", "bytes_out"):
                row(pid)[parts[2]] = instrument.get("value")
    return [workers[pid] for pid in sorted(workers)]


def _event_summary(events) -> dict:
    by_type: dict[str, int] = {}
    for record in events:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
    return {
        "total": len(events),
        "runs": len({r["run"] for r in events}),
        "by_type": dict(sorted(by_type.items())),
    }


def load_rollup(directory) -> dict:
    """The campaign-wide rollup document for one campaign directory."""
    directory = Path(directory)
    status = _status_of(directory)
    progress = _read_json(directory / "progress.json")
    metrics = _read_json(directory / "metrics.json")
    events = read_events(directory / "events.jsonl")
    campaign = None
    if status is not None:
        campaign = {
            "name": status["name"],
            "finished": status["finished"],
            "budget_exhausted": status["budget_exhausted"],
            "waves_completed": status["waves_completed"],
            "waves_planned": status["waves_planned"],
            "position": status["position"],
            "totals": status["totals"],
            "executor": status["spec"].get("executor"),
            "shards": status["spec"].get("shards"),
        }
    return {
        "directory": str(directory),
        "campaign": campaign,
        "progress": progress,
        "waves": _wave_rows(status, events),
        "shards": _shard_rows(events),
        "workers": _worker_rows(events, metrics),
        "events": _event_summary(events),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(headers, rows) -> str:
    cells = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    ]
    for row in cells:
        lines.append(
            "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_report(rollup: dict) -> str:
    """Human tables for one rollup document."""
    out = []
    campaign = rollup["campaign"]
    if campaign is None:
        out.append(f"{rollup['directory']}: no campaign artifacts")
    else:
        totals = campaign["totals"]
        out.append(
            f"campaign {campaign['name']!r} "
            f"[{campaign['executor']}, {campaign['shards']} shard(s)]: "
            f"{campaign['waves_completed']}/{campaign['waves_planned']} "
            f"waves, {totals['probes_sent']} probes, "
            f"{totals['responses']} responses"
            + (", finished" if campaign["finished"] else ", in flight")
        )
    progress = rollup["progress"]
    if progress:
        rate = progress.get("achieved_probes_per_sec")
        out.append(
            f"progress: wave {progress.get('wave')} shard "
            f"{progress.get('shard')}, retries "
            f"{progress.get('wave_retries_used')}"
            + (f", {rate:.1f} probes/s achieved" if rate else "")
        )
        telemetry = progress.get("executor_telemetry")
        if telemetry:
            out.append(
                "fleet telemetry: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(telemetry.items())
                )
            )
    if rollup["waves"]:
        out.append("\nper-wave:")
        out.append(
            _table(
                ["wave", "month", "reseeded", "probes", "responses",
                 "hitrate", "seconds"],
                [
                    [w["wave"], w["month"], w["reseeded"],
                     w["probes_sent"], w["responses"],
                     round(w["hitrate"], 4), w.get("seconds")]
                    for w in rollup["waves"]
                ],
            )
        )
    if rollup["shards"]:
        out.append("\nper-shard:")
        out.append(
            _table(
                ["wave", "shard", "probes", "responses", "blocked",
                 "batches", "seconds"],
                [
                    [s["wave"], s["index"], s["probes_sent"],
                     s["responses"], s["blocked"], s["batches"],
                     s["seconds"]]
                    for s in rollup["shards"]
                ],
            )
        )
    if rollup["workers"]:
        out.append("\nper-worker:")
        out.append(
            _table(
                ["pid", "origin", "connects", "shards", "probes",
                 "seconds", "bytes_in", "bytes_out", "drops"],
                [
                    [w["pid"], w["origin"], w["connects"], w["shards"],
                     w["probes"], w["seconds"], w["bytes_in"],
                     w["bytes_out"], w["drops"]]
                    for w in rollup["workers"]
                ],
            )
        )
    summary = rollup["events"]
    if summary["total"]:
        out.append(
            f"\nevents: {summary['total']} across {summary['runs']} "
            "run(s): "
            + ", ".join(
                f"{t}={n}" for t, n in summary["by_type"].items()
            )
        )
    return "\n".join(out)


def format_event(record: dict) -> str:
    """One-line rendering of a trace event (``status --follow``)."""
    data = record["data"]
    payload = " ".join(f"{k}={data[k]}" for k in sorted(data))
    marker = {"begin": ">", "end": "<", "point": "."}[record["ev"]]
    return (
        f"{record['ts']:.3f} {marker} {record['type']:<22s} {payload}"
    )
