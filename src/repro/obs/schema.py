"""The trace-event schema and its validator (the CI smoke gate).

Every ``events.jsonl`` record carries the fixed envelope documented in
:mod:`repro.obs.events` plus a ``data`` payload whose required keys
depend on the event ``type``.  :data:`EVENT_TYPES` is the single
source of truth for both the emitters and this validator; emitters may
add extra ``data`` keys freely (the schema is open — a reader must
ignore what it does not know), but a missing required key, an unknown
type, a broken span reference, or out-of-order sequence numbers are
validation errors.

``validate_events`` is pure (lines in, error strings out) so tests can
feed it fabricated logs; ``validate_file`` wraps it for the CLI
(``python -m repro.obs validate``) and the CI smoke job.
"""

from __future__ import annotations

from pathlib import Path

from repro import jsonio

__all__ = [
    "ENVELOPE_KEYS",
    "EVENT_KINDS",
    "EVENT_TYPES",
    "validate_events",
    "validate_file",
]

#: Exactly the keys every record carries.
ENVELOPE_KEYS = frozenset(
    {"run", "seq", "pid", "ts", "mono", "ev", "type", "span", "parent",
     "data"}
)

#: The record kinds: span edges and point events.
EVENT_KINDS = frozenset({"begin", "end", "point"})

#: type -> required ``data`` keys (on the *begin*/*point* record; end
#: records carry outcome fields the schema leaves open).
EVENT_TYPES: dict[str, frozenset] = {
    # -- orchestrator ---------------------------------------------------
    "campaign": frozenset({"name", "waves", "executor"}),
    "wave": frozenset({"wave", "month"}),
    "shard": frozenset({"wave", "index", "probes_sent", "responses"}),
    "checkpoint": frozenset({"wave", "shard"}),
    "wave_retry": frozenset({"wave", "attempt"}),
    # -- distributed coordinator ---------------------------------------
    "worker_spawn": frozenset({"pid", "ordinal"}),
    "worker_connect": frozenset({"pid"}),
    "worker_drop": frozenset({"pid", "reason"}),
    "shard_dispatch": frozenset({"index", "shard", "attempt", "pid"}),
    "shard_result": frozenset({"index", "pid"}),
    "fault_armed": frozenset({"shard", "attempt", "kind"}),
    "fault_fired": frozenset({"pid", "kind"}),
    "speculative_redispatch": frozenset({"index"}),
    "duplicate_discarded": frozenset({"index", "pid"}),
    "deadline_kill": frozenset({"pid", "index"}),
    "auth_reject": frozenset({"pid"}),
    "fleet_degraded": frozenset({"survivors"}),
    # -- checkpoint store (storage fault plane) ------------------------
    "checkpoint.corrupt": frozenset({"gen", "reason"}),
    "checkpoint.rollback": frozenset({"from_gen", "to_gen"}),
    "storage.fault_fired": frozenset({"kind", "site"}),
}


def validate_events(lines) -> list[str]:
    """Validate an iterable of JSONL lines; returns error strings.

    An empty list means the log is valid.  Unclosed spans are *not*
    errors — a killed campaign legitimately leaves its campaign/wave
    spans open, and the resumed process appends under a fresh run id.
    """
    errors: list[str] = []
    # Per run id: last seq, last mono, open/known span ids.
    last_seq: dict[str, int] = {}
    last_mono: dict[str, float] = {}
    known_spans: dict[str, set] = {}
    open_spans: dict[str, dict] = {}

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {lineno}"
        try:
            record = jsonio.loads(line)
        except ValueError as exc:
            errors.append(f"{where}: not JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        keys = set(record)
        if keys != set(ENVELOPE_KEYS):
            missing = sorted(ENVELOPE_KEYS - keys)
            extra = sorted(keys - ENVELOPE_KEYS)
            errors.append(
                f"{where}: bad envelope"
                + (f", missing {missing}" if missing else "")
                + (f", unexpected {extra}" if extra else "")
            )
            continue
        run, seq, ev = record["run"], record["seq"], record["ev"]
        type_, span, parent = record["type"], record["span"], record["parent"]
        data = record["data"]
        if ev not in EVENT_KINDS:
            errors.append(f"{where}: unknown ev {ev!r}")
            continue
        if not isinstance(seq, int) or seq < 1:
            errors.append(f"{where}: seq must be a positive int, got {seq!r}")
            continue
        if run in last_seq and seq <= last_seq[run]:
            errors.append(
                f"{where}: seq {seq} not increasing within run {run!r} "
                f"(last {last_seq[run]})"
            )
        last_seq[run] = seq
        mono = record["mono"]
        if not isinstance(mono, (int, float)):
            errors.append(f"{where}: mono must be a number, got {mono!r}")
        else:
            if run in last_mono and mono < last_mono[run]:
                errors.append(
                    f"{where}: mono went backwards within run {run!r}"
                )
            last_mono[run] = mono
        if type_ not in EVENT_TYPES:
            errors.append(f"{where}: unknown event type {type_!r}")
            continue
        if not isinstance(data, dict):
            errors.append(f"{where}: data must be an object")
            continue
        spans = known_spans.setdefault(run, set())
        opened = open_spans.setdefault(run, {})
        if ev == "end":
            begun = opened.pop(span, None)
            if begun is None:
                errors.append(
                    f"{where}: end of span {span!r} that was never begun "
                    f"in run {run!r}"
                )
            elif begun != type_:
                errors.append(
                    f"{where}: span {span!r} begun as {begun!r} but ended "
                    f"as {type_!r}"
                )
            continue
        # begin / point records carry the payload contract.
        missing = sorted(EVENT_TYPES[type_] - set(data))
        if missing:
            errors.append(
                f"{where}: {type_!r} event missing data keys {missing}"
            )
        if not isinstance(span, str) or not span:
            errors.append(f"{where}: span must be a non-empty string")
            continue
        if span in spans:
            errors.append(f"{where}: span id {span!r} reused in run {run!r}")
        spans.add(span)
        if parent is not None and parent not in spans:
            errors.append(
                f"{where}: parent {parent!r} not seen earlier in run "
                f"{run!r}"
            )
        if ev == "begin":
            opened[span] = type_
    return errors


def validate_file(path) -> list[str]:
    """Validate one ``events.jsonl`` on disk; returns error strings."""
    path = Path(path)
    if not path.exists():
        return [f"{path}: no such event log"]
    with open(path) as fh:
        return validate_events(fh)
