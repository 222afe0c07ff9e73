"""Validated environment knobs shared by the scan layer and orchestrator.

Every process-wide tuning knob the package reads from the environment is
parsed here, with one resolution rule everywhere: an explicit argument
wins, then the environment variable, then the built-in default — and a
bad value raises a :class:`ValueError` naming the knob, the offending
value, and the accepted choices, instead of a silent fallback or a
cryptic failure deep inside a hot loop.

Knobs:

- ``REPRO_SCAN_SHARDS``   — positive shard count for sharded scans;
- ``REPRO_SCAN_EXECUTOR`` — an executor registered in
  :mod:`repro.scan.executors` (``serial``, ``process``,
  ``distributed``, or anything registered on top);
- ``REPRO_DIST_WORKERS``  — worker-process count for the
  ``distributed`` executor (default: one per shard, CPU-capped);
- ``REPRO_FAULT_PLAN``    — declarative chaos plan for the distributed
  executor (:mod:`repro.scan.faults` syntax, e.g. ``crash@2,hang@0``);
- ``REPRO_DIST_SHARD_DEADLINE`` — per-shard attempt deadline in seconds
  before speculative re-dispatch (default 30; ``0`` disables);
- ``REPRO_DIST_RESPAWN_BASE``   — base of the exponential respawn
  backoff in seconds (default 0.05; ``0`` disables the backoff);
- ``REPRO_DIST_CRASH_LOOP``     — consecutive spawn-side failures that
  declare a crash loop and degrade the fleet (default 3);
- ``REPRO_DIST_SHARD_DELAY``    — seconds each distributed worker
  sleeps per shard, a test hook that stretches shards so a kill lands
  mid-campaign (default 0);
- ``REPRO_DIST_ADDRESS_BOOK``   — comma-separated ``host:port`` entries
  of pre-started remote workers (``python -m repro.scan.distributed
  --listen host:port``) the coordinator dials out to; spawned and
  remote workers mix in one fleet (default: empty — spawn-only);
- ``REPRO_DIST_SECRET``         — shared HMAC-SHA256 key for the
  worker handshake; when set, both sides must prove knowledge of it
  before any work is exchanged (default: unset — no authentication);
- ``REPRO_OBS``                 — the observability plane
  (:mod:`repro.obs`): ``off`` (default — no events, no metrics),
  ``events`` (append structured trace events to ``events.jsonl``),
  or ``full`` (events plus the metrics registry and ``metrics.json``).
  Observability is wall-clock-side only: campaign state, merged
  results, and resume byte-identity are unchanged at every setting;
- ``REPRO_CKPT_KEEP``           — checkpoint generations the store
  retains (default 2); older generations are pruned after each save,
  newer ones are the rollback targets when the latest fails
  verification at resume;
- ``REPRO_FS_FAULT_PLAN``       — declarative storage chaos plan for
  the checkpoint store (:mod:`repro.orchestrator.storage_faults`
  syntax, e.g. ``torn_write@save-2,bitrot@gen-3``);
- ``REPRO_ADDR_FAMILY``         — the address family campaigns run in:
  ``v4`` (default — today's exhaustive int64 pipeline) or ``v6``
  (128-bit addresses, hitlist/prefix-seeded targeting; see
  :mod:`repro.core.addrspace`);
- ``REPRO_DATA_DIR``            — the census dataset cache directory
  (default ``data``).
"""

from __future__ import annotations

import os

__all__ = [
    "ENV_SCAN_SHARDS",
    "ENV_SCAN_EXECUTOR",
    "ENV_DIST_WORKERS",
    "ENV_FAULT_PLAN",
    "ENV_DIST_SHARD_DEADLINE",
    "ENV_DIST_RESPAWN_BASE",
    "ENV_DIST_CRASH_LOOP",
    "ENV_DIST_SHARD_DELAY",
    "ENV_DIST_ADDRESS_BOOK",
    "ENV_DIST_SECRET",
    "ENV_OBS",
    "ENV_CKPT_KEEP",
    "ENV_FS_FAULT_PLAN",
    "ENV_ADDR_FAMILY",
    "ENV_DATA_DIR",
    "OBS_MODES",
    "ADDR_FAMILIES",
    "EXECUTORS",
    "scan_shards",
    "scan_executor",
    "dist_workers",
    "fault_plan",
    "dist_shard_deadline",
    "dist_respawn_base",
    "dist_crash_loop_threshold",
    "dist_shard_delay",
    "dist_address_book",
    "dist_secret",
    "obs_mode",
    "ckpt_keep",
    "fs_fault_plan",
    "addr_family",
    "data_dir",
]

ENV_SCAN_SHARDS = "REPRO_SCAN_SHARDS"
ENV_SCAN_EXECUTOR = "REPRO_SCAN_EXECUTOR"
ENV_DIST_WORKERS = "REPRO_DIST_WORKERS"
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"
ENV_DIST_SHARD_DEADLINE = "REPRO_DIST_SHARD_DEADLINE"
ENV_DIST_RESPAWN_BASE = "REPRO_DIST_RESPAWN_BASE"
ENV_DIST_CRASH_LOOP = "REPRO_DIST_CRASH_LOOP"
ENV_DIST_SHARD_DELAY = "REPRO_DIST_SHARD_DELAY"
ENV_DIST_ADDRESS_BOOK = "REPRO_DIST_ADDRESS_BOOK"
ENV_DIST_SECRET = "REPRO_DIST_SECRET"
ENV_OBS = "REPRO_OBS"
ENV_CKPT_KEEP = "REPRO_CKPT_KEEP"
ENV_FS_FAULT_PLAN = "REPRO_FS_FAULT_PLAN"
ENV_ADDR_FAMILY = "REPRO_ADDR_FAMILY"
ENV_DATA_DIR = "REPRO_DATA_DIR"

#: The observability modes, least to most recorded.
OBS_MODES = ("off", "events", "full")

#: The address families the pipeline runs in.
ADDR_FAMILIES = ("v4", "v6")


def _executor_choices() -> tuple[str, ...]:
    # Imported lazily: the executor registry lives in the scan layer,
    # which itself imports this module for the other knobs.
    from repro.scan.executors import available_executors

    return tuple(available_executors())


def __getattr__(name: str):
    # ``EXECUTORS`` is registry-backed: reading it always reflects the
    # live executor registry (including anything registered at runtime)
    # instead of a tuple frozen at import.
    if name == "EXECUTORS":
        return _executor_choices()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve(explicit, env_var, default):
    """explicit argument > environment variable > default."""
    if explicit is not None:
        return explicit, "argument"
    raw = os.environ.get(env_var)
    if raw is not None:
        return raw, env_var
    return default, "default"


def scan_shards(explicit=None) -> int:
    """The validated scan shard count (>= 1).

    ``explicit`` wins over ``$REPRO_SCAN_SHARDS`` over the default of 1.
    Non-integer or non-positive values raise a :class:`ValueError` that
    names the source of the bad value.
    """
    raw, source = _resolve(explicit, ENV_SCAN_SHARDS, 1)
    try:
        # Round-trip through str so 2.5 (or True) is rejected rather
        # than silently truncated by int().
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"scan shards must be a positive integer, got {raw!r} "
            f"(from {source})"
        ) from None
    if value < 1:
        raise ValueError(
            f"scan shards must be >= 1, got {value} (from {source})"
        )
    return value


def scan_executor(explicit=None) -> str:
    """The validated scan executor name, against the live registry."""
    raw, source = _resolve(explicit, ENV_SCAN_EXECUTOR, "serial")
    executors = _executor_choices()
    if raw not in executors:
        choices = ", ".join(repr(e) for e in executors)
        raise ValueError(
            f"unknown executor {raw!r} (from {source}); "
            f"choose one of {choices}"
        )
    return raw


def dist_workers(explicit=None) -> int | None:
    """The validated distributed worker count, or ``None`` for auto.

    ``explicit`` wins over ``$REPRO_DIST_WORKERS``; with neither set
    the distributed executor sizes itself (one worker per shard,
    capped at the CPU count).
    """
    raw, source = _resolve(explicit, ENV_DIST_WORKERS, None)
    if raw is None:
        return None
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"distributed workers must be a positive integer, got "
            f"{raw!r} (from {source})"
        ) from None
    if value < 1:
        raise ValueError(
            f"distributed workers must be >= 1, got {value} "
            f"(from {source})"
        )
    return value


def fault_plan(explicit=None):
    """The validated chaos :class:`~repro.scan.faults.FaultPlan`.

    ``explicit`` may be a plan string or an existing ``FaultPlan``;
    otherwise ``$REPRO_FAULT_PLAN`` is parsed; with neither, the empty
    plan (no injected faults).  Syntax errors raise :class:`ValueError`
    naming the source.
    """
    # Imported lazily: the fault plane lives in the scan layer, which
    # imports this module for the other knobs.
    from repro.scan.faults import FaultPlan

    if isinstance(explicit, FaultPlan):
        return explicit
    raw, source = _resolve(explicit, ENV_FAULT_PLAN, None)
    try:
        return FaultPlan.parse(raw)
    except ValueError as exc:
        raise ValueError(f"bad fault plan (from {source}): {exc}") from None


def _positive_float(raw, source, knob, *, zero_ok=False):
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{knob} must be a number, got {raw!r} (from {source})"
        ) from None
    if value < 0 or (value == 0 and not zero_ok):
        raise ValueError(
            f"{knob} must be {'>= 0' if zero_ok else '> 0'}, got "
            f"{value} (from {source})"
        )
    return value


def dist_shard_deadline(explicit=None) -> float | None:
    """Per-shard attempt deadline in seconds, or ``None`` when disabled.

    ``explicit`` wins over ``$REPRO_DIST_SHARD_DEADLINE`` over the
    default of 30 s.  A shard held past its deadline is speculatively
    re-dispatched to an idle worker; ``0`` disables the deadline (only
    the coordinator's global no-progress timeout then applies).
    """
    raw, source = _resolve(explicit, ENV_DIST_SHARD_DEADLINE, 30.0)
    value = _positive_float(
        raw, source, "shard deadline", zero_ok=True
    )
    return value or None


def dist_respawn_base(explicit=None) -> float:
    """Base (seconds) of the exponential worker-respawn backoff."""
    raw, source = _resolve(explicit, ENV_DIST_RESPAWN_BASE, 0.05)
    return _positive_float(raw, source, "respawn base", zero_ok=True)


def dist_shard_delay(explicit=None) -> float:
    """Seconds each distributed worker sleeps per shard (>= 0).

    ``explicit`` wins over ``$REPRO_DIST_SHARD_DELAY`` over the default
    of 0 (no delay).  A test hook: it stretches every shard so a kill
    or a deadline lands mid-campaign.
    """
    raw, source = _resolve(explicit, ENV_DIST_SHARD_DELAY, 0.0)
    return _positive_float(raw, source, "shard delay", zero_ok=True)


def dist_crash_loop_threshold(explicit=None) -> int:
    """Consecutive spawn-side failures that declare a crash loop."""
    raw, source = _resolve(explicit, ENV_DIST_CRASH_LOOP, 3)
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"crash-loop threshold must be a positive integer, got "
            f"{raw!r} (from {source})"
        ) from None
    if value < 1:
        raise ValueError(
            f"crash-loop threshold must be >= 1, got {value} "
            f"(from {source})"
        )
    return value


def _parse_book_entry(entry, source) -> tuple[str, int]:
    if (
        isinstance(entry, tuple)
        and len(entry) == 2
        and not isinstance(entry[1], bool)
    ):
        host, port = str(entry[0]), entry[1]
        text = f"{host}:{port}"
    else:
        text = str(entry).strip()
        host, sep, port = text.rpartition(":")
        if not sep:
            raise ValueError(
                f"address book entry {text!r} must be HOST:PORT "
                f"(from {source})"
            )
    if not host:
        raise ValueError(
            f"address book entry {text!r} has an empty host "
            f"(from {source})"
        )
    try:
        port_value = int(str(port).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"address book entry {text!r} has a non-integer port "
            f"(from {source})"
        ) from None
    if not 1 <= port_value <= 65535:
        raise ValueError(
            f"address book entry {text!r} port must be in 1..65535 "
            f"(from {source})"
        )
    return host, port_value


def dist_address_book(explicit=None) -> tuple[tuple[str, int], ...]:
    """The validated remote-worker address book as ``(host, port)`` pairs.

    ``explicit`` may be a ``"host:port,host:port"`` string or a sequence
    of entries (strings or ``(host, port)`` tuples); otherwise
    ``$REPRO_DIST_ADDRESS_BOOK`` is parsed; with neither, the empty book
    (the distributed executor spawns local workers only).  Malformed or
    duplicate entries raise a :class:`ValueError` naming the source —
    a duplicate would dial the same worker twice and deadlock its
    one-session-at-a-time accept loop.
    """
    raw, source = _resolve(explicit, ENV_DIST_ADDRESS_BOOK, None)
    if raw is None:
        return ()
    if isinstance(raw, (list, tuple)):
        entries = list(raw)
    else:
        entries = [e for e in str(raw).split(",") if e.strip()]
    book = tuple(_parse_book_entry(entry, source) for entry in entries)
    if len(set(book)) != len(book):
        raise ValueError(
            f"address book has duplicate entries (from {source}): "
            + ",".join(f"{h}:{p}" for h, p in book)
        )
    return book


def dist_secret(explicit=None) -> str | None:
    """The shared handshake secret, or ``None`` when auth is disabled.

    ``explicit`` wins over ``$REPRO_DIST_SECRET``.  A set-but-blank
    secret raises — it would silently authenticate everyone.
    """
    raw, source = _resolve(explicit, ENV_DIST_SECRET, None)
    if raw is None:
        return None
    secret = str(raw)
    if not secret.strip():
        raise ValueError(
            f"distributed secret must be a non-empty string "
            f"(from {source})"
        )
    return secret


def obs_mode(explicit=None) -> str:
    """The validated observability mode: ``off``/``events``/``full``.

    ``explicit`` wins over ``$REPRO_OBS`` over the default ``off``.
    The mode only gates what gets *recorded* — nothing the campaign
    computes or checkpoints depends on it.
    """
    raw, source = _resolve(explicit, ENV_OBS, "off")
    value = str(raw).strip().lower()
    if value not in OBS_MODES:
        choices = ", ".join(repr(m) for m in OBS_MODES)
        raise ValueError(
            f"unknown observability mode {raw!r} (from {source}); "
            f"choose one of {choices}"
        )
    return value


def ckpt_keep(explicit=None) -> int:
    """The validated checkpoint keep-N window (>= 1).

    ``explicit`` wins over ``$REPRO_CKPT_KEEP`` over the default of 2.
    The newest N checkpoint generations survive each save; everything
    older is pruned.  1 restores the pre-generation behaviour (a
    single live checkpoint — and therefore no rollback target when it
    fails verification at resume).
    """
    raw, source = _resolve(explicit, ENV_CKPT_KEEP, 2)
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"checkpoint keep window must be a positive integer, got "
            f"{raw!r} (from {source})"
        ) from None
    if value < 1:
        raise ValueError(
            f"checkpoint keep window must be >= 1, got {value} "
            f"(from {source})"
        )
    return value


def fs_fault_plan(explicit=None):
    """The validated storage-chaos
    :class:`~repro.orchestrator.storage_faults.FsFaultPlan`.

    ``explicit`` may be a plan string or an existing ``FsFaultPlan``;
    otherwise ``$REPRO_FS_FAULT_PLAN`` is parsed; with neither, the
    empty plan (no injected storage faults).  Syntax errors raise
    :class:`ValueError` naming the source.
    """
    # Imported lazily: the storage fault plane lives next to the
    # checkpoint store, which imports this module for the other knobs.
    from repro.orchestrator.storage_faults import FsFaultPlan

    if isinstance(explicit, FsFaultPlan):
        return explicit
    raw, source = _resolve(explicit, ENV_FS_FAULT_PLAN, None)
    try:
        return FsFaultPlan.parse(raw)
    except ValueError as exc:
        raise ValueError(
            f"bad storage fault plan (from {source}): {exc}"
        ) from None


def addr_family(explicit=None) -> str:
    """The validated address family: ``v4`` or ``v6``.

    ``explicit`` wins over ``$REPRO_ADDR_FAMILY`` over the default
    ``v4``.  The family decides the address representation end to end
    (int64 vs 128-bit ``S16``; see :mod:`repro.core.addrspace`) and is
    recorded in campaign specs and checkpoint manifests so a resume
    can reject a family mismatch.
    """
    raw, source = _resolve(explicit, ENV_ADDR_FAMILY, "v4")
    value = str(raw).strip().lower()
    if value not in ADDR_FAMILIES:
        choices = ", ".join(repr(f) for f in ADDR_FAMILIES)
        raise ValueError(
            f"unknown address family {raw!r} (from {source}); "
            f"choose one of {choices}"
        )
    return value


def data_dir(explicit=None) -> str:
    """The dataset cache directory.

    ``explicit`` wins over ``$REPRO_DATA_DIR`` over the default
    ``data``.  A blank value raises instead of silently meaning the
    current directory.
    """
    raw, source = _resolve(explicit, ENV_DATA_DIR, "data")
    value = str(raw)
    if not value.strip():
        raise ValueError(
            f"data directory must be a non-empty path (from {source})"
        )
    return value
