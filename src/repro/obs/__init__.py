"""The observability plane: trace events, metrics, introspection.

Everything in this package is **wall-clock-side**: it observes a
campaign without ever becoming part of its state.  Checkpointed
manifests, merged results, ``status.json``, and kill-and-resume
byte-identity are unchanged whether observability is off, on, or
toggled mid-resume — the same contract ``progress.json`` has obeyed
since the state/telemetry split, extended to a full plane:

- :mod:`repro.obs.events`  — an append-only JSONL trace-event log
  (spans with parent/child ids and monotonic timings) written
  atomically alongside ``progress.json``;
- :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges, and histograms that the orchestrator, the distributed
  coordinator, the token bucket, and the scan engine report into;
- :mod:`repro.obs.schema`  — the event-log schema and its validator
  (the CI smoke gate);
- :mod:`repro.obs.report`  — ``python -m repro.obs report``: per-wave /
  per-shard / per-worker tables plus a campaign-wide rollup JSON.

Activation is scoped, not global: the ``REPRO_OBS`` env knob
(``off`` / ``events`` / ``full``, validated in :mod:`repro.env`) says
what *may* be recorded, and the component that owns an observability
scope — normally :class:`~repro.orchestrator.campaign.CampaignRunner`
— *installs* a tracer and a registry for its duration via
:func:`observe`.  Cross-cutting code (the coordinator, the engine, the
token bucket) asks :func:`get_tracer` / :func:`get_registry` and gets
a no-op tracer / a falsy no-op registry outside any scope, so
standalone library calls record nothing.

The one always-on seam is the executor-telemetry mailbox
(:func:`publish_executor_telemetry` / :func:`take_executor_telemetry`):
the distributed coordinator drops its run telemetry there so the
orchestrator can persist it into ``progress.json`` even with
``REPRO_OBS=off`` — losing the fleet's failure accounting with the
process was a bug, not a feature.
"""

from __future__ import annotations

import contextlib

from repro.env import OBS_MODES, obs_mode
from repro.obs.events import NullTracer, Tracer
from repro.obs.metrics import MetricsRegistry, NullRegistry

__all__ = [
    "OBS_MODES",
    "obs_mode",
    "events_enabled",
    "metrics_enabled",
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "NullRegistry",
    "observe",
    "get_tracer",
    "get_registry",
    "publish_executor_telemetry",
    "take_executor_telemetry",
    "merge_telemetry",
]

_NULL_TRACER = NullTracer()
_NULL_REGISTRY = NullRegistry()

#: The installed (tracer, registry) scope; module-level because the
#: components that report are constructed far from the campaign that
#: owns them (the coordinator inside an executor generator, the engine
#: inside a worker builder).
_tracer: Tracer | NullTracer = _NULL_TRACER
_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY

#: Telemetry dicts published by executors since the last take — the
#: always-on mailbox between the coordinator and the orchestrator.
_telemetry_mailbox: list[dict] = []


def events_enabled(explicit=None) -> bool:
    """Whether trace events may be recorded (``REPRO_OBS`` != off)."""
    return obs_mode(explicit) != "off"


def metrics_enabled(explicit=None) -> bool:
    """Whether metrics may be recorded (``REPRO_OBS`` == full)."""
    return obs_mode(explicit) == "full"


def get_tracer():
    """The installed tracer, or a no-op tracer outside any scope."""
    return _tracer


def get_registry() -> MetricsRegistry | NullRegistry:
    """The installed metrics registry, or a falsy no-op registry."""
    return _registry


@contextlib.contextmanager
def observe(tracer=None, registry=None):
    """Install an observability scope for the duration of a ``with``.

    ``None`` leaves the corresponding slot at its no-op default, so a
    runner under ``REPRO_OBS=events`` installs only a tracer.  Scopes
    nest: the previous slots are restored on exit, even on error.
    """
    global _tracer, _registry
    previous = (_tracer, _registry)
    _tracer = tracer if tracer is not None else _NULL_TRACER
    _registry = registry if registry is not None else _NULL_REGISTRY
    try:
        yield
    finally:
        _tracer, _registry = previous


def publish_executor_telemetry(telemetry: dict) -> None:
    """Drop one executor run's telemetry in the mailbox (always on)."""
    _telemetry_mailbox.append(dict(telemetry))


def take_executor_telemetry() -> list[dict]:
    """Drain the mailbox — every publication since the last take."""
    global _telemetry_mailbox
    taken, _telemetry_mailbox = _telemetry_mailbox, []
    return taken


#: Telemetry keys that are per-run samples, not cumulative counts.
_LAST_VALUE_KEYS = frozenset({"survivors", "fleet_initial"})


def merge_telemetry(totals: dict, update: dict) -> dict:
    """Accumulate one telemetry dict into running totals, in place.

    Numeric values add (booleans count True occurrences — a campaign
    that degraded in 2 of 5 waves reports ``degraded: 2``), except the
    per-run sample keys (``survivors``, ``fleet_initial``), which keep
    the latest non-``None`` value — as does everything non-numeric.
    """
    for key, value in update.items():
        if key in _LAST_VALUE_KEYS:
            if value is not None or key not in totals:
                totals[key] = value
        elif isinstance(value, bool):
            totals[key] = int(totals.get(key) or 0) + int(value)
        elif isinstance(value, (int, float)):
            totals[key] = (totals.get(key) or 0) + value
        elif value is not None or key not in totals:
            totals[key] = value
    return totals
