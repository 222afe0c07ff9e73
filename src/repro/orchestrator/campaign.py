"""Campaign spec, state, and the resumable multi-wave runner.

A :class:`CampaignSpec` declares *what* to scan — dataset preset,
strategy parameters, wave count, reseed policy, shard/executor
knobs, probe budget, pacing rate.  :class:`CampaignRunner` compiles it
into waves and executes them: each wave plans a selection with
:class:`~repro.core.tass.TassStrategy`, drains it through
:func:`~repro.scan.sharded.run_sharded`, optionally spends an
exploration budget on the unselected space (absorbing prefixes that
respond), and feeds the achieved hitrate into the reseed decision for
the next wave.

Determinism contract: campaign state is checkpointed atomically after
every shard, and everything the campaign computes — probe counts,
responses, wave accounting, the final status document — is a pure
function of (spec, dataset).  Wall-clock telemetry (pacing rates,
timestamps) goes to ``progress.json`` only.  A run killed at any shard
boundary and resumed therefore produces byte-identical merged results,
wave accounting, and status JSON to an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import math
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.addrspace import FAMILIES
from repro.core.tass import TassStrategy
from repro.orchestrator.checkpoint import (
    CheckpointStore,
    WaveRecord,
    nothing_to_resume,
)
from repro.orchestrator.pacing import PacedTargets, TokenBucket
from repro.orchestrator.waves import (
    ReseedPolicy,
    compile_waves,
    explore_unselected,
)
from repro.scan.blocklist import default_blocklist
from repro.scan.engine import EngineConfig, ScanResult
from repro.scan.executors import (
    ExecutorFailure,
    executor_supports_wrap,
    open_executor,
)
from repro.scan.faults import backoff_delay
from repro.scan.sharded import run_sharded

__all__ = [
    "CampaignSpec",
    "planned_spec",
    "WaveRecord",
    "CampaignRunner",
    "run_campaign",
    "status_from_manifest",
    "PROGRESS_KEYS",
]

#: The ``progress.json`` schema: every key ``_progress`` emits, with
#: its meaning.  All of it is wall-clock-side telemetry — the
#: regression tests pin this key set (stable across executors), never
#: the values.
PROGRESS_KEYS = {
    "time": "wall-clock write time (time.time())",
    "executor": "resolved executor name",
    "wave": "in-flight wave index",
    "shard": "next shard index within the in-flight wave",
    "waves_completed": "completed-wave count",
    "probes_sent": "campaign-wide probes sent (incl. in-flight shards)",
    "achieved_probes_per_sec": (
        "token-bucket achieved rate (null when unpaced)"
    ),
    "wave_retries_used": (
        "executor-failure retries, cumulative across resumes"
    ),
    "executor_telemetry": (
        "cumulative fleet telemetry ({} for in-process executors); the "
        "counts in fleet_policy.CLOCKED_TELEMETRY (respawns) depend on "
        "timing, the rest on the fault plan"
    ),
    "finished": "campaign completion flag",
}

_VIEWS = (LESS_SPECIFIC, MORE_SPECIFIC)

#: The counting path every spec records (``CampaignSpec.backend``).
_BACKEND = "searchsorted"

#: Ceiling on one wave-retry backoff sleep, whatever the base.
_RETRY_BACKOFF_CAP = 30.0

#: Attempts per checkpoint save before an OSError propagates.  A save
#: that fails cleanly (ENOSPC, fsync EIO) consumes no generation number
#: and leaves the journal untouched, so retrying is always safe.
_SAVE_ATTEMPTS = 3

#: Base/cap (seconds) of the backoff between save attempts.
_SAVE_BACKOFF_BASE = 0.05
_SAVE_BACKOFF_CAP = 1.0

#: Wall-clock sleep between wave retries (module-level so deterministic
#: tests can stub it out; the sleep is telemetry-side, never state).
_retry_sleep = time.sleep


def _checked_fields(cls, data, what: str) -> dict:
    """``data``, the JSON form of dataclass ``cls``, once every field is
    there, none is unknown and each has its annotated type (a bool is
    no int, an int is a float, a nested dataclass is an object);
    anything else raises a :class:`ValueError` naming the field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is a {type(data).__name__}, not an object")
    hints = typing.get_type_hints(cls)
    odd = sorted(set(data) ^ set(hints))
    if odd:
        known = "lacks" if odd[0] in hints else "has unknown"
        raise ValueError(f"{what} {known} field {odd[0]!r}")
    for name, hint in hints.items():
        value, types = data[name], typing.get_args(hint) or (hint,)
        if not any(
            isinstance(value, dict) if dataclasses.is_dataclass(t)
            else type(value) in ((int, float) if t is float else (t,))
            for t in types
        ):
            raise ValueError(
                f"{what} field {name!r} must be "
                f"{' or '.join(t.__name__ for t in types)}, not "
                f"{type(value).__name__}"
            )
    return dict(data)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one scan campaign."""

    name: str = "campaign"
    preset: str = "tiny"
    dataset_seed: int = 0
    protocol: str = "http"
    phi: float = 0.95
    view: str = LESS_SPECIFIC
    waves: int = 3
    reseed: ReseedPolicy = ReseedPolicy()
    #: Re-seed waves scan the full announced space (a real discovery
    #: scan, charged at ``announced`` probes) instead of the selection.
    reseed_scan: bool = False
    #: Per-wave exploration budget as a fraction of the unselected
    #: space (0 disables); hits absorb their prefix into the selection.
    explore_frac: float = 0.0
    shards: int | None = None
    executor: str | None = None
    #: The counting path, recorded in ``campaign.json`` and manifests:
    #: ``None`` resolves to ``"searchsorted"``, the only one there is.
    backend: str | None = None
    batch_size: int = 1 << 16
    #: Total probe budget; the campaign stops at the first wave
    #: boundary where completed waves have spent it (None = unlimited).
    probe_budget: int | None = None
    #: Token-bucket pacing rate in probes/sec (None = unpaced).
    probes_per_sec: float | None = None
    use_blocklist: bool = False
    scan_seed: int = 0
    #: Address family (``"v4"``/``"v6"``); ``None`` resolves to the
    #: preset's own family, or v4 for a preset the registry lacks.
    family: str | None = None
    #: v6 only: pseudorandom probe draws per selected prefix on top of
    #: the hitlist seeding (ignored for v4, which scans exhaustively).
    samples_per_prefix: int = 64
    #: Bounded retries when the executor's infrastructure collapses
    #: mid-wave (:class:`~repro.scan.executors.ExecutorFailure`): the
    #: wave re-runs from its last checkpointed shard, up to this many
    #: times, before the failure propagates.  The attempt counter is
    #: checkpointed, so a killed-and-resumed campaign replays the same
    #: remaining retry budget.
    wave_retries: int = 0
    #: Base (seconds) of the deterministic exponential backoff slept
    #: between wave retries (wall-clock only; never part of state).
    wave_retry_backoff: float = 0.5

    def __post_init__(self):
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.dataset_seed < 0 or self.scan_seed < 0:
            raise ValueError("dataset_seed and scan_seed must be >= 0")
        if self.waves < 1:
            raise ValueError("a campaign needs at least one wave")
        if not 0.0 < self.phi <= 1.0:
            raise ValueError("phi must be in (0, 1]")
        if self.view not in _VIEWS:
            raise ValueError(
                f"unknown prefix view {self.view!r}; choose one of {_VIEWS}"
            )
        if not 0.0 <= self.explore_frac < 1.0:
            raise ValueError("explore_frac must be in [0, 1)")
        if self.shards is not None and (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise ValueError(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.probe_budget is not None and self.probe_budget < 0:
            raise ValueError("probe_budget must be >= 0")
        if self.probes_per_sec is not None and not (
            math.isfinite(self.probes_per_sec) and self.probes_per_sec > 0
        ):
            raise ValueError(
                f"probes_per_sec must be a finite number > 0, got "
                f"{self.probes_per_sec!r}"
            )
        if self.wave_retries < 0:
            raise ValueError("wave_retries must be >= 0")
        if not (
            math.isfinite(self.wave_retry_backoff)
            and self.wave_retry_backoff >= 0
        ):
            raise ValueError(
                f"wave_retry_backoff must be a finite number >= 0, got "
                f"{self.wave_retry_backoff!r}"
            )
        if self.samples_per_prefix < 0:
            raise ValueError("samples_per_prefix must be >= 0")
        if self.family not in (None, *FAMILIES):
            raise ValueError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )
        if self.backend not in (None, _BACKEND):
            raise ValueError(
                f"backend must be {_BACKEND!r} (the only counting "
                f"path), got {self.backend!r}"
            )

    def resolved(self) -> "CampaignSpec":
        """Pin the shard/executor/family defaults and validate them.

        Resolution happens once, at plan time, and the resolved values
        are stored in ``campaign.json`` — so a resume replays the
        original campaign exactly.
        """
        executor = "serial" if self.executor is None else self.executor
        # Also rejects an unknown executor, paced or not.
        wraps = executor_supports_wrap(executor)
        if self.probes_per_sec is not None and not wraps:
            raise ValueError(
                "pacing (probes_per_sec) requires the serial executor: "
                "a token bucket cannot be shared across worker processes"
            )
        family = self.family
        if family is None:
            # A preset that is intrinsically one family (e.g. "v6-tiny")
            # implies it.
            from repro.census.synth import PRESETS

            preset_spec = PRESETS.get(self.preset)
            family = preset_spec.family if preset_spec else "v4"
        if family == "v6":
            if self.explore_frac > 0.0:
                raise ValueError(
                    "explore_frac is v4-only: the v6 unselected space "
                    "cannot be complement-sampled exhaustively"
                )
            if self.use_blocklist:
                raise ValueError(
                    "use_blocklist is v4-only: the built-in blocklist "
                    "holds IPv4 reserved ranges"
                )
        return dataclasses.replace(
            self,
            shards=self.shards or 1,
            executor=executor,
            backend=_BACKEND,
            family=family,
        )

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["reseed"] = self.reseed.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """The spec :meth:`to_dict` wrote; see :func:`_checked_fields`."""
        data = _checked_fields(cls, data, "campaign spec")
        data["reseed"] = ReseedPolicy(
            **_checked_fields(ReseedPolicy, data["reseed"], "reseed policy")
        )
        return cls(**data)


def planned_spec(store: CheckpointStore) -> CampaignSpec:
    """The resolved spec in ``store``'s ``campaign.json``; a damaged one
    raises a :class:`ValueError` naming the file and the field."""
    data = store.read_spec()
    try:
        return CampaignSpec.from_dict(data).resolved()
    except ValueError as exc:
        raise ValueError(f"{store.spec_path}: {exc}") from None


@dataclass
class _State:
    """Mutable campaign position — everything a checkpoint persists."""

    wave: int = 0
    shard: int = 0
    wave_planned: bool = False
    wave_reseeded: bool = False
    #: Failed executor attempts for the in-flight wave (0 once done).
    wave_attempts: int = 0
    records: list = field(default_factory=list)
    shard_results: list = field(default_factory=list)
    mask: np.ndarray | None = None
    #: v6 only: the snapshot month whose addresses seed the hitlist —
    #: frozen at the last reseed so non-reseed waves keep probing the
    #: known hosts of the wave that planned the selection.
    hitlist_month: int = 0
    finished: bool = False
    budget_exhausted: bool = False


class CampaignRunner:
    """Execute (or resume) one campaign against a census dataset."""

    def __init__(self, spec: CampaignSpec, dataset=None, directory=None):
        self.spec = spec.resolved()
        if dataset is None:
            from repro.census.loader import get_dataset

            dataset = get_dataset(
                preset=self.spec.preset, seed=self.spec.dataset_seed
            )
        self.dataset = dataset
        dataset_family = getattr(dataset, "family", "v4")
        if dataset_family != self.spec.family:
            raise ValueError(
                f"campaign family {self.spec.family!r} does not match "
                f"the dataset's address family {dataset_family!r}"
            )
        self.series = dataset.series_for(self.spec.protocol)
        self.partition = dataset.topology.table.partition(self.spec.view)
        self.announced = self.partition.address_count()
        self.strategy = TassStrategy(self.partition, phi=self.spec.phi)
        self.blocklist = (
            default_blocklist() if self.spec.use_blocklist else None
        )
        self.store = (
            CheckpointStore(directory) if directory is not None else None
        )
        self.plans = compile_waves(
            self.spec.waves, len(self.series), self.spec.reseed
        )
        self.state = _State(
            mask=np.zeros(len(self.partition), dtype=bool),
        )
        # The manifest's immutable parts, built once: the resolved spec,
        # and each finished wave's record as ``(record, dict)``.  Every
        # checkpoint serializes them; none may reach a caller unshared.
        self._spec_dict = self.spec.to_dict()
        self._record_dicts: list[tuple[WaveRecord, dict]] = []
        self._rng = np.random.default_rng([self.spec.scan_seed, 0x5EED])
        self._on_checkpoint = None
        self._pace = True
        # The executor held open for one run(): one distributed fleet
        # serves every wave, and a wave retry swaps in a fresh one.
        self._fleet = contextlib.ExitStack()
        self._drain = None
        # Wall-clock telemetry only (progress.json), never state: the
        # deterministic retry position lives in _State.wave_attempts.
        self._retries_used = 0
        # Cumulative executor telemetry (distributed fleet accounting),
        # merged from the always-on mailbox after every executor run.
        self._telemetry_totals: dict = {}
        # Monotonic stamp of the last metrics.json refresh (throttle).
        self._metrics_written_at: float | None = None

    # -- construction from disk ---------------------------------------

    @classmethod
    def from_directory(cls, directory, dataset=None) -> "CampaignRunner":
        """A fresh runner for the spec planned under ``directory``."""
        spec = planned_spec(CheckpointStore(directory, sweep=False))
        return cls(spec, dataset=dataset, directory=directory)

    @classmethod
    def resume(cls, directory, dataset=None) -> "CampaignRunner":
        """Rebuild a runner from the latest checkpoint under ``directory``."""
        if not Path(directory).is_dir():
            # Refused before the writing store below would create it.
            raise nothing_to_resume(directory)
        store = CheckpointStore(directory)
        manifest, arrays = store.load()
        spec = CampaignSpec.from_dict(manifest["spec"])
        runner = cls(spec, dataset=dataset, directory=directory)
        # The runner built its own store; carry over any incidents the
        # load just queued (a rollback, a quarantined generation) so
        # _drive's drain surfaces them as trace events.
        runner.store.incidents.extend(store.drain_incidents())
        runner._restore(manifest, arrays)
        # Telemetry counters continue across resumes (like the state
        # they describe); a malformed progress.json degrades to fresh
        # counters rather than blocking the resume.
        progress = store.read_progress()
        if progress is not None:
            retries = progress.get("wave_retries_used")
            if (
                isinstance(retries, int)
                and not isinstance(retries, bool)
                and retries >= 0
            ):
                runner._retries_used = retries
            telemetry = progress.get("executor_telemetry")
            if isinstance(telemetry, dict):
                # Only what merge_telemetry can add to: a damaged
                # counter is dropped, never carried into the next sum.
                runner._telemetry_totals = {
                    key: value
                    for key, value in telemetry.items()
                    if value is None or _is_finite_number(value)
                }
        return runner

    def _restore(self, manifest: dict, arrays: dict) -> None:
        state = self.state
        state.wave = manifest["wave"]
        state.shard = manifest["shard"]
        state.wave_planned = manifest["wave_planned"]
        state.wave_reseeded = manifest["wave_reseeded"]
        state.wave_attempts = manifest["wave_attempts"]
        state.records = [
            WaveRecord.from_dict(r) for r in manifest["records"]
        ]
        state.shard_results = [
            ScanResult(
                probes_sent=p, responses=r, blocked=b, batches=n,
                protocol=self.spec.protocol,
            )
            for p, r, b, n in manifest["shard_results"]
        ]
        state.hitlist_month = manifest["hitlist_month"]
        state.finished = manifest["finished"]
        state.budget_exhausted = manifest["budget_exhausted"]
        mask = np.asarray(arrays["mask"], dtype=bool)
        if mask.shape != (len(self.partition),):
            raise ValueError(
                "checkpoint selection mask does not match the dataset "
                "partition — was the campaign planned against a "
                "different dataset?"
            )
        state.mask = mask
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = manifest["rng_state"]

    # -- checkpointing -------------------------------------------------

    def _records(self) -> list[dict]:
        """The finished waves' dicts, each built once per record."""
        cache, records = self._record_dicts, self.state.records
        kept = 0
        while (
            kept < min(len(cache), len(records))
            and cache[kept][0] is records[kept]
        ):
            kept += 1
        del cache[kept:]
        cache.extend((r, r.to_dict()) for r in records[kept:])
        return [d for _, d in cache]

    def _manifest(self) -> dict:
        """The checkpoint manifest; it shares the cached spec and record
        dicts, so it is serialized, never handed to a caller."""
        state = self.state
        return {
            "spec": self._spec_dict,
            "announced": self.announced,
            "wave": state.wave,
            "shard": state.shard,
            "wave_planned": state.wave_planned,
            "wave_reseeded": state.wave_reseeded,
            "wave_attempts": state.wave_attempts,
            "records": self._records(),
            "shard_results": [
                [r.probes_sent, r.responses, r.blocked, r.batches]
                for r in state.shard_results
            ],
            "rng_state": self._rng.bit_generator.state,
            "hitlist_month": state.hitlist_month,
            "finished": state.finished,
            "budget_exhausted": state.budget_exhausted,
        }

    def _checkpoint(self) -> dict:
        manifest = self._manifest()
        if self.store is not None:
            try:
                for attempt in range(1, _SAVE_ATTEMPTS + 1):
                    try:
                        self.store.save(
                            manifest, {"mask": self.state.mask}
                        )
                        break
                    except OSError:
                        # A clean save failure left no generation
                        # behind; the previous checkpoint is still the
                        # durable resume point, so back off and retry.
                        # (A SimulatedCrash is deliberately NOT an
                        # OSError — a dead process cannot retry.)
                        if attempt == _SAVE_ATTEMPTS:
                            raise
                        _retry_sleep(
                            backoff_delay(
                                attempt,
                                _SAVE_BACKOFF_BASE,
                                _SAVE_BACKOFF_CAP,
                            )
                        )
            finally:
                self._drain_storage_incidents()
        if self._on_checkpoint is not None:
            self._on_checkpoint(self)
        return manifest

    def _drain_storage_incidents(self) -> None:
        """Flush the store's pending incidents into the obs plane.

        The store itself never talks to the tracer — ``load()`` runs
        during :meth:`resume`, *before* any observability scope exists —
        so corruption/rollback/fault incidents queue on the store and
        are drained here, inside the campaign's ``observe()`` scope.
        """
        if self.store is None:
            return
        tracer = obs.get_tracer()
        registry = obs.get_registry()
        for incident in self.store.drain_incidents():
            data = dict(incident)
            type_ = data.pop("type")
            tracer.point(type_, **data)
            registry.counter(type_).inc()

    def _progress(self, pacer=None, manifest=None) -> None:
        if self.store is None:
            return
        # Reuse the manifest the checkpoint just built when available —
        # a shard boundary shouldn't serialize the campaign twice.
        totals = status_from_manifest(manifest or self._manifest())[
            "totals"
        ]
        document = {
            "time": time.time(),
            "executor": self.spec.executor,
            "wave": self.state.wave,
            "shard": self.state.shard,
            "waves_completed": len(self.state.records),
            "probes_sent": totals["probes_sent"],
            "achieved_probes_per_sec": (
                pacer.achieved_rate if pacer is not None else None
            ),
            "wave_retries_used": self._retries_used,
            "executor_telemetry": dict(self._telemetry_totals),
            "finished": self.state.finished,
        }
        assert set(document) == set(PROGRESS_KEYS)
        self.store.write_progress(document)
        registry = obs.get_registry()
        registry.gauge("campaign.wave").set(self.state.wave)
        registry.gauge("campaign.shard").set(self.state.shard)
        if pacer is not None:
            registry.gauge("pacing.achieved_probes_per_sec").set(
                pacer.achieved_rate
            )
        # Snapshotting + serializing the registry at every shard
        # boundary would dominate short shards, so the advisory metrics
        # file refreshes at most ~1/sec — except the final document,
        # which must hold the campaign's complete totals.  Outside a
        # metrics scope no metrics.json is written at all.
        now = time.monotonic()
        if registry and (
            self.state.finished
            or self._metrics_written_at is None
            or now - self._metrics_written_at >= 1.0
        ):
            self._metrics_written_at = now
            self.store.write_metrics(registry.snapshot())

    # -- accounting ----------------------------------------------------

    def _budget_spent(self) -> int:
        """Probes charged against the budget (completed waves only)."""
        return sum(
            r.probes_sent + r.blocked for r in self.state.records
        )

    def status(self) -> dict:
        """The deterministic status document (no wall-clock content)."""
        # A deep copy: the caller owns it, not the manifest caches.
        return copy.deepcopy(status_from_manifest(self._manifest()))

    # -- execution -----------------------------------------------------

    def run(self, on_checkpoint=None, pace: bool = True) -> dict:
        """Drive the campaign to completion (or budget exhaustion).

        ``on_checkpoint(runner)`` fires after every durable checkpoint —
        the test suite uses it to kill the campaign at exact shard
        boundaries.  ``pace=False`` ignores ``probes_per_sec`` for this
        invocation only (results are pacing-invariant by construction).
        The executor is opened once here and closed on the way out, so
        a distributed campaign starts one fleet per run, not per wave.
        """
        self._on_checkpoint = on_checkpoint
        self._pace = pace
        tracer, registry = self._observability()
        try:
            with obs.observe(tracer=tracer, registry=registry), self._fleet:
                self._open_fleet()
                return self._drive()
        finally:
            if tracer is not None:
                tracer.close()

    def _open_fleet(self) -> None:
        """Open the executor that drains this run's (or retry's) waves."""
        self._drain = self._fleet.enter_context(
            open_executor(self.spec.executor)
        )

    def _observability(self):
        """Build this run's (tracer, registry) per ``REPRO_OBS``.

        Resolved here — once per invocation, in the orchestrator
        process — so the knob can differ between a run and its resume
        without ever touching deterministic state.  The tracer needs a
        store to append to; the registry is process-local either way.
        """
        tracer = None
        if self.store is not None and obs.events_enabled():
            tracer = obs.Tracer(self.store.events_path)
        registry = (
            obs.MetricsRegistry() if obs.metrics_enabled() else None
        )
        return tracer, registry

    def _drive(self) -> dict:
        state = self.state
        # Incidents queued before this scope existed (a rollback or
        # quarantine during resume's load()) surface first.
        self._drain_storage_incidents()
        tracer = obs.get_tracer()
        span = tracer.begin(
            "campaign",
            name=self.spec.name,
            waves=self.spec.waves,
            executor=self.spec.executor,
            resumed=bool(state.wave or state.shard or state.records),
        )
        tracer.current = span
        try:
            while not state.finished:
                if state.wave >= self.spec.waves:
                    state.finished = True
                    break
                budget = self.spec.probe_budget
                if (
                    budget is not None
                    and state.shard == 0
                    and not state.wave_planned
                    and self._budget_spent() >= budget
                ):
                    state.finished = True
                    state.budget_exhausted = True
                    break
                self._run_wave()
        except BaseException as exc:
            tracer.current = None
            tracer.end("campaign", span, error=type(exc).__name__)
            raise
        tracer.current = None
        # Shut the fleet down first: its final counters belong in the
        # last progress and metrics documents.
        self._fleet.close()
        self._checkpoint()
        status = self.status()
        if self.store is not None:
            self.store.write_status(status)
            self._progress()
        tracer.end(
            "campaign",
            span,
            finished=state.finished,
            budget_exhausted=state.budget_exhausted,
            waves_completed=len(state.records),
            probes_sent=status["totals"]["probes_sent"],
        )
        return status

    def _plan_wave(self, plan, snapshot) -> None:
        """Resolve the reseed decision and (re)plan the selection."""
        state = self.state
        previous = state.records[-1].hitrate if state.records else None
        reseeded = self.spec.reseed.decide(plan.wave, previous)
        if reseeded:
            selection = self.strategy.plan(snapshot)
            mask = np.zeros(len(self.partition), dtype=bool)
            mask[selection.indices] = True
            state.mask = mask
            state.hitlist_month = plan.month
        state.wave_reseeded = reseeded
        state.wave_planned = True

    def _wave_targets(self):
        """The interval spec this wave drains through the engine."""
        state = self.state
        if self.spec.reseed_scan and state.wave_reseeded:
            # A real discovery scan: the whole announced space.
            return (self.partition.starts, self.partition.ends)
        mask = state.mask
        return (self.partition.starts[mask], self.partition.ends[mask])

    def _run_wave(self) -> None:
        spec, state = self.spec, self.state
        plan = self.plans[state.wave]
        snapshot = self.series[plan.month]
        if not state.wave_planned:
            self._plan_wave(plan, snapshot)
        selected_prefixes = int(state.mask.sum())
        # Exact under both families (128-bit sizes overflow float64).
        selected_addresses = self.partition.masked_address_count(
            state.mask
        )

        pacer = None
        wrap = None
        if spec.probes_per_sec is not None and self._pace:
            pacer = TokenBucket(spec.probes_per_sec)
            wrap = lambda targets: PacedTargets(targets, pacer)

        tracer = obs.get_tracer()
        campaign_span = tracer.current
        wave_span = tracer.begin(
            "wave",
            wave=plan.wave,
            month=plan.month,
            reseeded=state.wave_reseeded,
            selected_prefixes=selected_prefixes,
        )
        # Events emitted below the runner (the coordinator, deep inside
        # the executor generator) nest under the in-flight wave.
        tracer.current = wave_span
        registry = obs.get_registry()
        if spec.probes_per_sec is not None:
            registry.gauge("pacing.configured_probes_per_sec").set(
                spec.probes_per_sec
            )
        shard_clock = time.monotonic()

        def on_shard(index, result):
            nonlocal shard_clock
            now = time.monotonic()
            seconds = now - shard_clock
            shard_clock = now
            state.shard_results.append(result)
            state.shard = index + 1
            tracer.point(
                "shard",
                wave=plan.wave,
                index=index,
                probes_sent=result.probes_sent,
                responses=result.responses,
                blocked=result.blocked,
                batches=result.batches,
                seconds=seconds,
            )
            registry.histogram("shard.seconds").observe(seconds)
            registry.counter("campaign.probes_sent").inc(result.probes_sent)
            registry.counter("campaign.responses").inc(result.responses)
            manifest = self._checkpoint()
            tracer.point("checkpoint", wave=plan.wave, shard=state.shard)
            registry.counter("campaign.checkpoints").inc()
            self._progress(pacer, manifest=manifest)

        # Wave-level retry: an executor whose *infrastructure* collapsed
        # (ExecutorFailure — a tripped failure budget, a crash-looped
        # fleet, a progress stall) is retried with bounded deterministic
        # backoff instead of aborting the campaign.  Shards already
        # drained by an interrupted run — or by a failed attempt — stay
        # in place: on_shard checkpointed them, so each retry re-scans
        # only the remainder and the merged results stay byte-identical.
        # The attempt counter itself is checkpointed, so a campaign
        # killed between retries resumes with the same remaining budget.
        # This same path is what survives a *coordinator* death: the
        # run's fleet lives across its waves, but each retry (and each
        # `resume` of a killed run) closes it and opens a fresh
        # distributed Coordinator, which spawns anew and re-dials the
        # address book — the pre-started remote fleet reconnects and
        # the wave continues from the checkpoint stream.
        seeding = {}
        if spec.family == "v6":
            # The hitlist is the last reseed's planning snapshot — the
            # campaign's known-host list — and stays fixed until the
            # next reseed, so resumes rebuild the identical seeding.
            seeding = dict(
                hitlist=self.series[state.hitlist_month].addresses.values,
                samples=spec.samples_per_prefix,
            )
        try:
            while True:
                completed = list(state.shard_results)
                try:
                    sharded = run_sharded(
                        self._wave_targets(),
                        snapshot.addresses,
                        shards=spec.shards,
                        executor=self._drain,
                        config=EngineConfig(batch_size=spec.batch_size),
                        blocklist=self.blocklist,
                        protocol=spec.protocol,
                        # A distinct probe order per wave, deterministic
                        # in the spec.
                        seed=spec.scan_seed + plan.wave,
                        on_shard=on_shard,
                        completed=completed,
                        wrap_targets=wrap,
                        **seeding,
                    )
                    self._absorb_executor_telemetry()
                    break
                except ExecutorFailure:
                    state.wave_attempts += 1
                    self._retries_used += 1
                    self._absorb_executor_telemetry()
                    tracer.point(
                        "wave_retry",
                        wave=plan.wave,
                        attempt=state.wave_attempts,
                    )
                    registry.counter("campaign.wave_retries").inc()
                    manifest = self._checkpoint()
                    self._progress(pacer, manifest=manifest)
                    if state.wave_attempts > spec.wave_retries:
                        raise
                    self._fleet.close()
                    _retry_sleep(
                        backoff_delay(
                            state.wave_attempts,
                            spec.wave_retry_backoff,
                            _RETRY_BACKOFF_CAP,
                        )
                    )
                    self._open_fleet()
        except BaseException as exc:
            tracer.current = campaign_span
            tracer.end("wave", wave_span, error=type(exc).__name__)
            raise
        state.wave_attempts = 0
        # on_shard only sees newly drained shards; make the state whole.
        state.shard_results = list(sharded.shard_results)
        state.shard = len(state.shard_results)

        explore_probes = explore_hits = absorbed = 0
        values = snapshot.addresses.values
        # A full discovery scan already probed the unselected space —
        # exploring it again would double-count its responsive hosts.
        full_scan = spec.reseed_scan and state.wave_reseeded
        if spec.explore_frac > 0.0 and not full_scan:
            unselected = self.announced - selected_addresses
            explore_n = (
                max(1, int(spec.explore_frac * unselected))
                if unselected > 0
                else 0
            )
            explore_probes, hits, fresh = explore_unselected(
                self._rng, self.partition, state.mask, values, explore_n
            )
            state.mask[fresh] = True
            explore_hits = int(hits.size)
            absorbed = int(fresh.size)

        merged = sharded.result
        responses_total = merged.responses + explore_hits
        hosts = len(values)
        state.records.append(
            WaveRecord(
                wave=plan.wave,
                month=plan.month,
                reseeded=state.wave_reseeded,
                selected_prefixes=selected_prefixes,
                selected_addresses=selected_addresses,
                probes_sent=merged.probes_sent + explore_probes,
                responses=responses_total,
                blocked=merged.blocked,
                batches=merged.batches,
                explore_probes=explore_probes,
                explore_hits=explore_hits,
                absorbed_prefixes=absorbed,
                responsive_hosts=hosts,
                hitrate=responses_total / hosts if hosts else 0.0,
                missed=hosts - responses_total,
            )
        )
        state.wave += 1
        state.shard = 0
        state.wave_planned = False
        state.wave_reseeded = False
        state.shard_results = []
        manifest = self._checkpoint()
        self._progress(pacer, manifest=manifest)
        record = state.records[-1]
        tracer.current = campaign_span
        tracer.end(
            "wave",
            wave_span,
            probes_sent=record.probes_sent,
            responses=record.responses,
            hitrate=record.hitrate,
        )

    def _absorb_executor_telemetry(self) -> None:
        """Fold mailbox publications into the cumulative totals.

        The registry mirrors the *totals* as gauges (not per-update
        counter increments) so sample keys like ``survivors`` read as
        their latest value instead of a nonsense sum.
        """
        for update in obs.take_executor_telemetry():
            obs.merge_telemetry(self._telemetry_totals, update)
        registry = obs.get_registry()
        for key, value in self._telemetry_totals.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                registry.gauge(f"executor.{key}").set(value)


def _is_finite_number(value) -> bool:
    """A finite ``int``/``float``, never a ``bool``."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        isinstance(value, float) and math.isfinite(value)
    )


def status_from_manifest(manifest: dict) -> dict:
    """The deterministic status document, from a checkpoint manifest.

    The single source of the status shape: the runner's
    :meth:`CampaignRunner.status` feeds its live manifest through this
    same function, so reading a checkpoint off disk (no dataset load)
    yields byte-identical status to asking the running campaign.
    In-flight shard counters are folded into the totals wholesale —
    probes, responses *and* blocked — so a mid-campaign document stays
    internally consistent.
    """
    spec = manifest["spec"]
    records = manifest["records"]
    in_flight = manifest["shard_results"]
    totals = {
        "probes_sent": sum(r["probes_sent"] for r in records)
        + sum(probes for probes, _, _, _ in in_flight),
        "responses": sum(r["responses"] for r in records)
        + sum(responses for _, responses, _, _ in in_flight),
        "blocked": sum(r["blocked"] for r in records)
        + sum(blocked for _, _, blocked, _ in in_flight),
        "explore_probes": sum(r["explore_probes"] for r in records),
        "explore_hits": sum(r["explore_hits"] for r in records),
        "absorbed_prefixes": sum(
            r["absorbed_prefixes"] for r in records
        ),
        "reseeds": sum(1 for r in records if r["reseeded"]),
    }
    return {
        "name": spec["name"],
        "spec": spec,
        "announced_addresses": manifest["announced"],
        "waves_planned": spec["waves"],
        "waves_completed": len(records),
        "position": {
            "wave": manifest["wave"], "shard": manifest["shard"],
        },
        "finished": manifest["finished"],
        "budget_exhausted": manifest["budget_exhausted"],
        "waves": records,
        "totals": totals,
    }


def run_campaign(
    spec: CampaignSpec, dataset=None, directory=None, **run_kwargs
) -> dict:
    """Plan and run a campaign in one call; returns the status document."""
    runner = CampaignRunner(spec, dataset=dataset, directory=directory)
    if runner.store is not None:
        runner.store.write_spec(runner.spec.to_dict())
    return runner.run(**run_kwargs)
