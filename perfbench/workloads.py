"""The benchmark's four workloads: inputs, one timed iteration, its check.

Every workload loads the seed-0 build of a dataset preset and maps the
benchmark seed onto the campaign's ``spec.scan_seed`` (probe order and
explore draws); the analysis passes take no seed, so every seed runs
``paper-analysis`` on the same inputs.  Each iteration returns an
:class:`Outcome` whose ``digest`` the runner compares with a reference
computed the same way in set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.bgp.backends import COUNT_CACHE
from repro.census import loader
from repro.orchestrator.campaign import CampaignRunner, CampaignSpec
from repro.orchestrator.waves import ReseedPolicy

__all__ = [
    "DATASET_SEED",
    "INTERRUPT_AT",
    "WORKLOADS",
    "Outcome",
    "dataset_path",
    "make_workload",
]

#: Every dataset is the seed-0 build of its preset.
DATASET_SEED = 0

#: ``v4-distributed`` stops each iteration at this durable checkpoint
#: (1-based): wave 1, right after the fifth of its eight shards.
INTERRUPT_AT = 14

#: Executor telemetry counters that mean a worker or shard was retried.
RETRY_TELEMETRY = (
    "failures", "respawns", "speculative_requeues", "deadline_kills",
)


def digest(document) -> str:
    text = document if isinstance(document, str) else json.dumps(
        document, sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()


def status_digest(status: dict) -> str:
    """The deterministic part of a campaign status: waves and totals."""
    return digest({"waves": status["waves"], "totals": status["totals"]})


def dataset_path(data_dir, preset: str) -> Path:
    name = f"census-{preset}-seed{DATASET_SEED}-v{loader.LOADER_VERSION}.npz"
    return Path(data_dir) / name


def load_dataset(data_dir, preset: str):
    """Load a built preset; a measurement never generates one."""
    path = dataset_path(data_dir, preset)
    if not path.exists():
        raise FileNotFoundError(f"dataset {path} has not been built")
    return loader.get_dataset(
        preset=preset, seed=DATASET_SEED, cache_dir=data_dir
    )


@dataclass
class Outcome:
    """What one iteration produced: its timings and its checked outputs."""

    wall_s: float
    digest: object
    #: Probes the iteration accounts (sent + blocked).
    probes: int
    traffic_saved_frac: float
    hosts_missed_frac: float
    #: ``perf_counter_ns`` of each durable point, one list per run
    #: segment; a segment starts with the moment it began.
    marks: list
    #: Deterministic counts that must repeat exactly.
    counts: dict = field(default_factory=dict)
    #: Why the iteration counts as failed, even if its digest matches.
    failure: str | None = None
    #: Campaign-directory artifacts read before the directory is removed.
    artifacts: dict = field(default_factory=dict)
    #: Factor that rescales this iteration's timings to the reference
    #: host speed (set by the runner from the calibration kernel).
    scale: float = 1.0


class _Interrupted(Exception):
    """Raised from ``on_checkpoint`` to stop a campaign mid-wave."""


class CampaignWorkload:
    """A four-wave campaign, checkpointing after every shard."""

    def __init__(self, name, why, *, preset, family, executor, seed,
                 data_dir, scratch, interrupt_at=None, **spec_fields):
        self.name = name
        self.why = why
        self.data_dir = Path(data_dir)
        self.scratch = Path(scratch)
        self.interrupt_at = interrupt_at
        self.spec = CampaignSpec(
            name=name,
            preset=preset,
            dataset_seed=DATASET_SEED,
            protocol="http",
            phi=0.9,
            waves=4,
            reseed=ReseedPolicy("interval", interval=2),
            shards=8,
            executor=executor,
            backend="searchsorted",
            family=family,
            scan_seed=seed,
            **spec_fields,
        ).resolved()
        self.presets = (preset,)
        self.spawns_workers = executor == "distributed"
        #: ``REPRO_OBS`` of traced iterations: ``full`` on the fleet,
        #: whose worker seconds and frame bytes only the registry holds.
        self.traced_observe = "full" if self.spawns_workers else "off"
        self.dataset = None

    def record(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "seed_maps_to": "spec.scan_seed",
            "interrupt_at_checkpoint": self.interrupt_at,
        }

    def _directory(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=self.name, dir=self.scratch))

    def setup(self) -> float:
        """Load the dataset, build a runner and write its spec; seconds."""
        directory = self._directory()
        try:
            start = time.perf_counter()
            dataset = load_dataset(self.data_dir, self.spec.preset)
            runner = CampaignRunner(
                self.spec, dataset=dataset, directory=directory
            )
            runner.store.write_spec(runner.spec.to_dict())
            elapsed = time.perf_counter() - start
        finally:
            shutil.rmtree(directory)
        self.dataset = dataset
        return elapsed

    def reference(self) -> str:
        """Digest of the serial, single-shard, uncheckpointed campaign."""
        spec = dataclasses.replace(self.spec, executor="serial", shards=1)
        return status_digest(CampaignRunner(spec, dataset=self.dataset).run())

    def iterate(self, observe: str = "off") -> Outcome:
        """One timed campaign (plus its resume on ``v4-distributed``).

        ``observe`` is the ``REPRO_OBS`` mode of this iteration; the
        traced ``v4-distributed`` run uses ``full`` to collect worker
        seconds and frame bytes.
        """
        os.environ["REPRO_OBS"] = observe
        directory = self._directory()
        try:
            runner = CampaignRunner(
                self.spec, dataset=self.dataset, directory=directory
            )
            runner.store.write_spec(runner.spec.to_dict())
            marks, registries = [], []
            cache = (COUNT_CACHE.hits, COUNT_CACHE.misses)
            start = time.perf_counter()
            status = self._run(runner, marks, registries)
            if self.interrupt_at is not None:
                if status is not None:
                    raise RuntimeError("the mid-wave interrupt never fired")
                runner = CampaignRunner.resume(directory, dataset=self.dataset)
                status = self._run(runner, marks, registries)
            wall = time.perf_counter() - start
            outcome = self._outcome(
                wall, status, marks, directory, registries, observe
            )
            outcome.artifacts["count_cache"] = (
                COUNT_CACHE.hits - cache[0], COUNT_CACHE.misses - cache[1]
            )
            return outcome
        finally:
            os.environ["REPRO_OBS"] = "off"
            shutil.rmtree(directory, ignore_errors=True)

    def _run(self, runner, marks, registries):
        """``runner.run()``, noting each checkpoint; None if interrupted."""
        segment = [time.perf_counter_ns()]
        marks.append(segment)
        interrupt = self.interrupt_at if len(marks) == 1 else None

        def on_checkpoint(_runner):
            segment.append(time.perf_counter_ns())
            if len(segment) - 1 == interrupt:
                # The run's metrics registry dies with the run; keep it
                # so its worker seconds and frame bytes can be read.
                registries.append(obs.get_registry())
                raise _Interrupted

        try:
            return runner.run(on_checkpoint=on_checkpoint)
        except _Interrupted:
            return None

    def _outcome(self, wall, status, marks, directory, registries, observe):
        progress = json.loads((directory / "progress.json").read_text())
        telemetry = progress["executor_telemetry"]
        retried = {
            key: telemetry[key]
            for key in RETRY_TELEMETRY
            if telemetry.get(key)
        }
        if progress["wave_retries_used"]:
            retried["wave_retries"] = progress["wave_retries_used"]
        totals, waves = status["totals"], status["waves"]
        probes = totals["probes_sent"] + totals["blocked"]
        outcome = Outcome(
            wall_s=wall,
            digest=status_digest(status),
            probes=probes,
            traffic_saved_frac=1.0 - probes / (
                self.spec.waves * status["announced_addresses"]
            ),
            hosts_missed_frac=sum(w["missed"] for w in waves)
            / sum(w["responsive_hosts"] for w in waves),
            marks=marks,
            counts={
                "scan.probes": totals["probes_sent"],
                "scan.responses": totals["responses"],
                "scan.blocked": totals["blocked"],
            },
            failure=f"retried: {retried}" if retried else None,
        )
        outcome.artifacts["telemetry"] = telemetry
        if observe == "full":
            lines = (directory / "events.jsonl").read_text().splitlines()
            outcome.artifacts["events"] = [
                event
                for event in map(json.loads, filter(None, lines))
                if (event["type"], event["ev"])
                in (("wave", "begin"), ("shard_result", "point"))
            ]
            outcome.artifacts["metrics"] = [
                registry.snapshot() for registry in registries
            ] + [json.loads((directory / "metrics.json").read_text())]
        return outcome


#: The 13 analysis passes: (name, module, stem of run_*/render_*).
PASSES = (
    ("table1", "repro.analysis.table1", "table1"),
    ("figure1", "repro.analysis.figure1", "figure1"),
    ("figure2", "repro.analysis.figure2", "figure2"),
    ("figure3", "repro.analysis.figure3", "figure3"),
    ("figure4", "repro.analysis.figure4", "figure4"),
    ("figure5", "repro.analysis.figure5", "figure5"),
    ("figure6", "repro.analysis.figure6", "figure6"),
    ("section34", "repro.analysis.section34", "section34"),
    ("efficiency", "repro.analysis.efficiency", "efficiency"),
    ("missed", "repro.analysis.missed", "missed_hosts"),
    ("reseeding", "repro.analysis.reseeding", "reseeding"),
    ("adaptive", "repro.analysis.adaptive", "adaptive"),
    ("churn", "repro.analysis.churn_decomposition", "churn_decomposition"),
)


class AnalysisWorkload:
    """Every paper analysis pass, rendered, on a cold count cache."""

    def __init__(self, name, why, *, preset, data_dir):
        self.name = name
        self.why = why
        self.preset = preset
        self.presets = (preset,)
        self.data_dir = Path(data_dir)
        self.passes = {}
        for pass_name, module_name, stem in PASSES:
            module = importlib.import_module(module_name)
            run = getattr(module, f"run_{stem}")
            kwargs = (
                {"backend": "searchsorted"}
                if "backend" in inspect.signature(run).parameters
                else {}
            )
            self.passes[pass_name] = (run, getattr(module, f"render_{stem}"),
                                      kwargs)
        self.spawns_workers = False
        self.traced_observe = "off"
        self.dataset = None

    def record(self) -> dict:
        return {
            "preset": self.preset,
            "dataset_seed": DATASET_SEED,
            "backend": "searchsorted",
            "passes": [name for name, _, _ in PASSES],
            "seed_maps_to": "nothing: the analyses take no seed",
        }

    def setup(self) -> float:
        start = time.perf_counter()
        self.dataset = load_dataset(self.data_dir, self.preset)
        return time.perf_counter() - start

    def reference(self) -> dict:
        """Per-pass digests of the rendered text."""
        return self._passes()[0]

    def _passes(self):
        COUNT_CACHE.clear()
        marks = [time.perf_counter_ns()]
        digests, results = {}, {}
        for name, (run, render, kwargs) in self.passes.items():
            results[name] = run(self.dataset, **kwargs)
            digests[name] = digest(render(results[name]))
            marks.append(time.perf_counter_ns())
        return digests, results, marks

    def iterate(self, observe: str = "off") -> Outcome:
        digests, results, marks = self._passes()
        rows = results["efficiency"].rows
        tass = sum(row.tass_probes for row in rows)
        outcome = Outcome(
            wall_s=(marks[-1] - marks[0]) / 1e9,
            digest=digests,
            probes=tass,
            traffic_saved_frac=1.0 - tass / sum(row.full_probes for row in rows),
            hosts_missed_frac=statistics.fmean(
                1.0 - row.final_hitrate for row in rows
            ),
            marks=[marks],
        )
        # The passes start from a cleared cache, so its counters are
        # this iteration's own.
        outcome.artifacts["count_cache"] = (
            COUNT_CACHE.hits, COUNT_CACHE.misses
        )
        return outcome


#: name -> (why, factory keywords).  The ``why`` also names the inputs.
WORKLOADS = {
    "v4-campaign": (
        "small, http, phi .9, 4 waves, reseed/2, 8 shards, serial, "
        "blocklist, explore .01, seed=scan_seed: the scan path (walk, "
        "address mapping, engine) does most of the work",
        dict(kind="campaign", preset="small", family="v4",
             executor="serial", use_blocklist=True, explore_frac=0.01),
    ),
    "v4-distributed": (
        "v4-campaign on 2 distributed workers, stopped mid-wave and "
        "resumed: spawn, wire codec, in-order release and checkpoint "
        "loads join the engine work",
        dict(kind="campaign", preset="small", family="v4",
             executor="distributed", use_blocklist=True, explore_frac=0.01,
             interrupt_at=INTERRUPT_AT),
    ),
    "v6-campaign": (
        "v6-small, http, phi .9, 4 waves, reseed/2, 8 shards, serial, 64 "
        "samples/prefix, seed=scan_seed: S16 shard-target building "
        "dominates, the engine does little",
        dict(kind="campaign", preset="v6-small", family="v6",
             executor="serial", samples_per_prefix=64),
    ),
    "paper-analysis": (
        "the 13 paper analysis passes on small, cold count cache, same "
        "inputs for every seed: counting, set algebra and simulation do "
        "the work, the scan engine none",
        dict(kind="analysis", preset="small"),
    ),
}


def make_workload(name, seed, data_dir, scratch, presets=None):
    """Build workload ``name``; ``presets`` maps a preset to a stand-in."""
    why, keywords = WORKLOADS[name]
    keywords = dict(keywords)
    kind = keywords.pop("kind")
    keywords["preset"] = (presets or {}).get(
        keywords["preset"], keywords["preset"]
    )
    if kind == "analysis":
        return AnalysisWorkload(name, why, **keywords, data_dir=data_dir)
    return CampaignWorkload(
        name, why, **keywords, seed=seed, data_dir=data_dir, scratch=scratch
    )
