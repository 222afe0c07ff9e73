"""The observability plane: tracer, metrics, schema, report — and the
wall-clock-side contract.

The load-bearing property: ``REPRO_OBS`` never touches deterministic
state.  A campaign run with observability off, on, or toggled between a
kill and its resume produces byte-identical ``status.json`` and
``checkpoint.npz`` — including the distributed executor under an
injected fault plan.
"""

import dataclasses
import json

import pytest

from conftest import build_mini_dataset
from repro import obs
from repro.obs.events import NullTracer, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import format_event, load_rollup, render_report
from repro.obs.schema import validate_events, validate_file
from repro.orchestrator import (
    CampaignRunner,
    CampaignSpec,
    ReseedPolicy,
)
from repro.orchestrator.campaign import PROGRESS_KEYS
import repro.scan.engine as engine_mod
import repro.scan.executors as executors


class _Killed(RuntimeError):
    """Raised by the checkpoint hook to simulate a kill at a boundary."""


SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)


def _run(spec, directory, on_checkpoint=None):
    runner = CampaignRunner(
        spec, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    runner.run(on_checkpoint=on_checkpoint)
    return runner


def _deterministic_bytes(directory):
    from repro.orchestrator.checkpoint import CheckpointStore

    status = json.loads((directory / "status.json").read_text())
    return (
        json.dumps(status, sort_keys=True).encode(),
        CheckpointStore(directory).checkpoint_path.read_bytes(),
    )


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_envelope_nesting_and_schema(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Tracer(path) as tracer:
            campaign = tracer.begin(
                "campaign", name="x", waves=1, executor="serial"
            )
            tracer.current = campaign
            wave = tracer.begin("wave", wave=0, month=0)
            tracer.point("checkpoint", wave=0, shard=1, parent=wave)
            tracer.end("wave", wave)
            tracer.current = None
            tracer.end("campaign", campaign)
        lines = path.read_text().splitlines()
        assert validate_events(lines) == []
        records = [json.loads(line) for line in lines]
        assert [r["ev"] for r in records] == [
            "begin", "begin", "point", "end", "end",
        ]
        # The wave span nested under `current` implicitly; the point
        # under its explicit parent.
        assert records[1]["parent"] == records[0]["span"]
        assert records[2]["parent"] == records[1]["span"]
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert len({r["run"] for r in records}) == 1

    def test_resume_appends_under_fresh_run_id(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for _ in range(2):
            with Tracer(path) as tracer:
                span = tracer.begin("campaign", name="x", waves=1,
                                    executor="serial")
                tracer.end("campaign", span)
        lines = path.read_text().splitlines()
        assert validate_events(lines) == []
        assert len({json.loads(line)["run"] for line in lines}) == 2

    def test_emit_after_close_is_a_noop(self, tmp_path):
        tracer = Tracer(tmp_path / "events.jsonl")
        tracer.close()
        assert tracer.point("checkpoint", wave=0, shard=0) is not None
        assert tracer.emitted == 0

    def test_null_tracer_returns_none(self):
        tracer = NullTracer()
        assert tracer.begin("wave", wave=0, month=0) is None
        assert tracer.point("checkpoint", wave=0, shard=0) is None
        assert tracer.end("wave", None) is None
        assert tracer.current is None


class TestSchemaValidator:
    def _valid_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Tracer(path) as tracer:
            span = tracer.begin("campaign", name="x", waves=1,
                                executor="serial")
            tracer.end("campaign", span)
        return path.read_text().splitlines()

    def test_unknown_type_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        record = json.loads(lines[0])
        record["type"] = "mystery"
        assert validate_events([json.dumps(record)])

    def test_seq_regression_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        first, second = (json.loads(line) for line in lines)
        second["seq"] = first["seq"]
        errors = validate_events(
            [json.dumps(first), json.dumps(second)]
        )
        assert any("seq" in e for e in errors)

    def test_missing_required_data_key_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        record = json.loads(lines[0])
        del record["data"]["waves"]
        assert validate_events([json.dumps(record)])

    def test_unclosed_span_is_not_an_error(self, tmp_path):
        # A killed campaign legitimately leaves spans open.
        lines = self._valid_lines(tmp_path)
        assert validate_events(lines[:1]) == []

    def test_garbage_line_rejected(self):
        assert validate_events(["this is not json"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("b").set(2.5)
        for value in (0.3, 0.4, 3.0):
            registry.histogram("c").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["a"] == {"kind": "counter", "value": 5}
        assert snapshot["b"] == {"kind": "gauge", "value": 2.5}
        hist = snapshot["c"]
        assert hist["count"] == 3
        assert hist["min"] == 0.3 and hist["max"] == 3.0
        assert hist["buckets"] == {"0.5": 2, "4.0": 1}
        # The snapshot is strict JSON.
        json.dumps(snapshot, allow_nan=False)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="x"):
            registry.gauge("x")


class TestMergeTelemetry:
    def test_numeric_add_bool_count_sample_latest(self):
        totals = {}
        obs.merge_telemetry(
            totals, {"failures": 2, "degraded": True, "survivors": 4}
        )
        obs.merge_telemetry(
            totals, {"failures": 1, "degraded": False, "survivors": 3}
        )
        assert totals == {"failures": 3, "degraded": 1, "survivors": 3}

    def test_none_sample_keeps_previous(self):
        totals = {"survivors": 5}
        obs.merge_telemetry(totals, {"survivors": None})
        assert totals["survivors"] == 5


class TestObserveScope:
    def test_defaults_outside_any_scope(self):
        assert isinstance(obs.get_tracer(), NullTracer)
        null = obs.get_registry()
        assert isinstance(null, obs.NullRegistry) and not null
        null.counter("c").inc(3)
        null.gauge("g").set(1)
        null.histogram("h").observe(0.5)
        assert null.snapshot() == {}

    def test_install_and_restore(self, tmp_path):
        registry = MetricsRegistry()
        with Tracer(tmp_path / "e.jsonl") as tracer:
            with obs.observe(tracer=tracer, registry=registry):
                assert obs.get_tracer() is tracer
                assert obs.get_registry() is registry
            assert isinstance(obs.get_tracer(), NullTracer)
            assert isinstance(obs.get_registry(), obs.NullRegistry)

    def test_mailbox_is_always_on(self):
        obs.take_executor_telemetry()  # drain any leftovers
        obs.publish_executor_telemetry({"failures": 1})
        obs.publish_executor_telemetry({"failures": 2})
        assert obs.take_executor_telemetry() == [
            {"failures": 1}, {"failures": 2},
        ]
        assert obs.take_executor_telemetry() == []


# ---------------------------------------------------------------------------
# The wall-clock-side contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["events", "full"])
def test_byte_identity_serial(tmp_path, monkeypatch, mode):
    monkeypatch.setenv("REPRO_OBS", "off")
    _run(SPEC, tmp_path / "off")
    monkeypatch.setenv("REPRO_OBS", mode)
    _run(SPEC, tmp_path / "on")
    assert _deterministic_bytes(tmp_path / "off") == (
        _deterministic_bytes(tmp_path / "on")
    )
    assert not (tmp_path / "off" / "events.jsonl").exists()
    assert (tmp_path / "on" / "events.jsonl").exists()
    assert (tmp_path / "on" / "metrics.json").exists() == (
        mode == "full"
    )
    assert validate_file(tmp_path / "on" / "events.jsonl") == []


def test_engine_counters_do_not_depend_on_split_parts(
    tmp_path, monkeypatch
):
    # A split shard is counted on helper threads; the registry is
    # updated once per shard, on the calling thread.
    monkeypatch.setenv("REPRO_OBS", "full")
    spec = dataclasses.replace(SPEC, batch_size=1 << 10)
    threaded = []
    score_threaded = engine_mod._score_threaded

    def spy(runs, bitmaps):
        threaded.append(len(runs))
        return score_threaded(runs, bitmaps)

    monkeypatch.setattr(engine_mod, "_score_threaded", spy)
    counters = {}
    for parts in (1, 2):
        monkeypatch.setattr(
            executors.os, "sched_getaffinity", lambda pid: set(range(parts))
        )
        _run(spec, tmp_path / str(parts))
        metrics = json.loads(
            (tmp_path / str(parts) / "metrics.json").read_text()
        )
        counters[parts] = {
            name: metric["value"] for name, metric in metrics.items()
            if name.startswith("engine.")
        }
        if parts == 1:
            assert threaded == []
    assert threaded and set(threaded) == {2}
    assert set(counters[1]) == {
        "engine.batches", "engine.probes_sent", "engine.responses",
        "engine.blocked",
    }
    assert counters[1] == counters[2]


def test_byte_identity_toggled_mid_resume(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "off")
    _run(SPEC, tmp_path / "base")
    expected = _deterministic_bytes(tmp_path / "base")

    seen = [0]

    def kill(_):
        seen[0] += 1
        if seen[0] == 3:
            raise _Killed()

    directory = tmp_path / "toggled"
    monkeypatch.setenv("REPRO_OBS", "events")
    with pytest.raises(_Killed):
        _run(SPEC, directory, on_checkpoint=kill)
    monkeypatch.setenv("REPRO_OBS", "full")
    CampaignRunner.resume(directory, dataset=build_mini_dataset()).run()
    assert _deterministic_bytes(directory) == expected
    # Both processes appended to one log, each under its own run id,
    # and the whole file still validates (open spans included).
    lines = (directory / "events.jsonl").read_text().splitlines()
    assert validate_events(lines) == []
    assert len({json.loads(line)["run"] for line in lines}) == 2


def test_byte_identity_distributed_under_faults(tmp_path, monkeypatch):
    spec = CampaignSpec(
        preset="mini",
        waves=2,
        phi=0.9,
        shards=3,
        executor="distributed",
        batch_size=1 << 12,
    )
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.setenv("REPRO_OBS", "off")
    _run(spec, tmp_path / "off")
    monkeypatch.setenv("REPRO_OBS", "full")
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash@1")
    _run(spec, tmp_path / "full")
    assert _deterministic_bytes(tmp_path / "off") == (
        _deterministic_bytes(tmp_path / "full")
    )
    assert validate_file(tmp_path / "full" / "events.jsonl") == []
    events = [
        json.loads(line)
        for line in (tmp_path / "full" / "events.jsonl")
        .read_text()
        .splitlines()
    ]
    types = {record["type"] for record in events}
    assert {"worker_spawn", "worker_connect", "shard_dispatch",
            "shard_result", "fault_armed", "worker_drop",
            "fault_fired"} <= types
    # The fleet's failure accounting survived into progress.json.
    progress = json.loads(
        (tmp_path / "full" / "progress.json").read_text()
    )
    telemetry = progress["executor_telemetry"]
    assert telemetry["failures"] >= 1
    assert telemetry["faults_armed"] >= 1
    # Worker stats shipped home landed in the metrics snapshot.
    metrics = json.loads(
        (tmp_path / "full" / "metrics.json").read_text()
    )
    assert any(name.startswith("worker.") for name in metrics)
    assert metrics["dist.bytes_in"]["value"] > 0
    assert metrics["dist.bytes_out"]["value"] > 0


def test_resume_seeds_cumulative_telemetry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "off")
    seen = [0]

    def kill(_):
        seen[0] += 1
        if seen[0] == 2:
            raise _Killed()

    directory = tmp_path / "campaign"
    with pytest.raises(_Killed):
        _run(SPEC, directory, on_checkpoint=kill)
    # Pretend the killed run had accumulated fleet telemetry and spent
    # a wave retry; the resume must continue those counters, not reset
    # them (the distributed path exercises the merge end to end).
    progress = json.loads((directory / "progress.json").read_text())
    progress["wave_retries_used"] = 2
    progress["executor_telemetry"] = {"failures": 3, "respawns": 1}
    (directory / "progress.json").write_text(json.dumps(progress))
    runner = CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    )
    assert runner._retries_used == 2
    assert runner._telemetry_totals == {"failures": 3, "respawns": 1}
    runner.run()
    final = json.loads((directory / "progress.json").read_text())
    assert final["wave_retries_used"] == 2
    assert final["executor_telemetry"] == {
        "failures": 3, "respawns": 1,
    }


def test_fresh_run_clears_stale_observability(tmp_path, monkeypatch):
    from repro.orchestrator.checkpoint import CheckpointStore

    monkeypatch.setenv("REPRO_OBS", "events")
    directory = tmp_path / "campaign"
    _run(SPEC, directory)
    assert (directory / "events.jsonl").exists()
    store = CheckpointStore(directory)
    store.clear()
    assert not (directory / "events.jsonl").exists()
    assert not (directory / "progress.json").exists()
    assert not store.has_checkpoint()
    assert not store.journal_path.exists()
    assert not (directory / "status.json").exists()


# ---------------------------------------------------------------------------
# Introspection surfaces
# ---------------------------------------------------------------------------


def test_report_rollup_and_rendering(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "full")
    directory = tmp_path / "campaign"
    _run(SPEC, directory)
    rollup = load_rollup(directory)
    assert rollup["campaign"]["finished"] is True
    assert len(rollup["waves"]) == SPEC.waves
    assert all(row["seconds"] is not None for row in rollup["waves"])
    assert len(rollup["shards"]) == SPEC.waves * SPEC.shards
    assert rollup["events"]["total"] > 0
    assert rollup["metrics"]["campaign.checkpoints"]["value"] >= (
        SPEC.waves * SPEC.shards
    )
    json.dumps(rollup, allow_nan=False)
    text = render_report(rollup)
    assert "per-wave:" in text and "per-shard:" in text
    assert "finished" in text


def test_obs_cli_report_and_validate(tmp_path, monkeypatch, capsys):
    from repro.obs.__main__ import main as obs_main

    monkeypatch.setenv("REPRO_OBS", "events")
    directory = tmp_path / "campaign"
    _run(SPEC, directory)
    assert obs_main(["validate", "--dir", str(directory)]) == 0
    capsys.readouterr()
    assert obs_main(["report", "--dir", str(directory), "--json"]) == 0
    rollup = json.loads(capsys.readouterr().out)
    assert rollup == json.loads(json.dumps(rollup))

    # A tampered log fails validation with a non-zero exit.
    events = directory / "events.jsonl"
    events.write_text(
        events.read_text() + '{"not": "an event"}\n'
    )
    assert obs_main(["validate", "--events", str(events)]) == 1


def test_status_follow_replays_until_campaign_end(
    tmp_path, monkeypatch, capsys
):
    from repro.orchestrator.checkpoint import CheckpointStore
    from repro.orchestrator.cli import _follow_events

    monkeypatch.setenv("REPRO_OBS", "events")
    directory = tmp_path / "campaign"
    _run(SPEC, directory)
    # The campaign already ended, so the follower replays the log and
    # returns as soon as it sees the campaign span close.
    assert _follow_events(CheckpointStore(directory)) == 0
    out = capsys.readouterr().out
    assert "campaign" in out and "checkpoint" in out


def test_format_event_is_one_line():
    line = format_event(
        {
            "ts": 1754630000.125,
            "ev": "point",
            "type": "checkpoint",
            "data": {"wave": 1, "shard": 2},
        }
    )
    assert "\n" not in line
    assert "checkpoint" in line and "wave=1" in line and "shard=2" in line
