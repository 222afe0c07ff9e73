"""One distributed fleet per campaign run, across faults and waves.

A distributed campaign starts its workers once per
``CampaignRunner.run``: every later wave is one more ``init`` on the
sessions already open.  These tests read ``events.jsonl``
(``REPRO_OBS=events``) to pin what happens at the edges of that
lifetime: a wave retry starts a fresh fleet, a fault plan keyed by
shard attempt replays every wave, and a speculative copy still running
when its wave ends never lands in the next (a timing rule of the
scheduling policy, run on the simulated fleet of
``tests/fleet_sim.py``).  (One fleet for an unfaulted run and two
across a kill and resume are pinned in ``tests/test_distributed.py``.)
"""

import dataclasses
import json

import pytest

from conftest import build_mini_dataset
from fleet_sim import SimFleet, shard_result
import repro.orchestrator.campaign as campaign_mod
from repro.env import ENV_FAULT_PLAN
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy

SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="distributed",
    reseed=ReseedPolicy("interval", interval=0),
    batch_size=1 << 12,
)


@pytest.fixture(autouse=True)
def _fleet_env(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "events")
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    for knob in (
        ENV_FAULT_PLAN,
        "REPRO_DIST_ADDRESS_BOOK",
        "REPRO_DIST_SECRET",
        "REPRO_DIST_SHARD_DEADLINE",
    ):
        monkeypatch.delenv(knob, raising=False)


def _runner(spec, directory):
    runner = CampaignRunner(
        spec, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    return runner


def _assert_matches_serial(status, spec):
    serial = CampaignRunner(
        dataclasses.replace(spec, executor="serial"),
        dataset=build_mini_dataset(),
    ).run()
    assert status["waves"] == serial["waves"]
    assert status["totals"] == serial["totals"]


def _records(directory):
    lines = (directory / "events.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def _events(directory, kind):
    return [
        record["data"]
        for record in _records(directory)
        if record["type"] == kind
    ]


def _telemetry(directory):
    progress = json.loads((directory / "progress.json").read_text())
    return progress["executor_telemetry"]


def _fleet_starts(spawns):
    """Every fleet numbers its spawns from ordinal 0."""
    return sum(1 for spawn in spawns if spawn["ordinal"] == 0)


def test_wave_retry_spawns_a_fresh_fleet(tmp_path, monkeypatch):
    # A one-worker fleet whose worker dies on shard 1 and whose every
    # replacement dies at exec: the crash-loop detector leaves no
    # survivors and wave 0 fails with ExecutorFailure.  The plan is
    # gone by the retry, which must run on a fresh fleet and resume
    # from shard 1's checkpoint.
    monkeypatch.setenv("REPRO_DIST_WORKERS", "1")
    monkeypatch.setenv(
        ENV_FAULT_PLAN, "crash@1:attempts=*,spawn_crash@1:attempts=*"
    )
    monkeypatch.setattr(
        campaign_mod,
        "_retry_sleep",
        lambda _: monkeypatch.delenv(ENV_FAULT_PLAN),
    )
    directory = tmp_path / "retried"
    spec = dataclasses.replace(SPEC, waves=1, wave_retries=1)
    status = _runner(spec, directory).run()
    assert len(_events(directory, "wave_retry")) == 1
    assert _fleet_starts(_events(directory, "worker_spawn")) == 2
    _assert_matches_serial(status, spec)


def test_fault_plan_replays_every_wave(tmp_path, monkeypatch):
    # Shard attempts restart at 0 each wave, so crash@1 kills the first
    # attempt at shard 1 in every wave of the one fleet.
    monkeypatch.setenv(ENV_FAULT_PLAN, "crash@1")
    directory = tmp_path / "replayed"
    status = _runner(SPEC, directory).run()
    fired = _events(directory, "fault_fired")
    assert [event["kind"] for event in fired] == ["crash"] * SPEC.waves
    assert _telemetry(directory)["failures"] == SPEC.waves
    _assert_matches_serial(status, SPEC)


def test_wave_boundary_drops_in_flight_speculative_copies():
    # Every shard's first attempt stalls far past its deadline, so each
    # is raced by a speculative copy on a replacement worker, and each
    # wave ends while the stalled originals still hold their shards.
    # The boundary drops them uncharged: none of their results lands,
    # in this wave or (as a stale result) in the next.  The policy's
    # timing rule, so it runs on the simulated fleet.
    fleet = SimFleet("stall@*:delay=8", workers=2, shard_deadline=1.5)
    for _ in range(2):
        assert fleet.run_wave(range(2)) == [shard_result(0), shard_result(1)]
        telemetry = fleet.policy.telemetry
        assert telemetry["speculative_requeues"] == 2  # each shard
        assert telemetry["duplicates_discarded"] == 0
        assert telemetry["failures"] == 0
        assert telemetry["deadline_kills"] == 0
    drops = fleet.points("worker_drop")
    assert [drop["reason"] for drop in drops] == (
        ["held a shard at wave end"] * 4
    )
    dropped = set()
    for point, fields in fleet.traces:
        if point == "worker_drop":
            dropped.add(fields["pid"])
        elif point == "shard_result":
            assert fields["pid"] not in dropped
