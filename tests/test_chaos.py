"""Chaos matrix: executor invariance under every deterministic fault.

The acceptance bar for the fault plane is absolute: under EVERY fault
plan — worker crashes, hangs rescued by speculative re-dispatch,
corrupt/truncated/oversized frames, mid-result deaths, crash-looping
respawns — the distributed executor's merged results and a campaign's
resume artifacts must be byte-identical to an undisturbed serial run.
Anything else means retries perturb science.

Pure plan/backoff/deadline arithmetic is covered in
``tests/test_faults.py``.  The fault matrix, spawn faults, the abort
report and campaigns spend real processes here; deadlines, speculation
and degradation are timing rules of the scheduling policy, so they
drive it against the simulated fleet of ``tests/fleet_sim.py``.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_mini_dataset
from fleet_sim import SimFleet, expected_failures, shard_result
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
import repro.orchestrator.campaign as campaign_mod
import repro.scan.distributed as distributed
from repro.scan.distributed import Coordinator
from repro.scan.engine import EngineConfig
from repro.scan.executors import (
    EXECUTORS,
    ExecutorFailure,
    serial_executor,
)
from repro.env import ENV_FAULT_PLAN
from repro.scan.faults import WORKER_FAULT_KINDS, FaultPlan
from repro.scan.sharded import run_sharded, shard_targets

_CONFIG = EngineConfig(batch_size=1 << 11)

#: Tight enough that a hang is rescued in well under a second, loose
#: enough that honest shards on a loaded CI box never trip it.
_DEADLINE = 0.5


def _world():
    rng = np.random.default_rng(11)
    responsive = np.unique(rng.integers(0, 300000, 6000))
    return 300000, responsive


def _result_bytes(result) -> bytes:
    return repr(dataclasses.astuple(result)).encode()


def _serial_shards(spec, responsive, shards):
    run = run_sharded(
        spec, responsive, shards=shards, executor="serial", config=_CONFIG
    )
    return [_result_bytes(r) for r in run.shard_results]


def _run_under_plan(plan, shards=4, workers=2, **kwargs):
    """Drive the coordinator directly under ``plan``; return results."""
    spec, responsive = _world()
    targets = shard_targets(spec, shards=shards, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    kwargs.setdefault("shard_deadline", _DEADLINE)
    kwargs.setdefault("timeout", 60.0)
    with Coordinator(
        workers=workers,
        fault_plan=plan,
        **kwargs,
    ) as coordinator:
        results = [
            _result_bytes(r) for r in coordinator.run(targets, worker_args)
        ]
    return results, coordinator


# ---------------------------------------------------------------------------
# The matrix: every fault kind, one at a time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", WORKER_FAULT_KINDS)
def test_every_worker_fault_kind_preserves_results(kind):
    spec, responsive = _world()
    plan = f"{kind}@1:delay=0.2" if kind == "stall" else f"{kind}@1"
    results, coordinator = _run_under_plan(plan)
    assert coordinator.telemetry["faults_armed"] >= 1
    assert results == _serial_shards(spec, responsive, 4)


def test_spawn_crash_fault_preserves_results():
    spec, responsive = _world()
    # Ordinals 0-1 are the initial fleet; kill replacement ordinal 2
    # after a crash forces a respawn.  Every other shard stalls, so the
    # survivor is still busy when the crash is seen and the requeued
    # shard needs a replacement instead of the survivor's next turn.
    results, coordinator = _run_under_plan(
        "crash@0,spawn_crash@2,stall@*:attempts=*:delay=0.2"
    )
    assert coordinator.telemetry["respawns"] >= 1
    assert results == _serial_shards(spec, responsive, 4)


# ---------------------------------------------------------------------------
# Hypothesis: random small plans never perturb the merge
# ---------------------------------------------------------------------------


_SPECS = st.builds(
    lambda kind, shard: f"{kind}@{shard}"
    + (":delay=0.1" if kind == "stall" else ""),
    st.sampled_from(WORKER_FAULT_KINDS),
    st.integers(min_value=0, max_value=2),
)


@settings(
    # One real fleet; tests/test_fleet_policy.py runs hundreds of plans
    # against the simulated one, with the same accounting check.
    max_examples=1,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(entries=st.lists(_SPECS, min_size=1, max_size=3))
def test_random_fault_plans_are_invariant(entries):
    spec, responsive = _world()
    plan = FaultPlan.parse(",".join(entries))
    results, coordinator = _run_under_plan(plan, shards=3)
    assert results == _serial_shards(spec, responsive, 3)
    telemetry = coordinator.telemetry
    assert telemetry["failures"] == expected_failures(plan, 3, telemetry)


# ---------------------------------------------------------------------------
# Deadlines, speculation, duplicates
# ---------------------------------------------------------------------------


def _simulate(plan, shards=4, **kwargs):
    """Run ``plan`` on the simulated fleet, check that every result is
    released once and in order, and return the wave's telemetry."""
    fleet = SimFleet(plan, **kwargs)
    released = fleet.run_wave(range(shards))
    assert released == [shard_result(shard) for shard in range(shards)]
    return fleet.policy.telemetry


def test_hang_is_rescued_by_speculation():
    telemetry = _simulate("hang@0", shard_deadline=_DEADLINE)
    # The hung attempt never answered; a speculative copy on another
    # worker did, long before its hard kill or the global timeout.
    assert telemetry["speculative_requeues"] == 1
    assert telemetry["deadline_kills"] == 0
    assert telemetry["failures"] == 0


def test_stalled_worker_loses_the_race_cleanly():
    # Shard 0 stalls well past its deadline, so a second attempt races
    # it; the copy wins and the stalled original is dropped, uncharged,
    # when the wave ends.
    telemetry = _simulate("stall@0:delay=2", shard_deadline=_DEADLINE)
    assert telemetry["speculative_requeues"] == 1
    assert telemetry["failures"] == 0


def test_deadline_disabled_leaves_slow_workers_alone():
    telemetry = _simulate("stall@1:delay=30", shard_deadline=None)
    assert telemetry["speculative_requeues"] == 0
    assert telemetry["deadline_kills"] == 0


# ---------------------------------------------------------------------------
# Graceful degradation and the failure budget
# ---------------------------------------------------------------------------


def test_crash_loop_degrades_to_survivors():
    # One worker dies mid-shard; every replacement dies at exec.  The
    # crash-loop detector must halt respawning and finish the wave on
    # the lone survivor instead of thrashing forever.  The universal
    # stall keeps the wave alive long enough for the detector to see
    # three consecutive spawn-side deaths before the survivor drains
    # everything.
    telemetry = _simulate(
        "crash@1,stall@*:delay=0.3:attempts=*,spawn_crash@2:attempts=*",
        shards=6,
        shard_deadline=_DEADLINE,
    )
    assert telemetry["degraded"] is True
    assert telemetry["survivors"] == 1


def test_no_survivors_aborts_with_stderr_tails():
    spec, responsive = _world()
    targets = shard_targets(spec, shards=2, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=1,
        fault_plan="crash@0:attempts=*,crash@1:attempts=*,"
        "spawn_crash@1:attempts=*",
        timeout=30.0,
    ) as coordinator:
        with pytest.raises(ExecutorFailure, match="worker failures") as info:
            list(coordinator.run(targets, worker_args))
    message = str(info.value)
    # The satellite contract: the abort carries bounded per-worker
    # stderr tails, and the injected deaths announced themselves there.
    assert "worker stderr tails" in message
    assert "injected fault" in message


def test_spawn_oserror_counts_against_budget(monkeypatch):
    spec, responsive = _world()
    real_fork = distributed.os.fork
    blown = []

    def flaky_fork():
        if not blown:
            blown.append(True)
            raise OSError("fork refused")
        return real_fork()

    monkeypatch.setattr(distributed.os, "fork", flaky_fork)
    results, coordinator = _run_under_plan(None, shards=3)
    assert coordinator.failures >= 1
    assert results == _serial_shards(spec, responsive, 3)


# ---------------------------------------------------------------------------
# Campaigns under fault plans: resume stays byte-identical
# ---------------------------------------------------------------------------


class _Killed(RuntimeError):
    pass


DIST_SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="distributed",
    reseed=ReseedPolicy("interval", interval=0),
    batch_size=1 << 12,
)


def _status_bytes(status: dict) -> bytes:
    return json.dumps(status, sort_keys=True).encode()


def test_campaign_kill_and_resume_under_fault_plan(tmp_path, monkeypatch):
    """SIGTERM + node chaos together: still byte-identical to calm."""
    monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
    reference = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset()
    ).run()
    serial = CampaignRunner(
        dataclasses.replace(DIST_SPEC, executor="serial"),
        dataset=build_mini_dataset(),
    ).run()

    monkeypatch.setenv(ENV_FAULT_PLAN, "crash@1,corrupt@0,mid_result@2")
    directory = tmp_path / "chaos"
    runner = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    seen = [0]

    def kill(_):
        seen[0] += 1
        if seen[0] == 2:  # mid-wave, one shard checkpointed
            raise _Killed()

    with pytest.raises(_Killed):
        runner.run(on_checkpoint=kill)
    resumed = CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    )
    status = resumed.run()
    assert _status_bytes(status) == _status_bytes(reference)
    assert status["waves"] == serial["waves"]
    assert status["totals"] == serial["totals"]


def _killed_and_resumed(directory, plan, monkeypatch):
    """DIST_SPEC under ``plan``, killed at its third checkpoint and
    resumed under the same plan: the status and the fleet telemetry."""
    monkeypatch.setenv(ENV_FAULT_PLAN, plan)
    runner = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    seen = [0]

    def kill(_):
        seen[0] += 1
        if seen[0] == 3:  # right after save 2
            raise _Killed()

    with pytest.raises(_Killed):
        runner.run(on_checkpoint=kill)
    status = CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    ).run()
    progress = json.loads((directory / "progress.json").read_text())
    return status, progress["executor_telemetry"]


def test_one_plan_drives_both_chaos_planes(tmp_path, monkeypatch):
    """A worker crash and a torn checkpoint, armed by one plan."""
    monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
    calm = CampaignRunner(DIST_SPEC, dataset=build_mini_dataset()).run()
    both, telemetry = _killed_and_resumed(
        tmp_path / "both", "crash@1,torn_write@save-2", monkeypatch
    )
    crash, crash_telemetry = _killed_and_resumed(
        tmp_path / "crash", "crash@1", monkeypatch
    )
    assert _status_bytes(both) == _status_bytes(calm) == _status_bytes(crash)
    # The fleet retried the crashed shard ...
    assert telemetry["faults_armed"] >= 1 and telemetry["failures"] >= 1
    # ... the resume caught the torn generation 3 and rolled back ...
    assert (tmp_path / "both" / "quarantine" / "checkpoint.3.npz").exists()
    assert not (tmp_path / "crash" / "quarantine").exists()
    # ... and the fleet armed only the worker fault.
    assert telemetry["faults_armed"] == crash_telemetry["faults_armed"]


# ---------------------------------------------------------------------------
# Wave-level retry policy
# ---------------------------------------------------------------------------


def _flaky_serial(cell):
    """A serial executor whose infrastructure 'collapses' on cue.

    ``cell["collapses"]`` counts down: while positive, each wave
    attempt yields one shard (so the retry genuinely resumes from a
    checkpoint, not from scratch) and then raises
    :class:`ExecutorFailure`.
    """

    def executor(targets, worker_args, wrap_targets=None):
        emitted = 0
        for result in serial_executor(
            targets, worker_args, wrap_targets=wrap_targets
        ):
            yield result
            emitted += 1
            if cell["collapses"] > 0 and emitted == 1:
                cell["collapses"] -= 1
                raise ExecutorFailure("injected infrastructure collapse")

    return executor


@pytest.fixture
def flaky_executor(monkeypatch):
    cell = {"collapses": 0}
    monkeypatch.setitem(EXECUTORS, "flaky-serial", _flaky_serial(cell))
    return cell


FLAKY_SPEC = dataclasses.replace(
    DIST_SPEC, executor="flaky-serial", wave_retries=2,
    wave_retry_backoff=0.01,
)


def test_wave_retry_recovers_and_matches_serial(flaky_executor):
    serial = CampaignRunner(
        dataclasses.replace(DIST_SPEC, executor="serial"),
        dataset=build_mini_dataset(),
    ).run()
    flaky_executor["collapses"] = 2
    status = CampaignRunner(
        FLAKY_SPEC, dataset=build_mini_dataset()
    ).run()
    assert flaky_executor["collapses"] == 0
    assert status["waves"] == serial["waves"]
    assert status["totals"] == serial["totals"]


def test_wave_retry_backoff_is_deterministic(flaky_executor, monkeypatch):
    slept = []
    monkeypatch.setattr(
        campaign_mod, "_retry_sleep", lambda s: slept.append(s)
    )
    flaky_executor["collapses"] = 2
    CampaignRunner(FLAKY_SPEC, dataset=build_mini_dataset()).run()
    # backoff_delay(1, 0.01, cap), backoff_delay(2, 0.01, cap)
    assert slept == [0.01, 0.02]


def test_wave_retry_budget_exhaustion_raises(flaky_executor, tmp_path):
    flaky_executor["collapses"] = 5
    directory = tmp_path / "exhausted"
    runner = CampaignRunner(
        dataclasses.replace(FLAKY_SPEC, wave_retries=1),
        dataset=build_mini_dataset(),
        directory=directory,
    )
    runner.store.write_spec(runner.spec.to_dict())
    with pytest.raises(ExecutorFailure):
        runner.run()
    # The spent attempt budget is campaign state, checkpointed so a
    # resume replays the same remaining budget.
    manifest, _ = runner.store.load()
    assert manifest["wave_attempts"] == 2  # retries=1 -> 2 attempts
    progress = json.loads((directory / "progress.json").read_text())
    assert progress["wave_retries_used"] >= 2


def test_wave_retry_state_survives_resume(flaky_executor, tmp_path):
    serial = CampaignRunner(
        dataclasses.replace(DIST_SPEC, executor="serial"),
        dataset=build_mini_dataset(),
    ).run()
    flaky_executor["collapses"] = 1
    directory = tmp_path / "retry-resume"
    runner = CampaignRunner(
        dataclasses.replace(FLAKY_SPEC, wave_retries=0),
        dataset=build_mini_dataset(),
        directory=directory,
    )
    runner.store.write_spec(runner.spec.to_dict())
    with pytest.raises(ExecutorFailure):
        runner.run()
    # The collapse is over; the resumed campaign finishes the wave from
    # its checkpoint and the final artifacts match the serial baseline
    # exactly (wave_attempts resets on wave completion).
    status = CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    ).run()
    assert status["waves"] == serial["waves"]
    assert status["totals"] == serial["totals"]
    manifest, _ = runner.store.load()
    assert manifest["wave_attempts"] == 0
