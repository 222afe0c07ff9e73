"""The fleet scheduling policy, driven without sockets or processes.

Every test here runs :class:`~repro.scan.fleet_policy.FleetPolicy`
against the simulated fleet of ``tests/fleet_sim.py``: the policy's
commands are carried out on a fake clock, so speculation, backoff and
the failure budget replay exactly and in milliseconds.  The
process-level tests of the same rules live in ``tests/test_chaos.py``,
``tests/test_distributed.py`` and ``tests/test_remote_fleet.py``.
"""

import ast
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scan.distributed as distributed
import repro.scan.fleet_policy as fleet_policy
from fleet_sim import SimFleet, expected_failures, shard_result
from repro.scan.faults import WORKER_FAULT_KINDS, FaultPlan
from repro.scan.fleet_policy import REDIAL_INTERVAL, ExecutorFailure


def _imported(module) -> set:
    """The top-level packages ``module`` imports."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    return imported


def test_policy_imports_no_io():
    assert not _imported(fleet_policy) & {
        "socket", "selectors", "subprocess", "time", "os"
    }


def test_coordinator_forks_rather_than_starting_interpreters():
    # Local workers are forked from the coordinator, which has every
    # import they need already loaded.
    assert "subprocess" not in _imported(distributed)


# ---------------------------------------------------------------------------
# Any fault plan: in order, complete, no duplicates, exact accounting
# ---------------------------------------------------------------------------


_ENTRIES = st.builds(
    lambda kind, shard, delay: f"{kind}@{shard}"
    + (f":delay={delay}" if kind == "stall" else ""),
    st.sampled_from(WORKER_FAULT_KINDS),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([0.1, 0.6, 2, 8]),
)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(_ENTRIES, max_size=4),
    spawn_crash=st.none() | st.integers(min_value=0, max_value=3),
    shards=st.integers(min_value=1, max_value=6),
    workers=st.integers(min_value=1, max_value=3),
)
def test_fault_plans_release_every_result_once_in_order(
    entries, spawn_crash, shards, workers
):
    if spawn_crash is not None:
        entries = entries + [f"spawn_crash@{spawn_crash}"]
    plan = FaultPlan.parse(",".join(entries))
    fleet = SimFleet(plan, workers=workers)
    released = fleet.run_wave(range(shards))
    assert released == [shard_result(shard) for shard in range(shards)]
    telemetry = fleet.policy.telemetry
    assert telemetry["failures"] == expected_failures(
        plan, shards, telemetry, fleet.spawn_deaths
    )
    assert telemetry["degraded"] is False
    # Only the fleet's own size was spawned first; each later spawn
    # replaced a lost worker or raced an overdue shard.
    first = [spawn for spawn in fleet.spawns if not spawn[2]]
    assert len(first) == min(workers, shards)


# ---------------------------------------------------------------------------
# Deadlines, speculation, duplicates
# ---------------------------------------------------------------------------


def test_a_lone_hung_worker_is_raced_then_killed():
    # Attempt 0 hangs and attempt 1 stalls past the hard kill: the hung
    # original is killed (charged), the stalled copy is raced by a
    # third attempt that wins, and the copy is dropped uncharged.
    fleet = SimFleet("hang@0,stall@0:attempts=2:delay=2", workers=1)
    assert fleet.run_wave(range(1)) == [shard_result(0)]
    telemetry = fleet.policy.telemetry
    assert telemetry["speculative_requeues"] == 2
    assert telemetry["deadline_kills"] == 1
    assert telemetry["failures"] == 1
    assert [d["reason"] for d in fleet.points("worker_drop")] == [
        "held a shard 1.6s (deadline 0.5s)", "held a shard at wave end",
    ]
    assert [spawn[2] for spawn in fleet.spawns] == [False, True, True]


def test_late_duplicate_is_discarded():
    # Shard 0's copy wins while shard 1 keeps the wave open, so the
    # stalled original's answer lands and reads as a duplicate.
    fleet = SimFleet(
        "stall@0:delay=0.7,stall@1:attempts=*:delay=0.8",
        workers=2, shard_deadline=0.3,
    )
    assert fleet.run_wave(range(2)) == [shard_result(0), shard_result(1)]
    assert fleet.policy.telemetry["duplicates_discarded"] == 1
    assert fleet.policy.telemetry["failures"] == 0


# ---------------------------------------------------------------------------
# Spawns, backoff and degradation
# ---------------------------------------------------------------------------


def test_spawn_oserror_is_charged_and_retried():
    fleet = SimFleet(workers=2)
    real_spawn = fleet.spawn
    refused = []

    def flaky_spawn(ordinal, fault, respawn):
        if not refused:
            refused.append(ordinal)
            raise OSError("exec scheduler refused")
        real_spawn(ordinal, fault, respawn)

    fleet.spawn = flaky_spawn
    released = fleet.run_wave(range(3))
    assert released == [shard_result(shard) for shard in range(3)]
    assert refused == [0]
    assert fleet.policy.telemetry["failures"] == 1
    assert fleet.policy.telemetry["respawns"] == 1


def test_respawns_back_off_exponentially():
    fleet = SimFleet(
        "crash@0,spawn_crash@1:attempts=3,stall@*:attempts=*:delay=5",
        workers=1,
    )
    with pytest.raises(ExecutorFailure, match="crash-loop detector"):
        fleet.run_wave(range(1))
    # Ordinal 0 died mid-shard; 1-3 died at exec, each spawned one
    # backoff (0, 0.05, 0.1 s, rounded up to ticks) after the last.
    assert [spawn[0] for spawn in fleet.spawns] == [0, 1, 2, 3]
    assert fleet.policy.telemetry["degraded"] is True
    assert fleet.policy.telemetry["survivors"] == 0
    assert "3 consecutive spawn failures" in fleet.warnings[0]


# ---------------------------------------------------------------------------
# The address book
# ---------------------------------------------------------------------------

_BOOK = (("10.0.0.1", 9001), ("10.0.0.2", 9001))


def test_remote_only_fleet_spawns_nothing():
    fleet = SimFleet(workers=2, address_book=_BOOK)
    fleet.listening.update(_BOOK)
    released = fleet.run_wave(range(4))
    assert released == [shard_result(shard) for shard in range(4)]
    assert fleet.policy.telemetry["remote_connected"] == 2
    assert fleet.policy.spawn_ordinal == 0


def test_mixed_fleet_spawns_the_rest():
    fleet = SimFleet(workers=2, address_book=_BOOK[:1])
    fleet.listening.add(_BOOK[0])
    fleet.run_wave(range(4))
    assert fleet.policy.telemetry["remote_connected"] == 1
    assert fleet.policy.spawn_ordinal == 1


def test_dead_book_entry_is_redialed_never_charged():
    fleet = SimFleet(workers=2, address_book=_BOOK[:1])
    policy = fleet.policy
    policy.begin_wave(0.0, [0, 1, 2], {"type": "init"}, 0)
    assert policy.remote_due == {_BOOK[0]: REDIAL_INTERVAL}
    assert policy.wave.governor.failures == 0
    policy.tick(REDIAL_INTERVAL, 1)  # redialed, refused again
    assert policy.remote_due == {_BOOK[0]: 2 * REDIAL_INTERVAL}
    assert policy.telemetry["failures"] == 0
    assert policy.wave.governor.failures == 0


def test_late_remote_joins_mid_wave():
    fleet = SimFleet(
        "stall@*:attempts=*:delay=0.3", workers=2, address_book=_BOOK[:1]
    )
    fleet.at(0.6, fleet.listening.add, _BOOK[0])  # starts late
    released = fleet.run_wave(range(6))
    assert released == [shard_result(shard) for shard in range(6)]
    (remote,) = [
        c["pid"] for c in fleet.points("worker_connect") if c["origin"]
    ]
    assert [m["type"] for m in fleet.messages(remote)][:2] == [
        "init", "shard"
    ]
    assert fleet.policy.telemetry["remote_connected"] == 1
    assert fleet.policy.telemetry["failures"] == 0


def test_wrong_secret_remote_is_rejected_without_charge():
    fleet = SimFleet(workers=2, address_book=_BOOK[:1])
    fleet.rejecting.add(_BOOK[0])
    policy = fleet.policy
    policy.begin_wave(0.0, [0, 1, 2], {"type": "init"}, 0)
    assert policy.telemetry["auth_rejects"] == 1
    assert policy.telemetry["failures"] == 0
    assert policy.wave.governor.failures == 0
    # Not redialed within the wave: a wrong secret will not fix itself.
    assert policy.remote_due == {}


def test_auth_fail_spawn_is_replaced_without_charge():
    fleet = SimFleet("auth_fail@0", workers=1)
    policy = fleet.policy
    policy.begin_wave(0.0, [0, 1, 2], {"type": "init"}, 0)
    fleet._hello(1000, "auth_fail")  # the saboteur's handshake fails
    assert policy.telemetry["auth_rejects"] == 1
    assert policy.telemetry["failures"] == 0
    assert policy.wave.governor.failures == 0
    policy.tick(0.0, 0)
    assert policy.spawn_ordinal == 2  # the saboteur + its spare
    policy.end_wave(0.0)
