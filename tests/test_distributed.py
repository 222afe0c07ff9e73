"""Distributed executor: registry, wire codec, parity, failure requeue.

The load-bearing guarantees: merged results are **executor invariant**
(``serial`` and ``distributed`` produce byte-identical
``ShardedScanResult.result``\\ s, per-shard results included), worker
failures re-queue the lost shard without perturbing any result, and a
campaign killed and resumed under the distributed executor stays
byte-identical to an uninterrupted run.  How the coordinator's
scheduling policy answers a bad frame, a stray peer or a dead worker is
tested without sockets, against the simulated fleet of
``tests/fleet_sim.py``.
"""

import base64
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.scan.distributed as distributed
from conftest import build_mini_dataset
from fleet_sim import SimFleet, shard_result
from repro.core.tass import TassStrategy
from repro.env import ENV_FAULT_PLAN
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.orchestrator import cli
from repro.scan.blocklist import Blocklist
from repro.scan.distributed import (
    MAX_FRAME,
    Coordinator,
    FrameStream,
    _HEADER,
    _greet,
    _session,
    decode_array,
    encode_array,
)
from repro.scan.fleet_policy import ExecutorFailure, Worker
from repro.scan.engine import EngineConfig
from repro.scan.executors import (
    EXECUTORS,
    executor_supports_wrap,
    get_executor,
    open_executor,
    serial_executor,
)
from repro.scan.sharded import run_sharded, shard_targets

_CONFIG = EngineConfig(batch_size=1 << 11)


def _world():
    rng = np.random.default_rng(11)
    responsive = np.unique(rng.integers(0, 300000, 6000))
    return 300000, responsive


def _result_bytes(result) -> bytes:
    return repr(dataclasses.astuple(result)).encode()


# ---------------------------------------------------------------------------
# Executor table
# ---------------------------------------------------------------------------


class TestExecutorRegistry:
    def test_builtins_registered(self):
        assert sorted(EXECUTORS) == ["distributed", "serial"]

    def test_unknown_executor_lists_available(self):
        with pytest.raises(ValueError, match="unknown executor 'gpu'"):
            get_executor("gpu")

    def test_wrap_support_metadata(self):
        assert executor_supports_wrap("serial")
        assert not executor_supports_wrap("distributed")

    def test_custom_executor_threads_through_run_sharded(self, monkeypatch):
        calls = []

        def counting(targets, worker_args, wrap_targets=None):
            calls.append(len(targets))
            yield from serial_executor(
                targets, worker_args, wrap_targets=wrap_targets
            )

        monkeypatch.setitem(EXECUTORS, "counting-serial", counting)
        spec, responsive = _world()
        run = run_sharded(
            spec, responsive, shards=3, executor="counting-serial",
            config=_CONFIG,
        )
        baseline = run_sharded(
            spec, responsive, shards=3, executor="serial", config=_CONFIG,
        )
        assert calls == [3]
        assert run.executor == "counting-serial"
        assert _result_bytes(run.result) == _result_bytes(baseline.result)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


def test_array_codec_roundtrip():
    for arr in (
        np.arange(17, dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([2**40, -5], dtype=np.int64),
    ):
        carried = json.loads(json.dumps(encode_array(arr)))
        assert np.array_equal(decode_array(carried), arr)
        assert decode_array(carried).dtype == arr.dtype


def test_encode_array_pins_little_endian_wire_dtype():
    # Regression: the codec used to ship the *sender's* native dtype
    # string, silently corrupting int64 payloads between hosts of
    # different endianness.  The wire dtype is pinned to <i8 whatever
    # the input's byte order.
    native = np.array([1, 2**40, -5, 0], dtype=np.int64)
    for arr in (native, native.astype(">i8"), native.astype("<i8")):
        carried = encode_array(arr)
        assert carried["dtype"] == "<i8"
        decoded = decode_array(json.loads(json.dumps(carried)))
        assert decoded.dtype.isnative
        assert np.array_equal(decoded, native)


def test_decode_array_byteswaps_big_endian_wire():
    # A frame from a big-endian sender (or a pre-fix peer): decode must
    # hand back native-order values, never a swapped view for the
    # searchsorted hot paths to chew on.
    values = np.array([7, -1, 2**50], dtype=np.int64)
    carried = {
        "dtype": ">i8",
        "data": base64.b64encode(
            values.astype(">i8").tobytes()
        ).decode("ascii"),
    }
    decoded = decode_array(carried)
    assert decoded.dtype.isnative
    assert np.array_equal(decoded, values)


# ---------------------------------------------------------------------------
# FrameStream edge cases
# ---------------------------------------------------------------------------


class _ChunkSocket:
    """A fake socket dribbling preloaded bytes a few at a time."""

    def __init__(self, data: bytes, chunk: int = 3):
        self.data = data
        self.chunk = chunk

    def recv(self, n: int) -> bytes:
        take = min(n, self.chunk, len(self.data))
        out, self.data = self.data[:take], self.data[take:]
        return out

    def sendall(self, data: bytes) -> None:
        pass

    def close(self) -> None:
        pass


def _frames(*messages) -> bytes:
    """``messages`` framed back to back, as a peer would send them."""
    out = b""
    for message in messages:
        body = message if isinstance(message, bytes) else (
            json.dumps(message).encode()
        )
        out += _HEADER.pack(len(body)) + body
    return out


def _holding_worker(shards=2):
    """A fleet mid-wave: one worker holds queue slot 0, the rest wait."""
    fleet = SimFleet(workers=1)
    fleet.policy.begin_wave(0.0, list(range(shards)), {"type": "init"}, 1)
    worker = Worker(pid=-99)
    fleet.policy.joined(0.0, worker)
    assert worker.assigned == 0
    return fleet, worker


def _unreadable(stream) -> str:
    """The reason the coordinator gives for a frame ``stream`` cannot read."""
    with pytest.raises(ValueError) as info:
        stream.recv()
    return f"sent an unreadable frame ({info.value})"


def _nested_frame() -> bytes:
    """A frame whose body nests past the JSON decoder's recursion limit."""
    body = b"[" * 200_000
    return _HEADER.pack(len(body)) + body


class TestFrameStream:
    def test_read_exact_reassembles_across_chunk_boundaries(self):
        message = {"type": "result", "index": 3, "blob": "x" * 257}
        payload = json.dumps(message).encode()
        stream = FrameStream(
            _ChunkSocket(_HEADER.pack(len(payload)) + payload)
        )
        assert stream.recv() == message

    def test_mid_frame_eof_reads_as_none(self):
        payload = json.dumps({"type": "result"}).encode()
        frame = _HEADER.pack(len(payload)) + payload
        stream = FrameStream(_ChunkSocket(frame[: len(frame) // 2]))
        assert stream.recv() is None

    def test_socket_timeout_mid_frame_surfaces_as_oserror(self):
        a, b = socket.socketpair()
        try:
            a.settimeout(0.05)
            stream = FrameStream(a)
            # Promise 100 bytes, deliver 7: the reader must time out
            # (socket.timeout is an OSError), not block forever.
            b.sendall(_HEADER.pack(100) + b"partial")
            with pytest.raises(OSError):
                stream.recv()
        finally:
            a.close()
            b.close()

    def test_oversized_prefix_raises_before_allocating(self):
        stream = FrameStream(
            _ChunkSocket(_HEADER.pack(MAX_FRAME + 1) + b"garbage", chunk=64)
        )
        with pytest.raises(ValueError, match="MAX_FRAME"):
            stream.recv()

    def test_nested_frame_is_a_value_error(self):
        stream = FrameStream(_ChunkSocket(_nested_frame(), chunk=1 << 16))
        with pytest.raises(ValueError, match="nests too deeply"):
            stream.recv()

    def test_desynced_stream_drops_worker_not_retries(self):
        # After an oversized prefix the stream is desynced: the valid
        # result frame queued behind it must never be read — the
        # coordinator drops the worker and re-queues its shard instead
        # of retrying the same stream.
        fleet, worker = _holding_worker()
        policy = fleet.policy
        stream = FrameStream(_ChunkSocket(
            _HEADER.pack(MAX_FRAME + 1)
            + _frames({"type": "result", "index": 0}), chunk=64,
        ))
        policy.lost(0.0, worker, _unreadable(stream))
        assert worker not in policy.live
        assert worker.pid in fleet.detached
        # The lost shard is re-queued first.
        assert list(policy.wave.pending) == [0, 1]
        assert policy.telemetry["failures"] == 1


@pytest.mark.parametrize(
    "counters",
    [
        {},  # every counter missing
        {"probes_sent": "lots", "responses": 0, "blocked": 0, "batches": 1},
        {"probes_sent": None, "responses": 0, "blocked": 0, "batches": 1},
        {"probes_sent": 5, "responses": [1], "blocked": 0, "batches": 1},
    ],
)
def test_malformed_result_drops_worker(counters):
    # A well-framed result for the assigned shard whose counters do not
    # parse costs that worker (its shard re-queued), never the run.
    fleet, worker = _holding_worker()
    policy = fleet.policy
    message = dict(counters, type="result", index=0)
    assert policy.frame(0.0, worker, message) is False
    assert policy.wave.results == {}
    assert worker not in policy.live
    assert list(policy.wave.pending) == [0, 1]
    assert policy.telemetry["failures"] == 1
    assert "malformed result" in policy.wave.last_failure


# ---------------------------------------------------------------------------
# Stray connections and the failure budget
# ---------------------------------------------------------------------------


def _wave():
    fleet = SimFleet(workers=1)
    fleet.policy.begin_wave(0.0, [0], {"type": "init"}, 1)
    return fleet.policy


def test_stray_connect_then_close_is_not_charged():
    # Regression: a clean pre-hello EOF (port scanner, health checker)
    # used to charge RespawnGovernor.record_failure() and the failure
    # budget — a noisy network could abort a healthy run.
    stream = FrameStream(_ChunkSocket(b""))  # gone before saying hello
    assert _greet(stream, None) == ("stray", None)
    policy = _wave()
    policy.stray(0.0)
    assert policy.telemetry["failures"] == 0
    assert policy.wave.governor.failures == 0
    assert policy.telemetry["stray_disconnects"] == 1


def test_garbled_hello_still_charges_budget():
    bad_pid = json.dumps({"type": "hello", "pid": "x"}).encode()
    for body in (
        b"ha!!",  # framed, but not JSON
        bad_pid,  # a hello whose pid is not an integer
    ):
        kind, detail = _greet(FrameStream(_ChunkSocket(_frames(body))), None)
        assert kind == "garbled"
        policy = _wave()
        policy.peer_failed(
            0.0, f"worker connected without a valid hello{detail}"
        )
        assert policy.telemetry["failures"] == 1
        assert policy.wave.governor.failures == 1
        assert policy.telemetry["stray_disconnects"] == 0


def test_nested_frame_costs_the_worker_not_the_run():
    # A deeply nested result frame is one more malformed frame: the
    # worker is dropped and charged and its shard re-queued, instead of
    # a RecursionError escaping the event loop and aborting the run.
    fleet, worker = _holding_worker(shards=1)
    policy = fleet.policy
    stream = FrameStream(_ChunkSocket(_nested_frame(), chunk=1 << 16))
    policy.lost(0.0, worker, _unreadable(stream))
    assert worker not in policy.live
    assert list(policy.wave.pending) == [0]
    assert policy.telemetry["failures"] == 1
    assert "too deeply" in policy.wave.last_failure


def test_nested_hello_turns_the_peer_away():
    # The same frame as a stray peer's hello is turned away like any
    # garbled hello; the coordinator's event loop carries on.
    stream = FrameStream(_ChunkSocket(_nested_frame(), chunk=1 << 16))
    kind, detail = _greet(stream, None)
    assert kind == "garbled"
    policy = _wave()
    policy.peer_failed(
        0.0, f"worker connected without a valid hello{detail}"
    )
    assert policy.live == []
    assert policy.telemetry["failures"] == 1


def test_next_wave_inits_every_worker_before_any_shard():
    # A carried-over worker that died between waves fails its init
    # send.  Dropping it must not hand a survivor one of this wave's
    # shards before the survivor has this wave's init (it would drain
    # the shard on the last wave's walk).
    fleet = SimFleet(workers=2)
    fleet.run_wave(range(2))
    dead, live = [worker.pid for worker in fleet.policy.live]
    fleet.detached.add(dead)
    fleet.sent.clear()
    fleet.policy.begin_wave(
        fleet.now, [0, 1], {"type": "init"}, len(fleet.children)
    )
    assert [m["type"] for m in fleet.messages(live)] == ["init", "shard"]
    assert fleet.policy.telemetry["failures"] == 1


def test_non_ascii_auth_proof_is_a_reject_not_a_crash():
    # hmac.compare_digest raises TypeError on non-ASCII str; a peer
    # sending one is rejected (uncharged) on the coordinator side and
    # denied on the worker side, never a bare traceback.
    peer = _frames(
        {"type": "hello", "pid": -5, "nonce": "n"},
        {"type": "auth", "proof": "\u00e9"},
    )
    assert _greet(FrameStream(_ChunkSocket(peer)), "k") == ("rejected", -5)
    policy = _wave()
    policy.auth_rejected(0.0, -5, None, False)
    assert policy.telemetry["failures"] == 0
    assert policy.telemetry["auth_rejects"] == 1
    a, b = socket.socketpair()
    try:
        FrameStream(b).send(
            {"type": "challenge", "nonce": "n", "proof": "\u00e9"}
        )
        assert _session(FrameStream(a), secret="k") == "denied"
    finally:
        a.close()
        b.close()


def _listening_sockets() -> list[int]:
    """This process's socket fds that accept connections."""
    listening = []
    for fd in map(int, os.listdir("/proc/self/fd")):
        try:
            if not os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                continue
            with socket.socket(fileno=os.dup(fd)) as sock:
                if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN):
                    listening.append(fd)
        except OSError:
            continue  # closed since listdir
    return listening


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
)
def test_no_local_peer_can_join_the_fleet():
    # Local workers are forked with one end of a socketpair each, so
    # the coordinator has no listener another local process could
    # connect to, say hello on and have its counters merged.
    spec, responsive = _world()
    serial = run_sharded(
        spec, responsive, shards=3, executor="serial", config=_CONFIG
    )
    targets = shard_targets(spec, shards=3, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=2,
        fault_plan="stall@*:attempts=*:delay=0.2",
        address_book=None,
        secret=None,
    ) as coordinator:
        gen = coordinator.run(targets, worker_args)
        results = [next(gen)]  # the wave is in flight past this point
        listening = _listening_sockets()
        results.extend(gen)
    assert listening == []
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial.shard_results
    ]


@pytest.mark.parametrize(
    "statement",
    ["import repro.scan.distributed", "from repro.scan import distributed"],
)
def test_distributed_imports_in_a_fresh_interpreter(statement):
    # Regression: the executor table and the distributed module imported
    # each other, so this raised "partially initialized module".
    src = str(Path(distributed.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", statement], check=True, env=env)


# ---------------------------------------------------------------------------
# Executor parity
# ---------------------------------------------------------------------------


def test_distributed_matches_serial():
    spec, responsive = _world()
    runs = {
        name: run_sharded(
            spec, responsive, shards=4, executor=name, config=_CONFIG,
            protocol="http",
        )
        for name in ("serial", "distributed")
    }
    reference = _result_bytes(runs["serial"].result)
    for name, run in runs.items():
        assert _result_bytes(run.result) == reference, name
        assert run.result.protocol == "http"
        for left, right in zip(
            runs["serial"].shard_results, run.shard_results
        ):
            assert _result_bytes(left) == _result_bytes(right), name


@pytest.mark.parametrize(
    "shards, plan", [(4, None), (8, None), (4, "crash@1")],
    ids=["4", "8", "crash@1"],
)
def test_small_preset_distributed_matches_serial(
    small_dataset, monkeypatch, shards, plan
):
    """The phi=0.9 HTTP selection of the ``small`` preset, scanned by
    real workers (one of them killed by ``crash@1``), merges to the
    one-shard serial result."""
    if plan is not None:
        monkeypatch.setenv(ENV_FAULT_PLAN, plan)
    seed = small_dataset.series_for("http").seed_snapshot.addresses
    selection = TassStrategy(small_dataset.topology.table, phi=0.9).plan(seed)
    serial = run_sharded(selection, seed, shards=1, executor="serial")
    dist = run_sharded(selection, seed, shards=shards, executor="distributed")
    assert _result_bytes(serial.result) == _result_bytes(dist.result)


def test_distributed_carries_blocklist_accounting():
    spec, responsive = _world()
    blocklist = Blocklist(np.array([1000]), np.array([3000]))
    serial = run_sharded(
        spec, responsive, shards=3, executor="serial", config=_CONFIG,
        blocklist=blocklist,
    )
    dist = run_sharded(
        spec, responsive, shards=3, executor="distributed",
        config=_CONFIG, blocklist=blocklist,
    )
    assert serial.result.blocked == 2000
    assert _result_bytes(serial.result) == _result_bytes(dist.result)


def test_distributed_respects_worker_count_knob(monkeypatch):
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    spec, responsive = _world()
    serial = run_sharded(
        spec, responsive, shards=5, executor="serial", config=_CONFIG
    )
    dist = run_sharded(
        spec, responsive, shards=5, executor="distributed", config=_CONFIG
    )
    assert _result_bytes(serial.result) == _result_bytes(dist.result)


@pytest.mark.parametrize("via", ["name", "drain"])
def test_distributed_rejects_wrap_targets(via):
    # run_sharded holds the only wrap_targets check: a campaign's fleet
    # drain must hit it just as the bare name does.
    spec, responsive = _world()
    with open_executor("distributed") as drain:
        executor = "distributed" if via == "name" else drain
        with pytest.raises(ValueError, match="serial executor"):
            run_sharded(
                spec, responsive, shards=2, executor=executor,
                config=_CONFIG, wrap_targets=lambda t: t,
            )


def test_distributed_on_shard_fires_in_shard_order():
    spec, responsive = _world()
    seen = []
    run_sharded(
        spec, responsive, shards=4, executor="distributed",
        config=_CONFIG, on_shard=lambda i, r: seen.append(i),
    )
    assert seen == [0, 1, 2, 3]


def test_coordinator_rejects_mismatched_geometry():
    spec, responsive = _world()
    targets = shard_targets(spec, shards=2, seed=0)
    other = shard_targets(spec, shards=2, seed=9)
    worker_args = (responsive, 1 << 11, None, None)
    with Coordinator() as coordinator:
        with pytest.raises(ValueError, match="one walk"):
            list(coordinator.run([targets[0], other[1]], worker_args))


# ---------------------------------------------------------------------------
# Failure injection and requeue
# ---------------------------------------------------------------------------


def test_worker_failure_requeues_without_perturbing_results():
    fleet = SimFleet("crash@2", workers=2)
    released = fleet.run_wave(range(4))
    assert fleet.policy.telemetry["failures"] == 1
    assert released == [shard_result(shard) for shard in range(4)]


def test_env_fail_injection_through_run_sharded(monkeypatch):
    spec, responsive = _world()
    serial = run_sharded(
        spec, responsive, shards=3, executor="serial", config=_CONFIG
    )
    monkeypatch.setenv(ENV_FAULT_PLAN, "crash@1")
    dist = run_sharded(
        spec, responsive, shards=3, executor="distributed", config=_CONFIG
    )
    assert _result_bytes(serial.result) == _result_bytes(dist.result)


def test_unrecoverable_failures_raise():
    fleet = SimFleet("crash@0:attempts=*,crash@1:attempts=*", workers=1)
    with pytest.raises(ExecutorFailure, match="worker failures"):
        fleet.run_wave(range(2))
    assert fleet.policy.telemetry["failures"] == 9  # max(8, 2 x 2) + 1


def test_bad_shard_delay_raises_before_any_worker_starts(monkeypatch):
    # The per-shard delay is the stall entry of the fault plan.
    spec, responsive = _world()
    spawned = []
    monkeypatch.setattr(distributed.os, "fork", lambda: spawned.append(1))
    for bad in ("soon", "nan", "inf"):
        monkeypatch.setenv(
            ENV_FAULT_PLAN, f"stall@*:attempts=*:delay={bad}"
        )
        with pytest.raises(ValueError, match=ENV_FAULT_PLAN):
            run_sharded(
                spec, responsive, shards=2, executor="distributed",
                config=_CONFIG,
            )
    assert spawned == []


# ---------------------------------------------------------------------------
# Campaign integration: kill-and-resume under the distributed executor
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


def _worker_spawns(directory) -> list:
    """The ``worker_spawn`` events of a campaign run at REPRO_OBS=events."""
    lines = (directory / "events.jsonl").read_text().splitlines()
    return [
        record["data"]
        for record in map(json.loads, lines)
        if record["type"] == "worker_spawn"
    ]


def test_distributed_campaign_matches_serial_campaign(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_OBS", "events")
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    spec = dataclasses.replace(DIST_SPEC, waves=4)
    directory = tmp_path / "dist"
    runner = CampaignRunner(
        spec, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    dist = runner.run()
    serial = CampaignRunner(
        dataclasses.replace(spec, executor="serial"),
        dataset=build_mini_dataset(),
    ).run()
    # The spec (and position executor echo) legitimately differ; every
    # computed number must not.
    assert dist["waves"] == serial["waves"]
    assert dist["totals"] == serial["totals"]
    # One fleet serves all four waves: the run spawns its size, once.
    progress = json.loads((directory / "progress.json").read_text())
    fleet = progress["executor_telemetry"]["fleet_initial"]
    assert len(_worker_spawns(directory)) == fleet == 2


def test_distributed_kill_and_resume_is_byte_identical(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_OBS", "events")
    reference = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset()
    ).run()

    directory = tmp_path / "dist"
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
    assert _status_bytes(resumed.run()) == _status_bytes(reference)
    # Two runs, two fleets: every fleet numbers its spawns from 0.
    spawns = _worker_spawns(directory)
    assert sum(1 for spawn in spawns if spawn["ordinal"] == 0) == 2


def test_distributed_kill_and_resume_with_worker_failure(
    tmp_path, monkeypatch
):
    """Node loss *and* a kill-and-resume together stay deterministic."""
    reference = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset()
    ).run()

    monkeypatch.setenv(ENV_FAULT_PLAN, "crash@1")
    directory = tmp_path / "dist-faulty"
    runner = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    seen = [0]

    def kill(_):
        seen[0] += 1
        if seen[0] == 2:
            raise _Killed()

    with pytest.raises(_Killed):
        runner.run(on_checkpoint=kill)
    resumed = CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    )
    assert _status_bytes(resumed.run()) == _status_bytes(reference)


# ---------------------------------------------------------------------------
# Forked workers: what a child must not inherit
# ---------------------------------------------------------------------------


def _files(directory) -> dict:
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
)
def test_forked_worker_holds_only_stdio_and_its_socket(tmp_path):
    spec, responsive = _world()
    targets = shard_targets(spec, shards=4, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    # An open campaign file stands in for events.jsonl and checkpoints.
    with open(tmp_path / "events.jsonl", "w"), Coordinator(
        workers=2,
        fault_plan="stall@*:attempts=*:delay=0.3",
        address_book=None,
    ) as coordinator:
        gen = coordinator.run(targets, worker_args)
        next(gen)  # both workers are up and draining
        held = {
            pid: {
                int(fd): os.readlink(f"/proc/{pid}/fd/{fd}")
                for fd in os.listdir(f"/proc/{pid}/fd")
            }
            for pid in coordinator._procs
        }
        list(gen)
    assert len(held) == 2
    for fds in held.values():
        others = [link for fd, link in fds.items() if fd > 2]
        assert set(fds) >= {0, 1, 2}
        assert fds[1] == os.devnull
        assert len(others) == 1 and others[0].startswith("socket:"), fds


def test_spawning_beside_a_second_thread_raises_and_forks_nothing(
    monkeypatch,
):
    forks = []
    monkeypatch.setattr(distributed.os, "fork", lambda: forks.append(1))
    spec, responsive = _world()
    targets = shard_targets(spec, shards=2, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with Coordinator(workers=1, address_book=None) as coordinator:
            with pytest.raises(RuntimeError, match="other threads run"):
                list(coordinator.run(targets, worker_args))
    finally:
        release.set()
        thread.join(timeout=10)
    assert forks == [] and not thread.is_alive()


def test_sigterm_ends_a_forked_worker_under_the_cli_handlers(
    tmp_path, monkeypatch
):
    # The CLI turns SIGTERM into SystemExit; a forked worker that kept
    # that handler would unwind into the campaign and write its files.
    monkeypatch.setenv("REPRO_OBS", "events")
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    monkeypatch.setenv(ENV_FAULT_PLAN, "stall@*:attempts=*:delay=0.2")
    coordinators = []
    spawn = Coordinator.spawn

    def recording(self, *args):
        coordinators.append(self)
        return spawn(self, *args)

    monkeypatch.setattr(Coordinator, "spawn", recording)
    directory = tmp_path / "dist"
    runner = CampaignRunner(
        DIST_SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    ended = []

    def terminate_workers(_):
        if ended:
            return
        before = _files(directory)
        children = list(coordinators[-1]._procs.values())
        for child in children:
            os.kill(child.pid, signal.SIGTERM)
        ended.extend(child.wait(10.0) for child in children)
        assert _files(directory) == before

    handlers = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    cli._install_signal_handlers()
    try:
        status = runner.run(on_checkpoint=terminate_workers)
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    assert ended and set(ended) == {-signal.SIGTERM}
    assert status["finished"]
