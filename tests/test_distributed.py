"""Distributed executor: registry, wire codec, parity, failure requeue.

The load-bearing guarantees: merged results are **executor invariant**
(``serial``, ``process``, and ``distributed`` produce byte-identical
``ShardedScanResult.result``\\ s, per-shard results included), worker
failures re-queue the lost shard without perturbing any result, and a
campaign killed and resumed under the distributed executor stays
byte-identical to an uninterrupted run.
"""

import base64
import dataclasses
import json
import selectors
import socket
from collections import deque

import numpy as np
import pytest

from conftest import build_mini_dataset
from repro.env import ENV_FAULT_PLAN
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.scan.blocklist import Blocklist
from repro.scan.distributed import (
    MAX_FRAME,
    Coordinator,
    FrameStream,
    _HEADER,
    _Worker,
    _session,
    decode_array,
    encode_array,
)
from repro.scan.engine import EngineConfig
from repro.scan.executors import (
    available_executors,
    executor_supports_wrap,
    get_executor,
    register_executor,
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
# Registry
# ---------------------------------------------------------------------------


class TestExecutorRegistry:
    def test_builtins_registered(self):
        names = available_executors()
        assert {"serial", "process", "distributed"} <= set(names)

    def test_unknown_executor_lists_available(self):
        with pytest.raises(ValueError, match="unknown executor 'gpu'"):
            get_executor("gpu")

    def test_wrap_support_metadata(self):
        assert executor_supports_wrap("serial")
        assert not executor_supports_wrap("process")
        assert not executor_supports_wrap("distributed")

    def test_custom_executor_threads_through_run_sharded(self):
        from repro.scan.executors import _REGISTRY, serial_executor

        calls = []

        @register_executor("counting-serial", supports_wrap=True)
        def counting(targets, worker_args, wrap_targets=None):
            calls.append(len(targets))
            yield from serial_executor(
                targets, worker_args, wrap_targets=wrap_targets
            )

        try:
            spec, responsive = _world()
            run = run_sharded(
                spec, responsive, shards=3, executor="counting-serial",
                config=_CONFIG,
            )
            baseline = run_sharded(
                spec, responsive, shards=3, executor="serial",
                config=_CONFIG,
            )
            assert calls == [3]
            assert run.executor == "counting-serial"
            assert _result_bytes(run.result) == _result_bytes(
                baseline.result
            )
        finally:
            del _REGISTRY["counting-serial"]


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

    def close(self) -> None:
        pass


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

    def test_desynced_stream_drops_worker_not_retries(self):
        # After an oversized prefix the stream is desynced: the valid
        # result frame queued behind it must never be read — the
        # coordinator drops the worker and re-queues its shard instead
        # of retrying the same stream.
        spec, responsive = _world()
        coordinator = Coordinator(
            (responsive, 1 << 11, None, None), secret=None
        )
        coordinator._selector = selectors.DefaultSelector()
        a, b = socket.socketpair()
        try:
            worker = _Worker(FrameStream(a), pid=-99)
            worker.assigned = 0
            coordinator._live.append(worker)
            coordinator._selector.register(a, selectors.EVENT_READ, worker)
            pending = deque([1])
            payload = json.dumps({"type": "result", "index": 0}).encode()
            b.sendall(
                _HEADER.pack(MAX_FRAME + 1)
                + _HEADER.pack(len(payload))
                + payload
            )
            landed = coordinator._on_readable(worker, pending, [], {})
            assert landed is False
            assert worker not in coordinator._live
            assert list(pending) == [0, 1]  # lost shard re-queued first
            assert coordinator.failures == 1
        finally:
            coordinator._selector.close()
            b.close()


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
    spec, responsive = _world()
    coordinator = _bare_coordinator(responsive)
    a, b = socket.socketpair()
    try:
        worker = _Worker(FrameStream(a), pid=-99)
        worker.assigned = 0
        coordinator._live.append(worker)
        coordinator._selector.register(a, selectors.EVENT_READ, worker)
        pending = deque([1])
        results = {}
        FrameStream(b).send(dict(counters, type="result", index=0))
        landed = coordinator._on_readable(worker, pending, [], results)
        assert landed is False
        assert results == {}
        assert worker not in coordinator._live
        assert list(pending) == [0, 1]
        assert coordinator.failures == 1
        assert "malformed result" in coordinator._last_failure
    finally:
        coordinator._selector.close()
        b.close()


# ---------------------------------------------------------------------------
# Stray connections and the failure budget
# ---------------------------------------------------------------------------


def _bare_coordinator(responsive):
    coordinator = Coordinator(
        (responsive, 1 << 11, None, None), secret=None
    )
    coordinator._selector = selectors.DefaultSelector()
    coordinator._init_message = {"type": "init"}
    return coordinator


def test_stray_connect_then_close_is_not_charged():
    # Regression: a clean pre-hello EOF (port scanner, health checker)
    # used to charge RespawnGovernor.record_failure() and the failure
    # budget — a noisy network could abort a healthy run.
    spec, responsive = _world()
    coordinator = _bare_coordinator(responsive)
    a, b = socket.socketpair()
    b.close()  # the stray peer vanishes before saying hello
    try:
        joined = coordinator._handshake(FrameStream(a), None, deque(), [])
        assert joined is False
        assert coordinator.failures == 0
        assert coordinator._governor.failures == 0
        assert coordinator.telemetry["stray_disconnects"] == 1
    finally:
        coordinator._selector.close()


def test_garbled_hello_still_charges_budget():
    spec, responsive = _world()
    bad_pid = json.dumps({"type": "hello", "pid": "x"}).encode()
    for body in (
        b"ha!!",  # framed, but not JSON
        bad_pid,  # a hello whose pid is not an integer
    ):
        coordinator = _bare_coordinator(responsive)
        a, b = socket.socketpair()
        try:
            b.sendall(_HEADER.pack(len(body)) + body)
            b.close()
            joined = coordinator._handshake(
                FrameStream(a), None, deque(), []
            )
            assert joined is False
            assert coordinator.failures == 1
            assert coordinator._governor.failures == 1
            assert coordinator.telemetry["stray_disconnects"] == 0
        finally:
            coordinator._selector.close()


def test_non_ascii_auth_proof_is_a_reject_not_a_crash():
    # hmac.compare_digest raises TypeError on non-ASCII str; a peer
    # sending one is rejected (uncharged) on the coordinator side and
    # denied on the worker side, never a bare traceback.
    spec, responsive = _world()
    coordinator = Coordinator(
        (responsive, 1 << 11, None, None), secret="k"
    )
    coordinator._selector = selectors.DefaultSelector()
    coordinator._init_message = {"type": "init"}
    a, b = socket.socketpair()
    try:
        peer = FrameStream(b)
        peer.send({"type": "hello", "pid": -5, "nonce": "n"})
        peer.send({"type": "auth", "proof": "\u00e9"})
        joined = coordinator._handshake(FrameStream(a), None, deque(), [])
        assert joined is False
        assert coordinator.failures == 0
        assert coordinator.telemetry["auth_rejects"] == 1
    finally:
        coordinator._selector.close()
        b.close()
    a, b = socket.socketpair()
    try:
        FrameStream(b).send(
            {"type": "challenge", "nonce": "n", "proof": "\u00e9"}
        )
        assert _session(FrameStream(a), secret="k") == "denied"
    finally:
        a.close()
        b.close()


def test_stray_peers_mid_run_do_not_perturb_results():
    spec, responsive = _world()
    serial = run_sharded(
        spec, responsive, shards=3, executor="serial", config=_CONFIG
    )
    targets = shard_targets(spec, shards=3, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        worker_args,
        workers=2,
        # Every shard stalls, so the listener is still up for the strays.
        fault_plan="stall@*:attempts=*:delay=0.2",
    ) as coordinator:
        gen = coordinator.run(targets)
        results = [next(gen)]  # the listener is live past this point
        port = coordinator._listener.getsockname()[1]
        for _ in range(3):  # connect-and-hang-up, like a port scanner
            socket.create_connection(("127.0.0.1", port)).close()
        results.extend(gen)
    assert coordinator.failures == 0
    assert coordinator.telemetry["stray_disconnects"] >= 1
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial.shard_results
    ]


# ---------------------------------------------------------------------------
# Executor parity
# ---------------------------------------------------------------------------


def test_distributed_matches_serial_and_process():
    spec, responsive = _world()
    runs = {
        name: run_sharded(
            spec, responsive, shards=4, executor=name, config=_CONFIG,
            protocol="http",
        )
        for name in ("serial", "process", "distributed")
    }
    reference = _result_bytes(runs["serial"].result)
    for name, run in runs.items():
        assert _result_bytes(run.result) == reference, name
        assert run.result.protocol == "http"
        for left, right in zip(
            runs["serial"].shard_results, run.shard_results
        ):
            assert _result_bytes(left) == _result_bytes(right), name


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


def test_distributed_rejects_wrap_targets():
    spec, responsive = _world()
    with pytest.raises(ValueError, match="serial executor"):
        run_sharded(
            spec, responsive, shards=2, executor="distributed",
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
    with Coordinator((responsive, 1 << 11, None, None)) as coordinator:
        with pytest.raises(ValueError, match="one walk"):
            list(coordinator.run([targets[0], other[1]]))


# ---------------------------------------------------------------------------
# Failure injection and requeue
# ---------------------------------------------------------------------------


def test_worker_failure_requeues_without_perturbing_results():
    spec, responsive = _world()
    serial = run_sharded(
        spec, responsive, shards=4, executor="serial", config=_CONFIG
    )
    targets = shard_targets(spec, shards=4, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        worker_args, workers=2, fault_plan="crash@2"
    ) as coordinator:
        results = list(coordinator.run(targets))
        assert coordinator.failures >= 1
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial.shard_results
    ]


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
    spec, responsive = _world()
    targets = shard_targets(spec, shards=2, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        worker_args,
        workers=1,
        fault_plan="crash@0:attempts=*,crash@1:attempts=*",
    ) as coordinator:
        with pytest.raises(RuntimeError, match="worker failures"):
            list(coordinator.run(targets))


def test_bad_shard_delay_raises_before_any_worker_starts(monkeypatch):
    # The per-shard delay is the stall entry of the fault plan.
    spec, responsive = _world()
    spawned = []
    monkeypatch.setattr(Coordinator, "_spawn", lambda *a: spawned.append(a))
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


def test_distributed_campaign_matches_serial_campaign():
    serial_spec = dataclasses.replace(DIST_SPEC, executor="serial")
    dist = CampaignRunner(DIST_SPEC, dataset=build_mini_dataset()).run()
    serial = CampaignRunner(
        serial_spec, dataset=build_mini_dataset()
    ).run()
    # The spec (and position executor echo) legitimately differ; every
    # computed number must not.
    assert dist["waves"] == serial["waves"]
    assert dist["totals"] == serial["totals"]


def test_distributed_kill_and_resume_is_byte_identical(tmp_path):
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
