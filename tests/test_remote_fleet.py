"""Remote worker fleet: address book, auth handshake, join, restart.

The PR-7 guarantees on top of the distributed executor: a coordinator
dials *out* to pre-started ``--listen`` workers named in the address
book (mixing them freely with spawned children), every connection can
be gated behind a mutual HMAC-SHA256 challenge/response, a worker that
appears after dispatch started joins mid-wave, and a coordinator that
dies and is rebuilt reconnects the same remote fleet and resumes from
the checkpoint stream — all without perturbing a single merged byte.
"""

import dataclasses
import json
import multiprocessing
import socket
import sys

import numpy as np
import pytest

import repro.scan.distributed as distributed
from conftest import build_mini_dataset
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.scan.distributed import (
    _HEADER,
    Coordinator,
    FrameStream,
    encode_array,
    listen_main,
)
from repro.scan.engine import EngineConfig
from repro.scan.sharded import run_sharded, shard_targets

_CONFIG = EngineConfig(batch_size=1 << 11)
_FORK = multiprocessing.get_context("fork")


def _world():
    rng = np.random.default_rng(23)
    responsive = np.unique(rng.integers(0, 300000, 6000))
    return 300000, responsive


def _result_bytes(result) -> bytes:
    return repr(dataclasses.astuple(result)).encode()


def _listen_worker(secret=None, max_sessions=1, port=0):
    """A pre-started --listen worker (on a free port by default), in a
    forked process: a coordinator refuses to fork its own workers while
    a second thread runs."""
    bound, announce = _FORK.Pipe(duplex=False)
    worker = _FORK.Process(
        target=listen_main,
        args=("127.0.0.1", port),
        kwargs=dict(
            secret=secret,
            max_sessions=max_sessions,
            on_bound=lambda _host, port: announce.send(port),
        ),
        daemon=True,
    )
    worker.start()
    assert bound.poll(10), "the listen worker never bound"
    return worker, ("127.0.0.1", bound.recv())


@pytest.fixture
def spawns(monkeypatch):
    """The pid of every worker process a coordinator forks (forked
    listen workers are not counted)."""
    started = []
    fork = distributed.os.fork

    def counting():
        caller = sys._getframe(1).f_globals["__name__"]
        pid = fork()
        if pid and caller == distributed.__name__:
            started.append(pid)
        return pid

    monkeypatch.setattr(distributed.os, "fork", counting)
    return started


def _serial_shards(spec, responsive, shards):
    return run_sharded(
        spec, responsive, shards=shards, executor="serial", config=_CONFIG
    ).shard_results


# ---------------------------------------------------------------------------
# Address book: remote-only and mixed fleets
# ---------------------------------------------------------------------------


def test_remote_only_fleet_matches_serial(spawns):
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 4)
    w1, addr1 = _listen_worker()
    w2, addr2 = _listen_worker()
    targets = shard_targets(spec, shards=4, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=2, address_book=[addr1, addr2], secret=None
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    # The whole fleet was dialed, nothing was spawned.
    assert coordinator.telemetry["remote_connected"] == 2
    assert coordinator.telemetry["remote_fleet"] == 2
    assert spawns == []
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    w1.join(timeout=10)
    w2.join(timeout=10)
    assert not w1.is_alive() and not w2.is_alive()


def test_mixed_spawned_and_remote_fleet_matches_serial(spawns):
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 4)
    worker, addr = _listen_worker()
    targets = shard_targets(spec, shards=4, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=2, address_book=[addr], secret=None
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    # One dialed remote plus one spawned child, one fleet.
    assert coordinator.telemetry["remote_connected"] == 1
    assert len(spawns) == 1
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    worker.join(timeout=10)


def test_dead_book_entry_never_charges_budget():
    # An address-book entry nobody listens on is redialed, not charged:
    # the run completes on the rest of the fleet.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 3)
    with socket.socket() as probe:  # a port that is certainly closed
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()[:2]
    targets = shard_targets(spec, shards=3, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=2, address_book=[dead], secret=None
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    assert coordinator.failures == 0
    assert coordinator.telemetry["remote_connected"] == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]


# ---------------------------------------------------------------------------
# Graceful mid-wave join
# ---------------------------------------------------------------------------


def test_late_worker_joins_mid_wave():
    # A book entry that only starts listening after dispatch started is
    # reached by the redial pump and gets init plus a shard — it is not
    # implicitly rejected.  Every shard stalls, so the wave outlasts the
    # late start.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 6)
    targets = shard_targets(spec, shards=6, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with socket.socket() as probe:  # a free port nobody listens on yet
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
    with Coordinator(
        workers=2, address_book=[addr], secret=None,
        fault_plan="stall@*:attempts=*:delay=0.3",
    ) as coordinator:
        gen = coordinator.run(targets, worker_args)
        results = [next(gen)]  # dispatch is well underway
        worker, _ = _listen_worker(port=addr[1])
        results.extend(gen)
    assert coordinator.telemetry["remote_connected"] == 1
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    worker.join(timeout=10)


# ---------------------------------------------------------------------------
# Coordinator restart against a surviving remote fleet
# ---------------------------------------------------------------------------


def test_listen_worker_serves_sequential_coordinator_sessions():
    # The listen loop survives its coordinator: a second (restarted)
    # coordinator dialing the same book gets a fresh session and
    # byte-identical results.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 3)
    worker, addr = _listen_worker(max_sessions=2)
    targets = shard_targets(spec, shards=3, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    runs = []
    for _ in range(2):
        with Coordinator(
            workers=1, address_book=[addr], secret=None
        ) as coordinator:
            runs.append(list(coordinator.run(targets, worker_args)))
        assert coordinator.telemetry["remote_connected"] == 1
    for results in runs:
        assert [_result_bytes(r) for r in results] == [
            _result_bytes(r) for r in serial
        ]
    worker.join(timeout=10)
    assert not worker.is_alive()


def _init_frame(values, walk, **overrides):
    frame = {
        "type": "init",
        "protocol": None,
        "batch_size": _CONFIG.batch_size,
        "responsive": encode_array(values),
        "block_starts": None,
        "block_ends": None,
        "starts": encode_array(walk.starts),
        "ends": encode_array(walk.ends),
        "seed": walk.seed,
        "shards": walk.shards,
        "hitlist": None,
        "samples": None,
    }
    frame.update(overrides)
    return frame


def test_listen_worker_survives_nested_frame():
    # A stray peer's frame nested past the JSON decoder's recursion
    # limit ends that session, not the worker: the next coordinator is
    # served byte-identically.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 2)
    worker, addr = _listen_worker(max_sessions=2)
    stray = FrameStream(socket.create_connection(addr))
    try:
        assert stray.recv()["type"] == "hello"
        body = b"[" * 200_000
        stray.send_raw(_HEADER.pack(len(body)) + body)
        assert stray.recv() is None  # the worker ended the session
    finally:
        stray.close()
    assert worker.is_alive()
    targets = shard_targets(spec, shards=2, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=1, address_book=[addr], secret=None
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    worker.join(timeout=10)
    assert not worker.is_alive()


@pytest.mark.parametrize(
    "case", ["empty-init", "bad-dtype", "shard-without-fields"]
)
def test_listen_worker_survives_malformed_session(case):
    # A stray peer's well-framed but malformed init or shard frame ends
    # that session; the worker goes back to accept and serves the next
    # (real) coordinator byte-identically.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 3)
    worker, addr = _listen_worker(max_sessions=2)
    targets = shard_targets(spec, shards=3, seed=0)
    frames = {
        "empty-init": [{"type": "init"}],
        "bad-dtype": [
            _init_frame(
                responsive, targets[0],
                responsive={"dtype": "zz", "data": ""},
            )
        ],
        "shard-without-fields": [
            _init_frame(responsive, targets[0]), {"type": "shard"}
        ],
    }[case]
    stray = FrameStream(socket.create_connection(addr))
    try:
        assert stray.recv()["type"] == "hello"
        for frame in frames:
            stray.send(frame)
        assert stray.recv() is None  # the worker ended the session
    finally:
        stray.close()
    assert worker.is_alive()  # ... and went back to accept
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=1, address_book=[addr], secret=None
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    worker.join(timeout=10)
    assert not worker.is_alive()


# ---------------------------------------------------------------------------
# Authenticated handshake
# ---------------------------------------------------------------------------


def test_authenticated_fleet_matches_serial():
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 4)
    worker, addr = _listen_worker(secret="s3cret")
    targets = shard_targets(spec, shards=4, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=2, address_book=[addr], secret="s3cret"
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    # Both the dialed remote and the spawned child (which inherits the
    # secret through its environment) authenticated.
    assert coordinator.telemetry["auth_rejects"] == 0
    assert coordinator.telemetry["remote_connected"] == 1
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    worker.join(timeout=10)


def test_wrong_secret_remote_rejected_without_charge():
    # A remote with the wrong secret refuses the coordinator's proof
    # (mutual auth); the reject is telemetry, never budget — the run
    # completes on the spawned half of the fleet.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 3)
    worker, addr = _listen_worker(secret="wrong")
    targets = shard_targets(spec, shards=3, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=2, address_book=[addr], secret="right"
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    assert coordinator.telemetry["auth_rejects"] == 1
    assert coordinator.telemetry["remote_connected"] == 0
    assert coordinator.failures == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]
    worker.join(timeout=10)


def test_auth_fail_fault_exercises_reject_path(spawns):
    # The deterministic auth_fail fault: spawn ordinal 0 presents a
    # sabotaged proof, is rejected without charging the budget, and a
    # replacement drains its work.
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 3)
    targets = shard_targets(spec, shards=3, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(
        workers=1,
        secret="hunter2",
        fault_plan="auth_fail@0",
        address_book=None,
    ) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    assert coordinator.telemetry["auth_rejects"] == 1
    assert coordinator.failures == 0
    assert len(spawns) == 2  # the saboteur + its spare
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]


def test_unauthenticated_spawned_fleet_still_works():
    # secret=None disables the exchange outright (even if the env had
    # one, the coordinator scrubs it from its children).
    spec, responsive = _world()
    serial = _serial_shards(spec, responsive, 2)
    targets = shard_targets(spec, shards=2, seed=0)
    worker_args = (responsive, _CONFIG.batch_size, None, None)
    with Coordinator(workers=2, secret=None) as coordinator:
        results = list(coordinator.run(targets, worker_args))
    assert coordinator.telemetry["auth_rejects"] == 0
    assert [_result_bytes(r) for r in results] == [
        _result_bytes(r) for r in serial
    ]


# ---------------------------------------------------------------------------
# Campaign integration: coordinator death + resume over the address book
# ---------------------------------------------------------------------------


class _Killed(RuntimeError):
    pass


FLEET_SPEC = CampaignSpec(
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


def test_campaign_resume_reconnects_address_book(tmp_path, monkeypatch):
    # The tentpole end-to-end: the reference campaign runs on a purely
    # spawned fleet; the address-book campaign is killed mid-wave (its
    # coordinator dies with it), resumed, re-dials the surviving remote
    # fleet, and finishes byte-identical — fleet invariance + restart
    # survival in one assertion.
    monkeypatch.delenv("REPRO_DIST_ADDRESS_BOOK", raising=False)
    monkeypatch.delenv("REPRO_DIST_SECRET", raising=False)
    reference = CampaignRunner(
        FLEET_SPEC, dataset=build_mini_dataset()
    ).run()

    worker, addr = _listen_worker(secret="fleet-key", max_sessions=None)
    monkeypatch.setenv(
        "REPRO_DIST_ADDRESS_BOOK", "%s:%d" % addr
    )
    monkeypatch.setenv("REPRO_DIST_SECRET", "fleet-key")
    directory = tmp_path / "fleet"
    runner = CampaignRunner(
        FLEET_SPEC, dataset=build_mini_dataset(), directory=directory
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
    assert worker.is_alive()  # the remote fleet outlives every run
    worker.terminate()
    worker.join(timeout=10)
