"""Distributed shard execution: a coordinator driving socket workers.

This is the multi-node seam: the coordinator sends each worker a
wave's :class:`~repro.scan.sharded.IntervalTargets` walk once, then
shard indices from a work queue, and drives ``N`` workers over a small
wire protocol — length-prefixed JSON frames over TCP, with ``int64``
arrays carried as base64 ``tobytes`` payloads pinned to little-endian
(``<i8``) on the wire, so hosts of different endianness interoperate.
Workers join the fleet two ways, mixed freely:

- **spawned** — local child processes the coordinator launches
  (``python -m repro.scan.distributed --connect HOST:PORT``) that dial
  back in to its listener;
- **remote** — pre-started workers (``python -m repro.scan.distributed
  --listen HOST:PORT``) named in the ``REPRO_DIST_ADDRESS_BOOK``
  address book that the coordinator dials *out* to.  A listen worker
  serves coordinator *sessions* in sequence: when one session ends
  (shutdown, coordinator death, a stray peer hanging up) it returns to
  ``accept`` and waits for the next — which is what lets a restarted
  coordinator reconnect the same fleet and resume from its checkpoint
  stream, and lets a worker that starts late join mid-wave through the
  coordinator's redial pump.

One fleet serves a whole campaign run: the coordinator starts it on
the first wave, sends each later wave's ``init`` on the sessions
already open, and shuts it down when the run ends (a wave retry or a
resume starts a fresh one).

Protocol (all frames are ``>I``-length-prefixed UTF-8 JSON):

- ``hello``     worker → coordinator: ``{"type": "hello", "pid": ...,
  "nonce": ...}`` — always the worker's first frame, whichever side
  dialed the connection.
- ``challenge`` coordinator → worker (only when ``REPRO_DIST_SECRET``
  is set): a fresh nonce plus the coordinator's HMAC-SHA256 proof over
  both nonces — authentication is *mutual*, a worker never drains
  shards for an impostor coordinator.
- ``auth``      worker → coordinator: the worker's HMAC-SHA256 proof.
  Peers that fail the exchange are dropped **without charging the
  failure budget** — stray or impostor connections must not be able to
  abort a healthy campaign.
- ``init``     coordinator → worker: responsive set, blocklist, engine
  batch size, protocol, and the wave's walk
  (``starts``/``ends``/``seed``/``shards``, plus the v6-only
  ``hitlist``/``samples`` seeding) — sent to each worker once per
  wave on its open session; the worker builds the walk and its
  bitmaps once per ``init``.
- ``shard``    coordinator → worker: ``{"type": "shard", "shard": i,
  "index": q}`` — drain the ``i``-th sub-walk of the init walk (``q``
  is the coordinator's queue index, echoed in the result).  May carry
  a ``fault`` object when a chaos plan armed one for this attempt.
- ``result``   worker → coordinator: the shard's ``ScanResult`` counters.
- ``shutdown`` coordinator → worker: the campaign run is over — a
  spawned worker exits cleanly, a listen worker returns to ``accept``.

Determinism and failure semantics: every shard's ``ScanResult`` is a
pure function of the shard description, so *which* worker drains a
shard (or how often it is retried, or whether two workers race it)
never changes the outcome.  The coordinator survives the full chaos
matrix of :mod:`repro.scan.faults`:

- a worker that **dies** (mid-shard, mid-result, or before saying
  hello) has its shard re-queued and a replacement spawned;
- a worker that sends a **malformed, truncated, or oversized frame**
  is dropped — just that worker — and charged to the failure budget;
- a worker that **hangs or stalls** past the per-shard attempt
  deadline has its shard *speculatively re-dispatched* to an idle
  worker; the first result wins, late duplicates are discarded, and a
  worker far past its deadline is killed outright;
- **respawns back off exponentially** (deterministic, no jitter), and
  a crash-looping replacement fleet trips a detector that *degrades*
  the fleet — the wave finishes on the survivors instead of
  tight-loop respawning, surfaced in :attr:`Coordinator.telemetry`;
- only when no worker remains and none can be spawned does the run
  abort, with a bounded tail of each dead worker's stderr in the
  error message.

Throughout, results are released strictly in shard order, so the
orchestrator's ``on_shard`` checkpoint stream (and therefore
kill-and-resume byte-identity) is preserved under every fault.

Failure-budget accounting draws one safety line: a peer that was never
a fleet member — a clean pre-hello EOF from a port scanner or health
checker, or a connection that fails authentication — is logged and
ignored (``stray_disconnects`` / ``auth_rejects`` telemetry), while a
*garbled* hello and every failure of an initialized worker still
charge the budget.  A noisy or hostile network can therefore never
wedge a healthy run, but genuine infrastructure collapse still aborts
loudly.

Knobs: ``REPRO_DIST_WORKERS`` (fleet size, spawned + remote; default
one per shard capped at the CPU count plus the address book),
``REPRO_DIST_ADDRESS_BOOK`` (``host:port,host:port`` of pre-started
``--listen`` workers), ``REPRO_DIST_SECRET`` (shared HMAC key; unset
disables the challenge/response), ``REPRO_FAULT_PLAN`` (declarative
fault injection; see :mod:`repro.scan.faults`),
``REPRO_DIST_SHARD_DEADLINE``
(per-shard attempt deadline, default 30 s; 0 disables); none of these
change any result.  A test that needs every shard to take a while
appends ``stall@*:attempts=*:delay=S`` to its fault plan.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import hmac
import json
import os
import re
import selectors
import socket
import struct
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro import obs
from repro.env import (
    ENV_DIST_SECRET,
    dist_address_book,
    dist_secret,
    dist_shard_deadline,
    dist_workers,
    fault_plan as _env_fault_plan,
)
from repro.scan.engine import ScanResult
from repro.scan.executors import ExecutorFailure, build_worker
from repro.scan.faults import RespawnGovernor, deadline_action

__all__ = [
    "FrameStream",
    "Coordinator",
    "distributed_executor",
    "open_fleet",
    "worker_main",
    "listen_main",
    "main",
]

_HEADER = struct.Struct(">I")
#: Frame-size sanity cap: a corrupt length prefix must not allocate GBs.
MAX_FRAME = 1 << 30

#: The dtypes an array carrier may name: fixed-size numbers and
#: fixed-width bytes (v6 addresses travel as ``|S16``).
_WIRE_DTYPE = re.compile(r"[<>=|]?(?:[biuf][1248]|S[1-9][0-9]{0,2})")

#: At most one speculative copy of a shard races the original attempt.
_MAX_SPECULATION = 2
#: A worker this many deadlines past dispatch is killed, not raced.
_HARD_KILL_FACTOR = 3.0
#: Bytes of each dead worker's stderr kept for the failure report.
_STDERR_TAIL_BYTES = 512

#: Worker exit codes, one per injected death (diagnosable from `ps`).
_EXIT_CRASH = 17
_EXIT_TRUNCATE = 18
_EXIT_OVERSIZE = 19
_EXIT_MID_RESULT = 20
_EXIT_SPAWN = 21
#: A --connect worker that was denied (or denied the coordinator) auth.
_EXIT_AUTH = 22

#: Seconds a listen worker allows a fresh connection to finish the
#: hello/challenge/init handshake before dropping it — a port scanner
#: that connects and stalls must not wedge the accept loop.
_HANDSHAKE_TIMEOUT = 30.0
#: Seconds to wait for one outbound TCP connect to an address-book
#: entry before treating the worker as not-up-yet.
_DIAL_TIMEOUT = 2.0
#: Seconds between redial attempts at address-book entries that are
#: down, rejected, or lost mid-run — the mid-wave join cadence.
_REDIAL_INTERVAL = 0.5

#: "Forever" for a hung worker; the coordinator kills it long before.
_HANG_SECONDS = 3600.0
_DEFAULT_STALL = 1.0

#: Constructor sentinel: resolve the knob from the environment.
_ENV = object()


# ---------------------------------------------------------------------------
# Wire encoding
# ---------------------------------------------------------------------------


def encode_array(arr) -> dict:
    """A JSON-safe ``{"dtype", "data"}`` carrier for a 1-D array.

    The wire dtype is pinned to explicit little-endian (``<i8`` for the
    int64 arrays every message actually carries): shipping the sender's
    *native* dtype string would silently corrupt payloads between hosts
    of different endianness — a big-endian encoder swaps its bytes
    here, once, instead of every decoder guessing.
    """
    arr = np.asarray(arr)
    wire = arr.dtype.newbyteorder("<")
    arr = np.ascontiguousarray(arr, dtype=wire)
    return {
        "dtype": wire.str,
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj, field: str = "array") -> np.ndarray:
    """Decode an :func:`encode_array` carrier to a native-order array.

    Byteswaps when the wire order differs from this host's — the
    returned array is always native-endian, so downstream
    ``searchsorted`` hot paths never chew on swapped views.  A carrier
    that is not a dict of two strings, a wire dtype and base64 data of
    whole items, raises :class:`ValueError` naming ``field``.
    """
    if not isinstance(obj, dict):
        raise ValueError(
            f"{field}: array carrier is a {type(obj).__name__}, not a dict"
        )
    for key in ("dtype", "data"):
        if not isinstance(obj.get(key), str):
            raise ValueError(f"{field}: carrier {key!r} is not a string")
    if not _WIRE_DTYPE.fullmatch(obj["dtype"]):
        raise ValueError(f"{field}: unsupported dtype {obj['dtype']!r}")
    try:
        arr = np.frombuffer(
            base64.b64decode(obj["data"], validate=True),
            dtype=np.dtype(obj["dtype"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: undecodable array ({exc})") from None
    return arr.astype(arr.dtype.newbyteorder("="), copy=False)


def _auth_proof(secret: str, role: str, nonce_c: str, nonce_w: str) -> str:
    """The HMAC-SHA256 hex proof one ``role`` owes over both nonces.

    Binding the proof to the role and to *both* nonces makes the
    exchange mutual and replay-proof: a recorded worker proof cannot be
    replayed to a later challenge, and a coordinator proof cannot be
    reflected back as a worker proof.
    """
    message = f"{role}:{nonce_c}:{nonce_w}".encode()
    return hmac.new(secret.encode(), message, hashlib.sha256).hexdigest()


def _hello_pid(hello) -> int | None:
    """The pid a well-formed ``hello`` frame carries, else ``None``."""
    if not isinstance(hello, dict) or hello.get("type") != "hello":
        return None
    try:
        return int(hello.get("pid", -1))
    except (TypeError, ValueError, OverflowError):
        return None


class FrameStream:
    """Length-prefixed JSON frames over a blocking socket.

    ``bytes_in``/``bytes_out`` count the wire traffic either side of
    this stream has moved — observability both report into (worker
    stats frames carry the worker's counters home; the coordinator
    folds its own side into the metrics registry).
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.bytes_in = 0
        self.bytes_out = 0

    def send(self, message: dict) -> None:
        payload = json.dumps(message).encode()
        self.send_raw(_HEADER.pack(len(payload)) + payload)

    def send_raw(self, data: bytes) -> None:
        """Ship pre-framed (possibly malformed) bytes — fault injection."""
        self.sock.sendall(data)
        self.bytes_out += len(data)

    def recv(self) -> dict | None:
        """The next frame, or ``None`` on a clean EOF.

        Raises :class:`ValueError` (which includes
        :class:`json.JSONDecodeError` and :class:`UnicodeDecodeError`)
        on an oversized length prefix, a non-JSON body, or one nested
        too deeply to decode — the caller decides whether that kills
        the connection or the process.
        """
        header = self._read_exact(_HEADER.size)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ValueError(f"frame of {length} bytes exceeds MAX_FRAME")
        body = self._read_exact(length)
        if body is None:
            return None
        try:
            return json.loads(body)
        except RecursionError:
            raise ValueError("frame nests too deeply to decode") from None

    def _read_exact(self, n: int) -> bytes | None:
        chunks = []
        while n > 0:
            chunk = self.sock.recv(n)
            if not chunk:
                return None
            chunks.append(chunk)
            self.bytes_in += len(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _Worker:
    """One connected worker: its stream, process, and assigned shard."""

    __slots__ = (
        "stream", "pid", "origin", "assigned", "assigned_at",
        "fault_kind",
    )

    def __init__(self, stream: FrameStream, pid: int, origin=None):
        self.stream = stream
        self.pid = pid
        self.origin = origin  # (host, port) book entry; None = accepted
        self.assigned = None  # local queue index, or None when idle
        self.assigned_at = 0.0  # coordinator clock at dispatch
        self.fault_kind = None  # fault armed on the in-flight dispatch


#: One wave's telemetry, zeroed at the start of every :meth:`Coordinator.run`.
_WAVE_TELEMETRY = {
    "failures": 0,
    "respawns": 0,
    "faults_armed": 0,
    "speculative_requeues": 0,
    "duplicates_discarded": 0,
    "deadline_kills": 0,
    "degraded": False,
    "fleet_initial": 0,
    "survivors": None,
    "auth_rejects": 0,
    "stray_disconnects": 0,
    "remote_fleet": 0,
    "remote_connected": 0,
}


def _init_frame(walk, worker_args) -> dict:
    """The ``init`` frame of one wave: its walk and engine inputs."""
    values, batch_size, block_state, protocol = worker_args
    return {
        "type": "init",
        "protocol": protocol,
        "batch_size": int(batch_size),
        "responsive": encode_array(values),
        "block_starts": (
            encode_array(block_state[0]) if block_state else None
        ),
        "block_ends": (
            encode_array(block_state[1]) if block_state else None
        ),
        "starts": encode_array(walk.starts),
        "ends": encode_array(walk.ends),
        "seed": int(walk.seed),
        "shards": int(walk.shards),
        # v6-only seeding; absent/None for v4 so old workers that
        # ignore unknown keys keep interoperating.
        "hitlist": (
            encode_array(walk.hitlist) if walk.hitlist is not None else None
        ),
        "samples": (
            int(walk.samples) if walk.samples is not None else None
        ),
    }


class Coordinator:
    """Drive one socket-worker fleet over per-wave shard queues.

    One coordinator serves any number of :meth:`run` calls, one per
    wave, on one fleet.  The first ``run`` binds the listener and
    spawns or dials the fleet; each later ``run`` sends its wave's
    ``init`` to every live worker on the session already open.
    :meth:`close` (or leaving the ``with`` block) shuts the fleet down.
    ``workers=None`` sizes the fleet at one worker per shard, capped at
    the CPU count plus the address book.

    Fleet composition: every ``address_book`` entry (default
    ``$REPRO_DIST_ADDRESS_BOOK``) is dialed out to — and *re*-dialed on
    a short cadence, so a remote worker that starts late, or comes back
    after its coordinator session dropped, joins mid-wave.  The
    remainder of the fleet is spawned as local child processes.  When
    ``secret`` (default ``$REPRO_DIST_SECRET``) is set, every
    connection — accepted or dialed — must complete the mutual
    HMAC-SHA256 challenge/response before it receives init; rejects are
    counted in ``auth_rejects`` and never charge the failure budget.
    Passing ``secret=None`` / ``address_book=None`` explicitly disables
    the feature even when the env var is set.

    Chaos and recovery knobs (each defaults to its ``repro.env``
    resolution, so env vars apply unless a test passes a value):

    - ``fault_plan`` — a :class:`~repro.scan.faults.FaultPlan` (or plan
      string) of injected faults; default ``$REPRO_FAULT_PLAN``.
    - ``shard_deadline`` — seconds one attempt may hold a shard before
      it is speculatively re-dispatched to an idle worker (first
      result wins, duplicates discarded); ``None`` disables.
    - ``timeout`` — the global no-progress watchdog (backstop).

    Replacement spawns back off exponentially and a crash loop
    degrades the fleet to its survivors, at the
    :class:`~repro.scan.faults.RespawnGovernor` defaults.

    Each ``run`` is one wave: it refills the fleet to its size and
    starts from zero shard attempts (so a fault plan replays per wave),
    a fresh failure budget and respawn governor, and fresh
    :attr:`telemetry` — failures, respawns, speculative re-dispatches,
    discarded duplicates, whether the fleet degraded — which it
    publishes when the wave ends.  A worker still holding a shard at
    the end of a wave (the loser of a speculative race) is dropped, so
    its stale result can never land in the next wave.
    """

    def __init__(
        self,
        workers: int | None = None,
        timeout: float = 120.0,
        fault_plan=None,
        shard_deadline=_ENV,
        address_book=_ENV,
        secret=_ENV,
    ):
        self.workers = workers
        if address_book is _ENV:
            self.address_book = dist_address_book()
        elif address_book is None:
            self.address_book = ()
        else:
            self.address_book = dist_address_book(address_book)
        if secret is _ENV:
            self.secret = dist_secret()
        elif secret is None:
            self.secret = None
        else:
            self.secret = dist_secret(secret)
        self.fault_plan = _env_fault_plan(fault_plan)
        self.shard_deadline = (
            dist_shard_deadline()
            if shard_deadline is _ENV
            else shard_deadline
        )
        self.timeout = timeout
        self._governor = RespawnGovernor()
        self.failures = 0
        self.telemetry = dict(_WAVE_TELEMETRY)
        self._listener = None
        self._selector = None
        self._procs: dict[int, subprocess.Popen] = {}
        self._connected: set[int] = set()
        self._live: list[_Worker] = []
        # The in-flight wave, released when it ends.
        self._init_message = None
        self._targets = ()
        self._pending: deque = deque()
        self._results: dict[int, ScanResult] = {}
        self._attempts: dict[int, int] = {}
        self._max_failures = 8
        self._last_failure = ""
        self._spawn_ordinal = 0
        self._spawn_backlog = 0
        self._next_spawn_at = 0.0
        self._degraded = False
        self._stderr_files: dict[int, object] = {}
        self._stderr_tails: deque = deque(maxlen=8)
        #: Address-book entries owed a (re)dial, mapped to the clock
        #: time the next attempt is due — the mid-wave join mechanism.
        self._remote_due: dict[tuple[str, int], float] = {}
        self._remote_live: set[tuple[str, int]] = set()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the fleet down; safe to call twice."""
        collect_stats = bool(obs.get_registry())
        for worker in self._live:
            try:
                worker.stream.send({"type": "shutdown"})
                if collect_stats:
                    # A worker answers shutdown with one final stats
                    # frame; best-effort with a short clamp so a hung
                    # worker cannot stall teardown.  Skipped entirely
                    # outside a metrics scope.
                    worker.stream.sock.settimeout(0.25)
                    reply = worker.stream.recv()
                    if (
                        isinstance(reply, dict)
                        and reply.get("type") == "stats"
                    ):
                        self._absorb_stats(
                            worker.pid, reply.get("stats")
                        )
            except (OSError, ValueError):
                pass
            self._flush_worker_bytes(worker)
            worker.stream.close()
        self._live = []
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        # One short shared grace for clean exits, then escalate: a hung
        # worker must not stall teardown for 5 s apiece — every result
        # is already durable, so killing laggards loses nothing.
        grace = time.monotonic() + 1.0
        for proc in self._procs.values():
            try:
                proc.wait(timeout=max(0.0, grace - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = {}
        for fh in self._stderr_files.values():
            try:
                fh.close()
            except OSError:
                pass
        self._stderr_files = {}
        self._connected = set()
        self._remote_due = {}
        self._remote_live = set()

    # -- spawning ------------------------------------------------------

    def _spawn(self, first_generation: bool) -> None:
        """Launch one worker process pointed at the coordinator socket."""
        port = self._listener.getsockname()[1]
        argv = [
            sys.executable,
            "-m",
            "repro.scan.distributed",
            "--connect",
            f"127.0.0.1:{port}",
        ]
        ordinal = self._spawn_ordinal
        self._spawn_ordinal += 1
        spec = self.fault_plan.spawn_fault(ordinal)
        if spec is not None:
            argv.append(
                "--auth-fail" if spec.kind == "auth_fail"
                else "--die-at-spawn"
            )
        env = dict(os.environ)
        # The coordinator's *resolved* auth config is authoritative for
        # its own children: an explicit secret reaches them through the
        # environment, an explicit None scrubs an inherited one.
        if self.secret is not None:
            env[ENV_DIST_SECRET] = self.secret
        else:
            env.pop(ENV_DIST_SECRET, None)
        # Make the repro package importable in the child regardless of
        # how this process found it (installed, PYTHONPATH, or src/).
        pkg_root = str(Path(__file__).resolve().parents[2])
        path = env.get("PYTHONPATH", "")
        if pkg_root not in path.split(os.pathsep):
            env["PYTHONPATH"] = (
                pkg_root + (os.pathsep + path if path else "")
            )
        stderr = tempfile.TemporaryFile()
        try:
            proc = subprocess.Popen(
                argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr
            )
        except OSError as exc:
            # ENOMEM, a missing interpreter, fd exhaustion: a spawn
            # failure is a worker failure, not a coordinator crash —
            # charge the budget and retry through the backoff path.
            stderr.close()
            self._governor.record_failure()
            self._fail(f"spawn of worker ordinal {ordinal} raised {exc}")
            self._request_spawn()
            return
        if not first_generation:
            self._governor.record_respawn()
            self.telemetry["respawns"] += 1
        self._procs[proc.pid] = proc
        self._stderr_files[proc.pid] = stderr
        obs.get_tracer().point(
            "worker_spawn",
            pid=proc.pid,
            ordinal=ordinal,
            respawn=not first_generation,
        )

    def _request_spawn(self) -> None:
        """Ask for one replacement; honored by :meth:`_pump_spawns`."""
        if not self._degraded:
            self._spawn_backlog += 1

    def _pump_spawns(self) -> None:
        """Spawn owed replacements, backoff-paced; degrade on crash loop."""
        if not self._spawn_backlog or self._degraded:
            return
        if self._governor.in_crash_loop:
            self._enter_degraded()
            return
        now = time.monotonic()
        if now < self._next_spawn_at:
            return
        self._spawn_backlog -= 1
        self._next_spawn_at = now + self._governor.delay()
        self._spawn(first_generation=False)

    def _enter_degraded(self) -> None:
        """Crash loop: stop respawning, finish on the survivors."""
        self._degraded = True
        self._spawn_backlog = 0
        self.telemetry["degraded"] = True
        self.telemetry["survivors"] = len(self._live)
        obs.get_tracer().point(
            "fleet_degraded", survivors=len(self._live)
        )
        sys.stderr.write(
            "repro.scan.distributed: crash loop detected after "
            f"{self._governor.failures} consecutive spawn failures; "
            f"degrading fleet to {len(self._live)} surviving worker(s)\n"
        )

    # -- stderr attribution --------------------------------------------

    def _stderr_tail(self, pid: int) -> None:
        """Bank the last bytes of a dead worker's stderr for the report."""
        fh = self._stderr_files.pop(pid, None)
        if fh is None:
            return
        try:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - _STDERR_TAIL_BYTES))
            tail = fh.read().decode(errors="replace").strip()
        except (OSError, ValueError):
            tail = ""
        finally:
            fh.close()
        if tail:
            self._stderr_tails.append(f"pid {pid}: {tail}")

    def _stderr_report(self) -> str:
        if not self._stderr_tails:
            return ""
        return "\nworker stderr tails:\n" + "\n".join(
            f"  {tail}" for tail in self._stderr_tails
        )

    # -- event handling ------------------------------------------------

    def _fail(self, message: str) -> None:
        self.failures += 1
        self.telemetry["failures"] = self.failures
        self._last_failure = message
        if self.failures > self._max_failures:
            raise ExecutorFailure(
                f"distributed executor: too many worker failures "
                f"({self.failures}); last: {message}"
                + self._stderr_report()
            )

    def _needs_requeue(self, index: int) -> bool:
        """Is nobody else (result, queue, live worker) covering ``index``?"""
        if index in self._results or index in self._pending:
            return False
        return not any(w.assigned == index for w in self._live)

    def _flush_worker_bytes(self, worker: _Worker) -> None:
        """Fold this side's wire counters in as a worker detaches."""
        registry = obs.get_registry()
        registry.counter("dist.bytes_in").inc(worker.stream.bytes_in)
        registry.counter("dist.bytes_out").inc(worker.stream.bytes_out)

    def _absorb_stats(self, pid: int, stats) -> None:
        """Worker-side counters (shipped home in frames) → gauges.

        Gauges, not counter increments: each frame carries the worker's
        *cumulative* session counters, so the latest value is the
        truth and summing frames would multiply it.
        """
        if not isinstance(stats, dict):
            return
        registry = obs.get_registry()
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                registry.gauge(f"worker.{pid}.{key}").set(value)

    def _detach(self, worker: _Worker) -> None:
        """Take ``worker`` out of the fleet: end its session, reap it."""
        if worker in self._live:
            self._live.remove(worker)
        try:
            self._selector.unregister(worker.stream.sock)
        except (KeyError, ValueError):
            pass
        self._flush_worker_bytes(worker)
        worker.stream.close()
        if worker.origin is not None:
            # A remote fleet member: its listen loop may well survive
            # this session (a coordinator-side drop, a transient stall)
            # — schedule a redial so it can rejoin mid-wave.  A pid
            # collision with a local child must not reap that child, so
            # the proc table is only consulted for accepted workers.
            self._remote_live.discard(worker.origin)
            self._schedule_redial(worker.origin)
            return
        proc = self._procs.pop(worker.pid, None)
        if proc is not None:
            # Usually the process is already dead (that's why the drop
            # happened); a protocol-violating or hung survivor is
            # terminated so the reap below cannot block the event loop.
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._stderr_tail(worker.pid)

    def _drop_worker(self, worker: _Worker, reason: str) -> None:
        """A worker died or misbehaved: re-queue its shard, count it."""
        tracer = obs.get_tracer()
        tracer.point("worker_drop", pid=worker.pid, reason=reason)
        if worker.fault_kind is not None and worker.assigned is not None:
            # Worker processes cannot write the coordinator's event
            # log; a drop whose in-flight dispatch had a fault armed is
            # the observable moment that fault fired.
            tracer.point(
                "fault_fired", pid=worker.pid, kind=worker.fault_kind
            )
        self._detach(worker)
        requeued = worker.assigned
        worker.assigned = None
        if requeued is not None and self._needs_requeue(requeued):
            # Front of the queue: the lost shard is the next dispatch,
            # keeping the in-order release window as small as possible.
            self._pending.appendleft(requeued)
        self._fail(
            f"worker pid {worker.pid} {reason}"
            + (f" while draining queue slot {requeued}" if requeued
               is not None else "")
        )
        # An already-idle survivor picks the re-queued shard up at once;
        # a replacement is only spawned for work nobody can absorb.
        self._dispatch_idle()
        if self._pending:
            self._request_spawn()

    def _dispatch_idle(self) -> None:
        for idle in list(self._live):
            if not self._pending:
                break
            self._dispatch(idle)

    def _dispatch(self, worker: _Worker) -> None:
        pending = self._pending
        if worker.assigned is not None or not pending:
            return
        # Skip queue entries whose result already landed (a speculative
        # copy that lost the race before ever being dispatched).
        while pending and pending[0] in self._results:
            pending.popleft()
        if not pending:
            return
        index = pending.popleft()
        shard_no = int(self._targets[index].shard)
        attempt = self._attempts.get(index, 0)
        message = {"type": "shard", "shard": shard_no, "index": index}
        tracer = obs.get_tracer()
        spec = self.fault_plan.shard_fault(shard_no, attempt)
        if spec is not None:
            message["fault"] = {"kind": spec.kind, "delay": spec.delay}
            self.telemetry["faults_armed"] += 1
            tracer.point(
                "fault_armed",
                shard=shard_no,
                attempt=attempt,
                kind=spec.kind,
            )
        self._attempts[index] = attempt + 1
        try:
            worker.stream.send(message)
            worker.assigned = index
            worker.assigned_at = time.monotonic()
            worker.fault_kind = spec.kind if spec is not None else None
            tracer.point(
                "shard_dispatch",
                index=index,
                shard=shard_no,
                attempt=attempt,
                pid=worker.pid,
            )
        except OSError:
            self._attempts[index] = attempt  # never actually dispatched
            pending.appendleft(index)
            self._drop_worker(worker, "died at dispatch")

    def _accept(self) -> None:
        sock, _ = self._listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Every read/write on a worker socket is bounded: a peer that
        # connects and then stalls (mid-hello, mid-frame, or refusing
        # to drain the init payload) times out and is handled as a
        # failure instead of wedging the event loop past the watchdog.
        sock.settimeout(self.timeout)
        self._handshake(FrameStream(sock), None)

    def _handshake(self, stream: FrameStream, origin) -> bool:
        """hello(/challenge/auth)/init with a fresh connection.

        ``origin`` is ``None`` for accepted connections (spawned
        workers — and strays), or the ``(host, port)`` address-book
        entry for connections the coordinator dialed out.  Returns True
        when the peer became a live fleet member.

        Budget accounting draws the safety line documented up top: a
        clean pre-hello EOF or an authentication failure is *never*
        charged (the peer was never a fleet member), while a garbled
        hello — a peer that sent bytes but not our protocol where a
        worker was expected — still is.
        """
        label = (
            "worker" if origin is None
            else "remote worker %s:%s" % origin
        )
        try:
            hello = stream.recv()
        except ValueError as exc:
            # Garbled hello: framing or JSON garbage from a peer that
            # did talk.  The connecting peer's failure, not the
            # coordinator's — drop it, keep the event loop, charge.
            stream.close()
            self._governor.record_failure()
            self._fail(f"{label} connected without a valid hello ({exc})")
            if self._pending:
                self._request_spawn()
            return False
        except OSError:
            hello = None
        if hello is None:
            # Clean pre-hello EOF (or reset/stall): a port scanner or
            # health checker probing the socket.  Never a fleet member,
            # so never charged — a noisy network must not be able to
            # abort a healthy run.  (A spawned child that died before
            # hello is still charged, by _reap_unconnected.)
            stream.close()
            self.telemetry["stray_disconnects"] += 1
            if origin is not None:
                self._schedule_redial(origin)
            return False
        pid = _hello_pid(hello)
        if pid is None:
            stream.close()
            self._governor.record_failure()
            self._fail(f"{label} connected without a valid hello")
            if self._pending:
                self._request_spawn()
            return False
        if self.secret is not None and not self._authenticate(
            stream, hello
        ):
            self._reject_unauthenticated(stream, pid, origin)
            return False
        worker = _Worker(stream, pid, origin)
        if origin is None:
            self._connected.add(pid)
        try:
            stream.send(self._init_message)
        except OSError:
            # The pid is already marked connected, so _reap_unconnected
            # will never replace this worker — do it here.
            stream.close()
            self._governor.record_failure()
            self._fail(f"{label} pid {pid} died at init")
            if origin is not None:
                self._schedule_redial(origin)
            elif self._pending:
                self._request_spawn()
            return False
        self._governor.record_success()
        self._live.append(worker)
        obs.get_tracer().point(
            "worker_connect",
            pid=pid,
            origin="%s:%s" % origin if origin is not None else None,
        )
        if origin is not None:
            self._remote_live.add(origin)
            self.telemetry["remote_connected"] += 1
        self._selector.register(stream.sock, selectors.EVENT_READ, worker)
        self._dispatch(worker)
        return True

    def _authenticate(self, stream: FrameStream, hello: dict) -> bool:
        """The coordinator's half of the mutual challenge/response."""
        nonce_w = hello.get("nonce")
        if not isinstance(nonce_w, str) or not nonce_w:
            return False
        nonce_c = os.urandom(16).hex()
        try:
            stream.send({
                "type": "challenge",
                "nonce": nonce_c,
                "proof": _auth_proof(
                    self.secret, "coordinator", nonce_c, nonce_w
                ),
            })
            reply = stream.recv()
        except (OSError, ValueError):
            return False
        if not isinstance(reply, dict) or reply.get("type") != "auth":
            return False
        proof = reply.get("proof")
        expected = _auth_proof(self.secret, "worker", nonce_c, nonce_w)
        # compare_digest raises TypeError on non-ASCII str: reject it.
        return (
            isinstance(proof, str)
            and proof.isascii()
            and hmac.compare_digest(proof, expected)
        )

    def _reject_unauthenticated(self, stream: FrameStream, pid: int,
                                origin) -> None:
        """Drop a peer that failed (or walked out of) the auth exchange.

        Never charges the failure budget or the respawn governor: an
        impostor or misconfigured peer was never a fleet member, and
        letting it burn the budget would hand any hostile network a
        lever to abort healthy campaigns.  A spawned child that failed
        auth (the ``auth_fail`` fault, or a secret mismatch) is reaped
        and replaced; a dialed address-book entry is *not* redialed
        within the wave — a wrong secret will not fix itself, and
        redialing it forever would just spin the auth_rejects counter.
        """
        stream.close()
        self.telemetry["auth_rejects"] += 1
        where = (
            "accepted" if origin is None else "dialed %s:%s" % origin
        )
        obs.get_tracer().point("auth_reject", pid=pid, where=where)
        sys.stderr.write(
            "repro.scan.distributed: rejected unauthenticated peer "
            f"(pid {pid}, {where})\n"
        )
        proc = self._procs.pop(pid, None) if origin is None else None
        if proc is not None:
            # Mark it connected so _reap_unconnected never sees (and
            # charges) its exit, reap it, and queue a replacement.
            self._connected.add(pid)
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self._stderr_tail(pid)
            if self._pending:
                self._request_spawn()

    # -- dialing the address book --------------------------------------

    def _schedule_redial(self, addr) -> None:
        self._remote_due[addr] = time.monotonic() + _REDIAL_INTERVAL

    def _dial(self, addr) -> bool:
        """One outbound connect to a pre-started --listen worker."""
        try:
            sock = socket.create_connection(addr, timeout=_DIAL_TIMEOUT)
        except OSError:
            # Not up (yet).  A worker that starts late joins through
            # the redial pump; dial failures never charge the budget.
            self._schedule_redial(addr)
            return False
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        return self._handshake(FrameStream(sock), addr)

    def _pump_dials(self) -> bool:
        """Dial due address-book entries — the mid-wave join path.

        Returns True when any dial produced a live fleet member (the
        drive loop counts that as progress for its watchdog).
        """
        joined = False
        now = time.monotonic()
        due = [a for a, t in self._remote_due.items() if t <= now]
        for addr in due:
            del self._remote_due[addr]
            if addr in self._remote_live:
                continue
            joined = self._dial(addr) or joined
        return joined

    def _on_readable(self, worker: _Worker) -> bool:
        """Handle one frame from a worker; True when a result landed."""
        try:
            message = worker.stream.recv()
        except (OSError, ValueError) as exc:
            # ValueError covers the whole malformed-frame family: an
            # oversized length prefix, a non-JSON or too deeply nested
            # body, and undecodable bytes (UnicodeDecodeError).  One
            # bad frame costs one worker, never the run.
            self._drop_worker(worker, f"sent an unreadable frame ({exc})")
            return False
        if message is None:
            if worker.assigned is None and not self._pending:
                # Clean EOF from an idle worker during wind-down.
                self._detach(worker)
                return False
            self._drop_worker(worker, "hung up")
            return False
        if isinstance(message, dict) and message.get("type") == "stats":
            # A worker's final session counters (normally sent in
            # answer to shutdown; tolerated any time it is idle).
            self._absorb_stats(worker.pid, message.get("stats"))
            return False
        if not isinstance(message, dict) or message.get("type") != "result":
            kind = (
                message.get("type") if isinstance(message, dict)
                else type(message).__name__
            )
            self._drop_worker(worker, f"sent unexpected {kind!r}")
            return False
        index = worker.assigned
        if index is None or index != message.get("index"):
            # Validate *before* clearing the assignment: a stale or
            # duplicate result frame must not erase the in-flight shard
            # — _drop_worker re-queues whatever is still assigned.
            self._drop_worker(
                worker, "sent a result for an unassigned shard"
            )
            return False
        try:
            result = ScanResult(
                probes_sent=int(message["probes_sent"]),
                responses=int(message["responses"]),
                blocked=int(message["blocked"]),
                batches=int(message["batches"]),
                protocol=message.get("protocol"),
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            self._drop_worker(worker, "sent a malformed result")
            return False
        worker.assigned = None
        worker.fault_kind = None
        if index in self._results:
            # A speculative race this worker lost: the shard already
            # completed elsewhere.  Both results are byte-identical by
            # construction, so the duplicate is simply discarded and
            # the worker goes back to useful work.
            self.telemetry["duplicates_discarded"] += 1
            obs.get_tracer().point(
                "duplicate_discarded", index=index, pid=worker.pid
            )
            self._dispatch(worker)
            return False
        self._results[index] = result
        seconds = message.get("seconds")
        obs.get_tracer().point(
            "shard_result",
            index=index,
            pid=worker.pid,
            probes_sent=result.probes_sent,
            seconds=seconds,
        )
        if isinstance(seconds, (int, float)):
            obs.get_registry().histogram("dist.shard_seconds").observe(
                seconds
            )
        self._absorb_stats(worker.pid, message.get("stats"))
        self._dispatch(worker)
        return True

    def _reap_unconnected(self) -> None:
        """Workers that died before saying hello never hit the selector."""
        for pid, proc in list(self._procs.items()):
            if pid not in self._connected and proc.poll() is not None:
                del self._procs[pid]
                self._stderr_tail(pid)
                self._governor.record_failure()
                self._fail(
                    f"worker pid {pid} exited with {proc.returncode} "
                    "before connecting"
                )
                if self._pending:
                    self._request_spawn()

    def _check_deadlines(self) -> None:
        """Rescue shards held past their deadline by hung/slow workers."""
        deadline = self.shard_deadline
        if deadline is None:
            return
        now = time.monotonic()
        for worker in list(self._live):
            index = worker.assigned
            if index is None:
                continue
            action = deadline_action(
                now, worker.assigned_at, deadline, _HARD_KILL_FACTOR
            )
            if action == "ok":
                continue
            if action == "kill":
                # Far past the deadline the worker is presumed hung;
                # reclaim its process (its shard re-queues if nobody
                # else covered it).
                self.telemetry["deadline_kills"] += 1
                obs.get_tracer().point(
                    "deadline_kill", pid=worker.pid, index=index
                )
                self._drop_worker(
                    worker,
                    f"held a shard {now - worker.assigned_at:.1f}s "
                    f"(deadline {deadline:.1f}s)",
                )
                continue
            if index in self._results or index in self._pending:
                continue
            live_copies = sum(
                1 for w in self._live if w.assigned == index
            )
            if live_copies >= _MAX_SPECULATION:
                continue
            # Speculative re-dispatch: race a second attempt on an idle
            # worker.  First completed result wins; the loser's frame
            # is discarded in _on_readable.  In-order release and every
            # merged byte are unchanged — shard results are pure.
            self._pending.appendleft(index)
            self.telemetry["speculative_requeues"] += 1
            obs.get_tracer().point(
                "speculative_redispatch", index=index
            )
            self._dispatch_idle()
            if self._pending and not any(
                w.assigned is None for w in self._live
            ):
                self._request_spawn()

    # -- the drive loop ------------------------------------------------

    def _begin_wave(self, targets, worker_args) -> None:
        """Per-wave state: the wave's init, queue, attempts and budget."""
        self._init_message = _init_frame(targets[0], worker_args)
        self._targets = targets
        self._pending = deque(range(len(targets)))
        self._results = {}
        self._attempts = {}
        self._max_failures = max(8, 2 * len(targets))
        self.failures = 0
        self._last_failure = ""
        self._governor = RespawnGovernor()
        self._degraded = False
        self._spawn_backlog = 0
        self._next_spawn_at = 0.0
        self._stderr_tails.clear()
        self.telemetry = dict(_WAVE_TELEMETRY)

    def _fill_fleet(self) -> None:
        """Bring the fleet to this wave's size and hand it the init.

        The first wave binds the listener; later waves send ``init`` to
        the live fleet on its open sessions, spawn children for any it
        lost, and dial every book entry not in it.
        """
        if self._listener is None:
            self._listener = socket.socket()
            self._listener.bind(("127.0.0.1", 0))
            self._listener.listen(64)
            self._selector = selectors.DefaultSelector()
            self._selector.register(
                self._listener, selectors.EVENT_READ, None
            )
        book = self.address_book
        n_workers = self.workers or min(
            len(self._targets), (os.cpu_count() or 1) + len(book)
        )
        fleet = max(1, min(n_workers, len(self._targets)))
        self.telemetry["fleet_initial"] = fleet
        self.telemetry["remote_fleet"] = len(book)
        # Every book entry is dialed (and redialed) — a late-starting
        # remote joins mid-wave; local children fill out the rest of
        # the fleet.
        for _ in range(fleet - len(book) - len(self._procs)):
            self._spawn(first_generation=True)
        # Every carried-over worker gets this wave's init before any of
        # them gets a shard: a shard drained on the last wave's walk
        # would be wrong.
        lost = []
        for worker in self._live:
            try:
                worker.stream.send(self._init_message)
            except OSError:
                lost.append(worker)
                continue
            if worker.origin is not None:
                self.telemetry["remote_connected"] += 1
        for worker in lost:
            self._drop_worker(worker, "died at init")
        self._dispatch_idle()
        for addr in book:
            if addr not in self._remote_live:
                self._remote_due[addr] = 0.0
        self._pump_dials()

    def _end_wave(self) -> None:
        """Release the wave and publish its telemetry.

        A worker still holding a shard — a speculative race's loser, or
        any worker when the wave was abandoned — is dropped uncharged:
        its result belongs to this wave and must never land in the next.
        """
        for worker in [w for w in self._live if w.assigned is not None]:
            obs.get_tracer().point(
                "worker_drop", pid=worker.pid,
                reason="held a shard at wave end",
            )
            self._detach(worker)
        if self.telemetry["degraded"]:
            self.telemetry["survivors"] = len(self._live)
        self._init_message = None
        self._targets = ()
        self._pending = deque()
        self._results = {}
        # Always-on (independent of REPRO_OBS): the orchestrator
        # persists fleet accounting into progress.json, cumulative
        # across waves and resumes.
        obs.publish_executor_telemetry(self.telemetry)

    def run(self, targets, worker_args):
        """Drain one wave's ``targets``; yield one ScanResult per shard,
        in order.

        ``worker_args`` is the ``(responsive_values, batch_size,
        block_state, protocol)`` tuple shared by every executor.  Drain
        or close one wave's generator before starting the next: closing
        it ends the wave.
        """
        targets = list(targets)
        if not targets:
            return
        walk = targets[0]
        if any(t._offsets is not walk._offsets for t in targets):
            raise ValueError(
                "distributed executor requires shards of one walk "
                "(targets from one shard_targets call)"
            )
        self._begin_wave(targets, worker_args)
        results = self._results
        next_emit = 0
        try:
            self._fill_fleet()
            last_progress = time.monotonic()
            while next_emit < len(targets):
                for key, _ in self._selector.select(timeout=0.2):
                    if key.data is None:
                        self._accept()
                        last_progress = time.monotonic()
                    elif self._on_readable(key.data):
                        last_progress = time.monotonic()
                self._reap_unconnected()
                self._check_deadlines()
                self._pump_spawns()
                if self._pump_dials():
                    last_progress = time.monotonic()
                while next_emit in results:
                    # Kept until the wave ends: a late duplicate of an
                    # emitted shard must still read as a duplicate.
                    yield results[next_emit]
                    next_emit += 1
                    last_progress = time.monotonic()
                if (
                    next_emit < len(targets)
                    and not self._live
                    and not self._procs
                    and not self._spawn_backlog
                    and not self._remote_due
                ):
                    # Nobody is working, nobody is starting, no spawn
                    # is owed, and no redial is pending: the fleet is
                    # gone.  (A fleet that is merely *waiting* on
                    # redials is rescued by the pump or, if the remotes
                    # never answer, by the no-progress watchdog.)
                    raise ExecutorFailure(
                        "distributed executor: too many worker failures"
                        " — no live workers remain and respawning "
                        + (
                            "is halted by the crash-loop detector"
                            if self._degraded
                            else "produced none"
                        )
                        + f" ({self.failures} failures; "
                        f"last: {self._last_failure})"
                        + self._stderr_report()
                    )
                if time.monotonic() - last_progress > self.timeout:
                    raise ExecutorFailure(
                        "distributed executor: no worker progress for "
                        f"{self.timeout:.0f}s "
                        f"(shard {next_emit}/{len(targets)})"
                    )
        finally:
            self._end_wave()


@contextlib.contextmanager
def open_fleet():
    """A distributed drain whose one fleet serves every call in the block.

    The fleet is sized by ``$REPRO_DIST_WORKERS`` and shut down when the
    block exits, normally or raised.
    """
    with Coordinator(workers=dist_workers()) as coordinator:

        # run_sharded rejects wrap_targets for every executor but serial.
        def drain(targets, worker_args, wrap_targets=None):
            return coordinator.run(targets, worker_args)

        yield drain


def distributed_executor(targets, worker_args, wrap_targets=None):
    """Coordinator + N socket workers (the multi-node protocol), for one
    drain: the fleet is opened here and shut down when the drain ends."""
    with open_fleet() as drain:
        yield from drain(targets, worker_args, wrap_targets)


# ---------------------------------------------------------------------------
# Worker side (`python -m repro.scan.distributed --connect HOST:PORT`)
# ---------------------------------------------------------------------------


def _scream(text: str) -> None:
    """Announce an injected death on stderr — the coordinator banks a
    bounded tail of each dead worker's stderr for its failure report,
    exactly as a real crashing worker's traceback would be."""
    sys.stderr.write(f"repro.scan.distributed worker: {text}\n")
    sys.stderr.flush()


def _execute_fault_and_maybe_die(stream: FrameStream, kind: str,
                                 delay: float) -> None:
    """Run the pre-result half of an injected fault (may not return)."""
    if kind in ("crash", "hang", "oversize", "truncate"):
        _scream(f"injected fault {kind!r}")
    if kind == "crash":
        # Injected node loss: die without a result, mid-shard.
        os._exit(_EXIT_CRASH)
    elif kind == "hang":
        # Never answer; only the coordinator's shard deadline (or a
        # hard kill) rescues the shard.
        time.sleep(_HANG_SECONDS)
        os._exit(_EXIT_CRASH)
    elif kind == "stall":
        # Slow I/O: answer, but late — possibly after a speculative
        # duplicate already won the race.
        time.sleep(delay or _DEFAULT_STALL)
    elif kind == "oversize":
        # A length prefix past MAX_FRAME: recv() raises ValueError.
        stream.send_raw(_HEADER.pack(MAX_FRAME + 1))
        os._exit(_EXIT_OVERSIZE)
    elif kind == "truncate":
        # Promise a megabyte, deliver seven bytes, die: recv() sees a
        # mid-frame EOF.
        stream.send_raw(_HEADER.pack(1 << 20) + b"partial")
        os._exit(_EXIT_TRUNCATE)


def _build_session(message: dict):
    """(engine, bitmaps, protocol, walk) from an ``init`` frame.

    The walk and its bitmaps are built once here; each ``shard`` frame
    drains one sub-walk of it.  Raises ``KeyError``/``TypeError``/
    ``ValueError`` on a malformed frame.
    """
    # Imported lazily: this module is imported by repro.scan.executors
    # while repro.scan.sharded is still initialising, so a top-level
    # import would be circular.
    from repro.scan.sharded import IntervalTargets

    block_state = None
    if message["block_starts"] is not None:
        block_state = (
            decode_array(message["block_starts"], "block_starts"),
            decode_array(message["block_ends"], "block_ends"),
        )
    hitlist = message.get("hitlist")
    walk = IntervalTargets(
        (
            decode_array(message["starts"], "starts"),
            decode_array(message["ends"], "ends"),
        ),
        seed=message["seed"],
        shards=message["shards"],
        hitlist=(
            decode_array(hitlist, "hitlist") if hitlist is not None
            else None
        ),
        samples=message.get("samples"),
    )
    engine, bitmaps, protocol = build_worker(
        walk,
        decode_array(message["responsive"], "responsive"),
        int(message["batch_size"]),
        block_state,
        message["protocol"],
    )
    return engine, bitmaps, protocol, walk


def _session(
    stream: FrameStream,
    *,
    secret: str | None = None,
    auth_fail: bool = False,
    strict: bool = True,
) -> str:
    """Serve one coordinator over ``stream``; the remote-node loop.

    Sends hello, then drains frames until the session ends.  Returns
    how it ended: ``"shutdown"`` (clean drain), ``"eof"`` (the
    coordinator vanished), ``"denied"`` (authentication failed in
    either direction — a worker with a secret refuses to drain shards
    for a coordinator that cannot prove it), or ``"protocol"`` (the
    peer spoke something else; non-strict mode only — a strict spawned
    worker raises so its traceback lands in the coordinator's stderr
    tail).
    """
    nonce_w = os.urandom(16).hex()
    stream.send({"type": "hello", "pid": os.getpid(), "nonce": nonce_w})
    engine = bitmaps = protocol = walk = None
    authed = False
    # Session counters shipped home for observability: cumulative in
    # every result frame, and once more in the final stats frame that
    # answers shutdown.  Purely additive wire payload — the coordinator
    # result path reads the counter fields it always has.
    stats = {
        "shards": 0,
        "probes_sent": 0,
        "responses": 0,
        "seconds": 0.0,
    }

    def _session_stats() -> dict:
        return dict(
            stats,
            bytes_in=stream.bytes_in,
            bytes_out=stream.bytes_out,
        )

    while True:
        message = stream.recv()
        if message is None:
            return "eof"
        kind_ = message.get("type") if isinstance(message, dict) else None
        if kind_ == "shutdown":
            try:
                stream.send(
                    {
                        "type": "stats",
                        "pid": os.getpid(),
                        "stats": _session_stats(),
                    }
                )
            except OSError:
                # The coordinator may already be gone; stats are
                # telemetry, never worth failing a clean shutdown over.
                pass
            return "shutdown"
        if kind_ == "challenge":
            if secret is None:
                # The coordinator demands auth this worker cannot
                # provide (and could not verify): refuse, don't guess.
                return "denied"
            nonce_c = str(message.get("nonce") or "")
            theirs = message.get("proof")
            expected = _auth_proof(
                secret, "coordinator", nonce_c, nonce_w
            )
            if not (
                isinstance(theirs, str)
                and theirs.isascii()
                and hmac.compare_digest(theirs, expected)
            ):
                # Mutual auth: never drain shards for an impostor
                # coordinator.
                return "denied"
            proof = _auth_proof(secret, "worker", nonce_c, nonce_w)
            if auth_fail:
                # Injected sabotage (the auth_fail fault): present a
                # wrong proof so the coordinator's reject path runs.
                proof = "deadbeef" + proof[8:]
            stream.send({"type": "auth", "proof": proof})
            authed = True
        elif kind_ == "init":
            if secret is not None and not authed:
                # This worker requires auth; init without a challenge
                # means an unauthenticated coordinator.
                return "denied"
            try:
                engine, bitmaps, protocol, walk = _build_session(message)
            except (KeyError, TypeError, ValueError):
                # A well-framed init missing a field or carrying a bad
                # array: a stray peer, not our coordinator.
                if strict:
                    raise
                return "protocol"
            # Handshake done: a listen worker's handshake timeout no
            # longer applies (the next shard may be a long time coming).
            stream.sock.settimeout(None)
        elif kind_ == "shard":
            if engine is None:
                if strict:
                    raise RuntimeError("shard received before init")
                return "protocol"
            try:
                index = message["index"]
                targets = walk._for_shard(int(message["shard"]))
            except (KeyError, TypeError, ValueError):
                if strict:
                    raise
                return "protocol"
            fault = message.get("fault") or {}
            kind = fault.get("kind")
            if kind == "corrupt":
                # A well-framed body that is not JSON: recv() raises
                # JSONDecodeError.  No result follows; the coordinator
                # drops this worker and its next recv sees a clean EOF.
                _scream("injected fault 'corrupt'")
                body = b"\x00\xffthis is not json"
                stream.send_raw(_HEADER.pack(len(body)) + body)
                continue
            if kind is not None:
                _execute_fault_and_maybe_die(
                    stream, kind, float(fault.get("delay") or 0.0)
                )
            began = time.monotonic()
            result = engine.run(targets, bitmaps, protocol=protocol)
            seconds = time.monotonic() - began
            stats["shards"] += 1
            stats["probes_sent"] += result.probes_sent
            stats["responses"] += result.responses
            stats["seconds"] += seconds
            reply = json.dumps(
                {
                    "type": "result",
                    "index": index,
                    "shard": targets.shard,
                    "probes_sent": result.probes_sent,
                    "responses": result.responses,
                    "blocked": result.blocked,
                    "batches": result.batches,
                    "protocol": result.protocol,
                    "seconds": seconds,
                    "stats": _session_stats(),
                }
            ).encode()
            if kind == "mid_result":
                # Die halfway through the result frame: the shard's
                # work is done but the coordinator must still re-queue
                # it (the counters never arrived whole).
                _scream("injected fault 'mid_result'")
                frame = _HEADER.pack(len(reply)) + reply
                stream.send_raw(frame[: max(5, len(frame) // 2)])
                os._exit(_EXIT_MID_RESULT)
            stream.send_raw(_HEADER.pack(len(reply)) + reply)
        else:
            if strict:
                raise RuntimeError(f"unexpected message {kind_!r}")
            return "protocol"


def worker_main(host: str, port: int, auth_fail: bool = False,
                secret=_ENV) -> int:
    """Dial out to a coordinator, drain shards until shutdown/EOF."""
    stream = FrameStream(socket.create_connection((host, port)))
    try:
        outcome = _session(
            stream,
            secret=dist_secret() if secret is _ENV else secret,
            auth_fail=auth_fail,
        )
    finally:
        stream.close()
    if outcome == "denied" or (auth_fail and outcome == "eof"):
        # Rejected by (or refused to work for) the coordinator; a
        # distinct exit code so a fleet operator can tell auth failures
        # from crashes in `ps`.  The sabotaged-proof case surfaces as
        # an EOF — the coordinator hangs up on a bad proof.
        _scream("authentication failed")
        return _EXIT_AUTH
    return 0


def listen_main(
    host: str,
    port: int,
    *,
    auth_fail: bool = False,
    secret=_ENV,
    max_sessions: int | None = None,
    on_bound=None,
) -> int:
    """Serve coordinator sessions forever: the pre-started remote worker.

    Sessions are sequential: when one ends — clean shutdown, the
    coordinator dying mid-wave, a stray peer hanging up or talking
    garbage — the worker returns to ``accept`` and waits for the next.
    That is what lets a restarted coordinator re-dial its address book
    and resume from its checkpoint stream, and lets a worker started
    late join a wave already in flight.

    ``port`` 0 binds a free port; the bound address is announced on
    stdout (``repro.scan.distributed: listening on HOST:PORT``) and
    passed to ``on_bound(host, port)`` when given.  ``max_sessions``
    bounds the loop (for tests); ``None`` serves forever.
    """
    if secret is _ENV:
        secret = dist_secret()
    server = socket.socket()
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(8)
    bound_host, bound_port = server.getsockname()[:2]
    if on_bound is not None:
        on_bound(bound_host, bound_port)
    print(
        f"repro.scan.distributed: listening on {bound_host}:{bound_port}",
        flush=True,
    )
    served = 0
    try:
        while max_sessions is None or served < max_sessions:
            sock, _ = server.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # A fresh peer gets this long to finish the handshake; a
            # port scanner that connects and stalls must not wedge the
            # accept loop.  _session lifts the timeout once init lands.
            sock.settimeout(_HANDSHAKE_TIMEOUT)
            stream = FrameStream(sock)
            try:
                outcome = _session(
                    stream,
                    secret=secret,
                    auth_fail=auth_fail,
                    strict=False,
                )
            except (OSError, ValueError) as exc:
                # A stray peer's garbage (or its vanishing mid-frame)
                # ends the session, never the worker.
                outcome = f"error ({exc})"
            finally:
                stream.close()
            served += 1
            _scream(f"session {served} ended: {outcome}")
    finally:
        server.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.scan.distributed",
        description="Distributed scan worker: dial out to a coordinator "
        "(--connect) or serve coordinator sessions (--listen).",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--connect", metavar="HOST:PORT",
        help="coordinator address to dial (spawned-worker mode)",
    )
    mode.add_argument(
        "--listen", metavar="HOST:PORT",
        help="pre-started remote worker: serve coordinator sessions in "
        "sequence; HOST:0 picks a free port, announced on stdout",
    )
    parser.add_argument(
        "--die-at-spawn", action="store_true",
        help="test-only: exit immediately (an injected crash-looping "
        "spawn; see repro.scan.faults)",
    )
    parser.add_argument(
        "--auth-fail", action="store_true",
        help="test-only: present a sabotaged HMAC proof (the auth_fail "
        "fault; see repro.scan.faults)",
    )
    args = parser.parse_args(argv)
    if args.die_at_spawn:
        _scream("injected fault 'spawn_crash'")
        os._exit(_EXIT_SPAWN)
    addr = args.connect or args.listen
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"address must be HOST:PORT, got {addr!r}")
    if args.listen:
        return listen_main(host, int(port), auth_fail=args.auth_fail)
    return worker_main(host, int(port), auth_fail=args.auth_fail)


if __name__ == "__main__":
    sys.exit(main())
