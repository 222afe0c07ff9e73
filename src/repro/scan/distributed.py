"""Distributed shard execution: a coordinator driving socket workers.

This is the multi-node seam.  The coordinator sends each worker a
wave's :class:`~repro.scan.walk.IntervalTargets` walk once, then shard
indices from a work queue, over length-prefixed JSON frames on stream
sockets (``int64`` arrays ride as base64 payloads pinned little-endian,
so hosts of different endianness interoperate).  Workers join the
fleet two ways, mixed freely:

- **forked** — local children, forked from the coordinator (POSIX
  only), each holding one end of a ``socketpair`` made for it;
- **remote** — pre-started ``--listen HOST:PORT`` workers named in
  ``REPRO_DIST_ADDRESS_BOOK``, dialed *out* to and redialed on a short
  cadence.  A listen worker serves coordinator sessions in sequence,
  so a restarted coordinator reconnects the same fleet and a late
  worker joins mid-wave.

The coordinator never listens: only its own children and its address
book can join the fleet, with or without ``REPRO_DIST_SECRET``.

One fleet serves a whole campaign run: the first wave starts it, each
later wave sends its ``init`` on the sessions already open, and the
run's end shuts it down (a wave retry or a resume starts a fresh one).

The module has two halves.  :class:`Coordinator` is an I/O shell: it
owns the selector, the forked children and their sockets, and the
handshake, turns what happens on them into events, and carries out
commands.  Every decision — the shard queue and in-order release,
deadlines and speculation, the failure budget, respawn backoff and
degradation, redials, the wave boundary and its telemetry — belongs
to the pure :class:`~repro.scan.fleet_policy.FleetPolicy`, which is
where a new scheduling rule goes.  The worker side (``_session``, run
by a forked child or by :func:`listen_main`) serves one coordinator
session at a time.

Protocol (all frames are ``>I``-length-prefixed UTF-8 JSON):

- ``hello``     worker → coordinator: ``{"type": "hello", "pid": ...,
  "nonce": ...}`` — always the worker's first frame, on a forked
  child's socketpair and on a dialed connection alike.
- ``challenge`` coordinator → worker (only when ``REPRO_DIST_SECRET``
  is set): a fresh nonce plus the coordinator's HMAC-SHA256 proof over
  both nonces — authentication is *mutual*.
- ``auth``      worker → coordinator: the worker's proof.  Peers that
  fail the exchange are dropped without charging the failure budget.
- ``init``     coordinator → worker: responsive set, blocklist, batch
  size, protocol and the wave's walk (``starts``/``ends``/``seed``/
  ``shards``, plus the v6-only ``hitlist``/``samples``), once per wave
  per session; the worker builds the walk and its bitmaps once.
- ``shard``    coordinator → worker: ``{"type": "shard", "shard": i,
  "index": q}`` — drain the ``i``-th sub-walk (``q``, the queue
  index, is echoed in the result), with a ``fault`` object when a
  chaos plan armed one for this attempt.
- ``result``   worker → coordinator: the shard's ``ScanResult`` counters.
- ``shutdown`` coordinator → worker: the run is over — a forked worker
  exits, a listen worker returns to ``accept``.

Every shard's result is a pure function of its description, so which
worker drains it, how often it is retried, or whether two attempts
race never changes an outcome, and results are released strictly in
shard order under every fault of :mod:`repro.scan.faults`.

Knobs: ``REPRO_DIST_WORKERS`` (fleet size, spawned + remote; default
one per shard capped at the CPU count plus the address book),
``REPRO_DIST_ADDRESS_BOOK``, ``REPRO_DIST_SECRET`` (unset disables the
challenge/response), ``REPRO_FAULT_PLAN`` and
``REPRO_DIST_SHARD_DEADLINE`` (default 30 s; 0 disables); none of them
changes any result.  A test that needs every shard to take a while
appends ``stall@*:attempts=*:delay=S`` to its fault plan.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import gc
import hashlib
import hmac
import json
import os
import re
import selectors
import signal
import socket
import struct
import sys
import tempfile
import threading
import time
import traceback
from collections import deque

import numpy as np

from repro import jsonio, obs
from repro.env import (
    dist_address_book,
    dist_secret,
    dist_shard_deadline,
    dist_workers,
    fault_plan as _env_fault_plan,
)
from repro.scan.faults import WORKER_FAULT_KINDS
from repro.scan.fleet_policy import (
    ExecutorFailure, FleetPolicy, Worker, _label,
)
from repro.scan.walk import IntervalTargets, build_worker

__all__ = [
    "FrameStream",
    "Coordinator",
    "distributed_executor",
    "open_fleet",
    "listen_main",
    "main",
]

_HEADER = struct.Struct(">I")
#: Frame-size sanity cap: a corrupt length prefix must not allocate GBs.
MAX_FRAME = 1 << 30

#: The dtypes an array carrier may name: fixed-size numbers and
#: fixed-width bytes (v6 addresses travel as ``|S16``).
_WIRE_DTYPE = re.compile(r"[<>=|]?(?:[biuf][1248]|S[1-9][0-9]{0,2})")

#: Bytes of each dead worker's stderr kept for the failure report.
_STDERR_TAIL_BYTES = 512

#: Worker exit codes, one per injected death (diagnosable from `ps`).
_EXIT_CRASH = 17
_EXIT_TRUNCATE = 18
_EXIT_OVERSIZE = 19
_EXIT_MID_RESULT = 20
_EXIT_SPAWN = 21
#: A forked worker that was denied (or denied the coordinator) auth.
_EXIT_AUTH = 22

#: Seconds a listen worker allows a fresh connection to finish the
#: hello/challenge/init handshake before dropping it — a port scanner
#: that connects and stalls must not wedge the accept loop.
_HANDSHAKE_TIMEOUT = 30.0
#: Seconds to wait for one outbound TCP connect to an address-book
#: entry before treating the worker as not-up-yet.
_DIAL_TIMEOUT = 2.0

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
        return jsonio.loads(body)

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


def _authenticate(stream: FrameStream, hello: dict, secret: str) -> bool:
    """The coordinator's half of the mutual challenge/response."""
    nonce_w = hello.get("nonce")
    if not isinstance(nonce_w, str) or not nonce_w:
        return False
    nonce_c = os.urandom(16).hex()
    try:
        stream.send({
            "type": "challenge",
            "nonce": nonce_c,
            "proof": _auth_proof(secret, "coordinator", nonce_c, nonce_w),
        })
        reply = stream.recv()
    except (OSError, ValueError):
        return False
    if not isinstance(reply, dict) or reply.get("type") != "auth":
        return False
    proof = reply.get("proof")
    expected = _auth_proof(secret, "worker", nonce_c, nonce_w)
    # compare_digest raises TypeError on non-ASCII str: reject it.
    return (
        isinstance(proof, str)
        and proof.isascii()
        and hmac.compare_digest(proof, expected)
    )


def _greet(stream: FrameStream, secret: str | None):
    """Read a fresh peer's hello, authenticate it, and say what it is.

    Returns ``("hello", pid)`` for a fleet member, ``("stray", None)``
    for a clean pre-hello EOF (or reset/stall), ``("garbled", detail)``
    for a peer that talked but not our protocol, and ``("rejected",
    pid)`` for one that failed the auth exchange.
    """
    try:
        hello = stream.recv()
    except ValueError as exc:
        return "garbled", f" ({exc})"
    except OSError:
        hello = None
    if hello is None:
        return "stray", None
    if not isinstance(hello, dict) or hello.get("type") != "hello":
        return "garbled", ""
    try:
        pid = int(hello.get("pid", -1))
    except (TypeError, ValueError, OverflowError):
        return "garbled", ""
    if secret is not None and not _authenticate(stream, hello, secret):
        return "rejected", pid
    return "hello", pid


class _Child:
    """A forked worker's pid, stderr tail file and returncode (``None``
    while it runs, ``-N`` once signal N ended it)."""

    def __init__(self, pid: int, stderr):
        self.pid = pid
        self.stderr = stderr
        self.returncode = None

    def wait(self, timeout: float) -> int | None:
        """The returncode, polled for up to ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() >= deadline:
                break
            else:
                time.sleep(0.001)
        return self.returncode


class Coordinator:
    """Drive one socket-worker fleet over per-wave shard queues.

    One coordinator serves any number of :meth:`run` calls, one per
    wave, on one fleet; :meth:`close` (or leaving the ``with`` block)
    shuts it down.  ``workers=None`` sizes the fleet at one worker per
    shard, capped at the CPU count plus the address book.  Every
    ``address_book`` entry is dialed (and redialed until it joins);
    local children, each forked with one end of its own ``socketpair``,
    fill the rest of the fleet.  With a ``secret``, every worker, local
    or dialed, must pass the mutual HMAC-SHA256 exchange before it
    receives init.  ``fault_plan`` injects faults (a
    :class:`~repro.scan.faults.FaultPlan` or plan string),
    ``shard_deadline`` is the speculation deadline (``None`` disables)
    and ``timeout`` the no-progress watchdog and the bound on every
    worker socket read or write.  Each knob left unset resolves from
    its ``repro.env`` variable; ``secret=None`` or
    ``address_book=None`` disables the feature even when it is set.

    Every scheduling decision, and :attr:`telemetry`, belongs to a
    :class:`~repro.scan.fleet_policy.FleetPolicy`.  The coordinator
    turns selector, fork, handshake and auth I/O into its events,
    and is the port that carries out its commands (:meth:`send`,
    :meth:`spawn`, :meth:`dial`, :meth:`detach`, :meth:`trace`,
    :meth:`warn`).
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
        # _ENV reads the knob's environment variable; None disables.
        book = () if address_book is None else dist_address_book(
            None if address_book is _ENV else address_book
        )
        self.secret = None if secret is None else dist_secret(
            None if secret is _ENV else secret
        )
        self.timeout = timeout
        self._policy = FleetPolicy(
            self,
            workers=workers or (os.cpu_count() or 1) + len(book),
            address_book=book,
            fault_plan=_env_fault_plan(fault_plan),
            shard_deadline=(
                dist_shard_deadline()
                if shard_deadline is _ENV
                else shard_deadline
            ),
            timeout=timeout,
        )
        self._selector = None
        self._procs: dict[int, _Child] = {}
        self._stderr_tails: deque = deque(maxlen=8)

    @property
    def telemetry(self) -> dict:
        """The current (or last) wave's fleet accounting."""
        return self._policy.telemetry

    @property
    def failures(self) -> int:
        """Failures charged to the current (or last) wave's budget."""
        return self._policy.telemetry["failures"]

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the fleet down; safe to call twice."""
        collect_stats = bool(obs.get_registry())
        for worker in self._policy.disband():
            try:
                worker.link.send({"type": "shutdown"})
                if collect_stats:
                    # A worker answers shutdown with one final stats
                    # frame; best-effort with a short clamp so a hung
                    # worker cannot stall teardown.  Skipped entirely
                    # outside a metrics scope.
                    worker.link.sock.settimeout(0.25)
                    reply = worker.link.recv()
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
            worker.link.close()
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                if isinstance(key.data, _Child):
                    # A child yet to say hello: its EOF lets it exit.
                    key.fileobj.close()
            self._selector.close()
            self._selector = None
        # One short shared grace for clean exits, then escalate: a hung
        # worker must not stall teardown for seconds apiece — every
        # result is already durable, so killing laggards loses nothing.
        grace = time.monotonic() + 1.0
        for pid in list(self._procs):
            self._reap(pid, max(0.0, grace - time.monotonic()))

    # -- the policy's port ---------------------------------------------

    def send(self, worker: Worker, message: dict) -> None:
        worker.link.send(message)

    def spawn(self, ordinal: int, fault, respawn: bool) -> None:
        """Fork one worker that serves its end of a fresh socketpair."""
        if threading.active_count() != 1:
            # The child could inherit a lock another thread holds.
            raise RuntimeError("cannot fork a worker: other threads run")
        with contextlib.ExitStack() as undo:
            stderr = undo.enter_context(tempfile.TemporaryFile())
            ours, theirs = socket.socketpair()
            undo.callback(ours.close)
            with theirs:
                pid = os.fork()
                if pid == 0:
                    _forked_worker(theirs, self.secret, stderr.fileno(), fault)
            # The parent's copy of the child's end is closed here: the
            # child's death must read as EOF on ours.
            undo.pop_all()
        child = self._procs[pid] = _Child(pid, stderr)
        self._selector.register(ours, selectors.EVENT_READ, child)
        obs.get_tracer().point(
            "worker_spawn", pid=pid, ordinal=ordinal, respawn=respawn
        )

    def dial(self, addr) -> None:
        """One outbound connect to a pre-started --listen worker."""
        sock = socket.create_connection(addr, timeout=_DIAL_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._handshake(sock, addr)

    def detach(self, worker: Worker) -> None:
        """End ``worker``'s session; reap it if it is a local child."""
        try:
            self._selector.unregister(worker.link.sock)
        except (KeyError, ValueError):
            pass
        self._flush_worker_bytes(worker)
        worker.link.close()
        if worker.origin is None:
            # Usually the process is already dead (that's why the drop
            # happened); a protocol-violating or hung survivor is
            # terminated so the reap cannot block the event loop.  A
            # remote's pid may collide with a local child's, so only
            # local children are reaped.
            self._reap(worker.pid, grace=0.0)

    def trace(self, point: str, /, **fields) -> None:
        obs.get_tracer().point(point, **fields)

    def warn(self, text: str) -> None:
        sys.stderr.write(f"repro.scan.distributed: {text}\n")

    # -- processes and stderr ------------------------------------------

    def _reap(self, pid: int, grace: float) -> bool:
        """Give local child ``pid`` ``grace`` seconds to exit, then stop
        it; bank its stderr tail.  False when ``pid`` is no child."""
        child = self._procs.pop(pid, None)
        if child is None:
            return False
        if child.wait(grace) is None:
            os.kill(pid, signal.SIGTERM)
            if child.wait(2.0) is None:
                os.kill(pid, signal.SIGKILL)
                child.wait(float("inf"))
        try:
            with child.stderr as fh:
                fh.seek(max(0, fh.seek(0, os.SEEK_END) - _STDERR_TAIL_BYTES))
                tail = fh.read().decode(errors="replace").strip()
        except (OSError, ValueError):
            tail = ""
        if tail:
            self._stderr_tails.append(f"pid {pid}: {tail}")
        return True

    def _stderr_report(self) -> str:
        if not self._stderr_tails:
            return ""
        return "\nworker stderr tails:\n" + "\n".join(
            f"  {tail}" for tail in self._stderr_tails
        )

    # -- metrics -------------------------------------------------------

    def _flush_worker_bytes(self, worker: Worker) -> None:
        """Fold this side's wire counters in as a worker detaches."""
        registry = obs.get_registry()
        registry.counter("dist.bytes_in").inc(worker.link.bytes_in)
        registry.counter("dist.bytes_out").inc(worker.link.bytes_out)

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

    # -- I/O into events -----------------------------------------------

    def _handshake(self, sock: socket.socket, origin, child=None) -> None:
        """hello(/challenge/auth) with a fresh session, then an event.

        ``origin`` is the ``(host, port)`` address-book entry of a
        connection the coordinator dialed out, or ``None`` for the
        socketpair end of local ``child``.
        """
        # Every read/write on a worker socket is bounded: a peer that
        # connects and then stalls (mid-hello, mid-frame, or refusing
        # to drain the init payload) times out and is handled as a
        # failure instead of wedging the event loop past the watchdog.
        sock.settimeout(self.timeout)
        stream = FrameStream(sock)
        kind, detail = _greet(stream, self.secret)
        now = time.monotonic()
        if kind == "hello":
            worker = Worker(detail, origin, stream)
            self._selector.register(sock, selectors.EVENT_READ, worker)
            self._policy.joined(now, worker)
            return
        stream.close()
        if child is not None:
            # A local child that did not join is reaped (and replaced):
            # EOF before hello means it died; a rejected one (the
            # auth_fail fault, a secret mismatch) exits on its own.
            self._reap(child.pid, grace=0.0 if kind == "garbled" else 5.0)
        if kind == "stray" and child is not None:
            self._policy.peer_failed(
                now,
                f"worker pid {child.pid} exited with {child.returncode} "
                "before connecting",
            )
        elif kind == "stray":
            self._policy.stray(now, origin)
        elif kind == "rejected":
            self._policy.auth_rejected(now, detail, origin, child is not None)
        else:
            self._policy.peer_failed(
                now,
                f"{_label(origin)} connected without a valid hello{detail}",
            )

    def _on_readable(self, worker: Worker) -> None:
        """Hand one frame from ``worker`` to the policy."""
        try:
            message = worker.link.recv()
        except (OSError, ValueError) as exc:
            # ValueError covers the whole malformed-frame family: an
            # oversized length prefix, a non-JSON or too deeply nested
            # body, and undecodable bytes (UnicodeDecodeError).  One
            # bad frame costs one worker, never the run.
            self._policy.lost(
                time.monotonic(), worker, f"sent an unreadable frame ({exc})"
            )
            return
        landed = self._policy.frame(time.monotonic(), worker, message)
        if landed and isinstance(message.get("seconds"), (int, float)):
            obs.get_registry().histogram("dist.shard_seconds").observe(
                message["seconds"]
            )
        if landed or (
            isinstance(message, dict) and message.get("type") == "stats"
        ):
            self._absorb_stats(worker.pid, message.get("stats"))

    # -- the drive loop ------------------------------------------------

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
        if self._selector is None:
            self._selector = selectors.DefaultSelector()
        self._stderr_tails.clear()
        policy = self._policy
        try:
            policy.begin_wave(
                time.monotonic(),
                [int(t.shard) for t in targets],
                _init_frame(walk, worker_args),
                children=len(self._procs),
            )
            while policy.outstanding:
                for key, _ in self._selector.select(timeout=0.2):
                    if isinstance(key.data, _Child):
                        # A child's first bytes: its hello, or its EOF.
                        self._selector.unregister(key.fileobj)
                        self._handshake(key.fileobj, None, key.data)
                    else:
                        self._on_readable(key.data)
                yield from policy.tick(time.monotonic(), len(self._procs))
        except ExecutorFailure as exc:
            # Every abort carries the dead workers' stderr tails.
            raise ExecutorFailure(f"{exc}{self._stderr_report()}") from None
        finally:
            policy.end_wave(time.monotonic())
            # Always-on (independent of REPRO_OBS): the orchestrator
            # persists fleet accounting into progress.json, cumulative
            # across waves and resumes.
            obs.publish_executor_telemetry(policy.telemetry)


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
# Worker side (forked children and `--listen` processes)
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


def _shard_fault(fault) -> tuple:
    """``(kind, delay)`` of the fault a ``shard`` frame arms, if any.

    ``fault`` is absent (``None``) or ``{"kind": <worker fault kind>,
    "delay": <finite seconds >= 0>}``; anything else raises a
    :class:`ValueError` naming it.
    """
    if fault is None:
        return None, 0.0
    if isinstance(fault, dict) and fault.get("kind") in WORKER_FAULT_KINDS:
        delay = fault.get("delay")
        # type(), not isinstance(): a bool is no delay.
        if type(delay) in (int, float) and 0 <= delay < float("inf"):
            return fault["kind"], float(delay)
    raise ValueError(f"shard frame: malformed fault {fault!r}")


def _build_session(message: dict):
    """(engine, bitmaps, protocol, walk) from an ``init`` frame.

    The walk and its bitmaps are built once here; each ``shard`` frame
    drains one sub-walk of it.  Raises ``KeyError``/``TypeError``/
    ``ValueError`` on a malformed frame, and ``ValueError`` on a walk
    of more coordinates than all of IPv4 (the bitmaps are sized by it).
    """
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
    if walk.address_count() > 1 << 32:
        raise ValueError(
            f"init: starts/ends/samples span {walk.address_count()} "
            "coordinates, more than all of IPv4"
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
            except (KeyError, TypeError, ValueError, OverflowError):
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
                kind, delay = _shard_fault(message.get("fault"))
            except (KeyError, TypeError, ValueError, OverflowError):
                if strict:
                    raise
                return "protocol"
            if kind == "corrupt":
                # A well-framed body that is not JSON: recv() raises
                # JSONDecodeError.  No result follows; the coordinator
                # drops this worker and its next recv sees a clean EOF.
                _scream("injected fault 'corrupt'")
                body = b"\x00\xffthis is not json"
                stream.send_raw(_HEADER.pack(len(body)) + body)
                continue
            if kind is not None:
                _execute_fault_and_maybe_die(stream, kind, delay)
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


def _forked_worker(sock, secret, stderr_fd: int, fault) -> None:
    """A forked worker's life on its socketpair end ``sock``, ended by
    ``os._exit``: it keeps the coordinator's imports but not its GC,
    signal handlers, other fds (sibling sockets, the event log) or obs
    scope.  ``fault`` is the spawn fault armed for it, if any."""
    code = 1
    try:
        gc.freeze()
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_DFL)
        os.dup2(stderr_fd, 2)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        keep = sock.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", buffering=1, closefd=False)
        if fault == "spawn_crash":
            _scream("injected fault 'spawn_crash'")
            code = _EXIT_SPAWN
        else:
            auth_fail = fault == "auth_fail"
            with obs.observe():
                outcome = _session(
                    FrameStream(sock), secret=secret, auth_fail=auth_fail
                )
            # Denied either way, or hung up on for a sabotaged proof:
            # a distinct exit code tells auth failures from crashes.
            code = 0
            if outcome == "denied" or (auth_fail and outcome == "eof"):
                _scream("authentication failed")
                code = _EXIT_AUTH
    except BaseException:
        traceback.print_exc()  # into the coordinator's stderr tail
    finally:
        os._exit(code)


def listen_main(
    host: str,
    port: int,
    *,
    secret: str | None,
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
    bounds the loop (for tests); ``None`` serves forever.  ``secret``
    is the shared HMAC key; ``None`` serves without authentication.
    """
    server = socket.create_server((host, port), backlog=8)
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
                outcome = _session(stream, secret=secret, strict=False)
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
        description="Distributed scan worker: serve coordinator sessions "
        "(--listen); a coordinator dials it through its address book.",
    )
    parser.add_argument(
        "--listen", metavar="HOST:PORT", required=True,
        help="pre-started remote worker: serve coordinator sessions in "
        "sequence; HOST:0 picks a free port, announced on stdout",
    )
    args = parser.parse_args(argv)
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"address must be HOST:PORT, got {args.listen!r}")
    return listen_main(host, int(port), secret=dist_secret())


if __name__ == "__main__":
    sys.exit(main())
