"""The distributed executor's scheduling policy, with no I/O in it.

:class:`FleetPolicy` makes every decision about a worker fleet that
needs no socket, process or clock: which shard a worker drains next,
when a held shard is raced or reclaimed, what a failure costs, when a
replacement is spawned or an address-book entry redialed, and when
results are released.  The :class:`~repro.scan.distributed.Coordinator`
is its shell: it turns selector, fork, handshake and auth I/O into
the policy's event methods (``begin_wave``/``end_wave``, ``joined``,
``frame``, ``lost``, ``peer_failed``, ``stray``, ``auth_rejected`` and
``tick``), each taking ``now``, the shell's clock reading.

Commands go out as calls on the ``port`` the shell passes in:
``send(worker, message)``, ``spawn(ordinal, fault, respawn)``,
``dial(addr)`` (whose handshake comes back as an event),
``detach(worker)``, ``trace(point, **fields)`` and ``warn(text)``.
``send``, ``spawn`` and ``dial`` raise :class:`OSError` when the peer
or process is gone, and the policy decides what that costs; a collapse
it cannot recover from raises :class:`ExecutorFailure`.

A new scheduling rule (work stealing, a different speculation trigger)
goes here, beside :meth:`FleetPolicy._dispatch` and
:meth:`FleetPolicy._check_deadlines`, and is tested against the
simulated fleet of ``tests/fleet_sim.py``, which replays any fault plan
on a fake clock.  The shell changes only with the wire or the process
model.
"""

from __future__ import annotations

from collections import deque

from repro.scan.engine import ScanResult
from repro.scan.faults import RespawnGovernor, deadline_action

__all__ = [
    "CLOCKED_TELEMETRY", "ExecutorFailure", "FleetPolicy", "Worker",
    "REDIAL_INTERVAL",
]

#: At most one speculative copy of a shard races the original attempt.
_MAX_SPECULATION = 2
#: A worker this many deadlines past dispatch is killed, not raced.
_HARD_KILL_FACTOR = 3.0
#: Seconds between redial attempts at address-book entries that are
#: down, rejected, or lost mid-run — the mid-wave join cadence.
REDIAL_INTERVAL = 0.5

#: One wave's telemetry, zeroed at the start of every wave.  Most of
#: it counts the wave's failures and faults, which a fault plan fixes.
#: :data:`CLOCKED_TELEMETRY` follows the clock instead.
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

#: Telemetry counts that depend on timing, so a replayed fault plan may
#: read differently.  ``respawns`` counts replacements spawned: one is
#: owed only while no idle survivor can take the lost worker's shard,
#: and the respawn backoff can hold it past the end of the wave, which
#: drops it.  The deadline counts are not listed: they move only when
#: a shard outlasts its deadline, which a plan's ``stall`` arranges.
CLOCKED_TELEMETRY = ("respawns",)


class ExecutorFailure(RuntimeError):
    """An executor's *infrastructure* collapsed (not a bad input).

    Raised when worker failures exhaust an executor's recovery options
    — a tripped failure budget, a crash-looped fleet with no survivors,
    a global progress stall.  Shards already drained were checkpointed
    by ``on_shard``, so the condition is retryable: the orchestrator's
    wave-level retry policy catches exactly this type and re-runs the
    remainder of the wave.
    """


class Worker:
    """One fleet member as the policy sees it."""

    __slots__ = (
        "pid", "origin", "link", "assigned", "assigned_at", "fault_kind",
    )

    def __init__(self, pid: int, origin=None, link=None):
        self.pid = pid
        self.origin = origin  # (host, port) book entry; None = local child
        self.link = link  # the shell's session; the policy never reads it
        self.assigned = None  # queue index in flight, or None when idle
        self.assigned_at = 0.0  # clock at dispatch
        self.fault_kind = None  # fault armed on the in-flight dispatch


def _label(origin) -> str:
    return "worker" if origin is None else "remote worker %s:%s" % origin


class _Wave:
    """One wave's state: :meth:`FleetPolicy.begin_wave` creates it and
    :meth:`FleetPolicy.end_wave` drops it."""

    def __init__(self, shards, init, now: float):
        self.shards = shards  # queue index -> walk shard number
        self.init = init  # the wave's init frame, opaque to the policy
        self.pending = deque(range(len(shards)))
        self.results: dict[int, ScanResult] = {}
        self.attempts: dict[int, int] = {}
        self.released = 0  # results released, in queue order
        self.max_failures = max(8, 2 * len(shards))
        self.last_failure = ""
        self.governor = RespawnGovernor()
        self.degraded = False
        self.spawn_backlog = 0
        self.next_spawn_at = 0.0
        self.last_progress = now
        self.telemetry = dict(_WAVE_TELEMETRY)


class FleetPolicy:
    """The shard queue, failure budget, respawns and redials of one fleet.

    One policy lives as long as its fleet: ``live`` workers,
    ``spawn_ordinal`` and the redial schedule carry over between waves;
    everything else is per wave.  ``workers`` caps the fleet (spawned
    plus remote; a wave of fewer shards gets fewer), ``shard_deadline``
    is the speculation deadline (``None`` disables), and ``timeout`` is
    the no-progress watchdog.  :attr:`telemetry` is the current (or
    last) wave's.
    """

    def __init__(self, port, *, workers: int, address_book, fault_plan,
                 shard_deadline, timeout: float):
        self.port = port
        self.workers = workers
        self.address_book = tuple(address_book)
        self.fault_plan = fault_plan
        self.shard_deadline = shard_deadline
        self.timeout = timeout
        self.live: list[Worker] = []
        self.spawn_ordinal = 0
        #: Address-book entries owed a (re)dial, mapped to the clock
        #: time the next attempt is due — the mid-wave join mechanism.
        self.remote_due: dict[tuple[str, int], float] = {}
        self.remote_live: set[tuple[str, int]] = set()
        self.wave: _Wave | None = None
        self.telemetry = dict(_WAVE_TELEMETRY)

    # -- the wave boundary ---------------------------------------------

    def begin_wave(self, now, shards, init, children: int) -> None:
        """Start draining ``shards`` (queue index -> shard number).

        Starts the wave from zero attempts, a fresh failure budget and
        respawn governor, and fresh telemetry, so a fault plan replays
        per wave.  Refills the fleet to its size (``children`` counts
        the local processes still alive from earlier waves), hands
        every carried-over worker ``init`` before any of them gets a
        shard — a shard drained on the last wave's walk would be wrong —
        and dials every address-book entry not in the fleet.
        """
        wave = self.wave = _Wave(list(shards), init, now)
        self.telemetry = wave.telemetry
        fleet = max(1, min(self.workers, len(wave.shards)))
        self.telemetry["fleet_initial"] = fleet
        self.telemetry["remote_fleet"] = len(self.address_book)
        for _ in range(fleet - len(self.address_book) - children):
            self._spawn(now, respawn=False)
        lost = []
        for worker in self.live:
            try:
                self.port.send(worker, init)
            except OSError:
                lost.append(worker)
                continue
            if worker.origin is not None:
                self.telemetry["remote_connected"] += 1
        for worker in lost:
            self.lost(now, worker, "died at init")
        self._dispatch_idle(now)
        for addr in self.address_book:
            if addr not in self.remote_live:
                self.remote_due[addr] = now
        self._pump_dials(now)

    def end_wave(self, now) -> None:
        """Drop the wave; its telemetry stays readable.

        A worker still holding a shard — a speculative race's loser, or
        any worker when the wave was abandoned — is dropped uncharged:
        its result belongs to this wave and must never land in the next.
        """
        for worker in [w for w in self.live if w.assigned is not None]:
            self.port.trace(
                "worker_drop", pid=worker.pid,
                reason="held a shard at wave end",
            )
            self._detach(now, worker)
        if self.telemetry["degraded"]:
            self.telemetry["survivors"] = len(self.live)
        self.wave = None

    def disband(self) -> list[Worker]:
        """Forget the fleet (the shell is shutting it down); its workers."""
        live, self.live = self.live, []
        self.remote_due.clear()
        self.remote_live.clear()
        return live

    @property
    def outstanding(self) -> int:
        """Shards of the current wave not yet released."""
        return len(self.wave.shards) - self.wave.released

    # -- events ----------------------------------------------------------

    def joined(self, now, worker: Worker) -> None:
        """A peer passed hello (and auth): init it, then give it a shard."""
        try:
            self.port.send(worker, self.wave.init)
        except OSError:
            self.port.detach(worker)
            self.peer_failed(
                now, f"{_label(worker.origin)} pid {worker.pid} died at init",
                redial=worker.origin,
            )
            return
        self.wave.governor.record_success()
        self.wave.last_progress = now
        self.live.append(worker)
        self.port.trace(
            "worker_connect", pid=worker.pid,
            origin="%s:%s" % worker.origin if worker.origin else None,
        )
        if worker.origin is not None:
            self.remote_live.add(worker.origin)
            self.telemetry["remote_connected"] += 1
        self._dispatch(now, worker)

    def frame(self, now, worker: Worker, message) -> bool:
        """A decoded frame from ``worker`` (``None``: a clean EOF).

        Returns True when it landed a result.  ``stats`` frames are the
        shell's business and ignored here.
        """
        wave = self.wave
        if message is None:
            if worker.assigned is None and not wave.pending:
                self._detach(now, worker)  # an idle worker's wind-down
            else:
                self.lost(now, worker, "hung up")
            return False
        kind = (
            message.get("type") if isinstance(message, dict)
            else type(message).__name__
        )
        if kind == "stats":
            return False
        if kind != "result":
            self.lost(now, worker, f"sent unexpected {kind!r}")
            return False
        index = worker.assigned
        if index is None or index != message.get("index"):
            # Checked before the assignment is cleared: a stale or
            # duplicate result frame must not erase the in-flight shard.
            self.lost(now, worker, "sent a result for an unassigned shard")
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
            self.lost(now, worker, "sent a malformed result")
            return False
        worker.assigned = worker.fault_kind = None
        if index in wave.results:
            # A speculative race this worker lost: both results are
            # identical by construction, so the late one is dropped.
            self.telemetry["duplicates_discarded"] += 1
            self.port.trace("duplicate_discarded", index=index, pid=worker.pid)
            self._dispatch(now, worker)
            return False
        wave.results[index] = result
        wave.last_progress = now
        self.port.trace(
            "shard_result", index=index, pid=worker.pid,
            probes_sent=result.probes_sent, seconds=message.get("seconds"),
        )
        self._dispatch(now, worker)
        return True

    def lost(self, now, worker: Worker, reason: str) -> None:
        """``worker`` died or misbehaved: re-queue its shard, charge it."""
        self.port.trace("worker_drop", pid=worker.pid, reason=reason)
        index = worker.assigned
        if worker.fault_kind is not None and index is not None:
            # Workers cannot write the coordinator's event log: the drop
            # of a dispatch with a fault armed is when that fault fired.
            self.port.trace(
                "fault_fired", pid=worker.pid, kind=worker.fault_kind
            )
        self._detach(now, worker)
        worker.assigned = None
        if index is not None and self._uncovered(index):
            # Front of the queue keeps the in-order release window small.
            self.wave.pending.appendleft(index)
        self._fail(
            f"worker pid {worker.pid} {reason}"
            + (f" while draining queue slot {index}"
               if index is not None else "")
        )
        # An idle survivor takes the shard at once; a replacement is
        # only spawned for work nobody can absorb.
        self._dispatch_idle(now)
        if self.wave.pending:
            self._request_spawn()

    def peer_failed(self, now, message: str, redial=None) -> None:
        """A would-be worker failed before joining the fleet.

        A garbled hello, a death at init or before hello, and a spawn
        that raised are all charged to the failure budget and the
        respawn governor.  ``redial`` names an address-book entry to
        dial again; otherwise a local replacement is owed while work is
        pending.
        """
        self.wave.governor.record_failure()
        self._fail(message)
        if redial is not None:
            self._redial(now, redial)
        elif self.wave.pending:
            self._request_spawn()

    def stray(self, now, origin=None) -> None:
        """A peer hung up before hello: a port scanner or health checker.

        Never a fleet member, so never charged — a noisy network must
        not be able to abort a healthy run.  A dialed entry is redialed.
        """
        self.telemetry["stray_disconnects"] += 1
        if origin is not None:
            self._redial(now, origin)

    def auth_rejected(self, now, pid: int, origin, replace: bool) -> None:
        """A peer failed (or walked out of) the auth exchange.

        Never charged: an impostor was never a fleet member.  ``replace``
        says the peer was a local child, now reaped, owed a replacement;
        a dialed entry is *not* redialed within the wave — a wrong
        secret will not fix itself.
        """
        self.telemetry["auth_rejects"] += 1
        where = "accepted" if origin is None else "dialed %s:%s" % origin
        self.port.trace("auth_reject", pid=pid, where=where)
        self.port.warn(f"rejected unauthenticated peer (pid {pid}, {where})")
        if replace and self.wave.pending:
            self._request_spawn()

    def tick(self, now, children: int) -> list[ScanResult]:
        """The event loop turned; the results now releasable, in order.

        Races or reclaims overdue shards, paces owed spawns, redials due
        address-book entries, and releases the longest ready run of
        results.  A turn that releases nothing raises
        :class:`ExecutorFailure` when the fleet was gone as it began (no
        live worker, no ``children`` starting, no spawn owed, no redial
        pending) or has made no progress for ``timeout``.
        """
        wave = self.wave
        gone = not (self.live or children or wave.spawn_backlog
                    or self.remote_due)
        self._check_deadlines(now)
        self._pump_spawns(now)
        self._pump_dials(now)
        ready = []
        while wave.released in wave.results:
            # Kept until the wave ends: a late duplicate of a released
            # shard must still read as a duplicate.
            ready.append(wave.results[wave.released])
            wave.released += 1
        if ready or not self.outstanding:
            wave.last_progress = now
        elif gone:
            raise ExecutorFailure(
                "distributed executor: too many worker failures — no live "
                "workers remain and respawning "
                + ("is halted by the crash-loop detector" if wave.degraded
                   else "produced none")
                + f" ({self.telemetry['failures']} failures; "
                f"last: {wave.last_failure})"
            )
        elif now - wave.last_progress > self.timeout:
            raise ExecutorFailure(
                f"distributed executor: no worker progress for "
                f"{self.timeout:.0f}s (shard {wave.released}/"
                f"{len(wave.shards)})"
            )
        return ready

    # -- decisions -------------------------------------------------------

    def _fail(self, message: str) -> None:
        failures = self.telemetry["failures"] = self.telemetry["failures"] + 1
        self.wave.last_failure = message
        if failures > self.wave.max_failures:
            raise ExecutorFailure(
                f"distributed executor: too many worker failures "
                f"({failures}); last: {message}"
            )

    def _uncovered(self, index: int) -> bool:
        """Is nobody else (result, queue, live worker) covering ``index``?"""
        if index in self.wave.results or index in self.wave.pending:
            return False
        return not any(w.assigned == index for w in self.live)

    def _detach(self, now, worker: Worker) -> None:
        if worker in self.live:
            self.live.remove(worker)
        if worker.origin is not None:
            # A remote's listen loop may well survive this session:
            # redial it so it can rejoin mid-wave.
            self.remote_live.discard(worker.origin)
            self._redial(now, worker.origin)
        self.port.detach(worker)

    def _dispatch_idle(self, now) -> None:
        for idle in list(self.live):
            if not self.wave.pending:
                break
            self._dispatch(now, idle)

    def _dispatch(self, now, worker: Worker) -> None:
        wave = self.wave
        pending = wave.pending
        if worker.assigned is not None:
            return
        # Skip entries whose result already landed (a speculative copy
        # that lost the race before it was ever dispatched).
        while pending and pending[0] in wave.results:
            pending.popleft()
        if not pending:
            return
        index = pending.popleft()
        shard = wave.shards[index]
        attempt = wave.attempts.get(index, 0)
        message = {"type": "shard", "shard": shard, "index": index}
        spec = self.fault_plan.shard_fault(shard, attempt)
        if spec is not None:
            message["fault"] = {"kind": spec.kind, "delay": spec.delay}
            self.telemetry["faults_armed"] += 1
            self.port.trace(
                "fault_armed", shard=shard, attempt=attempt, kind=spec.kind
            )
        try:
            self.port.send(worker, message)
        except OSError:
            pending.appendleft(index)  # never dispatched: same attempt
            self.lost(now, worker, "died at dispatch")
            return
        wave.attempts[index] = attempt + 1
        worker.assigned = index
        worker.assigned_at = now
        worker.fault_kind = spec.kind if spec is not None else None
        self.port.trace(
            "shard_dispatch", index=index, shard=shard, attempt=attempt,
            pid=worker.pid,
        )

    def _check_deadlines(self, now) -> None:
        """Rescue shards held past their deadline by hung/slow workers."""
        deadline = self.shard_deadline
        for worker in list(self.live):
            index = worker.assigned
            if index is None:
                continue
            action = deadline_action(
                now, worker.assigned_at, deadline, _HARD_KILL_FACTOR
            )
            if action == "kill":
                # Far past the deadline the worker is presumed hung.
                self.telemetry["deadline_kills"] += 1
                self.port.trace("deadline_kill", pid=worker.pid, index=index)
                self.lost(
                    now, worker,
                    f"held a shard {now - worker.assigned_at:.1f}s "
                    f"(deadline {deadline:.1f}s)",
                )
                continue
            if (
                action == "ok"
                or index in self.wave.results
                or index in self.wave.pending
                or sum(w.assigned == index for w in self.live)
                >= _MAX_SPECULATION
            ):
                continue
            # Race a second attempt on an idle worker; the first result
            # wins and shard results are pure, so no merged byte moves.
            self.wave.pending.appendleft(index)
            self.telemetry["speculative_requeues"] += 1
            self.port.trace("speculative_redispatch", index=index)
            self._dispatch_idle(now)
            if self.wave.pending and all(
                w.assigned is not None for w in self.live
            ):
                self._request_spawn()

    def _spawn(self, now, respawn: bool) -> None:
        ordinal = self.spawn_ordinal
        self.spawn_ordinal += 1
        spec = self.fault_plan.spawn_fault(ordinal)
        try:
            self.port.spawn(ordinal, spec and spec.kind, respawn)
        except OSError as exc:
            # ENOMEM, a missing interpreter, fd exhaustion: a worker
            # failure, retried through the backoff path.
            self.peer_failed(
                now, f"spawn of worker ordinal {ordinal} raised {exc}"
            )
            return
        if respawn:
            self.wave.governor.record_respawn()
            self.telemetry["respawns"] += 1

    def _request_spawn(self) -> None:
        if not self.wave.degraded:
            self.wave.spawn_backlog += 1

    def _pump_spawns(self, now) -> None:
        """Spawn owed replacements, backoff-paced; degrade on crash loop."""
        wave = self.wave
        if not wave.spawn_backlog or wave.degraded:
            return
        if wave.governor.in_crash_loop:
            # Stop respawning and finish the wave on the survivors.
            wave.degraded = True
            wave.spawn_backlog = 0
            self.telemetry["degraded"] = True
            self.telemetry["survivors"] = len(self.live)
            self.port.trace("fleet_degraded", survivors=len(self.live))
            self.port.warn(
                f"crash loop detected after {wave.governor.failures} "
                "consecutive spawn failures; degrading fleet to "
                f"{len(self.live)} surviving worker(s)"
            )
            return
        if now < wave.next_spawn_at:
            return
        wave.spawn_backlog -= 1
        wave.next_spawn_at = now + wave.governor.delay()
        self._spawn(now, respawn=True)

    def _redial(self, now, addr) -> None:
        self.remote_due[addr] = now + REDIAL_INTERVAL

    def _pump_dials(self, now) -> None:
        """Dial due address-book entries — the mid-wave join path."""
        for addr in [a for a, due in self.remote_due.items() if due <= now]:
            del self.remote_due[addr]
            if addr in self.remote_live:
                continue
            try:
                self.port.dial(addr)
            except OSError:
                # Not up (yet): never charged; a worker that starts late
                # joins through a later redial.
                self._redial(now, addr)
