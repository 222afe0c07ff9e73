"""A fake worker fleet that drives a FleetPolicy in simulated time.

:class:`SimFleet` is the policy's port.  It carries out the policy's
commands on a simulated clock, the way a real fleet looks from the
coordinator's side of the socket:

- a spawned worker says hello ``SPAWN_SECONDS`` later, unless a spawn
  fault kills it first (``spawn_crash``: it exits before hello) or gets
  it rejected (``auth_fail``);
- a shard takes ``SHARD_SECONDS``; ``stall`` answers ``delay`` seconds
  later, ``hang`` never answers, ``crash``, ``truncate`` and
  ``mid_result`` read as a hang-up, and ``corrupt`` and ``oversize``
  as an unreadable frame;
- an address-book entry in :attr:`SimFleet.listening` joins when
  dialed, one in :attr:`SimFleet.rejecting` fails auth, and any other
  refuses the connection.

The loop in :meth:`SimFleet.run_wave` turns like the coordinator's:
handle the events due within one select timeout, then tick.  No socket,
process or sleep, so a wave of speculation and respawn backoff runs in
milliseconds and replays exactly.
"""

import heapq
import itertools

from repro.scan.engine import ScanResult
from repro.scan.faults import FaultPlan
from repro.scan.fleet_policy import FleetPolicy, Worker

SPAWN_SECONDS = 0.05
SHARD_SECONDS = 0.01
#: The coordinator's select timeout: the longest gap between ticks.
TICK = 0.2

#: Worker faults that cost the worker, and so one failure, when fired.
FATAL = {"crash", "corrupt", "truncate", "oversize", "mid_result"}


def shard_result(shard: int) -> ScanResult:
    """What any worker computes for ``shard``: pure, as in a real fleet."""
    return ScanResult(
        probes_sent=100 + shard, responses=shard, blocked=shard % 3,
        batches=1, protocol="http",
    )


def expected_failures(plan, shards: int, telemetry: dict,
                      spawn_deaths: int = 0) -> int:
    """The failures a wave under a single-attempt ``plan`` must charge.

    One for each fatal fault the shards' first attempts arm, one for
    each hard kill of a hung worker, and one for each spawn that died
    before hello.  A stall, a hang rescued by speculation, and a
    straggler dropped at the wave boundary cost nothing.
    """
    fatal = 0
    for shard in range(shards):
        spec = plan.shard_fault(shard, 0)
        fatal += spec is not None and spec.kind in FATAL
    return fatal + telemetry["deadline_kills"] + spawn_deaths


class SimFleet:
    """A FleetPolicy and the simulated fleet it commands."""

    def __init__(self, fault_plan=None, workers=2, shard_deadline=0.5,
                 timeout=60.0, address_book=()):
        self.now = 0.0
        self.events = []  # heap of (time, seq, callback, args)
        self.seq = itertools.count()
        self.pids = itertools.count(1000)
        self.children = set()  # local processes the shell has not reaped
        self.detached = set()
        self.listening = set()
        self.rejecting = set()
        self.sent = []  # (pid, message)
        self.spawns = []  # (ordinal, fault, respawn)
        self.spawn_deaths = 0
        self.traces = []  # (point, fields)
        self.warnings = []
        if not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan.parse(fault_plan)
        self.policy = FleetPolicy(
            self, workers=workers, address_book=address_book,
            fault_plan=fault_plan, shard_deadline=shard_deadline,
            timeout=timeout,
        )

    def points(self, point: str) -> list:
        """The fields of every trace point named ``point``, in order."""
        return [fields for name, fields in self.traces if name == point]

    def messages(self, pid: int) -> list:
        return [message for to, message in self.sent if to == pid]

    def at(self, delay: float, callback, *args) -> None:
        heapq.heappush(
            self.events, (self.now + delay, next(self.seq), callback, args)
        )

    # -- the port ------------------------------------------------------

    def send(self, worker, message):
        if worker.pid in self.detached:
            raise OSError("peer is gone")
        self.sent.append((worker.pid, message))
        if message["type"] != "shard":
            return
        fault = message.get("fault") or {}
        kind = fault.get("kind")
        if kind in ("crash", "truncate", "mid_result"):
            self.at(SHARD_SECONDS, self._frame, worker, None)
        elif kind in ("corrupt", "oversize"):
            self.at(SHARD_SECONDS, self._unreadable, worker)
        elif kind != "hang":
            result = shard_result(message["shard"])
            reply = {
                "type": "result", "index": message["index"],
                "probes_sent": result.probes_sent,
                "responses": result.responses, "blocked": result.blocked,
                "batches": result.batches, "protocol": result.protocol,
            }
            delay = fault.get("delay", 0.0) if kind == "stall" else 0.0
            self.at(delay + SHARD_SECONDS, self._frame, worker, reply)

    def spawn(self, ordinal, fault, respawn):
        self.spawns.append((ordinal, fault, respawn))
        pid = next(self.pids)
        self.children.add(pid)
        self.at(SPAWN_SECONDS, self._hello, pid, fault)

    def dial(self, addr):
        if addr in self.rejecting:
            self.policy.auth_rejected(self.now, next(self.pids), addr, False)
        elif addr in self.listening:
            self.policy.joined(self.now, Worker(next(self.pids), addr))
        else:
            raise OSError("connection refused")

    def detach(self, worker):
        self.detached.add(worker.pid)
        self.children.discard(worker.pid)

    def trace(self, point, /, **fields):
        self.traces.append((point, fields))

    def warn(self, text):
        self.warnings.append(text)

    # -- simulated workers -----------------------------------------------

    def _hello(self, pid, fault):
        if fault is None:
            self.policy.joined(self.now, Worker(pid))
            return
        self.children.discard(pid)
        if fault == "auth_fail":
            self.policy.auth_rejected(self.now, pid, None, True)
        else:
            self.spawn_deaths += 1
            self.policy.peer_failed(
                self.now, f"worker pid {pid} exited with 21 before connecting"
            )

    def _frame(self, worker, message):
        if worker.pid not in self.detached:
            self.policy.frame(self.now, worker, message)

    def _unreadable(self, worker):
        if worker.pid not in self.detached:
            self.policy.lost(
                self.now, worker, "sent an unreadable frame (injected)"
            )

    # -- the drive loop ----------------------------------------------------

    def run_wave(self, shards) -> list:
        """Drain one wave of ``shards``; the results it released, in order."""
        policy = self.policy
        released = []
        policy.begin_wave(
            self.now, list(shards), {"type": "init"}, len(self.children)
        )
        try:
            while policy.outstanding:
                assert self.now < 3600, "the simulated wave never finished"
                if self.events and self.events[0][0] <= self.now + TICK:
                    self.now = max(self.now, self.events[0][0])
                    while self.events and self.events[0][0] <= self.now:
                        _, _, callback, args = heapq.heappop(self.events)
                        callback(*args)
                else:
                    self.now += TICK
                released += policy.tick(self.now, len(self.children))
        finally:
            policy.end_wave(self.now)
        return released
