"""Deterministic, seeded fault injection for the distributed executor.

The chaos plane is *declarative*: a :class:`FaultPlan` is a list of
:class:`FaultSpec` entries saying what goes wrong, where, and how many
times — parsed from the ``REPRO_FAULT_PLAN`` environment variable or
built programmatically and handed to the
:class:`~repro.scan.distributed.Coordinator`.  The plan only ever
*describes* faults; enforcement lives in the coordinator (which arms a
fault on the matching dispatch attempt and ships it inside the
``shard`` frame) and in the worker (which executes it).  Because the
coordinator arms faults by ``(shard, attempt)`` — not by wall clock or
by which worker happens to be assigned — the same plan replays the
same failure sequence on every run, which is what lets the test matrix
assert byte-identical merges *under* every fault.

Plan syntax (entries separated by ``,`` or ``;``)::

    kind@shard[:attempts=N|*][:delay=SECONDS]

    crash@2                  first attempt of shard 2 dies mid-shard
    hang@1                   first attempt of shard 1 hangs forever
    stall@0:delay=1.5        shard 0's worker sleeps 1.5s, then answers
    corrupt@3                shard 3's worker sends a non-JSON frame
    truncate@2               worker sends a frame shorter than its header
    oversize@1               worker sends a > MAX_FRAME length prefix
    mid_result@0             worker dies halfway through its result frame
    crash@1:attempts=*       every attempt of shard 1 dies (poison shard)
    spawn_crash@4:attempts=* every spawn from ordinal 4 on dies at exec
                             (a crash-looping replacement fleet)
    auth_fail@2              spawn ordinal 2 presents a sabotaged HMAC
                             proof; the coordinator must reject it
                             without charging the failure budget

``shard`` is the walk's shard number (stable across resume) for worker
faults, or the spawn *ordinal* (0-based, counting every process the
coordinator ever launches) for ``spawn_crash``/``auth_fail``.
``attempts=N`` fires
the fault on the first N attempts of that shard (default 1);
``attempts=*`` fires on every attempt.  ``@*`` matches any shard.

This module also holds the pure arithmetic the coordinator's recovery
machinery is built on — :func:`backoff_delay` and
:class:`RespawnGovernor` (exponential-backoff respawn pacing plus the
crash-loop detector behind graceful fleet degradation) — kept free of
sockets and clocks so unit tests pin the numbers exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "WORKER_FAULT_KINDS",
    "SPAWN_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "backoff_delay",
    "deadline_action",
    "RespawnGovernor",
]

#: Faults executed by a worker when armed in a ``shard`` frame.
WORKER_FAULT_KINDS = (
    "crash",       # die mid-shard, no result
    "hang",        # never answer; only a shard deadline can rescue it
    "stall",       # sleep ``delay`` seconds, then answer normally
    "corrupt",     # send a well-framed but non-JSON body
    "truncate",    # send a header promising more bytes than follow, die
    "oversize",    # send a length prefix exceeding MAX_FRAME, die
    "mid_result",  # compute the result, die halfway through sending it
)

#: Faults keyed on the spawn ordinal, sabotaging a worker before it
#: ever joins the fleet: ``spawn_crash`` dies at exec (before hello),
#: ``auth_fail`` connects but presents a deliberately wrong HMAC proof,
#: exercising the coordinator's authentication-reject path.
SPAWN_FAULT_KINDS = ("spawn_crash", "auth_fail")

FAULT_KINDS = WORKER_FAULT_KINDS + SPAWN_FAULT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what, where, how often.

    ``shard`` is a shard number (worker faults) or a spawn ordinal
    (``spawn_crash``); ``None`` matches any shard.  ``attempts`` is the
    number of attempts sabotaged (``None`` = every attempt).  ``delay``
    is the sleep for ``stall`` (ignored by other kinds).
    """

    kind: str
    shard: int | None = None
    attempts: int | None = 1
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose one of {FAULT_KINDS}"
            )
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"fault shard must be >= 0, got {self.shard}")
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(
                f"fault attempts must be >= 1 or '*', got {self.attempts}"
            )
        if not math.isfinite(self.delay) or self.delay < 0:
            raise ValueError(
                f"fault delay must be a finite number >= 0, got {self.delay}"
            )
        if self.kind in SPAWN_FAULT_KINDS and self.shard is None:
            raise ValueError(f"{self.kind} needs an explicit spawn ordinal")

    # -- matching ------------------------------------------------------

    def matches_shard(self, shard: int, attempt: int) -> bool:
        """Does this spec fire on the ``attempt``-th try of ``shard``?"""
        if self.kind in SPAWN_FAULT_KINDS:
            return False
        if self.shard is not None and self.shard != shard:
            return False
        return self.attempts is None or attempt < self.attempts

    def matches_spawn(self, ordinal: int) -> bool:
        """Does this spec kill the ``ordinal``-th process ever spawned?"""
        if self.kind not in SPAWN_FAULT_KINDS:
            return False
        if ordinal < self.shard:
            return False
        return self.attempts is None or ordinal - self.shard < self.attempts

    # -- text form -----------------------------------------------------

    def to_string(self) -> str:
        text = f"{self.kind}@{'*' if self.shard is None else self.shard}"
        if self.attempts != 1:
            text += f":attempts={'*' if self.attempts is None else self.attempts}"
        if self.delay:
            text += f":delay={self.delay:g}"
        return text

    @classmethod
    def parse(cls, entry: str) -> "FaultSpec":
        entry = entry.strip()
        head, _, tail = entry.partition(":")
        kind, sep, shard_text = head.partition("@")
        kind = kind.strip()
        if not sep:
            raise ValueError(
                f"fault entry {entry!r} needs kind@shard "
                "(e.g. 'crash@2' or 'hang@*')"
            )
        shard_text = shard_text.strip()
        if shard_text == "*":
            shard = None
        else:
            try:
                shard = int(shard_text)
            except ValueError:
                raise ValueError(
                    f"fault entry {entry!r}: shard must be an integer "
                    "or '*'"
                ) from None
        attempts: int | None = 1
        delay = 0.0
        for option in filter(None, (p.strip() for p in tail.split(":"))):
            key, sep, value = option.partition("=")
            if not sep:
                raise ValueError(
                    f"fault entry {entry!r}: option {option!r} must be "
                    "key=value"
                )
            key = key.strip()
            value = value.strip()
            if key == "attempts":
                attempts = None if value == "*" else int(value)
            elif key == "delay":
                delay = float(value)
            else:
                raise ValueError(
                    f"fault entry {entry!r}: unknown option {key!r} "
                    "(expected attempts= or delay=)"
                )
        return cls(kind=kind, shard=shard, attempts=attempts, delay=delay)


class FaultPlan:
    """An ordered collection of :class:`FaultSpec`\\ s (first match wins)."""

    __slots__ = ("specs",)

    def __init__(self, specs=()):
        self.specs = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_string()!r})"

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Parse the ``REPRO_FAULT_PLAN`` syntax (empty/None → no faults)."""
        if not text or not text.strip():
            return cls()
        entries = text.replace(";", ",").split(",")
        return cls(
            FaultSpec.parse(entry) for entry in entries if entry.strip()
        )

    def to_string(self) -> str:
        return ",".join(spec.to_string() for spec in self.specs)

    # -- queries -------------------------------------------------------

    def shard_fault(self, shard: int, attempt: int) -> FaultSpec | None:
        """The fault (if any) armed for the ``attempt``-th try of ``shard``."""
        for spec in self.specs:
            if spec.matches_shard(shard, attempt):
                return spec
        return None

    def spawn_fault(self, ordinal: int) -> FaultSpec | None:
        """The fault (if any) killing the ``ordinal``-th spawned process."""
        for spec in self.specs:
            if spec.matches_spawn(ordinal):
                return spec
        return None


# ---------------------------------------------------------------------------
# Recovery arithmetic (pure; the coordinator supplies the clock)
# ---------------------------------------------------------------------------


def backoff_delay(failures: int, base: float, cap: float) -> float:
    """Deterministic exponential backoff: ``base * 2**(failures-1)``, capped.

    ``failures`` is the consecutive-failure count *before* the retry
    being scheduled; zero or negative means no failures yet, so no
    delay.  No jitter on purpose: replayability beats thundering-herd
    avoidance inside a single-coordinator fleet.
    """
    if failures <= 0 or base <= 0:
        return 0.0
    return min(cap, base * 2 ** (failures - 1))


def deadline_action(
    now: float,
    dispatched_at: float,
    deadline: float | None,
    hard_kill_factor: float = 3.0,
) -> str:
    """What to do about one in-flight shard attempt at time ``now``.

    - ``"ok"``        — within its deadline (or deadlines disabled);
    - ``"speculate"`` — past the deadline: race a second attempt on an
      idle worker, keep this one (it may merely be slow);
    - ``"kill"``      — ``hard_kill_factor`` deadlines past dispatch:
      presume the worker hung and reclaim its process.
    """
    if deadline is None:
        return "ok"
    held = now - dispatched_at
    if held > hard_kill_factor * deadline:
        return "kill"
    if held > deadline:
        return "speculate"
    return "ok"


class RespawnGovernor:
    """Backoff pacing + crash-loop detection for worker respawns.

    The coordinator records a *spawn-side* failure (a process that died
    before completing the handshake, or a ``Popen`` that raised) and a
    success (a worker that connected and took its init).  ``delay()``
    is the backoff to wait before the next spawn; once
    ``crash_loop_threshold`` consecutive spawn-side failures accumulate
    the governor reports a crash loop, and the coordinator degrades the
    fleet instead of respawning forever.
    """

    __slots__ = ("base", "cap", "threshold", "failures", "respawns")

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 2.0,
        crash_loop_threshold: int = 3,
    ):
        if crash_loop_threshold < 1:
            raise ValueError("crash_loop_threshold must be >= 1")
        self.base = float(base)
        self.cap = float(cap)
        self.threshold = int(crash_loop_threshold)
        self.failures = 0   # consecutive spawn-side failures
        self.respawns = 0   # total replacement spawns requested

    def record_failure(self) -> None:
        self.failures += 1

    def record_success(self) -> None:
        self.failures = 0

    def record_respawn(self) -> None:
        self.respawns += 1

    @property
    def in_crash_loop(self) -> bool:
        return self.failures >= self.threshold

    def delay(self) -> float:
        return backoff_delay(self.failures, self.base, self.cap)
