"""Deterministic, seeded fault injection: one plan for both chaos planes.

The chaos plane is *declarative*: a :class:`FaultPlan` is a list of
:class:`FaultSpec` entries saying what goes wrong, where, and how many
times — parsed from the ``REPRO_FAULT_PLAN`` environment variable or
built programmatically.  The plan only ever *describes* faults; two
planes enforce them, and each ignores the other's entries, so one plan
may arm both:

- the distributed executor: the
  :class:`~repro.scan.distributed.Coordinator` arms a worker fault on the
  matching dispatch attempt and ships it inside the ``shard`` frame, the
  worker executes it, and a spawn fault sabotages a worker before it
  joins the fleet;
- the :class:`~repro.orchestrator.checkpoint.CheckpointStore`, which
  fires storage faults inside its own file operations.

Faults are keyed on deterministic positions — ``(shard, attempt)``, a
spawn ordinal, the Nth ``save()`` call, a generation number — never on
wall clock or on which worker happens to be assigned, so the same plan
replays the same failure sequence on every run, which is what lets the
test matrix assert byte-identical results *under* every fault.

Plan syntax (entries separated by ``,`` or ``;``; :data:`FAULT_KINDS`
gives each kind's site and options, and what it does)::

    kind@shard[:attempts=N|*][:delay=S]  crash, hang, stall, corrupt,
                                         truncate, oversize, mid_result
    kind@ordinal[:attempts=N|*]          spawn_crash, auth_fail
    kind@save-N                          torn_write, enospc, fsync_fail,
                                         rename_crash
    bitrot@gen-N[:offset=K]              bitrot

    crash@1:attempts=*        every attempt of shard 1 dies (poison shard)
    stall@*:delay=1.5         every shard's first attempt sleeps 1.5 s
    spawn_crash@4:attempts=*  every spawn from ordinal 4 on dies at start
    torn_write@save-2         save 2 promotes a truncated payload, which
                              the journaled digest catches at next load
    bitrot@gen-3:offset=17    byte 17 of generation 3 rots once journaled

``shard`` is the walk's shard number (stable across resume); ``@*``
matches any shard.  ``ordinal`` counts every process one fleet launches
over its life, which is a whole campaign run, from 0; it restarts at 0
only when a wave retry or a resume starts a fresh fleet.
``attempts=N`` fires the fault on the first N attempts of that shard
(or the N ordinals from ``ordinal`` on; default 1); ``attempts=*``
fires on every one.  Attempts are counted per wave, so a worker fault
replays in every wave.  ``delay`` is the sleep of ``stall`` (other
kinds ignore it).  ``save-N`` counts ``save()`` calls per store
instance (i.e. per process), from 0, so a resumed campaign starts
counting again; ``gen-N`` is the checkpoint generation number, from 1
and stable across kill/resume.  Each storage entry fires once.

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
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "SPAWN_FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "backoff_delay",
    "deadline_action",
    "RespawnGovernor",
]

_WORKER = ("N|*", ("attempts", "delay"))
_SPAWN = ("N", ("attempts", "delay"))
_SAVE = ("save-N", ())

#: Every fault kind: its site form and the options it takes.
FAULT_KINDS = {
    # Executed by a worker when armed in a ``shard`` frame.
    "crash": _WORKER,       # die mid-shard, no result
    "hang": _WORKER,        # never answer; only a shard deadline rescues it
    "stall": _WORKER,       # sleep ``delay`` seconds, then answer normally
    "corrupt": _WORKER,     # send a well-framed but non-JSON body
    "truncate": _WORKER,    # send a header promising more bytes than follow
    "oversize": _WORKER,    # send a length prefix exceeding MAX_FRAME, die
    "mid_result": _WORKER,  # compute the result, die halfway through sending
    # Keyed on the spawn ordinal, before the worker joins the fleet.
    "spawn_crash": _SPAWN,  # die at start, before hello
    "auth_fail": _SPAWN,    # present a deliberately wrong HMAC proof
    # Fired by the checkpoint store at its Nth ``save()`` call.
    "torn_write": _SAVE,    # promote a silently truncated payload
    "enospc": _SAVE,        # OSError(ENOSPC) mid-write, before any fsync
    "fsync_fail": _SAVE,    # OSError(EIO) at the payload fsync
    "rename_crash": _SAVE,  # SimulatedCrash at the promote rename (tmp left)
    # Fired against a generation file already on disk.
    "bitrot": ("gen-N", ("offset",)),  # flip one byte of the file
}

WORKER_FAULT_KINDS = tuple(k for k, v in FAULT_KINDS.items() if v == _WORKER)
SPAWN_FAULT_KINDS = tuple(k for k, v in FAULT_KINDS.items() if v == _SPAWN)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what, where, how often.

    ``at`` is the position the kind's site counts: a shard number
    (``None`` matches any shard), a spawn ordinal, a ``save()`` call
    or a generation.  ``attempts`` is the number of attempts sabotaged
    (``None`` = every attempt), ``delay`` the sleep of ``stall``, and
    ``offset`` the byte ``bitrot`` flips (``None`` = mid-file).
    """

    kind: str
    at: int | None = None
    attempts: int | None = 1
    delay: float = 0.0
    offset: int | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose one of {tuple(FAULT_KINDS)}"
            )
        site, options = FAULT_KINDS[self.kind]
        if self.at is None and site != "N|*":
            what = "spawn ordinal" if site == "N" else f"{site} site"
            raise ValueError(f"{self.kind} needs an explicit {what}")
        if site == "gen-N" and self.at < 1:
            raise ValueError(
                f"generations are numbered from 1, got gen-{self.at}"
            )
        if self.at is not None and self.at < 0:
            raise ValueError(f"fault site must be >= 0, got {self.at}")
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(
                f"fault attempts must be >= 1 or '*', got {self.attempts}"
            )
        if not math.isfinite(self.delay) or self.delay < 0:
            raise ValueError(
                f"fault delay must be a finite number >= 0, got {self.delay}"
            )
        if self.offset is not None and self.offset < 0:
            raise ValueError(
                f"bitrot offset must be >= 0, got {self.offset}"
            )
        for option, unset in (
            ("attempts", self.attempts == 1),
            ("delay", not self.delay),
            ("offset", self.offset is None),
        ):
            if not unset and option not in options:
                raise ValueError(f"{self.kind} does not take {option}=")

    @property
    def site_label(self) -> str:
        """The site as written: ``2``, ``*``, ``save-2`` or ``gen-3``."""
        site = FAULT_KINDS[self.kind][0]
        prefix = site[:-1] if site.endswith("-N") else ""
        return prefix + ("*" if self.at is None else str(self.at))

    # -- text form -----------------------------------------------------

    def to_string(self) -> str:
        text = f"{self.kind}@{self.site_label}"
        if self.attempts != 1:
            text += f":attempts={'*' if self.attempts is None else self.attempts}"
        if self.delay:
            text += f":delay={self.delay:g}"
        if self.offset is not None:
            text += f":offset={self.offset}"
        return text

    @classmethod
    def parse(cls, entry: str) -> "FaultSpec":
        entry = entry.strip()
        head, _, tail = entry.partition(":")
        kind, sep, where = head.partition("@")
        kind, where = kind.strip(), where.strip()
        if not sep:
            raise ValueError(
                f"fault entry {entry!r} needs kind@site (e.g. 'crash@2', "
                "'hang@*' or 'torn_write@save-2')"
            )
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"fault entry {entry!r}: unknown fault kind {kind!r}; "
                f"choose one of {tuple(FAULT_KINDS)}"
            )
        site, options = FAULT_KINDS[kind]
        if site.endswith("-N"):
            prefix, sep, where = where.partition("-")
            if not sep or f"{prefix}-N" != site:
                raise ValueError(
                    f"fault entry {entry!r}: {kind} faults fire at "
                    f"{site} sites"
                )

        def number(name, text, convert=int):
            try:
                return convert(text)
            except ValueError:
                star = name == "attempts" or (name, site) == ("site", "N|*")
                raise ValueError(
                    f"fault entry {entry!r}: {name} must be a number"
                    + (" or '*'" if star else "")
                ) from None

        fields = {"at": None if where == "*" else number("site", where)}
        for option in filter(None, (p.strip() for p in tail.split(":"))):
            key, sep, value = option.partition("=")
            key, value = key.strip(), value.strip()
            if not sep:
                raise ValueError(
                    f"fault entry {entry!r}: option {option!r} must be "
                    "key=value"
                )
            if key not in options:
                expected = " or ".join(f"{o}=" for o in options) or "none"
                raise ValueError(
                    f"fault entry {entry!r}: unknown option {key!r} "
                    f"(expected {expected})"
                )
            fields[key] = (
                None if key == "attempts" and value == "*"
                else number(key, value, float if key == "delay" else int)
            )
        try:
            return cls(kind=kind, **fields)
        except ValueError as exc:
            raise ValueError(f"fault entry {entry!r}: {exc}") from None


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

    def _first(self, site: str, match) -> FaultSpec | None:
        for spec in self.specs:
            if FAULT_KINDS[spec.kind][0] == site and match(spec):
                return spec
        return None

    def shard_fault(self, shard: int, attempt: int) -> FaultSpec | None:
        """The fault (if any) armed for the ``attempt``-th try of ``shard``."""
        return self._first("N|*", lambda s: (
            s.at in (None, shard)
            and (s.attempts is None or attempt < s.attempts)
        ))

    def spawn_fault(self, ordinal: int) -> FaultSpec | None:
        """The fault (if any) killing the ``ordinal``-th spawned process."""
        return self._first("N", lambda s: (
            s.at <= ordinal
            and (s.attempts is None or ordinal - s.at < s.attempts)
        ))

    def save_fault(self, index: int) -> FaultSpec | None:
        """The fault (if any) armed for the ``index``-th ``save()`` call."""
        return self._first("save-N", lambda s: s.at == index)

    def gen_fault(self, gen: int) -> FaultSpec | None:
        """The at-rest fault (if any) armed for generation ``gen``."""
        return self._first("gen-N", lambda s: s.at == gen)


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
    before completing the handshake, or a fork that raised) and a
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
