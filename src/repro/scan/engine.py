"""The batched scan engine: probe scoring in flat coordinates.

This is the zmap-class simulator core.  It drains a target stream of
walk coordinates (:class:`~repro.scan.walk.IntervalTargets`) in
fixed-size batches and scores each batch with one bit gather per
:class:`ScanBitmaps` map, built once per wave; it never sees an
address.  Probe order never changes a counter, so a shard cut into
contiguous runs of batches, each scored on its own thread, counts
exactly what one thread counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import obs

__all__ = ["EngineConfig", "ScanResult", "ScanBitmaps", "ScanEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs."""

    batch_size: int = 1 << 16


@dataclass
class ScanResult:
    """Outcome of one scan pass."""

    probes_sent: int = 0
    responses: int = 0
    blocked: int = 0
    batches: int = 0
    protocol: str | None = None

    @property
    def hitrate(self) -> float:
        return self.responses / self.probes_sent if self.probes_sent else 0.0


class ScanBitmaps(NamedTuple):
    """A wave's probe outcomes, one bit per flat coordinate.

    Each map packs ``[0, total)`` into ``ceil(total / 8)`` bytes, bit
    ``c & 7`` of byte ``c >> 3`` (``np.packbits`` little-endian order):
    ``hits`` responds, ``blocked`` is in the blocklist (``None`` when it
    misses the wave), ``dropped`` (v6 only) is a sample whose address
    the hitlist already probes.  Neither of the last two sends a probe.
    """

    hits: np.ndarray
    blocked: np.ndarray | None = None
    dropped: np.ndarray | None = None


class ScanEngine:
    """Batched probe engine scoring coordinates against wave bitmaps."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()

    def run(
        self, targets, bitmaps: ScanBitmaps, protocol: str | None = None,
        parts: int = 1,
    ) -> ScanResult:
        """Scan a target stream against a wave's probe outcomes.

        ``targets`` must provide ``batches(batch_size)`` yielding
        ``int64`` coordinate arrays of the walk ``bitmaps`` was built
        from.  A batch whose every coordinate is dropped sends nothing
        and does not count toward ``batches``.

        ``parts > 1`` also needs ``split(batch_size, parts)``
        (:meth:`~repro.scan.walk.IntervalTargets.split`): each of its
        contiguous runs is scored on a thread of its own, the first on
        the calling thread, and the runs' counts are summed, so every
        counter equals the one-part scan's.  Every thread is joined
        before ``run`` returns or raises.
        """
        size = self.config.batch_size
        runs = targets.split(size, parts) if parts > 1 else ()
        if len(runs) > 1:
            tallies = _score_threaded(runs, bitmaps)
        else:
            tallies = [_score(targets.batches(size), bitmaps)]
        result = ScanResult(protocol=protocol)
        for tally in tallies:
            result.probes_sent += tally.probes_sent
            result.responses += tally.responses
            result.blocked += tally.blocked
            result.batches += tally.batches
        # Updated here, on the calling thread, never from a helper.
        # Outside a metrics scope this is the no-op registry.
        registry = obs.get_registry()
        if result.batches:
            registry.counter("engine.batches").inc(result.batches)
        if result.probes_sent:
            registry.counter("engine.probes_sent").inc(result.probes_sent)
        registry.counter("engine.responses").inc(result.responses)
        registry.counter("engine.blocked").inc(result.blocked)
        return result


def _score(batches, bitmaps: ScanBitmaps, stop=None) -> ScanResult:
    """Counts of one run of coordinate batches; shares no state.

    Stops early once ``stop`` (a :class:`threading.Event`) is set.
    """
    hits, blocked, dropped = bitmaps
    tally = ScanResult()
    for coords in batches:
        if stop is not None and stop.is_set():
            break
        size = int(coords.size)
        byte = coords >> 3
        mask = np.left_shift(np.uint8(1), (coords & 7).astype(np.uint8))
        if dropped is not None:
            size -= int(np.count_nonzero(dropped[byte] & mask))
            if size == 0:
                continue
        tally.batches += 1
        if blocked is not None:
            n_blocked = int(np.count_nonzero(blocked[byte] & mask))
            tally.blocked += n_blocked
            size -= n_blocked
        tally.probes_sent += size
        # One bit per probe, duplicates included: each probe of a
        # responsive address scores its own response.
        tally.responses += int(np.count_nonzero(hits[byte] & mask))
    return tally


def _score_threaded(runs, bitmaps: ScanBitmaps) -> list[ScanResult]:
    """Score ``runs[0]`` here and each other run on a helper thread.

    The first exception, the caller's or a helper's, stops every run
    at its next batch and is raised once all helpers are joined.
    """
    stop = threading.Event()
    tallies = [None] * len(runs)
    errors = []

    def drain(index):
        try:
            tallies[index] = _score(runs[index], bitmaps, stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    helpers = []
    try:
        for index in range(1, len(runs)):
            helper = threading.Thread(
                target=drain, args=(index,), name=f"scan-run-{index}"
            )
            helper.start()
            helpers.append(helper)
        tallies[0] = _score(runs[0], bitmaps, stop)
    except BaseException:
        stop.set()
        raise
    finally:
        _join(helpers, stop)
    if errors:
        raise errors[0]
    return tallies


def _join(threads, stop) -> None:
    """Join every thread, even when a signal handler raises meanwhile
    (the CLI's SIGTERM ``bail``); that exception is re-raised after."""
    interrupted = None
    for thread in threads:
        while True:
            try:
                thread.join()
                break
            except BaseException as exc:
                stop.set()
                interrupted = interrupted or exc
    if interrupted is not None:
        raise interrupted
