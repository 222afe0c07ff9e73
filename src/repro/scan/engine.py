"""The batched scan engine: probe scoring in flat coordinates.

This is the zmap-class simulator core.  It drains a target stream of
walk coordinates (:class:`~repro.scan.walk.IntervalTargets`) in
fixed-size batches and scores each batch with one bit gather per
:class:`ScanBitmaps` map, built once per wave; it never sees an
address.  Probe order never changes a counter.
"""

from __future__ import annotations

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
        self, targets, bitmaps: ScanBitmaps, protocol: str | None = None
    ) -> ScanResult:
        """Scan a target stream against a wave's probe outcomes.

        ``targets`` must provide ``batches(batch_size)`` yielding
        ``int64`` coordinate arrays of the walk ``bitmaps`` was built
        from.  A batch whose every coordinate is dropped sends nothing
        and does not count toward ``batches``.
        """
        hits, blocked, dropped = bitmaps
        result = ScanResult(protocol=protocol)
        # Resolved once per run: outside a metrics scope this is the
        # no-op registry, whose instruments drop every update.
        registry = obs.get_registry()
        for coords in targets.batches(self.config.batch_size):
            size = int(coords.size)
            byte = coords >> 3
            mask = np.left_shift(np.uint8(1), (coords & 7).astype(np.uint8))
            if dropped is not None:
                size -= int(np.count_nonzero(dropped[byte] & mask))
                if size == 0:
                    continue
            result.batches += 1
            registry.counter("engine.batches").inc()
            if blocked is not None:
                n_blocked = int(np.count_nonzero(blocked[byte] & mask))
                result.blocked += n_blocked
                size -= n_blocked
            if size:
                result.probes_sent += size
                registry.counter("engine.probes_sent").inc(size)
            # One bit per probe, duplicates included: each probe of a
            # responsive address scores its own response.
            result.responses += int(np.count_nonzero(hits[byte] & mask))
        registry.counter("engine.responses").inc(result.responses)
        registry.counter("engine.blocked").inc(result.blocked)
        return result
