"""The batched scan engine: probe generation, filtering, classification.

This is the zmap-class simulator core: it drains a target stream in
fixed-size batches and classifies every probe in one pass per batch —
the blocklist mask (when a blocklist is set), then one ``searchsorted``
of the batch into the responsive set, with blocked probes masked out
of the hits rather than filtered into a copy.  Probe order within a
batch never changes a counter, so batches may arrive in any order;
the sharded interval walk yields them sorted, which keeps the lookups
cache-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.bgp.table import interval_membership

__all__ = ["EngineConfig", "ScanResult", "ScanEngine"]


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


class ScanEngine:
    """Batched probe engine with blocklist filtering."""

    def __init__(self, config: EngineConfig | None = None, blocklist=None):
        self.config = config or EngineConfig()
        self.blocklist = blocklist

    def run(self, targets, responsive, protocol: str | None = None) -> ScanResult:
        """Scan a target stream against a responsive-address set.

        ``targets`` must provide ``batches(batch_size)`` yielding address
        arrays (``int64`` for v4, ``S16`` for v6); ``responsive`` is the
        :class:`~repro.census.addrset.AddressSet` defining which probes
        elicit a response.
        """
        truth = responsive.values
        last = len(truth) - 1
        result = ScanResult(protocol=protocol)
        # An empty blocklist is falsy: it blocks nothing, so skip its mask.
        blocklist = self.blocklist or None
        # Resolved once per run: outside an observability scope this is
        # None and the batch loop pays a single predictable branch.
        registry = obs.get_registry()
        probes_before = 0
        for batch in targets.batches(self.config.batch_size):
            if registry is not None:
                registry.counter("engine.batches").inc()
                sent = result.probes_sent - probes_before
                if sent:
                    registry.counter("engine.probes_sent").inc(sent)
                probes_before = result.probes_sent
            size = int(batch.size)
            result.batches += 1
            if size == 0:
                continue
            if blocklist is not None:
                blocked = interval_membership(
                    blocklist.starts, blocklist.ends, batch
                )
                n_blocked = int(blocked.sum())
                result.blocked += n_blocked
                size -= n_blocked
            result.probes_sent += size
            if last < 0:
                continue
            # One membership pass per probe, duplicates included: each
            # probe of a responsive address scores its own response.
            idx = np.searchsorted(truth, batch)
            np.minimum(idx, last, out=idx)
            hit = truth[idx] == batch
            if blocklist is not None:
                # A blocked probe is never sent, so it can never respond.
                hit &= ~blocked
            result.responses += int(hit.sum())
        if registry is not None:
            # Flush the last batch's probes and fold the run's totals.
            sent = result.probes_sent - probes_before
            if sent:
                registry.counter("engine.probes_sent").inc(sent)
            registry.counter("engine.responses").inc(result.responses)
            registry.counter("engine.blocked").inc(result.blocked)
        return result
