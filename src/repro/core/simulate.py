"""Month-over-month campaign simulation (TASS step 5 accounting).

A campaign derives its plan from the seed snapshot, then replays the
remaining monthly snapshots against the fixed selection.  The per-month
hitrate — responsive addresses inside the selection over all responsive
addresses — is computed with the same two-``searchsorted`` interval
pass as everything else; no probe-level loop is needed to account a
simulated campaign.

Counting goes through ``Selection.count_in`` and therefore the
process-wide :data:`~repro.bgp.backends.COUNT_CACHE`: when several
campaigns (or strategies, or the reseeding sweep) replay the same
snapshot series, each snapshot is counted once and every later replay
reduces to a fancy-index sum over the cached per-partition counts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Campaign", "simulate_campaign"]


class Campaign:
    """Hitrate trajectory (and probe cost) of one simulated campaign."""

    def __init__(self, hitrates, selection, probes_per_month=None):
        self._hitrates = [float(h) for h in hitrates]
        self.selection = selection
        self.probes_per_month = probes_per_month

    def hitrates(self):
        """Per-month hitrate, month 0 = seed time."""
        return list(self._hitrates)

    def decay_per_month(self) -> float:
        """Mean monthly hitrate drift over the campaign."""
        rates = self._hitrates
        if len(rates) < 2:
            return 0.0
        return (rates[-1] - rates[0]) / (len(rates) - 1)

    def final_hitrate(self) -> float:
        return self._hitrates[-1]

    def total_probes(self) -> int:
        if self.probes_per_month is None:
            return 0
        return int(np.sum(self.probes_per_month))


def simulate_campaign(strategy, series) -> Campaign:
    """Plan on the seed snapshot, replay every monthly snapshot."""
    selection = strategy.plan(series.seed_snapshot)
    rates = []
    for snapshot in series:
        values = snapshot.addresses.values
        found = selection.count_in(values)
        rates.append(found / len(values) if len(values) else 0.0)
    probes = [selection.probe_count()] * len(rates)
    return Campaign(rates, selection, probes)
