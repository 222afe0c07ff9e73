"""TASS step 5: how often should the selection be re-seeded?

Re-seeding re-derives the selection from a fresh full scan of the
announced space.  More frequent re-seeds keep the hitrate pinned at the
phi target but cost a full-space scan each time — this sweep quantifies
the probes-vs-accuracy trade-off.

The per-wave hold-or-reseed step lives in
:mod:`repro.orchestrator.waves`, shared with the campaign runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC
from repro.core.tass import TassStrategy
from repro.orchestrator.waves import hold_or_reseed

__all__ = ["ReseedRow", "ReseedingResult", "run_reseeding", "render_reseeding"]

PHI = 0.95
INTERVALS = (None, 1, 2, 3)


@dataclass
class ReseedRow:
    protocol: str
    reseed_every: int | None
    total_probes: int
    worst_hitrate: float
    final_hitrate: float
    reseeds: int


class ReseedingResult:
    def __init__(self, rows):
        self.rows = list(rows)

    def for_protocol(self, protocol):
        return [row for row in self.rows if row.protocol == protocol]


def _simulate(table, series, announced, reseed_every) -> ReseedRow:
    strategy = TassStrategy(table, phi=PHI, view=LESS_SPECIFIC)
    selection = strategy.plan(series.seed_snapshot)
    probes = announced  # the seed month is always a full discovery scan
    rates = [1.0]
    reseeds = 0
    for month in range(1, len(series)):
        snapshot = series[month]
        reseed = reseed_every is not None and month % reseed_every == 0
        selection, month_probes, rate = hold_or_reseed(
            strategy, selection, snapshot, reseed, announced
        )
        probes += month_probes
        rates.append(rate)
        reseeds += int(reseed)
    return ReseedRow(
        protocol=series.protocol,
        reseed_every=reseed_every,
        total_probes=int(probes),
        worst_hitrate=min(rates),
        final_hitrate=rates[-1],
        reseeds=reseeds,
    )


def run_reseeding(dataset) -> ReseedingResult:
    table = dataset.topology.table
    announced = table.partition(LESS_SPECIFIC).address_count()
    rows = []
    for protocol in dataset.protocols:
        series = dataset.series_for(protocol)
        for interval in INTERVALS:
            rows.append(_simulate(table, series, announced, interval))
    return ReseedingResult(rows)


def render_reseeding(result: ReseedingResult) -> str:
    rows = [
        (
            row.protocol,
            "never" if row.reseed_every is None else str(row.reseed_every),
            row.total_probes,
            f"{row.worst_hitrate:.3f}",
            f"{row.final_hitrate:.3f}",
        )
        for row in result.rows
    ]
    return format_table(
        [
            "protocol",
            "reseed every (months)",
            "total probes",
            "worst hitrate",
            "final hitrate",
        ],
        rows,
        title=f"Re-seed interval sweep (phi={PHI}, l-view)",
    )
