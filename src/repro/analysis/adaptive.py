"""Static vs adaptive TASS.

The static strategy fixes its selection at seed time.  The adaptive
variant spends a small monthly exploration budget on uniform probes
into the unselected announced space and absorbs any prefix where
exploration finds responsive hosts.  It can only gain hitrate (the
selection only grows) at the cost of the exploration probes.

The per-wave cores (selection accounting, bitmap-scored exploration,
absorption) live in :mod:`repro.orchestrator.waves`, so the same logic
both renders this analysis and drives live campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC
from repro.core.tass import select_by_density
from repro.orchestrator.waves import explore_unselected, selection_stats

__all__ = ["AdaptiveComparison", "AdaptiveResult", "run_adaptive", "render_adaptive"]

PHI = 0.95
EXPLORE_FRAC = 0.01  # monthly exploration budget vs unselected space


@dataclass
class AdaptiveComparison:
    protocol: str
    static_final: float
    adaptive_final: float
    hitrate_gain_month6: float
    static_probes: int
    adaptive_probes: int
    probe_overhead: float
    absorbed_prefixes: int


class AdaptiveResult:
    def __init__(self, comparisons):
        self.comparisons = list(comparisons)


def run_adaptive(dataset) -> AdaptiveResult:
    table = dataset.topology.table
    partition = table.partition(LESS_SPECIFIC)
    announced = partition.address_count()
    comparisons = []
    for pi, protocol in enumerate(dataset.protocols):
        rng = np.random.default_rng(1000 + pi)
        series = dataset.series_for(protocol)
        seed_counts = partition.count_addresses(
            series.seed_snapshot.addresses.values
        )
        base = select_by_density(partition, seed_counts, PHI)

        static_sel = np.zeros(len(partition), dtype=bool)
        static_sel[base.indices] = True
        adaptive_sel = static_sel.copy()

        static_probes = announced
        adaptive_probes = announced
        static_final = adaptive_final = 0.0
        absorbed = 0
        for month in range(1, len(series)):
            values = series[month].addresses.values
            s_found, s_size = selection_stats(partition, static_sel, values)
            static_probes += s_size
            static_final = s_found / len(values)

            a_found, a_size = selection_stats(partition, adaptive_sel, values)
            explore_n = max(
                1, int(EXPLORE_FRAC * (announced - a_size))
            )
            # Charge the probes drawn: a full selection leaves none.
            explored, hits, fresh = explore_unselected(
                rng, partition, adaptive_sel, values, explore_n
            )
            adaptive_probes += a_size + explored
            adaptive_final = (a_found + len(hits)) / len(values)
            adaptive_sel[fresh] = True
            absorbed += len(fresh)

        comparisons.append(
            AdaptiveComparison(
                protocol=protocol,
                static_final=static_final,
                adaptive_final=adaptive_final,
                hitrate_gain_month6=adaptive_final - static_final,
                static_probes=int(static_probes),
                adaptive_probes=int(adaptive_probes),
                probe_overhead=(adaptive_probes - static_probes)
                / static_probes,
                absorbed_prefixes=absorbed,
            )
        )
    return AdaptiveResult(comparisons)


def render_adaptive(result: AdaptiveResult) -> str:
    rows = [
        (
            c.protocol,
            f"{c.static_final:.3f}",
            f"{c.adaptive_final:.3f}",
            f"{c.hitrate_gain_month6 * 100:+.2f}pp",
            f"{c.probe_overhead * 100:.2f}%",
            c.absorbed_prefixes,
        )
        for c in result.comparisons
    ]
    return format_table(
        [
            "protocol",
            "static m6 hitrate",
            "adaptive m6 hitrate",
            "gain",
            "probe overhead",
            "absorbed prefixes",
        ],
        rows,
        title=f"Static vs adaptive TASS (phi={PHI}, l-view)",
    )
