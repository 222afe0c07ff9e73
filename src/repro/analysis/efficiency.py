"""§1/§4 efficiency headline: TASS vs periodic full scans.

Full campaign accounting over the whole series: a TASS campaign costs
one full seed scan of the announced space plus one selection-sized scan
per later month; the baseline rescans the announced space every month.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.simulate import simulate_campaign
from repro.core.tass import TassStrategy

__all__ = ["EfficiencyRow", "EfficiencyResult", "run_efficiency", "render_efficiency"]

_SETTINGS = tuple(
    product((LESS_SPECIFIC, MORE_SPECIFIC), (1.0, 0.95))
)


@dataclass
class EfficiencyRow:
    protocol: str
    view: str
    phi: float
    tass_probes: int
    full_probes: int
    ratio: float  # full / tass: how many times cheaper TASS is
    final_hitrate: float


class EfficiencyResult:
    def __init__(self, rows):
        self.rows = list(rows)

    def ratio_range(self) -> tuple:
        ratios = [row.ratio for row in self.rows]
        return min(ratios), max(ratios)


def run_efficiency(dataset) -> EfficiencyResult:
    table = dataset.topology.table
    announced = table.partition(LESS_SPECIFIC).address_count()
    rows = []
    for protocol in dataset.protocols:
        series = dataset.series_for(protocol)
        months = len(series)
        full_probes = months * announced
        for view, phi in _SETTINGS:
            strategy = TassStrategy(table, phi=phi, view=view)
            campaign = simulate_campaign(strategy, series)
            selection = strategy.last_selection
            tass_probes = announced + (months - 1) * selection.probe_count()
            rows.append(
                EfficiencyRow(
                    protocol=protocol,
                    view=view,
                    phi=phi,
                    tass_probes=tass_probes,
                    full_probes=full_probes,
                    ratio=full_probes / tass_probes,
                    final_hitrate=campaign.hitrates()[-1],
                )
            )
    return EfficiencyResult(rows)


def render_efficiency(result: EfficiencyResult) -> str:
    rows = [
        (
            row.protocol,
            row.view,
            f"{row.phi:.2f}",
            f"{row.ratio:.2f}x",
            f"{row.final_hitrate:.3f}",
        )
        for row in result.rows
    ]
    low, high = result.ratio_range()
    return format_table(
        ["protocol", "view", "phi", "efficiency vs full", "month-6 hitrate"],
        rows,
        title=(
            "Efficiency: TASS vs periodic full scans "
            f"(range {low:.2f}x-{high:.2f}x)"
        ),
    )
