"""Table 1: address-space coverage of the phi-threshold selection.

Sweeps phi over {1, 0.99, 0.95, 0.7, 0.5} for every protocol and both
prefix views.  The per-prefix counting happens once per (view,
protocol); the phi sweep reuses the same density ranking.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.tass import select_by_density

__all__ = ["PHIS", "Table1Result", "run_table1", "render_table1"]

PHIS = (1.0, 0.99, 0.95, 0.7, 0.5)
_VIEWS = (LESS_SPECIFIC, MORE_SPECIFIC)


class Table1Result:
    def __init__(self, protocols, cells):
        self.protocols = list(protocols)
        self.cells = cells  # {(view, phi, protocol): space coverage}

    def cell(self, view, phi, protocol) -> float:
        return self.cells[(view, phi, protocol)]


def run_table1(dataset) -> Table1Result:
    table = dataset.topology.table
    cells = {}
    for view in _VIEWS:
        partition = table.partition(view)
        for protocol in dataset.protocols:
            seed = dataset.series_for(protocol).seed_snapshot
            counts = partition.count_addresses(seed.addresses.values)
            for phi in PHIS:
                selection = select_by_density(partition, counts, phi)
                cells[(view, phi, protocol)] = selection.space_coverage
    return Table1Result(dataset.protocols, cells)


def render_table1(result: Table1Result) -> str:
    rows = []
    for view in _VIEWS:
        for phi in PHIS:
            rows.append(
                (
                    view,
                    f"{phi:.2f}",
                    *(
                        f"{result.cell(view, phi, p) * 100:5.1f}%"
                        for p in result.protocols
                    ),
                )
            )
    return format_table(
        ["view", "phi", *result.protocols],
        rows,
        title="Table 1: space coverage of the phi-threshold selection",
    )
