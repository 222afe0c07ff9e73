"""§2: decomposition of monthly hitlist loss.

Every address present in month t but gone in month t+1 is classified by
what happened to the host that owned it: *renumbering* (alive at a new
address in the same routed prefix — prefix scans survive this), *moved*
(alive in a different prefix), or *died*.  The paper's stability
argument requires renumbering to dominate.

A lost host is found in the next month through an inverse table,
``where[host_id] = row``: host ids are unique within a snapshot, and
:meth:`~repro.census.loader.CensusDataset.load` checks that each is a
distinct non-negative integer below the series' total row count, so
the table stays small and the lookup is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC

__all__ = [
    "ChurnBreakdown",
    "ChurnRow",
    "ChurnDecompositionResult",
    "run_churn_decomposition",
    "render_churn_decomposition",
]


@dataclass
class ChurnBreakdown:
    renumbered: int
    moved: int
    died: int

    @property
    def lost(self) -> int:
        return self.renumbered + self.moved + self.died

    @property
    def renumbering_share(self) -> float:
        return self.renumbered / self.lost if self.lost else 0.0

    @property
    def moved_share(self) -> float:
        return self.moved / self.lost if self.lost else 0.0

    @property
    def death_share(self) -> float:
        return self.died / self.lost if self.lost else 0.0


@dataclass
class ChurnRow:
    protocol: str
    breakdown: ChurnBreakdown


class ChurnDecompositionResult:
    def __init__(self, rows):
        self.rows = list(rows)


def _decompose(partition, series) -> ChurnBreakdown:
    renumbered = moved = died = 0
    for month in range(len(series) - 1):
        cur, nxt = series[month], series[month + 1]
        cur_values = cur.addresses.values
        nxt_values = nxt.addresses.values
        lost = ~nxt.addresses.membership(cur_values)
        lost_hids = cur.host_ids[lost]
        lost_addrs = cur_values[lost]

        # Locate the lost hosts in the next snapshot by host id.
        hids = (cur.host_ids, nxt.host_ids)
        where = np.full(1 + max(h.max(initial=-1) for h in hids), -1)
        where[nxt.host_ids] = np.arange(len(nxt.host_ids))
        pos = where[lost_hids]
        alive = pos >= 0
        died += int((~alive).sum())

        new_addrs = nxt_values[pos[alive]]
        old_parts = partition.index_of(lost_addrs[alive])
        new_parts = partition.index_of(new_addrs)
        same = old_parts == new_parts
        renumbered += int(same.sum())
        moved += int((~same).sum())
    return ChurnBreakdown(renumbered=renumbered, moved=moved, died=died)


def run_churn_decomposition(dataset) -> ChurnDecompositionResult:
    partition = dataset.topology.table.partition(LESS_SPECIFIC)
    rows = [
        ChurnRow(
            protocol=protocol,
            breakdown=_decompose(partition, dataset.series_for(protocol)),
        )
        for protocol in dataset.protocols
    ]
    return ChurnDecompositionResult(rows)


def render_churn_decomposition(result: ChurnDecompositionResult) -> str:
    rows = [
        (
            row.protocol,
            row.breakdown.lost,
            f"{row.breakdown.renumbering_share:.3f}",
            f"{row.breakdown.moved_share:.3f}",
            f"{row.breakdown.death_share:.3f}",
        )
        for row in result.rows
    ]
    return format_table(
        [
            "protocol",
            "addresses lost",
            "renumbering share",
            "moved share",
            "death share",
        ],
        rows,
        title="Churn decomposition of monthly hitlist loss",
    )
