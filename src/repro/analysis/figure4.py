"""Figure 4: density-ranked cumulative coverage curves.

Rank prefixes by responsive-address density, then plot cumulative host
coverage against cumulative space coverage.  The sharp knee — half of
all hosts inside a few percent of the space — is the concentration the
whole TASS argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC

__all__ = ["Figure4Result", "run_figure4", "render_figure4"]

_VIEWS = (LESS_SPECIFIC, MORE_SPECIFIC)


@dataclass
class CoverageCurve:
    """Cumulative coverage along the density ranking of one view."""

    space_frac: np.ndarray  # cumulative fraction of announced space
    host_frac: np.ndarray  # cumulative fraction of responsive hosts

    def space_at_host(self, target: float) -> float:
        """Space needed to reach a host-coverage target."""
        idx = int(np.searchsorted(self.host_frac, target, side="left"))
        idx = min(idx, len(self.space_frac) - 1)
        return float(self.space_frac[idx])


class Figure4Result:
    def __init__(self, curves):
        self.curves = curves  # {(view, protocol): CoverageCurve}

    def knee_stats(self, view, protocol) -> dict:
        curve = self.curves[(view, protocol)]
        return {
            "space_at_host_0.5": curve.space_at_host(0.5),
            "space_at_host_0.9": curve.space_at_host(0.9),
            "space_at_host_0.95": curve.space_at_host(0.95),
        }


def run_figure4(dataset) -> Figure4Result:
    table = dataset.topology.table
    curves = {}
    for view in _VIEWS:
        partition = table.partition(view)
        sizes = partition.sizes
        announced = partition.address_count()
        for protocol in dataset.protocols:
            seed = dataset.series_for(protocol).seed_snapshot
            counts = partition.count_addresses(seed.addresses.values)
            density = counts / sizes
            order = np.argsort(-density, kind="stable")
            space = np.cumsum(sizes[order]) / announced
            hosts = np.cumsum(counts[order]) / counts.sum()
            curves[(view, protocol)] = CoverageCurve(space, hosts)
    return Figure4Result(curves)


def render_figure4(result: Figure4Result) -> str:
    rows = []
    for (view, protocol), curve in sorted(result.curves.items()):
        knees = result.knee_stats(view, protocol)
        rows.append(
            (
                view,
                protocol,
                f"{knees['space_at_host_0.5']:.4f}",
                f"{knees['space_at_host_0.9']:.4f}",
                f"{knees['space_at_host_0.95']:.4f}",
            )
        )
    return format_table(
        ["view", "protocol", "space@50%", "space@90%", "space@95%"],
        rows,
        title="Figure 4: space needed per host-coverage level",
    )
