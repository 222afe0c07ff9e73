"""§3.4 headline statistics (FTP).

The two numbers the paper leads with: dropping phi from 1 to 0.95
collapses the scanned space (27.3% vs 76.2% in the paper), and the
densest ~15% of prefixes hold the majority of hosts in under a tenth
of the announced space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.tass import select_by_density

__all__ = ["Section34Result", "run_section34", "render_section34"]

DENSE_PREFIX_FRAC = 0.15
PROTOCOL = "ftp"


@dataclass
class Section34Result:
    phi1_space_less: float
    phi95_space_less: float
    phi1_space_more: float
    phi95_space_more: float
    dense_host_coverage: float
    dense_space_coverage: float
    dense_prefix_frac: float = DENSE_PREFIX_FRAC


def run_section34(dataset) -> Section34Result:
    table = dataset.topology.table
    seed = dataset.series_for(PROTOCOL).seed_snapshot
    spaces = {}
    for view in (LESS_SPECIFIC, MORE_SPECIFIC):
        partition = table.partition(view)
        counts = partition.count_addresses(seed.addresses.values)
        for phi in (1.0, 0.95):
            spaces[(view, phi)] = select_by_density(
                partition, counts, phi
            ).space_coverage

    # Densest ~15% of l-prefixes: their share of hosts and of space.
    partition = table.partition(LESS_SPECIFIC)
    counts = partition.count_addresses(seed.addresses.values)
    density = counts / partition.sizes
    order = np.argsort(-density, kind="stable")
    top = order[: max(1, int(DENSE_PREFIX_FRAC * len(partition)))]
    dense_hosts = counts[top].sum() / counts.sum()
    dense_space = partition.sizes[top].sum() / partition.address_count()

    return Section34Result(
        phi1_space_less=spaces[(LESS_SPECIFIC, 1.0)],
        phi95_space_less=spaces[(LESS_SPECIFIC, 0.95)],
        phi1_space_more=spaces[(MORE_SPECIFIC, 1.0)],
        phi95_space_more=spaces[(MORE_SPECIFIC, 0.95)],
        dense_host_coverage=float(dense_hosts),
        dense_space_coverage=float(dense_space),
    )


def render_section34(result: Section34Result) -> str:
    rows = [
        ("space @ phi=1, l-view", f"{result.phi1_space_less * 100:.1f}%"),
        ("space @ phi=0.95, l-view", f"{result.phi95_space_less * 100:.1f}%"),
        ("space @ phi=1, m-view", f"{result.phi1_space_more * 100:.1f}%"),
        ("space @ phi=0.95, m-view", f"{result.phi95_space_more * 100:.1f}%"),
        (
            f"hosts in densest {result.dense_prefix_frac:.0%} of prefixes",
            f"{result.dense_host_coverage * 100:.1f}%",
        ),
        (
            f"space of densest {result.dense_prefix_frac:.0%} of prefixes",
            f"{result.dense_space_coverage * 100:.1f}%",
        ),
    ]
    return format_table(
        ["statistic", "value"],
        rows,
        title="Section 3.4 headline statistics (FTP)",
    )
