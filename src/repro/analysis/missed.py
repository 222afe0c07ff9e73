"""§5: what kind of hosts does a phi<1 TASS scan miss?

At the end of the campaign, split the responsive population into hosts
inside and outside the selection and compare their kind composition.
The divergence (total-variation distance) quantifies how biased the
missed set is — missed hosts skew toward the sparse background.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC
from repro.core.tass import TassStrategy

__all__ = ["MissedHostsResult", "run_missed_hosts", "render_missed_hosts"]

PHI = 0.95


@dataclass
class ProtocolMissedRow:
    protocol: str
    found: int
    missed: int
    divergence: float


@dataclass
class MissedHostsResult:
    found_count: int
    missed_count: int
    kind_divergence: float
    kind_names: list
    found_kind_dist: np.ndarray
    missed_kind_dist: np.ndarray
    rows: list = field(default_factory=list)


def _tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = a / a.sum() if a.sum() else a
    b = b / b.sum() if b.sum() else b
    return float(0.5 * np.abs(a - b).sum())


def run_missed_hosts(dataset) -> MissedHostsResult:
    table = dataset.topology.table
    n_kinds = len(dataset.kind_names)
    total_found = np.zeros(n_kinds, dtype=np.int64)
    total_missed = np.zeros(n_kinds, dtype=np.int64)
    rows = []
    for protocol in dataset.protocols:
        series = dataset.series_for(protocol)
        strategy = TassStrategy(table, phi=PHI, view=LESS_SPECIFIC)
        selection = strategy.plan(series.seed_snapshot)
        final = series[len(series) - 1]
        inside = selection.membership(final.addresses.values)
        found = np.bincount(
            final.kinds[inside], minlength=n_kinds
        ).astype(np.int64)
        missed = np.bincount(
            final.kinds[~inside], minlength=n_kinds
        ).astype(np.int64)
        total_found += found
        total_missed += missed
        rows.append(
            ProtocolMissedRow(
                protocol=protocol,
                found=int(found.sum()),
                missed=int(missed.sum()),
                divergence=_tv_distance(found, missed),
            )
        )
    return MissedHostsResult(
        found_count=int(total_found.sum()),
        missed_count=int(total_missed.sum()),
        kind_divergence=_tv_distance(total_found, total_missed),
        kind_names=list(dataset.kind_names),
        found_kind_dist=total_found,
        missed_kind_dist=total_missed,
        rows=rows,
    )


def render_missed_hosts(result: MissedHostsResult) -> str:
    rows = [
        (
            row.protocol,
            row.found,
            row.missed,
            f"{row.divergence:.3f}",
        )
        for row in result.rows
    ]
    rows.append(
        (
            "all",
            result.found_count,
            result.missed_count,
            f"{result.kind_divergence:.3f}",
        )
    )
    found = result.found_kind_dist / max(result.found_kind_dist.sum(), 1)
    missed = result.missed_kind_dist / max(result.missed_kind_dist.sum(), 1)
    kind_rows = [
        (name, f"{f:.3f}", f"{m:.3f}")
        for name, f, m in zip(result.kind_names, found, missed)
    ]
    return (
        format_table(
            ["protocol", "found", "missed", "kind divergence"],
            rows,
            title=f"Found vs missed hosts at month 6 (phi={PHI})",
        )
        + "\n\n"
        + format_table(
            ["kind", "found share", "missed share"], kind_rows
        )
    )
