"""Figure 3: responsive hosts per prefix length, monthly, both views.

Seven measurements x two protocol panels x both prefix views; the
distributions are stable over time and the more-specific view is
shifted to longer prefixes.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC

__all__ = ["Figure3Result", "run_figure3", "render_figure3"]

_VIEWS = (LESS_SPECIFIC, MORE_SPECIFIC)
_MAX_LENGTH = 33


class Figure3Result:
    """Host-per-prefix-length histograms per (view, protocol, month)."""

    def __init__(self, protocols, hists):
        self.protocols = list(protocols)
        self.hists = hists  # {(view, protocol): (months, 33) array}

    def distribution(self, view, protocol, month) -> np.ndarray:
        hist = self.hists[(view, protocol)][month].astype(float)
        total = hist.sum()
        return hist / total if total else hist

    def stability(self, view, protocol) -> float:
        """Worst total-variation distance of any month vs the seed."""
        months = self.hists[(view, protocol)].shape[0]
        base = self.distribution(view, protocol, 0)
        return max(
            0.5
            * np.abs(self.distribution(view, protocol, m) - base).sum()
            for m in range(1, months)
        )

    def mean_length(self, view, protocol) -> float:
        """Host-weighted mean covering-prefix length over all months."""
        hist = self.hists[(view, protocol)].sum(axis=0).astype(float)
        lengths = np.arange(_MAX_LENGTH)
        return float((hist * lengths).sum() / hist.sum())


def run_figure3(dataset) -> Figure3Result:
    table = dataset.topology.table
    hists = {}
    for view in _VIEWS:
        partition = table.partition(view)
        lengths = partition.lengths
        for protocol in dataset.protocols:
            series = dataset.series_for(protocol)
            rows = np.zeros((len(series), _MAX_LENGTH), dtype=np.int64)
            for month, snapshot in enumerate(series):
                counts = partition.count_addresses(snapshot.addresses.values)
                rows[month] = np.bincount(
                    lengths, weights=counts, minlength=_MAX_LENGTH
                ).astype(np.int64)
            hists[(view, protocol)] = rows
    return Figure3Result(dataset.protocols, hists)


def render_figure3(result: Figure3Result) -> str:
    rows = []
    for view in _VIEWS:
        for protocol in result.protocols:
            rows.append(
                (
                    view,
                    protocol,
                    f"{result.mean_length(view, protocol):.2f}",
                    f"{result.stability(view, protocol):.4f}",
                )
            )
    return format_table(
        ["view", "protocol", "mean prefix length", "stability (max TV)"],
        rows,
        title="Figure 3: hosts per prefix length (7 monthly measurements)",
    )
