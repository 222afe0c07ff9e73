"""Topology Aware Scanning Strategy (TASS): phi-threshold prefix selection.

TASS step 2/3: count responsive addresses per prefix of the chosen
view, rank prefixes by address density, and select the densest ones
until they cover a fraction ``phi`` of all responsive addresses.  The
whole selection is a handful of array operations — counting is the
two-``searchsorted`` pass, ranking one ``argsort``, thresholding one
``cumsum`` + ``searchsorted``.
"""

from __future__ import annotations

import numpy as np

# Module-level on purpose: count_in sits inside per-wave hot loops and
# must not pay an import-machinery lookup per call.
from repro.bgp.backends import COUNT_CACHE
from repro.bgp.table import (
    LESS_SPECIFIC,
    Partition,
    RoutingTable,
    count_in_intervals,
    interval_membership,
)

__all__ = ["Selection", "TassStrategy", "select_by_density"]


class Selection:
    """The outcome of one phi-threshold selection over a partition."""

    __slots__ = (
        "partition",
        "indices",
        "starts",
        "ends",
        "covered_hosts",
        "total_hosts",
        "phi",
    )

    def __init__(self, partition, indices, covered_hosts, total_hosts, phi):
        self.partition = partition
        # Keep the interval view sorted by network for searchsorted use.
        self.indices = np.sort(np.asarray(indices, dtype=np.int64))
        self.starts = partition.starts[self.indices]
        self.ends = partition.ends[self.indices]
        self.covered_hosts = int(covered_hosts)
        self.total_hosts = int(total_hosts)
        self.phi = phi

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def prefixes(self):
        """Selected :class:`Prefix` objects (table partitions only)."""
        prefixes = self.partition.prefixes
        return [prefixes[i] for i in self.indices.tolist()]

    def selected_address_count(self) -> int:
        """Total address-space size of the selected prefixes."""
        if self.starts.dtype.kind == "S":
            # 128-bit interval sizes overflow int64; sum exactly in
            # Python ints via the partition's exact size table.
            sizes = self.partition.sizes_exact
            return sum(sizes[i] for i in self.indices.tolist())
        return int((self.ends - self.starts).sum())

    def probe_count(self) -> int:
        """Probes one scan pass over the selection costs."""
        return self.selected_address_count()

    @property
    def space_coverage(self) -> float:
        """Selected space as a fraction of the whole announced space."""
        return self.selected_address_count() / self.partition.address_count()

    @property
    def host_coverage(self) -> float:
        """Fraction of responsive addresses covered at selection time."""
        return self.covered_hosts / self.total_hosts if self.total_hosts else 0.0

    def count_in(self, values: np.ndarray) -> int:
        """How many of a sorted address array fall inside the selection.

        Immutable snapshot arrays hit the process-wide
        :data:`~repro.bgp.backends.COUNT_CACHE`: the full-partition
        counts are computed once per snapshot and this call reduces to
        a fancy-index sum, so repeated waves/strategies over the same
        snapshot never recount it.  (The selection's intervals are by
        construction a subset of the partition's disjoint intervals, so
        the subset sum equals a direct count.)
        """
        if COUNT_CACHE.cacheable(values):
            counts = COUNT_CACHE.counts(self.partition, values)
            return int(counts[self.indices].sum())
        return int(count_in_intervals(self.starts, self.ends, values).sum())

    def membership(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask over ``values``: inside the selection or not."""
        return interval_membership(self.starts, self.ends, values)


def select_by_density(
    partition: Partition, counts: np.ndarray, phi: float
) -> Selection:
    """Select the densest prefixes covering ``phi`` of the addresses."""
    if not 0.0 < phi <= 1.0:
        raise ValueError("phi must be in (0, 1]")
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return Selection(partition, np.empty(0, np.int64), 0, 0, phi)
    density = counts / partition.sizes
    order = np.argsort(-density, kind="stable")
    cumulative = np.cumsum(counts[order])
    target = phi * total
    # First rank whose cumulative count reaches the target (the epsilon
    # keeps float rounding from demanding one prefix too many at phi=1).
    k = int(np.searchsorted(cumulative, target - 1e-9, side="left")) + 1
    chosen = order[:k]
    return Selection(partition, chosen, int(cumulative[k - 1]), total, phi)


class TassStrategy:
    """The paper's selection strategy bound to one partition and phi."""

    def __init__(
        self,
        table,
        phi: float = 1.0,
        view: str = LESS_SPECIFIC,
    ):
        if isinstance(table, RoutingTable):
            self.partition = table.partition(view)
        elif isinstance(table, Partition):
            self.partition = table
        else:
            raise TypeError(
                "expected a RoutingTable or Partition, got "
                f"{type(table).__name__}"
            )
        self.phi = float(phi)
        self.view = view
        self.last_selection: Selection | None = None

    def plan(self, snapshot) -> Selection:
        """Derive the probe plan from a seed snapshot (TASS steps 2-4)."""
        addresses = getattr(snapshot, "addresses", snapshot)
        values = getattr(addresses, "values", addresses)
        counts = self.partition.count_addresses(values)
        selection = select_by_density(self.partition, counts, self.phi)
        self.last_selection = selection
        return selection
