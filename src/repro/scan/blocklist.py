"""Scan blocklists: reserved/special-use space a good citizen never probes.

The blocklist is a sorted set of disjoint intervals; a scan maps it into
each wave's flat coordinates once (``IntervalTargets.bitmaps``).
"""

from __future__ import annotations

import numpy as np

from repro.bgp.table import Prefix, coalesce_intervals, interval_membership

__all__ = ["Blocklist", "default_blocklist", "RESERVED_CIDRS"]

#: RFC 5735 / RFC 6890 special-use blocks plus multicast and class E.
RESERVED_CIDRS = (
    "0.0.0.0/8",
    "10.0.0.0/8",
    "100.64.0.0/10",
    "127.0.0.0/8",
    "169.254.0.0/16",
    "172.16.0.0/12",
    "192.0.0.0/24",
    "192.0.2.0/24",
    "192.88.99.0/24",
    "192.168.0.0/16",
    "198.18.0.0/15",
    "198.51.100.0/24",
    "203.0.113.0/24",
    "224.0.0.0/4",
    "240.0.0.0/4",
)


class Blocklist:
    """Sorted disjoint intervals of addresses excluded from scanning."""

    def __init__(self, starts, ends):
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        order = np.argsort(starts, kind="stable")
        # Real-world blocklists routinely contain nested/overlapping
        # CIDRs; coalesce them so every interval lookup stays exact.
        self.starts, self.ends = coalesce_intervals(
            starts[order], ends[order]
        )

    @classmethod
    def from_cidrs(cls, cidrs) -> "Blocklist":
        prefixes = [Prefix.from_cidr(c) for c in cidrs]
        return cls(
            [p.start for p in prefixes], [p.end for p in prefixes]
        )

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def address_count(self) -> int:
        return int((self.ends - self.starts).sum())

    def blocked_mask(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized: True where an address falls in a blocked range."""
        return interval_membership(self.starts, self.ends, addresses)


def default_blocklist() -> Blocklist:
    """The standard special-use blocklist (see ``RESERVED_CIDRS``)."""
    return Blocklist.from_cidrs(RESERVED_CIDRS)
