"""Routing-table model: prefixes, interval partitions, vectorized counting.

The paper works with two complementary decompositions of the announced
address space:

- the **less-specific** view (``LESS_SPECIFIC``): the top-level
  announcements only, covering prefixes with everything they aggregate;
- the **more-specific** view (``MORE_SPECIFIC``): the most-specific
  non-overlapping decomposition — every deaggregated child plus the
  uncovered remainder of its parent, recursively.

Both views are materialised as a :class:`Partition` — a sorted list of
disjoint ``[start, end)`` intervals.  Counting responsive addresses per
prefix (TASS step 2) is then two ``searchsorted`` calls over the sorted
snapshot array, instead of a longest-prefix match per address (the
radix-trie reference in :mod:`repro.core.density` that the ablation
benchmark compares against).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.addrspace import V4, address_array, space_of

__all__ = [
    "LESS_SPECIFIC",
    "MORE_SPECIFIC",
    "Prefix",
    "Partition",
    "RoutingTable",
    "interval_membership",
    "count_in_intervals",
    "coalesce_intervals",
    "ip_to_int",
    "int_to_ip",
]

LESS_SPECIFIC = "less-specific"
MORE_SPECIFIC = "more-specific"


def interval_membership(starts, ends, values) -> np.ndarray:
    """Mask: which values fall inside a sorted disjoint ``[start, end)`` set.

    The shared one-``searchsorted`` membership idiom used by partitions,
    selections, and blocklists alike.  ``starts``/``ends`` must be sorted
    and non-overlapping.  Works for both families: lexicographic order
    on the v6 byte strings is numeric order.
    """
    values = address_array(values)
    idx = np.searchsorted(starts, values, side="right") - 1
    return (idx >= 0) & (values < ends[idx.clip(0)])


def count_in_intervals(starts, ends, values) -> np.ndarray:
    """Per-interval occupancy of a **sorted** value array.

    The two-``searchsorted`` interval-counting pass: the number of values
    inside ``[start_i, end_i)`` is the difference of the two insertion
    points.  O((n + m) log) for the whole interval set.
    """
    values = address_array(values)
    lo = np.searchsorted(values, starts, side="left")
    hi = np.searchsorted(values, ends, side="left")
    return hi - lo


def coalesce_intervals(starts, ends):
    """Merge overlapping/adjacent ``[start, end)`` runs into a minimal cover.

    ``starts`` must be sorted ascending (intervals may nest, overlap,
    or abut).  The result covers exactly the same addresses with the
    fewest intervals — dense interval sets (e.g. a selection of many
    adjacent prefixes) shrink to a handful of runs, which shrinks every
    downstream ``searchsorted`` table.  Returns ``(starts, ends)``.
    """
    starts = address_array(starts)
    ends = address_array(ends)
    if len(starts) <= 1:
        return starts, ends
    if starts.dtype.kind == "S":
        # ``np.maximum`` has no S16 loop; interval tables are small, so
        # the v6 family coalesces through exact Python-int scans.
        space = space_of(starts)
        s = space.decode(starts)
        e = space.decode(ends)
        out_s = [s[0]]
        out_e = [e[0]]
        for a, b in zip(s[1:], e[1:]):
            if a > out_e[-1]:
                out_s.append(a)
                out_e.append(b)
            elif b > out_e[-1]:
                out_e[-1] = b
        return space.encode(out_s), space.encode(out_e)
    reach = np.maximum.accumulate(ends)
    fresh = np.empty(len(starts), dtype=bool)
    fresh[0] = True
    np.greater(starts[1:], reach[:-1], out=fresh[1:])
    run = np.flatnonzero(fresh)
    return starts[fresh], np.maximum.reduceat(reach, run)


def ip_to_int(dotted: str) -> int:
    a, b, c, d = (int(x) for x in dotted.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def int_to_ip(value: int) -> str:
    value = int(value)
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))


@dataclass(frozen=True, slots=True)
class Prefix:
    """A CIDR prefix as (network integer, mask length, address width).

    ``bits`` is the family width: 32 for IPv4 (the default, so every
    existing call site is unchanged) or 128 for IPv6, where ``network``
    is an arbitrary-precision Python int.
    """

    network: int
    length: int
    bits: int = field(default=32)

    @property
    def size(self) -> int:
        return 1 << (self.bits - self.length)

    @property
    def start(self) -> int:
        return self.network

    @property
    def end(self) -> int:
        return self.network + self.size

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def covers(self, other: "Prefix") -> bool:
        return self.start <= other.start and other.end <= self.end

    @classmethod
    def from_cidr(cls, cidr: str) -> "Prefix":
        net, length = cidr.split("/")
        if ":" in net:
            return cls(int(ipaddress.IPv6Address(net)), int(length), 128)
        return cls(ip_to_int(net), int(length))

    def __str__(self) -> str:
        if self.bits == 128:
            return f"{ipaddress.IPv6Address(self.network)}/{self.length}"
        return f"{int_to_ip(self.network)}/{self.length}"


class Partition:
    """A sorted set of disjoint ``[start, end)`` address intervals.

    Table partitions carry their :class:`Prefix` objects; derived
    partitions (e.g. the clustered-/24 refinement) are plain interval
    sets.  ``count_addresses`` is the package's hottest routine: given a
    *sorted* address array it returns the per-interval occupancy via the
    two-``searchsorted`` interval-counting pass.
    """

    # __weakref__ lets the COUNT_CACHE key entries on partitions
    # without extending their lifetime.
    __slots__ = ("starts", "ends", "_prefixes", "__dict__", "__weakref__")

    def __init__(self, starts, ends, prefixes=None):
        self.starts = address_array(starts)
        self.ends = address_array(ends)
        self.space = space_of(self.starts)
        if self.starts.dtype != self.ends.dtype:
            raise ValueError("starts/ends address-family mismatch")
        if self.starts.shape != self.ends.shape:
            raise ValueError("starts/ends length mismatch")
        if len(self.starts) > 1 and not (
            self.starts[1:] >= self.ends[:-1]
        ).all():
            raise ValueError("partition intervals must be sorted disjoint")
        self._prefixes = list(prefixes) if prefixes is not None else None

    @classmethod
    def from_prefixes(cls, prefixes) -> "Partition":
        prefixes = sorted(prefixes, key=lambda p: p.network)
        if prefixes and prefixes[0].bits == 128:
            from repro.core.addrspace import V6

            starts = V6.encode([p.start for p in prefixes])
            ends = V6.encode([p.end for p in prefixes])
            return cls(starts, ends, prefixes)
        starts = np.fromiter(
            (p.start for p in prefixes), dtype=np.int64, count=len(prefixes)
        )
        ends = np.fromiter(
            (p.end for p in prefixes), dtype=np.int64, count=len(prefixes)
        )
        return cls(starts, ends, prefixes)

    # -- structure -----------------------------------------------------

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    @cached_property
    def sizes(self) -> np.ndarray:
        """Per-interval sizes.

        v4: exact ``int64`` (unchanged).  v6: ``float64`` — interval
        sizes reach 2^96+, beyond int64; power-of-two sizes are exactly
        representable in float64, which is all density ranking needs.
        Exact accounting must use :meth:`sizes_exact` /
        :meth:`address_count` / :meth:`masked_address_count`.
        """
        if self.space.bits != 32:
            return self.space.interval_sizes_float(self.starts, self.ends)
        return self.ends - self.starts

    @cached_property
    def sizes_exact(self) -> tuple:
        """Per-interval sizes as exact Python ints (both families)."""
        return tuple(
            self.space.interval_sizes_exact(self.starts, self.ends)
        )

    @property
    def prefixes(self):
        if self._prefixes is None:
            raise AttributeError(
                "this partition is interval-based and has no Prefix objects"
            )
        return self._prefixes

    @cached_property
    def lengths(self) -> np.ndarray:
        """Per-part prefix length, exact (``bits - log2 size``).

        Interval-based partitions must have power-of-two aligned sizes
        for a length to exist; non-power-of-two intervals (possible
        after coalescing) used to round through ``log2`` and silently
        produce a wrong length — now they raise.
        """
        if self._prefixes is not None:
            return np.fromiter(
                (p.length for p in self._prefixes),
                dtype=np.int64,
                count=len(self._prefixes),
            )
        bits = self.space.bits
        lengths = np.empty(len(self), dtype=np.int64)
        for i, size in enumerate(self.sizes_exact):
            if size <= 0 or size & (size - 1):
                raise ValueError(
                    f"interval {i} has non-power-of-two size {size}; "
                    "prefix lengths are undefined for unaligned intervals"
                )
            lengths[i] = bits - (size.bit_length() - 1)
        return lengths

    def address_count(self) -> int:
        """Total covered addresses as an exact Python int."""
        if self.space.bits != 32:
            return sum(self.sizes_exact)
        return int(self.sizes.sum())

    def masked_address_count(self, mask) -> int:
        """Exact covered-address count over a boolean part mask."""
        if self.space.bits != 32:
            sizes = self.sizes_exact
            return sum(sizes[i] for i in np.flatnonzero(mask))
        return int(self.sizes[mask].sum())

    # -- vectorized hot paths -----------------------------------------

    def count_addresses(self, values: np.ndarray) -> np.ndarray:
        """Per-interval occupancy of a **sorted** address array.

        The two-``searchsorted`` interval-counting pass
        (:func:`count_in_intervals`).  Counts over immutable snapshot
        arrays are memoized in the
        process-wide :data:`~repro.bgp.backends.COUNT_CACHE`, so every
        wave/strategy sharing a snapshot shares one counting pass; the
        returned array is read-only and must not be mutated.
        """
        # Imported lazily: backends imports this module at load time.
        from repro.bgp.backends import COUNT_CACHE

        return COUNT_CACHE.counts(self, values)

    def index_of(self, values: np.ndarray) -> np.ndarray:
        """Covering-interval index per address (-1 when uncovered)."""
        values = address_array(values)
        idx = np.searchsorted(self.starts, values, side="right") - 1
        safe = idx.clip(0)
        inside = (idx >= 0) & (values < self.ends[safe])
        return np.where(inside, safe, -1)

    def membership(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask: which addresses fall inside any interval."""
        return interval_membership(self.starts, self.ends, values)


class RoutingTable:
    """A BGP routing table as a forest of prefixes.

    Top-level announcements (``l_prefixes``) are disjoint; deaggregated
    more-specific announcements hang beneath them (possibly nested).
    """

    def __init__(self, l_prefixes, children=None):
        self._l_prefixes = sorted(l_prefixes, key=lambda p: p.network)
        self._children = {
            parent: tuple(sorted(kids, key=lambda p: p.network))
            for parent, kids in (children or {}).items()
            if kids
        }
        self._partitions = {}

    @property
    def l_prefixes(self):
        """The top-level (less-specific) announcements, sorted."""
        return self._l_prefixes

    @cached_property
    def prefixes(self):
        """All announced prefixes in preorder (parents before children)."""
        out = []
        stack = list(reversed(self._l_prefixes))
        while stack:
            p = stack.pop()
            out.append(p)
            stack.extend(reversed(self.children_of(p)))
        return out

    def children_of(self, prefix: Prefix):
        return list(self._children.get(prefix, ()))

    def __len__(self) -> int:
        return len(self.prefixes)

    def partition(self, view: str) -> Partition:
        """The disjoint interval cover for the requested prefix view."""
        try:
            return self._partitions[view]
        except KeyError:
            pass
        if view == LESS_SPECIFIC:
            part = Partition.from_prefixes(self._l_prefixes)
        elif view == MORE_SPECIFIC:
            from repro.bgp.deaggregate import partition_table

            forest = {p: self.children_of(p) for p in self.prefixes}
            part = Partition.from_prefixes(
                partition_table(forest, self._l_prefixes)
            )
        else:
            raise ValueError(f"unknown prefix view: {view!r}")
        self._partitions[view] = part
        return part
