"""Cross-wave reuse of per-interval counts.

Every layer of the pipeline ultimately answers the same question: given
a sorted, duplicate-free address array and a sorted disjoint
``[start, end)`` interval set, how many addresses fall in each interval?
The answer is always the two-``searchsorted`` pass
(:func:`repro.bgp.table.count_in_intervals`); this module memoizes it
per immutable snapshot in the process-wide :data:`COUNT_CACHE`.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.bgp.table import count_in_intervals

__all__ = ["CountCache", "COUNT_CACHE"]


class CountCache:
    """Memoized per-partition interval counts, keyed on object identity.

    Every wave of a campaign — and every strategy, analysis, and
    accounting pass sharing a snapshot — asks the same question: the
    per-interval occupancy of one immutable sorted address array over
    one partition.  This cache answers it once per
    ``(partition, values)`` pair and hands the same read-only counts
    array to every caller, so ``TassStrategy.plan``,
    ``hold_or_reseed``, ``selection_stats`` and ``simulate_campaign``
    share a single two-``searchsorted`` pass per snapshot instead of
    recounting from scratch.

    Keys are object identities; entries hold the partition and values
    through **weak references**, so the cache never extends a
    snapshot's lifetime — when the owner drops a snapshot, its entries
    die with it (only the small per-interval counts arrays linger,
    bounded by the LRU size).  A recycled ``id`` can therefore collide
    with a dead entry's key; every lookup guards against that by
    re-checking identity through the weakrefs and treating any
    mismatch as a miss.  Only **read-only** ndarrays are cached — a
    writable array could be mutated after insertion and go stale, so
    it bypasses the cache entirely.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()

    @staticmethod
    def cacheable(values) -> bool:
        """Safe to memoize: an immutable (read-only) 1-D ndarray."""
        return (
            isinstance(values, np.ndarray)
            and values.ndim == 1
            and not values.flags.writeable
        )

    def counts(self, partition, values) -> np.ndarray:
        """Per-interval occupancy of ``values`` over ``partition``.

        Identical to :func:`count_in_intervals` over the partition;
        uncacheable inputs fall straight through to it.
        """
        if not self.cacheable(values):
            return count_in_intervals(partition.starts, partition.ends, values)
        key = (id(partition), id(values))
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0]() is partition
            and entry[1]() is values
        ):
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[2]
        counts = count_in_intervals(partition.starts, partition.ends, values)
        counts = np.asarray(counts, dtype=np.int64)
        counts.setflags(write=False)
        self.misses += 1
        try:
            ref_partition = weakref.ref(partition)
            ref_values = weakref.ref(values)
        except TypeError:
            # Not weak-referenceable: serve the counts uncached rather
            # than pin the objects alive with strong references.
            self._entries.pop(key, None)
            return counts
        self._entries[key] = (ref_partition, ref_values, counts)
        # Sweep entries whose keys died before spending LRU budget on
        # them; then bound whatever remains.
        dead = [
            k
            for k, (rp, rv, _) in self._entries.items()
            if rp() is None or rv() is None
        ]
        for k in dead:
            del self._entries[k]
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return counts

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache every ``Partition.count_addresses`` call
#: (and everything layered on it) routes through.
COUNT_CACHE = CountCache()
