"""Cross-wave count reuse and interval coalescing.

Two invariants guard the PR-4 hot-path work:

- the :class:`~repro.bgp.backends.CountCache` must be a pure memo —
  identical arrays in, the *same* counts out, never a stale or wrong
  entry, bounded memory;
- a :class:`~repro.core.tass.Selection`'s ``count_in`` and
  ``membership`` must match the interval trie oracle on both the
  cached and the direct counting path, even when its prefixes abut.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.backends import COUNT_CACHE, CountCache
from repro.bgp.table import (
    Partition,
    coalesce_intervals,
    count_in_intervals,
)
from repro.core.density import count_trie
from repro.core.tass import Selection


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _partition() -> Partition:
    # Adjacent runs on purpose: [0,10)+[10,20) coalesce, [25,40)+[40,41)
    # coalesce, [50,60) stands alone.
    return Partition([0, 10, 25, 40, 50], [10, 20, 40, 41, 60])


# ---------------------------------------------------------------------------
# CountCache semantics
# ---------------------------------------------------------------------------


class TestCountCache:
    def test_hit_returns_the_same_array(self):
        cache = CountCache()
        part = _partition()
        values = _frozen([1, 5, 11, 39, 55])
        first = cache.counts(part, values)
        second = cache.counts(part, values)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert not first.flags.writeable
        assert first.tolist() == count_in_intervals(
            part.starts, part.ends, values
        ).tolist()

    def test_distinct_values_objects_are_distinct_entries(self):
        cache = CountCache()
        part = _partition()
        a = _frozen([1, 2, 3])
        b = _frozen([1, 2, 3])  # equal content, different identity
        cache.counts(part, a)
        cache.counts(part, b)
        assert cache.misses == 2 and cache.hits == 0

    def test_writable_arrays_bypass_the_cache(self):
        cache = CountCache()
        part = _partition()
        values = np.asarray([1, 5, 11], dtype=np.int64)  # writable
        assert not CountCache.cacheable(values)
        cache.counts(part, values)
        cache.counts(part, values)
        assert len(cache) == 0 and cache.misses == 0

    def test_lru_bound_evicts_oldest(self):
        cache = CountCache(maxsize=2)
        part = _partition()
        frozen = [_frozen([i]) for i in range(3)]
        for arr in frozen:
            cache.counts(part, arr)
        assert len(cache) == 2
        cache.counts(part, frozen[0])  # evicted -> fresh miss
        assert cache.misses == 4

    def test_cache_does_not_keep_snapshots_alive(self):
        import gc
        import weakref

        cache = CountCache()
        part = _partition()
        values = _frozen([1, 5, 11])
        watcher = weakref.ref(values)
        cache.counts(part, values)
        assert len(cache) == 1
        del values
        gc.collect()
        # The cached entry held only a weakref: the snapshot is gone,
        # and the next insert sweeps the dead entry out.
        assert watcher() is None
        other = _frozen([2, 4])
        cache.counts(part, other)
        assert len(cache) == 1

    def test_recycled_id_never_serves_stale_counts(self):
        cache = CountCache()
        part = _partition()
        values = _frozen([1, 5, 11])
        first = cache.counts(part, values).tolist()
        # Simulate an id collision: a dead entry whose key survives.
        key = next(iter(cache._entries))
        stale = cache._entries[key]
        fresh = _frozen([55])
        cache._entries[(id(part), id(fresh))] = stale
        got = cache.counts(part, fresh)
        assert got.tolist() == count_in_intervals(
            part.starts, part.ends, fresh
        ).tolist()
        assert got.tolist() != first

    def test_partition_count_addresses_routes_through_shared_cache(self):
        part = _partition()
        values = _frozen([1, 5, 11, 39, 55])
        COUNT_CACHE.clear()
        first = part.count_addresses(values)
        second = part.count_addresses(values)
        assert first is second
        assert COUNT_CACHE.hits >= 1
        COUNT_CACHE.clear()


# ---------------------------------------------------------------------------
# Interval coalescing
# ---------------------------------------------------------------------------


def test_coalesce_merges_adjacent_and_overlapping():
    starts, ends = coalesce_intervals(
        [0, 10, 25, 40, 50], [10, 20, 40, 41, 60]
    )
    assert starts.tolist() == [0, 25, 50]
    assert ends.tolist() == [20, 41, 60]
    # Nested/overlapping runs collapse too (the Blocklist case).
    starts, ends = coalesce_intervals([0, 2, 30], [20, 5, 40])
    assert starts.tolist() == [0, 30]
    assert ends.tolist() == [20, 40]


intervals_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=64),
    ),
    min_size=1,
    max_size=30,
)


def _disjoint_partition(raw) -> Partition:
    """Sorted disjoint (often adjacent) intervals from raw (gap, size)."""
    starts, ends, cursor = [], [], 0
    for gap, size in raw:
        cursor += gap  # gap 0 => adjacent to the previous interval
        starts.append(cursor)
        cursor += size
        ends.append(cursor)
    return Partition(starts, ends)


@settings(max_examples=50, deadline=None)
@given(
    raw=intervals_strategy,
    pick=st.data(),
)
def test_coalesced_selection_identical_across_backends(raw, pick):
    partition = _disjoint_partition(raw)
    k = len(partition)
    indices = pick.draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=1,
            max_size=k,
            unique=True,
        )
    )
    selection = Selection(partition, indices, 0, 0, 1.0)
    hi = int(partition.ends[-1]) + 10
    values = np.unique(
        np.asarray(
            pick.draw(
                st.lists(
                    st.integers(min_value=0, max_value=hi), max_size=80
                )
            ),
            dtype=np.int64,
        )
    )

    def trie_total(subset):
        return int(count_trie(selection.starts, selection.ends, subset).sum())

    # Membership is exact iff the trie finds every value it keeps
    # inside the selection and none of the values it drops.
    inside = selection.membership(values)
    assert trie_total(values[inside]) == int(inside.sum())
    assert trie_total(values[~inside]) == 0

    expected = trie_total(values)
    # Writable values: the direct counting path.
    assert selection.count_in(values) == expected
    # Frozen values: the shared full-partition cache path.
    assert selection.count_in(_frozen(values.copy())) == expected
