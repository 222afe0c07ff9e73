"""Differential oracle for the one counting path.

The two-``searchsorted`` pass (:func:`repro.bgp.table.count_in_intervals`,
and ``Partition.count_addresses`` layered on it) must agree *exactly*
with the pure-Python interval trie (:func:`repro.core.density.count_trie`)
on randomized routing tables, unaligned intervals and empty inputs.
"""

import numpy as np
import pytest

from repro.bgp.table import (
    LESS_SPECIFIC,
    MORE_SPECIFIC,
    Prefix,
    RoutingTable,
    count_in_intervals,
)
from repro.census.addrset import AddressSet
from repro.core.density import count_trie, count_with_trie


def _random_table(rng) -> RoutingTable:
    """A random forest of disjoint l-prefixes with nested children."""
    l_prefixes = []
    children = {}
    cursor = int(rng.integers(1, 90)) << 24
    for _ in range(int(rng.integers(3, 12))):
        length = int(rng.integers(12, 25))
        size = 1 << (32 - length)
        cursor = -(-cursor // size) * size  # align up
        parent = Prefix(cursor, length)
        l_prefixes.append(parent)
        cursor += size + int(rng.integers(0, 4)) * size
        if length <= 22 and rng.random() < 0.7:
            child = Prefix(parent.network, length + 2)
            children[parent] = [child]
            if rng.random() < 0.5:
                children[child] = [Prefix(child.network, length + 4)]
    return RoutingTable(l_prefixes, children)


def _random_addresses(rng, partition) -> np.ndarray:
    inside = np.concatenate(
        [
            partition.starts[i]
            + rng.integers(0, partition.sizes[i], int(rng.integers(0, 80)))
            for i in range(len(partition))
        ]
        + [np.zeros(0, dtype=np.int64)]
    )
    outside = rng.integers(0, 1 << 32, 40)
    return AddressSet(np.concatenate([inside, outside])).values


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("view", [LESS_SPECIFIC, MORE_SPECIFIC])
def test_all_backends_agree_with_trie_on_random_tables(seed, view):
    rng = np.random.default_rng(seed)
    partition = _random_table(rng).partition(view)
    values = _random_addresses(rng, partition)
    oracle = count_trie(partition.starts, partition.ends, values)
    # The prefix-shaped trie reference agrees with the interval trie.
    assert np.array_equal(oracle, count_with_trie(values, partition))
    counts = count_in_intervals(partition.starts, partition.ends, values)
    assert np.array_equal(counts, oracle)
    assert np.array_equal(partition.count_addresses(values), oracle)


@pytest.mark.parametrize("seed", range(4))
def test_backends_agree_on_unaligned_intervals(seed):
    """Counting must handle arbitrary [start, end), not just CIDRs."""
    rng = np.random.default_rng(100 + seed)
    edges = np.sort(rng.choice(1 << 20, size=14, replace=False))
    starts, ends = edges[0::2], edges[1::2]
    values = AddressSet(rng.integers(0, 1 << 20, 3000)).values
    oracle = count_trie(starts, ends, values)
    assert np.array_equal(count_in_intervals(starts, ends, values), oracle)


@pytest.mark.parametrize(
    "count",
    [count_in_intervals, count_trie],
    ids=["searchsorted", "trie"],
)
def test_backend_handles_empty_inputs(count):
    empty = np.empty(0, dtype=np.int64)
    assert count(empty, empty, empty).tolist() == []
    starts = np.array([10], dtype=np.int64)
    ends = np.array([20], dtype=np.int64)
    assert count(starts, ends, empty).tolist() == [0]
