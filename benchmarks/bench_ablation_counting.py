"""Ablation: per-prefix counting, vectorized vs the radix-trie oracle.

TASS step 2 counts responsive addresses per prefix.  The library uses a
vectorized two-``searchsorted`` pass over the sorted snapshot; the
classic alternative is longest-prefix-matching every address in a radix
trie.  This test asserts the two agree on the small preset.
"""

import numpy as np

from repro.bgp.table import LESS_SPECIFIC
from repro.census.addrset import AddressSet
from repro.core.density import count_with_trie


def test_counting_vectorized(dataset):
    partition = dataset.topology.table.partition(LESS_SPECIFIC)
    snapshot = dataset.series_for("http").seed_snapshot
    counts = partition.count_addresses(snapshot.addresses.values)
    assert counts.sum() == len(snapshot.addresses)


def test_counting_trie(dataset):
    partition = dataset.topology.table.partition(LESS_SPECIFIC)
    snapshot = dataset.series_for("http").seed_snapshot
    # The trie path is orders of magnitude slower; subsample so the
    # test stays tractable, then verify agreement on the sample.
    sample = AddressSet(snapshot.addresses.values[::37])
    counts = count_with_trie(sample, partition)
    assert np.array_equal(counts, partition.count_addresses(sample.values))
