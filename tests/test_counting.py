"""Vectorized counting vs trie reference on a handcrafted table."""

import numpy as np

from repro.bgp.deaggregate import partition_table, split_range
from repro.bgp.table import (
    LESS_SPECIFIC,
    MORE_SPECIFIC,
    Partition,
    Prefix,
    RoutingTable,
)
from repro.census.addrset import AddressSet
from repro.core.clustering import refine_partition
from repro.core.density import count_with_trie
from repro.core.tass import select_by_density


def _table():
    a = Prefix.from_cidr("10.0.0.0/16")
    b = Prefix.from_cidr("10.2.0.0/15")
    c = Prefix.from_cidr("192.168.0.0/24")
    # b is deaggregated: one /17 child and one /20 grandchild level.
    b1 = Prefix.from_cidr("10.2.128.0/17")
    b1a = Prefix.from_cidr("10.2.128.0/20")
    return RoutingTable([a, b, c], {b: [b1], b1: [b1a]})


def test_count_addresses_handcrafted():
    table = _table()
    partition = table.partition(LESS_SPECIFIC)
    addresses = AddressSet(
        [
            Prefix.from_cidr("10.0.1.0/32").network,
            Prefix.from_cidr("10.0.2.0/32").network,
            Prefix.from_cidr("10.2.128.5/32").network,
            Prefix.from_cidr("192.168.0.200/32").network,
        ]
    )
    counts = partition.count_addresses(addresses.values)
    assert counts.tolist() == [2, 1, 1]
    assert counts.sum() == len(addresses)


def test_trie_agrees_with_vectorized_counting():
    table = _table()
    rng = np.random.default_rng(0)
    for view in (LESS_SPECIFIC, MORE_SPECIFIC):
        partition = table.partition(view)
        # Random addresses inside the announced space plus some outside.
        inside = np.concatenate(
            [
                partition.starts[i]
                + rng.integers(0, partition.sizes[i], 50)
                for i in range(len(partition))
            ]
        )
        outside = np.array(
            [0, Prefix.from_cidr("172.30.0.1/32").network, (1 << 32) - 1]
        )
        sample = AddressSet(np.concatenate([inside, outside]))
        vectorized = partition.count_addresses(sample.values)
        trie = count_with_trie(sample, partition)
        assert np.array_equal(vectorized, trie)
        assert vectorized.sum() == len(sample) - len(outside)


def test_count_addresses_on_small_preset(small_dataset):
    partition = small_dataset.topology.table.partition(LESS_SPECIFIC)
    snapshot = small_dataset.series_for("http").seed_snapshot
    counts = partition.count_addresses(snapshot.addresses.values)
    assert counts.sum() == len(snapshot.addresses)


def test_trie_agrees_on_small_preset(small_dataset):
    partition = small_dataset.topology.table.partition(LESS_SPECIFIC)
    snapshot = small_dataset.series_for("http").seed_snapshot
    # Every 37th address: the trie is orders of magnitude slower.
    sample = AddressSet(snapshot.addresses.values[::37])
    counts = count_with_trie(sample, partition)
    assert np.array_equal(counts, partition.count_addresses(sample.values))


def test_more_specific_partition_preserves_space():
    table = _table()
    forest = {p: table.children_of(p) for p in table.prefixes}
    parts = partition_table(forest, table.l_prefixes)
    assert sum(p.size for p in parts) == sum(
        p.size for p in table.l_prefixes
    )
    # Parts are sorted and disjoint.
    for left, right in zip(parts, parts[1:]):
        assert left.end <= right.start
    # The deaggregated children survive as-is.
    assert Prefix.from_cidr("10.2.128.0/20") in parts


def test_split_range_covers_exactly():
    parts = list(split_range(5, 131))
    assert sum(p.size for p in parts) == 126
    assert parts[0].start == 5
    assert parts[-1].end == 131


def test_select_by_density_phi_thresholds():
    partition = Partition.from_prefixes(
        [
            Prefix.from_cidr("10.0.0.0/24"),  # 10 hosts in 256 -> dense
            Prefix.from_cidr("10.1.0.0/16"),  # 20 hosts in 65536 -> sparse
            Prefix.from_cidr("10.2.0.0/24"),  # empty
        ]
    )
    counts = np.array([10, 20, 0])
    full = select_by_density(partition, counts, 1.0)
    assert len(full) == 2  # the empty prefix is never selected
    assert full.host_coverage == 1.0
    partial = select_by_density(partition, counts, 0.3)
    assert len(partial) == 1  # the dense /24 alone covers 1/3 of hosts
    assert partial.selected_address_count() == 256


def test_refine_partition_stays_within_sub_slash24_parts():
    # Parts smaller than a /24: the refinement must clip to them, not
    # round out to whole /24 blocks.
    partition = Partition.from_prefixes(
        [Prefix.from_cidr("10.0.0.0/26"), Prefix.from_cidr("10.0.0.64/26")]
    )
    base = Prefix.from_cidr("10.0.0.0/26").network
    addresses = AddressSet([base + 5, base + 70])
    clustered = refine_partition(addresses, partition, max_gap=1)
    assert clustered.address_count() <= partition.address_count()
    # Every clustered interval lies inside the original partition.
    assert partition.membership(clustered.starts).all()
    assert partition.membership(clustered.ends - 1).all()
    assert clustered.count_addresses(addresses.values).sum() == len(addresses)


def test_refine_partition_clusters_occupied_slash24s():
    partition = Partition.from_prefixes(
        [Prefix.from_cidr("10.0.0.0/16")]
    )
    base = Prefix.from_cidr("10.0.0.0/16").network
    # Occupied /24 blocks 0, 1, 3 (gap of one empty block) and 10.
    addresses = AddressSet(
        [base + 5, base + (1 << 8) + 7, base + (3 << 8) + 1, base + (10 << 8)]
    )
    clustered = refine_partition(addresses, partition, max_gap=1)
    assert len(clustered) == 2  # blocks 0-3 merge; block 10 stands alone
    assert clustered.address_count() == 4 * 256 + 256
    counts = clustered.count_addresses(addresses.values)
    assert counts.sum() == len(addresses)
