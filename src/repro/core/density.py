"""Per-prefix density counting — the slow radix-trie reference.

The production path is ``Partition.count_addresses`` (two vectorized
``searchsorted`` passes).  This module keeps the classic alternative —
longest-prefix-matching every single address through a binary radix
trie, one Python iteration per address — as the correctness oracle the
differential tests (``tests/test_counting.py``, ``tests/test_backends.py``)
check the production path against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "build_trie",
    "trie_insert",
    "count_lookups",
    "count_with_trie",
    "count_trie",
    "lookup",
]

# Trie nodes are plain 3-slot lists [zero_child, one_child, part_index]
# — the cheapest mutable structure CPython offers for this.
_ZERO, _ONE, _INDEX = 0, 1, 2


def trie_insert(root, network: int, length: int, index: int,
                bits: int = 32) -> None:
    """Insert one prefix, mapping its subtree to ``index``.

    ``bits`` is the address width (32 for IPv4, 128 for IPv6).
    """
    node = root
    for bit in range(bits - 1, bits - 1 - length, -1):
        side = (network >> bit) & 1
        child = node[side]
        if child is None:
            child = [None, None, None]
            node[side] = child
        node = child
    node[_INDEX] = index


def build_trie(partition):
    """Build a binary radix trie mapping addresses to partition indices."""
    root = [None, None, None]
    bits = partition.space.bits
    for index, prefix in enumerate(partition.prefixes):
        trie_insert(root, prefix.network, prefix.length, index, bits=bits)
    return root


def lookup(root, address: int, bits: int = 32):
    """Longest-prefix-match one address; returns the part index or None."""
    node = root
    bit = bits - 1
    best = None
    while node is not None:
        if node[_INDEX] is not None:
            best = node[_INDEX]
        if bit < 0:
            break
        node = node[(address >> bit) & 1]
        bit -= 1
    return best


def count_lookups(root, values, size: int, bits: int = 32) -> np.ndarray:
    """LPM every address through the trie; per-index occupancy counts."""
    counts = np.zeros(size, dtype=np.int64)
    arr = np.asarray(values)
    if arr.dtype.kind == "S":
        from repro.core.addrspace import space_of

        addresses = space_of(arr).decode(arr)
    else:
        addresses = map(int, arr)
    for address in addresses:
        index = lookup(root, address, bits)
        if index is not None:
            counts[index] += 1
    return counts


def count_with_trie(addresses, partition) -> np.ndarray:
    """Per-prefix occupancy via per-address trie walks (slow reference).

    Semantically identical to ``partition.count_addresses`` but walks
    the trie once per address in a Python-level loop — the per-packet
    cost model of a naive scanner implementation.
    """
    values = getattr(addresses, "values", addresses)
    return count_lookups(
        build_trie(partition), values, len(partition),
        bits=partition.space.bits,
    )


def count_trie(starts, ends, values) -> np.ndarray:
    """Radix-trie counting over arbitrary ``[start, end)`` intervals.

    Each interval is decomposed into its minimal aligned CIDR cover
    (:func:`repro.bgp.deaggregate.split_range`), the cover is inserted
    into a binary trie mapping to the *source interval* index, and
    every address is longest-prefix-matched one Python iteration at a
    time — :func:`count_with_trie` generalised beyond prefix-shaped
    partitions, with the signature of
    :func:`repro.bgp.table.count_in_intervals`.
    """
    from repro.bgp.deaggregate import split_range
    from repro.core.addrspace import space_of

    starts = np.asarray(starts)
    if starts.dtype.kind == "S":
        space = space_of(starts)
        bits = space.bits
        start_ints = space.decode(starts)
        end_ints = space.decode(np.asarray(ends))
    else:
        bits = 32
        start_ints = np.asarray(starts, dtype=np.int64).tolist()
        end_ints = np.asarray(ends, dtype=np.int64).tolist()
    root = [None, None, None]
    for index, (start, end) in enumerate(zip(start_ints, end_ints)):
        for prefix in split_range(start, end, bits):
            trie_insert(root, prefix.network, prefix.length, index, bits)
    return count_lookups(root, values, len(start_ints), bits)
