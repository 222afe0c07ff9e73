"""Shared test fixtures: a hand-built miniature census dataset, the
generated ``small`` preset, the v6 sampling draws, the cyclic walk and
the exploration draws re-derived from their definitions, a checkpoint
manifest with every field the store checks, and a fixture that clears
every environment knob.

The orchestrator suites need whole campaigns to run in milliseconds, so
they use a four-prefix world with a few thousand hosts instead of a
generated preset — built directly from the loader's dataclasses, which
also exercises the dataset API surface without the synth generator.
A few invariance tests (counting, shard count, executor, checkpointing)
re-assert on ``small_dataset`` what they prove on hand-built worlds.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

import repro.env as env
from repro.bgp.table import Prefix, RoutingTable
from repro.census.loader import (
    CensusDataset,
    Snapshot,
    SnapshotSeries,
    Topology,
    get_dataset,
)
from repro.orchestrator.checkpoint import RECORD_FIELDS


def build_mini_dataset(
    seed: int = 7, months: int = 4, hosts: int = 3000
) -> CensusDataset:
    """A tiny deterministic world: two dense prefixes, two sparse ones."""
    prefixes = [
        Prefix.from_cidr(c)
        for c in ("1.0.0.0/18", "2.4.0.0/16", "5.5.0.0/17", "9.9.9.0/24")
    ]
    table = RoutingTable(prefixes)
    partition = table.partition("less-specific")
    rng = np.random.default_rng(seed)
    weights = np.array([5.0, 0.5, 0.2, 8.0])
    probs = weights / weights.sum()
    snapshots = []
    for month in range(months):
        counts = rng.multinomial(hosts, probs)
        addresses = np.unique(
            np.concatenate(
                [
                    partition.starts[i]
                    + rng.integers(0, partition.sizes[i], int(c))
                    for i, c in enumerate(counts)
                ]
            )
        )
        snapshots.append(
            Snapshot(
                addresses,
                np.arange(len(addresses)),
                np.zeros(len(addresses), dtype=np.int8),
                month=month,
            )
        )
    series = {"http": SnapshotSeries("http", snapshots)}
    asns = {p: 64512 + i for i, p in enumerate(prefixes)}
    topology = Topology(table, asns, [(1 << 24, 10 << 24)])
    return CensusDataset("mini", seed, topology, series)


#: Every knob ``repro.env`` reads but the dataset cache directory, which
#: moves where a preset is cached and changes no result.
KNOBS = tuple(
    getattr(env, name)
    for name in env.__all__
    if name.startswith("ENV_") and name != "ENV_DATA_DIR"
)


@pytest.fixture
def clear_knobs(monkeypatch):
    """Unset every :data:`KNOBS` entry: the test sees the built-in
    defaults whatever the environment it was started in holds."""
    for knob in KNOBS:
        monkeypatch.delenv(knob, raising=False)


@pytest.fixture
def mini_dataset() -> CensusDataset:
    return build_mini_dataset()


@pytest.fixture(scope="session")
def small_dataset() -> CensusDataset:
    """The seed-0 ``small`` preset; the first run generates and caches it
    under the data directory."""
    return get_dataset(preset="small", seed=0)


def v6_draws(seed: int, i: int, size: int) -> tuple[int, int]:
    """Interval ``i``'s affine sampling ``(b, a)`` for walk ``seed``.

    The definition the v6 walk must follow, in Python ints: sample
    ``j`` of an interval of ``size`` addresses is
    ``start + (b + a*j) % size``.
    """
    if size <= 1:
        return 0, 1
    rng = random.Random(f"v6-sample:{seed}:{i}")
    b = rng.randrange(size)
    a = rng.randrange(1, size) | 1
    while math.gcd(a, size) != 1:
        a = (a + 2) % size or 1
    return b, a


def reference_walk(perm, shards: int = 1, batch_size=None, positions=None):
    """Each shard's batches of ``perm``'s walk, from its definition.

    Reads only ``perm.prime``, ``perm._gen`` and ``perm._start``, and
    steps the group with Python ints: no power table, no ``_mulmod``,
    no batching and no ``split``.  The element at cycle position ``j``
    is ``start * gen^j mod prime``; it is coordinate ``element - 1``
    when ``element <= n`` (else skipped), and it belongs to shard
    ``j mod shards`` (the zmap sharding construction).  A shard's
    ``k``-th position falls in its batch ``k // m``, with ``m`` the
    smaller of ``batch_size`` and the shard's position count; a batch
    that keeps no coordinate is empty.  Only the first ``positions``
    cycle positions are walked (all ``prime - 1`` by default).
    """
    prime, n = perm.prime, perm.n
    end = prime - 1 if positions is None else min(positions, prime - 1)
    widths = []
    for shard in range(shards):
        total = len(range(shard, prime - 1, shards))
        widths.append(max(1, min(batch_size or total, total)))
    lanes = [[] for _ in range(shards)]
    element = perm._start
    for j in range(end):
        shard, k = j % shards, j // shards
        batches = lanes[shard]
        while len(batches) <= k // widths[shard]:
            batches.append([])
        if element <= n:
            batches[-1].append(element - 1)
        element = element * perm._gen % prime
    return lanes


def explore_reference(rng, partition, selected, values, n):
    """``explore_unselected``'s answer the long way: sort the ``n``
    draws over the unselected space's flat coordinates, map each to its
    address, and keep the responsive ``values`` (sorted) among them.
    Returns ``(probe_count, unique_hits, fresh_prefix_indices)``."""
    unselected = np.flatnonzero(~selected)
    sizes = partition.sizes[unselected]
    total = int(sizes.sum())
    empty = np.empty(0, dtype=np.int64)
    if total == 0 or n == 0:
        return 0, empty, empty
    bounds = np.cumsum(sizes)
    draws = np.sort(rng.integers(0, total, size=n))
    slot = np.searchsorted(bounds, draws, side="right")
    offset = draws - (bounds[slot] - sizes[slot])
    probes = partition.starts[unselected[slot]] + offset
    if len(values) == 0:
        return n, empty, empty
    idx = np.searchsorted(probes, values).clip(max=n - 1)
    hits = values[probes[idx] == values]
    parts = np.unique(partition.index_of(hits))
    parts = parts[parts >= 0]
    return n, hits, parts[~selected[parts]]


def wave_record(**fields) -> dict:
    """A manifest ``records`` entry of zeros, with ``fields`` overriding."""
    return {name: kind() for name, kind in RECORD_FIELDS.items()} | fields


def checkpoint_manifest(**fields) -> dict:
    """A manifest holding every field ``CheckpointStore`` checks, with
    ``fields`` added or overriding."""
    return dict(
        spec={"name": "checkpoint-test", "waves": 1},
        announced=0,
        wave=0,
        shard=0,
        wave_planned=False,
        wave_reseeded=False,
        wave_attempts=0,
        records=[],
        shard_results=[],
        rng_state={},
        hitlist_month=0,
        finished=False,
        budget_exhausted=False,
    ) | fields


def byte_edits(max_position: int, min_size: int = 0):
    """Up to six ``(position, operation, byte)`` edits for
    :func:`mutate_bytes`."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=max_position),
            st.sampled_from(["set", "insert", "delete", "truncate"]),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=min_size,
        max_size=6,
    )


def mutate_bytes(data: bytes, edits) -> bytes:
    """``data`` with ``edits`` applied in order (positions wrap)."""
    buf = bytearray(data)
    for position, operation, byte in edits:
        at = position % (len(buf) + 1)
        if operation == "set" and at < len(buf):
            buf[at] = byte
        elif operation == "insert":
            buf.insert(at, byte)
        elif operation == "delete" and at < len(buf):
            del buf[at]
        elif operation == "truncate":
            del buf[at:]
    return bytes(buf)
