"""Shared test fixtures: a hand-built miniature census dataset, the
generated ``small`` preset, and the v6 sampling draws re-derived from
their definition.

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

from repro.bgp.table import Prefix, RoutingTable
from repro.census.loader import (
    CensusDataset,
    Snapshot,
    SnapshotSeries,
    Topology,
    get_dataset,
)


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
