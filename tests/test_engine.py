"""ScanEngine batching and blocklist edge cases (no dataset fixture)."""

import numpy as np
import pytest

from repro.census.addrset import AddressSet
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig, ScanEngine, ScanResult
from repro.scan.sharded import IntervalTargets
from repro.bgp.table import Prefix
from repro.core.addrspace import V6


class _ListTargets:
    """Fixed batches, for driving the engine with exact boundaries."""

    def __init__(self, arrays):
        self._arrays = [np.asarray(a) for a in arrays]

    def batches(self, batch_size):
        for array in self._arrays:
            for lo in range(0, len(array), batch_size):
                yield array[lo : lo + batch_size]


def test_empty_target_stream():
    result = ScanEngine().run(_ListTargets([]), AddressSet([1, 2, 3]))
    assert result == ScanResult(0, 0, 0, 0, None)
    assert result.hitrate == 0.0


def test_empty_responsive_set():
    result = ScanEngine().run(
        _ListTargets([np.arange(100)]), AddressSet()
    )
    assert result.probes_sent == 100
    assert result.responses == 0
    assert result.hitrate == 0.0


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
def test_batch_boundary_sizes(n):
    """Streams at, below, and above the batch size count identically."""
    engine = ScanEngine(EngineConfig(batch_size=64))
    result = engine.run(
        IntervalTargets(n, seed=5), AddressSet(np.arange(0, n, 2))
    )
    assert result.probes_sent == n
    assert result.responses == len(range(0, n, 2))
    assert result.batches >= -(-n // 64)


def test_blocklist_drops_and_accounts():
    blocklist = Blocklist([10], [20])
    engine = ScanEngine(EngineConfig(batch_size=8), blocklist)
    result = engine.run(
        _ListTargets([np.arange(30)]), AddressSet(np.arange(30))
    )
    assert result.blocked == 10
    assert result.probes_sent == 20
    assert result.responses == 20


def test_empty_blocklist_blocks_nothing():
    engine = ScanEngine(EngineConfig(batch_size=8), Blocklist([], []))
    result = engine.run(
        _ListTargets([np.arange(20)]), AddressSet(np.arange(0, 20, 4))
    )
    assert (result.probes_sent, result.responses, result.blocked) == (
        20, 5, 0
    )


def test_fully_blocked_batch():
    blocklist = Blocklist([0], [100])
    engine = ScanEngine(EngineConfig(batch_size=16), blocklist)
    result = engine.run(
        _ListTargets([np.arange(32)]), AddressSet(np.arange(32))
    )
    assert result.probes_sent == 0
    assert result.responses == 0
    assert result.blocked == 32
    assert result.batches == 2
    assert result.hitrate == 0.0


def test_prefix_targets_visit_prefix_space_exactly_once():
    prefixes = [
        Prefix.from_cidr("10.0.0.0/26"),
        Prefix.from_cidr("10.0.1.0/28"),
    ]
    targets = IntervalTargets(prefixes, seed=2)
    assert targets.address_count() == 64 + 16
    values = np.sort(np.concatenate(list(targets.batches(16))))
    expected = np.concatenate(
        [np.arange(p.start, p.end) for p in prefixes]
    )
    assert np.array_equal(values, expected)


def test_fused_engine_matches_filter_then_membership_reference():
    """Differential: the fused one-pass batch == naive filter+membership.

    The engine masks blocked probes out of its hits instead of
    filtering the batch, and takes batches in whatever order they
    arrive; it must reproduce the reference semantics (drop blocked
    probes, then count responsive members) exactly, across randomized
    unsorted targets, duplicate probes, truth sets, blocklists, batch
    sizes and both address families.
    """
    rng = np.random.default_rng(12)
    for trial in range(60):
        space = int(rng.integers(100, 5000))
        n = int(rng.integers(1, space))
        # Odd trials draw with replacement: duplicate probes of one
        # responsive address must each count as a response.
        targets = rng.choice(
            space, size=n, replace=bool(trial % 2)
        ).astype(np.int64)
        truth = AddressSet(
            rng.choice(
                space, size=int(rng.integers(0, space)), replace=False
            )
        )
        n_blocks = int(rng.integers(0, 4))
        block_starts = rng.integers(0, space, size=n_blocks)
        block_ends = block_starts + rng.integers(1, 200, size=n_blocks)
        blocklist = (
            Blocklist(block_starts, block_ends) if n_blocks else None
        )
        batch_size = int(rng.integers(1, 300))
        engine = ScanEngine(EngineConfig(batch_size=batch_size), blocklist)
        got = engine.run(_ListTargets([targets]), truth)

        allowed = (
            targets
            if blocklist is None
            else targets[blocklist.allowed_mask(targets)]
        )
        assert got.probes_sent == len(allowed), trial
        assert got.blocked == len(targets) - len(allowed), trial
        assert got.responses == int(truth.membership(allowed).sum()), trial

    # S16 arm: the v6 wire form, no blocklist (v6 campaigns take none).
    base = 0x20010DB8 << 96
    for trial in range(20):
        space = int(rng.integers(100, 5000))
        n = int(rng.integers(1, space))
        offsets = rng.choice(space, size=n, replace=bool(trial % 2))
        targets = V6.encode([base + (int(o) << 40) for o in offsets])
        truth_offsets = rng.choice(
            space, size=int(rng.integers(0, space)), replace=False
        )
        truth = AddressSet(
            V6.encode([base + (int(o) << 40) for o in truth_offsets])
        )
        batch_size = int(rng.integers(1, 300))
        got = ScanEngine(EngineConfig(batch_size=batch_size)).run(
            _ListTargets([targets]), truth
        )
        assert got.probes_sent == n, trial
        assert got.blocked == 0, trial
        expected = int(np.isin(offsets, truth_offsets).sum())
        assert got.responses == expected, trial
