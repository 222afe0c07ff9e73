"""ScanEngine batching and blocklist edge cases (no dataset fixture).

The engine scores flat walk coordinates against a wave's bitmaps, so
each test builds the bitmaps from an :class:`IntervalTargets` walk and
maps coordinates back to addresses itself for the reference oracle.
"""

import numpy as np
import pytest

from repro.census.addrset import AddressSet
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig, ScanEngine, ScanResult
from repro.scan.sharded import IntervalTargets
from repro.bgp.table import Prefix
from repro.core.addrspace import V6


class _ListTargets:
    """Fixed coordinate batches, for exact batch boundaries."""

    def __init__(self, arrays):
        self._arrays = [np.asarray(a) for a in arrays]

    def batches(self, batch_size):
        for array in self._arrays:
            for lo in range(0, len(array), batch_size):
                yield array[lo : lo + batch_size]


def _addresses_of(starts, ends, coords):
    """The test's own flat-coordinate -> address map."""
    offsets = np.concatenate([[0], np.cumsum(np.subtract(ends, starts))])
    idx = np.searchsorted(offsets, coords, side="right") - 1
    return np.asarray(starts)[idx] + (coords - offsets[idx])


def test_empty_target_stream():
    bitmaps = IntervalTargets(4).bitmaps(AddressSet([1, 2, 3]))
    result = ScanEngine().run(_ListTargets([]), bitmaps)
    assert result == ScanResult(0, 0, 0, 0, None)
    assert result.hitrate == 0.0


def test_empty_responsive_set():
    bitmaps = IntervalTargets(100).bitmaps(AddressSet())
    result = ScanEngine().run(_ListTargets([np.arange(100)]), bitmaps)
    assert result.probes_sent == 100
    assert result.responses == 0
    assert result.hitrate == 0.0


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
def test_batch_boundary_sizes(n):
    """Streams at, below, and above the batch size count identically."""
    engine = ScanEngine(EngineConfig(batch_size=64))
    targets = IntervalTargets(n, seed=5)
    result = engine.run(
        targets, targets.bitmaps(AddressSet(np.arange(0, n, 2)))
    )
    assert result.probes_sent == n
    assert result.responses == len(range(0, n, 2))
    assert result.batches >= -(-n // 64)


def test_blocklist_drops_and_accounts():
    # Coordinates 0..29 are addresses 100..129; 110..119 are blocked.
    walk = IntervalTargets((np.array([100]), np.array([130])))
    bitmaps = walk.bitmaps(
        AddressSet(np.arange(100, 130)), Blocklist([110], [120])
    )
    engine = ScanEngine(EngineConfig(batch_size=8))
    result = engine.run(_ListTargets([np.arange(30)]), bitmaps)
    assert result.blocked == 10
    assert result.probes_sent == 20
    assert result.responses == 20


def test_empty_blocklist_blocks_nothing():
    bitmaps = IntervalTargets(20).bitmaps(
        AddressSet(np.arange(0, 20, 4)), Blocklist([], [])
    )
    assert bitmaps.blocked is None
    engine = ScanEngine(EngineConfig(batch_size=8))
    result = engine.run(_ListTargets([np.arange(20)]), bitmaps)
    assert (result.probes_sent, result.responses, result.blocked) == (
        20, 5, 0
    )


def test_fully_blocked_batch():
    bitmaps = IntervalTargets(32).bitmaps(
        AddressSet(np.arange(32)), Blocklist([0], [100])
    )
    engine = ScanEngine(EngineConfig(batch_size=16))
    result = engine.run(_ListTargets([np.arange(32)]), bitmaps)
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
    coords = np.sort(np.concatenate(list(targets.batches(16))))
    assert np.array_equal(coords, np.arange(64 + 16))
    values = _addresses_of(
        [p.start for p in prefixes], [p.end for p in prefixes], coords
    )
    expected = np.concatenate(
        [np.arange(p.start, p.end) for p in prefixes]
    )
    assert np.array_equal(values, expected)


def test_fused_engine_matches_filter_then_membership_reference():
    """Differential: bitmap scoring == naive filter+membership.

    The engine scores coordinates against bitmaps built once from the
    truth set and blocklist, and takes batches in whatever order they
    arrive; it must reproduce the reference semantics (map each
    coordinate to its address, drop blocked probes, then count
    responsive members) exactly, across randomized gapped intervals,
    unsorted targets, duplicate probes, truth sets, blocklists, batch
    sizes and both address families.
    """
    rng = np.random.default_rng(12)
    for trial in range(60):
        sizes = rng.integers(1, 2000, size=int(rng.integers(1, 5)))
        gaps = rng.integers(0, 300, size=len(sizes))
        starts = np.cumsum(gaps + np.concatenate([[0], sizes[:-1]]))
        ends = starts + sizes
        space = int(ends[-1]) + 100
        total = int(sizes.sum())
        n = int(rng.integers(1, total + 1))
        # Odd trials draw with replacement: duplicate probes of one
        # responsive address must each count as a response.
        coords = rng.choice(
            total, size=n, replace=bool(trial % 2)
        ).astype(np.int64)
        targets = _addresses_of(starts, ends, coords)
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
        bitmaps = IntervalTargets((starts, ends)).bitmaps(truth, blocklist)
        engine = ScanEngine(EngineConfig(batch_size=batch_size))
        got = engine.run(_ListTargets([coords]), bitmaps)

        allowed = (
            targets
            if blocklist is None
            else targets[~blocklist.blocked_mask(targets)]
        )
        assert got.probes_sent == len(allowed), trial
        assert got.blocked == len(targets) - len(allowed), trial
        assert got.responses == int(truth.membership(allowed).sum()), trial

    # S16 arm: a v6 walk whose hitlist is the whole probe space, so
    # coordinate c is address base + (c << 40); no blocklist (v6
    # campaigns take none).
    base = 0x20010DB8 << 96
    for trial in range(20):
        space = int(rng.integers(100, 5000))
        n = int(rng.integers(1, space))
        offsets = rng.choice(space, size=n, replace=bool(trial % 2))
        hitlist = V6.encode([base + (o << 40) for o in range(space)])
        walk = IntervalTargets(
            (V6.encode([base]), V6.encode([base + (space << 40)])),
            hitlist=hitlist,
        )
        truth_offsets = rng.choice(
            space, size=int(rng.integers(0, space)), replace=False
        )
        truth = AddressSet(
            V6.encode([base + (int(o) << 40) for o in truth_offsets])
        )
        batch_size = int(rng.integers(1, 300))
        got = ScanEngine(EngineConfig(batch_size=batch_size)).run(
            _ListTargets([offsets]), walk.bitmaps(truth)
        )
        assert got.probes_sent == n, trial
        assert got.blocked == 0, trial
        expected = int(np.isin(offsets, truth_offsets).sum())
        assert got.responses == expected, trial
