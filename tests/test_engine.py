"""ScanEngine batching and blocklist edge cases (no dataset fixture).

The engine scores flat walk coordinates against a wave's bitmaps, so
each test builds the bitmaps from an :class:`IntervalTargets` walk and
maps coordinates back to addresses itself for the reference oracle.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census.addrset import AddressSet
from repro.orchestrator import cli
from repro.core.tass import TassStrategy
from repro.scan.blocklist import Blocklist, default_blocklist
from repro.scan import executors
from repro.scan.distributed import Coordinator
from repro.scan.engine import (
    EngineConfig,
    ScanBitmaps,
    ScanEngine,
    ScanResult,
)
from repro.scan.sharded import IntervalTargets, shard_targets
from repro.scan.walk import build_worker
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


def test_blocklisted_interval_scan_on_small_preset(small_dataset):
    series = small_dataset.series_for("ftp")
    plan = TassStrategy(small_dataset.topology.table, phi=0.5).plan(
        series.seed_snapshot
    )
    targets = IntervalTargets(plan, seed=7)
    bitmaps = targets.bitmaps(series[1].addresses, default_blocklist())
    result = ScanEngine(EngineConfig(batch_size=1 << 16)).run(
        targets, bitmaps, protocol="ftp"
    )
    assert result.probes_sent == plan.probe_count()
    assert result.responses > 0


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


# ---------------------------------------------------------------------------
# Split shards: contiguous runs of batches, one thread each
# ---------------------------------------------------------------------------


def _v6_shards(samples: int, shards: int, seed: int):
    """A v6 walk: a hitlist of every third /88 plus ``samples`` draws."""
    base = 0x20010DB8 << 96
    hitlist = V6.encode([base + (o << 40) for o in range(0, samples, 3)])
    bounds = (V6.encode([base]), V6.encode([base + (samples << 40)]))
    return shard_targets(
        bounds, shards=shards, seed=seed, hitlist=hitlist, samples=samples
    )


@settings(max_examples=60, deadline=None)
@given(
    v6=st.booleans(),
    n=st.integers(min_value=1, max_value=3000),
    shards=st.integers(min_value=1, max_value=9),
    shard=st.integers(min_value=0, max_value=8),
    batch_size=st.integers(min_value=1, max_value=700),
    parts=st.integers(min_value=1, max_value=9),
    blocked=st.booleans(),
    dropped=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_shard_counts_what_one_part_counts(
    v6, n, shards, shard, batch_size, parts, blocked, dropped, seed
):
    walks = _v6_shards(n, shards, seed) if v6 else shard_targets(
        n, shards=shards, seed=seed
    )
    targets = walks[shard % shards]
    rng = np.random.default_rng(seed)
    size = -(-targets.address_count() // 8)

    def bits():
        return rng.integers(0, 256, size=size, dtype=np.uint8)

    bitmaps = ScanBitmaps(
        bits(),
        bits() if blocked else None,
        # Sparse enough that most batches survive, dense enough that
        # one-coordinate batches are dropped whole.
        bits() & bits() if dropped else None,
    )
    engine = ScanEngine(EngineConfig(batch_size=batch_size))
    assert engine.run(targets, bitmaps, "http", parts=parts) == engine.run(
        targets, bitmaps, "http"
    )


class _Runs:
    """A target stream whose split hands out the given runs."""

    def __init__(self, *runs):
        self.runs = list(runs)

    def split(self, batch_size, parts):
        return self.runs


_BITMAPS = IntervalTargets(64).bitmaps(AddressSet(np.arange(0, 64, 3)))


def test_split_scan_leaves_no_thread_behind():
    targets = IntervalTargets(100_000, seed=1)
    bitmaps = targets.bitmaps(AddressSet(np.arange(0, 100_000, 7)))
    engine = ScanEngine(EngineConfig(batch_size=1000))
    before = threading.active_count()
    result = engine.run(targets, bitmaps, parts=4)
    assert threading.active_count() == before
    assert result == engine.run(targets, bitmaps)


def test_a_helper_exception_reaches_the_caller():
    def broken():
        yield np.arange(8)
        raise ZeroDivisionError("helper run")

    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="helper run"):
        ScanEngine().run(_Runs(iter([np.arange(8)]), broken()), _BITMAPS,
                         parts=2)
    assert threading.active_count() == before


def test_sigterm_bail_joins_the_helpers_before_it_propagates():
    helper_batches = []

    def caller_run():
        yield np.arange(8)
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)  # the CLI's handler raises SystemExit in here
        yield np.arange(8)

    def helper_run():
        for _ in range(10_000):  # ten seconds, unless the engine stops it
            helper_batches.append(1)
            yield np.arange(8)
            time.sleep(0.001)

    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    before = threading.active_count()
    try:
        cli._install_signal_handlers()
        with pytest.raises(SystemExit) as exit_info:
            ScanEngine().run(_Runs(caller_run(), helper_run()), _BITMAPS,
                             parts=2)
        assert threading.active_count() == before
    finally:
        for sig, handler in saved.items():
            signal.signal(sig, handler)
    assert exit_info.value.code == cli.SIGTERM_EXIT
    assert len(helper_batches) < 10_000


def test_a_fleet_forks_after_a_split_serial_scan(monkeypatch):
    # The coordinator refuses to fork beside a second thread, so every
    # helper of a split scan must be gone once the scan returns.
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    responsive = np.unique(
        np.random.default_rng(3).integers(0, 300_000, 5000)
    )
    targets = shard_targets(300_000, shards=2, seed=0)
    worker_args = (responsive, 1 << 12, None, None)
    engine, bitmaps, _ = build_worker(targets[0], *worker_args)
    serial = [engine.run(shard, bitmaps, parts=2) for shard in targets]
    with Coordinator(workers=1, address_book=None) as coordinator:
        assert list(coordinator.run(targets, worker_args)) == serial


def test_the_serial_executor_splits_a_shard_in_two_at_most(monkeypatch):
    # Each part costs a malloc arena of peak RSS, so eight CPUs still
    # score a shard of many batches as two runs.
    monkeypatch.setattr(
        executors.os, "sched_getaffinity", lambda pid: set(range(8))
    )
    asked = []
    run = ScanEngine.run

    def spy(self, targets, bitmaps, protocol=None, parts=1):
        asked.append(parts)
        return run(self, targets, bitmaps, protocol, parts)

    monkeypatch.setattr(ScanEngine, "run", spy)
    responsive = np.arange(0, 300_000, 7)
    targets = shard_targets(300_000, shards=2, seed=0)
    worker_args = (responsive, 1 << 10, None, None)
    results = list(executors.serial_executor(targets, worker_args))
    assert asked == [2, 2]
    engine, bitmaps, _ = build_worker(targets[0], *worker_args)
    assert results == [engine.run(shard, bitmaps) for shard in targets]
