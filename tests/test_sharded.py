"""Sharded execution invariants: K-invariant merges, executor parity.

The load-bearing guarantee: a sharded run with K=8 produces a merged
``ScanResult`` byte-identical to K=1, and the selection feeding the
scan is byte-identical no matter how the scan itself is sharded.
"""

import dataclasses

import numpy as np
import pytest

from repro.bgp.table import LESS_SPECIFIC, Prefix, RoutingTable
from repro.census.addrset import AddressSet
from repro.core.tass import TassStrategy
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig
from repro.scan.sharded import (
    IntervalTargets,
    merge_results,
    run_sharded,
    shard_targets,
)

_CONFIG = EngineConfig(batch_size=1 << 11)


def _world():
    table = RoutingTable(
        [
            Prefix.from_cidr("1.0.0.0/18"),
            Prefix.from_cidr("2.4.0.0/16"),
            Prefix.from_cidr("9.9.9.0/24"),
        ]
    )
    partition = table.partition(LESS_SPECIFIC)
    rng = np.random.default_rng(42)
    responsive = AddressSet(
        np.concatenate(
            [
                partition.starts[i]
                + rng.integers(0, partition.sizes[i], 400)
                for i in range(len(partition))
            ]
        )
    )
    return table, partition, responsive


def _result_bytes(result) -> bytes:
    return repr(dataclasses.astuple(result)).encode()


@pytest.mark.parametrize(
    "shards, world",
    [(2, "hand-built"), (3, "hand-built"), (8, "hand-built"),
     (1, "small"), (4, "small"), (8, "small")],
    ids=["2", "3", "8", "small-1", "small-4", "small-8"],
)
def test_sharded_merge_is_byte_identical_to_serial(shards, world, request):
    config = _CONFIG
    if world == "small":
        dataset = request.getfixturevalue("small_dataset")
        table = dataset.topology.table
        responsive = dataset.series_for("http").seed_snapshot.addresses
        config = EngineConfig()  # 2k-address batches: 4x slower here
    else:
        table, _, responsive = _world()
    selection = TassStrategy(table, phi=0.95).plan(responsive)
    one = run_sharded(
        selection, responsive, shards=1, executor="serial", config=config
    )
    many = run_sharded(
        selection,
        responsive,
        shards=shards,
        executor="serial",
        config=config,
    )
    assert _result_bytes(one.result) == _result_bytes(many.result)
    assert many.shards == shards
    assert len(many.shard_results) == shards
    assert sum(r.probes_sent for r in many.shard_results) == (
        one.result.probes_sent
    )


def test_selection_outputs_shard_invariant():
    table, _, responsive = _world()
    baseline = TassStrategy(table, phi=0.95).plan(responsive)
    # Sharding the scan never perturbs what was selected.
    for shards in (1, 8):
        run_sharded(
            baseline, responsive, shards=shards, executor="serial",
            config=_CONFIG,
        )
        assert baseline.starts.tobytes() == (
            TassStrategy(table, phi=0.95).plan(responsive).starts.tobytes()
        )


def test_single_shard_distributed_request_reports_serial():
    table, _, responsive = _world()
    selection = TassStrategy(table, phi=0.9).plan(responsive)
    run = run_sharded(
        selection, responsive, shards=1, executor="distributed",
        config=_CONFIG,
    )
    assert run.executor == "serial"
    assert run.shards == 1
    # With neither argument given, the defaults are one serial shard.
    default = run_sharded(selection, responsive, config=_CONFIG)
    assert (default.shards, default.executor) == (1, "serial")


def test_shards_cover_targets_exactly_once():
    _, partition, _ = _world()
    pieces = [
        np.concatenate(list(t.batches(1 << 10)))
        for t in shard_targets(partition, shards=5, seed=3)
    ]
    coords = np.sort(np.concatenate(pieces))
    assert np.array_equal(coords, np.arange(partition.address_count()))
    # The test's own coordinate -> address map: interval by interval.
    sizes = partition.ends - partition.starts
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    idx = np.searchsorted(offsets, coords, side="right") - 1
    union = partition.starts[idx] + (coords - offsets[idx])
    expected = np.concatenate(
        [
            np.arange(s, e)
            for s, e in zip(partition.starts, partition.ends)
        ]
    )
    assert np.array_equal(union, expected)


def test_blocklist_accounting_is_shard_invariant():
    table, partition, responsive = _world()
    blocklist = Blocklist(
        partition.starts[:1], partition.starts[:1] + 1024
    )
    runs = [
        run_sharded(
            partition,
            responsive,
            shards=k,
            executor="serial",
            config=_CONFIG,
            blocklist=blocklist,
            protocol="http",
        )
        for k in (1, 7)
    ]
    assert _result_bytes(runs[0].result) == _result_bytes(runs[1].result)
    assert runs[0].result.blocked == 1024
    assert runs[0].result.protocol == "http"


def test_target_spec_normalisation():
    # Range size, raw interval arrays, and prefix lists all shard.
    for spec in (
        1000,
        (np.array([0, 5000]), np.array([1000, 6000])),
        [Prefix.from_cidr("10.0.0.0/24")],
    ):
        targets = shard_targets(spec, shards=2, seed=1)
        total = sum(
            sum(len(b) for b in t.batches(128)) for t in targets
        )
        assert total == IntervalTargets(spec).address_count()
    with pytest.raises(ValueError, match="sorted disjoint"):
        IntervalTargets((np.array([0, 10]), np.array([20, 30])))
    walk = IntervalTargets(100, shards=2)
    for bad in (
        lambda: IntervalTargets(100, shard=2, shards=2),
        lambda: walk._for_shard(-1),
        lambda: walk._for_shard(2),
    ):
        with pytest.raises(ValueError, match="0 <= shard < shards"):
            bad()


@pytest.mark.parametrize("shards", [0, -3])
def test_non_positive_shard_counts_rejected(shards):
    table, _, responsive = _world()
    selection = TassStrategy(table, phi=0.9).plan(responsive)
    with pytest.raises(ValueError, match="shards"):
        shard_targets(selection, shards=shards)
    with pytest.raises(ValueError, match="shards"):
        run_sharded(selection, responsive, shards=shards, config=_CONFIG)


def test_merge_results_normalises_batches():
    from repro.scan.engine import ScanResult

    merged = merge_results(
        [
            ScanResult(probes_sent=100, responses=5, blocked=10, batches=3),
            ScanResult(probes_sent=50, responses=2, blocked=0, batches=9),
        ],
        batch_size=64,
    )
    assert merged.probes_sent == 150
    assert merged.responses == 7
    assert merged.blocked == 10
    assert merged.batches == -(-160 // 64)
    assert merge_results([], batch_size=64).probes_sent == 0


def test_merge_results_rejects_conflicting_protocols():
    from repro.scan.engine import ScanResult

    shards = [
        ScanResult(probes_sent=10, protocol="http"),
        ScanResult(probes_sent=10, protocol=None),
        ScanResult(probes_sent=10, protocol="ssh"),
    ]
    with pytest.raises(ValueError) as excinfo:
        merge_results(shards, batch_size=64)
    message = str(excinfo.value)
    assert "'http'" in message and "'ssh'" in message
    # A None protocol alongside one real protocol is *not* a conflict.
    merged = merge_results(shards[:2], batch_size=64)
    assert merged.protocol == "http"


@pytest.mark.parametrize(
    "spec",
    [
        # 4098 = 4099 - 1 with 4099 prime: every group element maps to
        # a target, so the `values <= n` filter keeps the whole batch.
        4098,
        # Two intervals: the filter drops the group elements above n.
        (np.array([0, 10000]), np.array([4096, 12000])),
    ],
    ids=["unfiltered", "filtered"],
)
def test_interleaved_walks_are_immune_to_batch_sorting(spec):
    """A consumer that keeps or sorts yielded batches must never corrupt
    the walk's state: its power table or its reused multiply buffers.

    Two interleaved walks over the same modulus run side by side;
    each must still reproduce its own fresh, uninterleaved drain
    exactly.
    """
    interleaved: dict[str, list] = {"a": [], "b": []}
    live = {
        "a": IntervalTargets(spec, seed=1).batches(512),
        "b": IntervalTargets(spec, seed=2).batches(512),
    }
    while live:
        for name, gen in list(live.items()):
            batch = next(gen, None)
            if batch is None:
                del live[name]
            else:
                batch.sort()  # a consumer mutating what it was yielded
                interleaved[name].append(batch.copy())

    for name, seed in (("a", 1), ("b", 2)):
        fresh = list(IntervalTargets(spec, seed=seed).batches(512))
        assert len(fresh) == len(interleaved[name])
        for left, right in zip(fresh, interleaved[name]):
            assert np.array_equal(np.sort(left), right), name
