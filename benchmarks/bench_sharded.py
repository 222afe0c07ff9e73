"""Sharded scan execution: one shard vs K shards, drained in-process.

Scans the phi=0.9 TASS selection for HTTP against the seed snapshot
through the sharded executor at several shard counts.  Every variant
must merge to a byte-identical :class:`ScanResult` — the K-invariance
the sharded test suite locks down, re-asserted here on the small
preset.
"""

import dataclasses

import pytest

from repro.core.tass import TassStrategy
from repro.scan.engine import EngineConfig
from repro.scan.sharded import run_sharded

_PHI = 0.9
_CONFIG = EngineConfig()


@pytest.fixture(scope="module")
def scan_inputs(dataset):
    seed = dataset.series_for("http").seed_snapshot
    strategy = TassStrategy(dataset.topology.table, phi=_PHI)
    return strategy.plan(seed.addresses), seed.addresses


@pytest.fixture(scope="module")
def reference_result(scan_inputs):
    selection, responsive = scan_inputs
    return run_sharded(
        selection, responsive, shards=1, executor="serial", config=_CONFIG
    ).result


def _assert_matches(run, reference):
    assert dataclasses.astuple(run.result) == dataclasses.astuple(reference)


def test_sharded_serial_k1(scan_inputs, reference_result):
    selection, responsive = scan_inputs
    run = run_sharded(
        selection, responsive, shards=1, executor="serial",
        config=_CONFIG,
    )
    _assert_matches(run, reference_result)


@pytest.mark.parametrize("shards", [4, 8])
def test_sharded_serial_many(scan_inputs, reference_result, shards):
    selection, responsive = scan_inputs
    run = run_sharded(
        selection, responsive, shards=shards, executor="serial",
        config=_CONFIG,
    )
    _assert_matches(run, reference_result)
