"""Distributed executor: coordinator + socket workers vs serial.

Scans the phi=0.9 TASS selection for HTTP against the seed snapshot
through the ``distributed`` executor — real worker subprocesses, the
full length-prefixed socket protocol, requeue machinery armed.  Every
variant must merge to a byte-identical :class:`ScanResult` (executor
invariance, re-asserted here on the small preset), including
a run with an injected worker failure.  perfbench's ``v4-distributed``
workload times this executor inside a whole campaign.
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


@pytest.mark.parametrize("shards", [4, 8])
def test_distributed_workers(scan_inputs, reference_result, shards):
    selection, responsive = scan_inputs
    run = run_sharded(
        selection, responsive, shards=shards, executor="distributed",
        config=_CONFIG,
    )
    _assert_matches(run, reference_result)


def test_distributed_with_worker_failure(
    scan_inputs, reference_result, monkeypatch
):
    """One injected worker death + requeue; results must not move."""
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash@1")
    selection, responsive = scan_inputs
    run = run_sharded(
        selection, responsive, shards=4, executor="distributed",
        config=_CONFIG,
    )
    _assert_matches(run, reference_result)
