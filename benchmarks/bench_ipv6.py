"""The 128-bit address-family hot paths.

Runs the v6-specific machinery against the generated ``v6-small``
preset: phi-selection counting over an S16 partition, the hitlist +
sampled sharded scan, and the big-modulus (Python-int) cyclic walk that
covers one announced /32.  Every scan variant must merge to a
byte-identical result — the executor-invariance contract re-asserted on
the v6 path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.census.loader import get_dataset
from repro.core.tass import TassStrategy
from repro.scan.permutation import CyclicPermutation
from repro.scan.sharded import run_sharded

_PHI = 0.9
_SAMPLES = 16


@pytest.fixture(scope="module")
def v6_dataset():
    return get_dataset(preset="v6-small", seed=0)


@pytest.fixture(scope="module")
def v6_inputs(v6_dataset):
    snapshot = v6_dataset.series_for("http").seed_snapshot
    strategy = TassStrategy(v6_dataset.topology.table, phi=_PHI)
    selection = strategy.plan(snapshot.addresses)
    return strategy, selection, snapshot.addresses


def test_v6_selection_plan(v6_inputs):
    """Two-searchsorted counting + density ranking on S16 intervals."""
    strategy, selection, responsive = v6_inputs
    planned = strategy.plan(responsive)
    assert planned.covered_hosts == selection.covered_hosts


def test_v6_sharded_scan(v6_inputs):
    """Hitlist + sampled v6 scan through the sharded executor."""
    _, selection, responsive = v6_inputs
    reference = run_sharded(
        selection,
        responsive,
        shards=1,
        executor="serial",
        hitlist=responsive.values,
        samples=_SAMPLES,
    ).result

    run = run_sharded(
        selection,
        responsive,
        shards=4,
        executor="serial",
        hitlist=responsive.values,
        samples=_SAMPLES,
    )
    assert dataclasses.astuple(run.result) == dataclasses.astuple(
        reference
    )


def test_v6_bigint_walk():
    """First 8k elements of a 2^96-element cyclic walk (one /32)."""
    seen = 0
    for batch in CyclicPermutation(1 << 96, seed=3).batches(1 << 10):
        seen += len(batch)
        if seen >= 1 << 13:
            break
    assert seen >= 1 << 13
