"""Throughput benchmarks of the probe-level scanning substrate.

Not a paper figure — these quantify the simulator itself: cyclic-group
permutation generation and probe-level scan throughput with blocklist
filtering, the operations a real zmap-class scanner performs per packet.
"""

import numpy as np

from repro.census.addrset import AddressSet
from repro.core.tass import TassStrategy
from repro.scan.blocklist import default_blocklist
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.permutation import CyclicPermutation
from repro.scan.sharded import IntervalTargets


def test_permutation_throughput(benchmark):
    def run():
        perm = CyclicPermutation(1 << 20, seed=1)
        total = 0
        for batch in perm.batches(1 << 16):
            total += len(batch)
        return total

    assert benchmark(run) == 1 << 20


def test_iter_direct_throughput(benchmark):
    """Scalar iteration as shipped: yield straight from the batch arrays.

    Micro-bench pair with :func:`test_iter_tolist_reference` — the
    direct path skips the per-batch list materialisation (lazy,
    constant memory, cheap early exit) at the price of yielding
    ``np.int64`` scalars, which full-drain loops consume slightly
    slower than a pre-built list.  Keeping both quantifies that
    trade-off run over run.
    """

    def run():
        count = 0
        for _ in CyclicPermutation(1 << 17, seed=1):
            count += 1
        return count

    assert benchmark(run) == 1 << 17


def test_iter_tolist_reference(benchmark):
    """The old ``batch.tolist()`` iteration, kept as the reference."""

    def run():
        perm = CyclicPermutation(1 << 17, seed=1)
        count = 0
        for batch in perm.batches():
            for _ in batch.tolist():
                count += 1
        return count

    assert benchmark(run) == 1 << 17


def test_engine_interval_throughput(benchmark, dataset):
    series = dataset.series_for("ftp")
    strategy = TassStrategy(dataset.topology.table, phi=0.5)
    plan = strategy.plan(series.seed_snapshot)
    engine = ScanEngine(EngineConfig(batch_size=1 << 16))

    def run():
        targets = IntervalTargets(plan, seed=7)
        bitmaps = targets.bitmaps(series[1].addresses, default_blocklist())
        return engine.run(targets, bitmaps, protocol="ftp")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.probes_sent == plan.probe_count()
    assert result.responses > 0


def test_membership_check_throughput(benchmark, dataset):
    """A ``searchsorted`` responsive-set membership test in isolation."""
    truth = dataset.series_for("http").seed_snapshot.addresses
    rng = np.random.default_rng(0)
    probes = rng.integers(0, 1 << 32, size=1 << 20).astype(np.int64)
    truth_values = truth.values.astype(np.int64)

    def run():
        index = np.searchsorted(truth_values, probes)
        index = np.clip(index, 0, len(truth_values) - 1)
        return int((truth_values[index] == probes).sum())

    hits = benchmark(run)
    assert hits >= 0


def test_snapshot_intersection_throughput(benchmark, dataset):
    """Month-over-month snapshot intersection (the Figure 5 inner loop)."""
    series = dataset.series_for("https")
    a = series[0].addresses
    b = series[6].addresses

    def run():
        return a.intersection_count(b)

    assert benchmark(run) > 0


def test_address_set_algebra_throughput(benchmark, dataset):
    series = dataset.series_for("http")
    a, b = series[0].addresses, series[3].addresses

    def run():
        return len((a | b) - (a & b))

    assert benchmark(run) > 0


def test_mrt_roundtrip_throughput(benchmark, dataset, tmp_path_factory):
    """Write + parse an MRT RIB dump of the whole synthetic table."""
    from repro.bgp import pfx2as

    path = tmp_path_factory.mktemp("mrt") / "rib.mrt"

    def run():
        count = dataset.topology.write_mrt(path)
        return count, len(pfx2as.rib_to_pfx2as(path))

    written, parsed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert written == parsed > 0


def test_dataset_generation(benchmark):
    """End-to-end tiny-dataset generation (topology + census + churn)."""
    from repro.census.loader import CensusDataset

    result = benchmark.pedantic(
        CensusDataset.generate,
        kwargs={"preset": "tiny", "seed": 99},
        rounds=1,
        iterations=1,
    )
    assert result.protocols == ["cwmp", "ftp", "http", "https"]
