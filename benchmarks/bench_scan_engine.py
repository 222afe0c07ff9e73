"""The probe-level scanning substrate on the small preset.

Not a paper figure — these exercise the simulator itself: a scan with
blocklist filtering and the address-set algebra, each checked once on
the small preset.  perfbench times them inside whole campaigns and
analysis passes.
"""

from repro.core.tass import TassStrategy
from repro.scan.blocklist import default_blocklist
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.sharded import IntervalTargets


def test_engine_interval_throughput(dataset):
    series = dataset.series_for("ftp")
    strategy = TassStrategy(dataset.topology.table, phi=0.5)
    plan = strategy.plan(series.seed_snapshot)
    engine = ScanEngine(EngineConfig(batch_size=1 << 16))
    targets = IntervalTargets(plan, seed=7)
    bitmaps = targets.bitmaps(series[1].addresses, default_blocklist())
    result = engine.run(targets, bitmaps, protocol="ftp")
    assert result.probes_sent == plan.probe_count()
    assert result.responses > 0


def test_snapshot_intersection_throughput(dataset):
    """Month-over-month snapshot intersection (the Figure 5 inner loop)."""
    series = dataset.series_for("https")
    assert series[0].addresses.intersection_count(series[6].addresses) > 0


def test_address_set_algebra_throughput(dataset):
    series = dataset.series_for("http")
    a, b = series[0].addresses, series[3].addresses
    assert len((a | b) - (a & b)) > 0
