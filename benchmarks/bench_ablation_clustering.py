"""Ablation: §5 future work — /24 clustering refinement vs prefix views.

Compares three partitions of the announced space at φ=1: the l-view,
the m-view, and the Cai-Heidemann-style clustered-/24 refinement.  The
refinement scans the least space at seed time but decays hitlist-like;
the benchmark regenerates that trade-off.
"""

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.clustering import refine_partition
from repro.core.simulate import simulate_campaign
from repro.core.tass import TassStrategy

from benchmarks.conftest import save_artifact


def run_clustering_ablation(dataset, protocol="ftp"):
    table = dataset.topology.table
    series = dataset.series_for(protocol)
    seed = series.seed_snapshot
    partitions = {
        "l-prefixes": table.partition(LESS_SPECIFIC),
        "m-prefixes": table.partition(MORE_SPECIFIC),
        "clustered-/24": refine_partition(
            seed, table.partition(LESS_SPECIFIC), max_gap=1
        ),
    }
    announced = table.partition(LESS_SPECIFIC).address_count()
    rows = []
    for name, partition in partitions.items():
        strategy = TassStrategy(partition, phi=1.0)
        campaign = simulate_campaign(strategy, series)
        plan_space = strategy.last_selection.selected_address_count()
        rows.append(
            {
                "partition": name,
                "parts": len(partition),
                "space": plan_space / announced,
                "final": campaign.hitrates()[-1],
            }
        )
    return rows


def test_clustering_ablation(dataset, artifact_dir):
    rows = run_clustering_ablation(dataset)
    rendered = format_table(
        ["partition", "parts", "space@phi=1", "month-6 hitrate"],
        [
            (
                row["partition"],
                row["parts"],
                f"{row['space']:.4f}",
                f"{row['final']:.3f}",
            )
            for row in rows
        ],
        title="Ablation: prefix views vs clustered-/24 refinement (FTP, phi=1)",
    )
    save_artifact(artifact_dir, "ablation_clustering.txt", rendered)
    by_name = {row["partition"]: row for row in rows}
    # Finer partitions scan monotonically less space at seed time...
    assert (
        by_name["clustered-/24"]["space"]
        < by_name["m-prefixes"]["space"]
        < by_name["l-prefixes"]["space"]
    )
    # ...but hold accuracy monotonically worse over six months.
    assert (
        by_name["clustered-/24"]["final"]
        < by_name["m-prefixes"]["final"]
        < by_name["l-prefixes"]["final"] + 1e-9
    )
