"""Ablation: the l-prefix vs m-prefix trade-off (paper §5).

The discussion section weighs the two views: m-prefixes scan 15-20
points less space at φ=1 but decay about twice as fast.  This benchmark
regenerates that trade-off table for every protocol.
"""

from repro.analysis.report import format_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.core.simulate import simulate_campaign
from repro.core.tass import TassStrategy

from benchmarks.conftest import save_artifact


def run_view_tradeoff(dataset):
    rows = []
    table = dataset.topology.table
    for protocol in dataset.protocols:
        series = dataset.series_for(protocol)
        for view in (LESS_SPECIFIC, MORE_SPECIFIC):
            strategy = TassStrategy(table, phi=1.0, view=view)
            campaign = simulate_campaign(strategy, series)
            selection = strategy.last_selection
            rows.append(
                {
                    "protocol": protocol,
                    "view": view,
                    "space": selection.space_coverage,
                    "decay": campaign.decay_per_month(),
                    "final": campaign.hitrates()[-1],
                }
            )
    return rows


def test_view_tradeoff(dataset, artifact_dir):
    rows = run_view_tradeoff(dataset)
    rendered = format_table(
        ["protocol", "view", "space@phi=1", "decay/mo", "month-6 hitrate"],
        [
            (
                row["protocol"],
                row["view"],
                f"{row['space']:.3f}",
                f"{row['decay'] * 100:+.2f}%",
                f"{row['final']:.3f}",
            )
            for row in rows
        ],
        title="Ablation: less- vs more-specific prefixes (phi=1)",
    )
    save_artifact(artifact_dir, "ablation_views.txt", rendered)
    by_key = {(r["protocol"], r["view"]): r for r in rows}
    for protocol in dataset.protocols:
        less = by_key[(protocol, LESS_SPECIFIC)]
        more = by_key[(protocol, MORE_SPECIFIC)]
        assert more["space"] < less["space"], "m-view must scan less"
        assert more["final"] <= less["final"] + 0.003, (
            "m-view must not hold accuracy better than l-view"
        )
