"""The paper's claims as shapes of each analysis result.

``tests/test_golden.py`` pins the rendered text of one tiny build; these
tests assert what the paper says about each figure, table and section on
the seed-0 ``tiny`` and ``small`` presets: orderings, knees, decay rates
and the §5 trade-offs between prefix views.  The thresholds are
statistical, so a change to ``census/synth.py`` must keep both presets
green.
"""

import pytest

from repro.analysis.adaptive import run_adaptive
from repro.analysis.churn_decomposition import run_churn_decomposition
from repro.analysis.efficiency import run_efficiency
from repro.analysis.figure1 import run_figure1
from repro.analysis.figure2 import run_figure2
from repro.analysis.figure3 import run_figure3
from repro.analysis.figure4 import run_figure4
from repro.analysis.figure5 import run_figure5
from repro.analysis.figure6 import run_figure6
from repro.analysis.missed import run_missed_hosts
from repro.analysis.reseeding import run_reseeding
from repro.analysis.section34 import run_section34
from repro.analysis.table1 import run_table1
from repro.bgp.deaggregate import partition_table
from repro.bgp.table import LESS_SPECIFIC, MORE_SPECIFIC
from repro.census.loader import get_dataset
from repro.core.clustering import refine_partition
from repro.core.simulate import simulate_campaign
from repro.core.tass import TassStrategy


@pytest.fixture(scope="module", params=["tiny", "small"])
def dataset(request):
    return get_dataset(preset=request.param, seed=0)


def test_figure1(dataset):
    result = run_figure1(dataset)
    assert (
        result.iana_slash0
        > result.iana_allocated
        > result.bgp_announced
        > max(result.hitlist_sizes.values())
    )


def test_figure2(dataset):
    assert run_figure2(dataset).partition_covers_announced


def test_whole_table_deaggregation(dataset):
    """The raw Figure-2 algorithm at table scale."""
    table = dataset.topology.table
    forest = {p: table.children_of(p) for p in table.prefixes}

    parts = partition_table(forest, table.l_prefixes)
    assert sum(p.size for p in parts) == sum(p.size for p in table.l_prefixes)


def test_figure3(dataset):
    result = run_figure3(dataset)
    for protocol in result.protocols:
        # Stability across the seven measurements...
        assert result.stability("less-specific", protocol) < 0.35
        # ...and the right-shift of the more-specific view.
        assert result.mean_length("more-specific", protocol) > (
            result.mean_length("less-specific", protocol)
        )


def test_figure4(dataset):
    result = run_figure4(dataset)
    for view, protocol in result.curves:
        knees = result.knee_stats(view, protocol)
        # The concentration knee the paper's argument rests on.
        assert knees["space_at_host_0.5"] < 0.1, (view, protocol)


def test_figure5(dataset):
    rates = run_figure5(dataset).hitrates()
    # Paper: server protocols ~0.8 after one month; CWMP collapses.
    for protocol in ("ftp", "http", "https"):
        assert 0.7 < rates[protocol][1] < 0.9
    assert rates["cwmp"][-1] < 0.55


def test_figure6(dataset):
    result = run_figure6(dataset)
    for protocol in dataset.protocols:
        less = result.decay(1.0, "less-specific", protocol)
        # Paper: ~ -0.3%/month for the less-specific view.
        assert -0.007 < less < 0.0
        final_95 = result.campaigns[
            (0.95, "less-specific", protocol)
        ].hitrates()[-1]
        assert final_95 > 0.85


def test_table1(dataset):
    result = run_table1(dataset)
    # The headline orderings of the paper hold.
    assert result.cell("more-specific", 1.0, "ftp") < result.cell(
        "less-specific", 1.0, "ftp"
    )
    assert result.cell("less-specific", 0.5, "ftp") < 0.1


def test_section34(dataset):
    result = run_section34(dataset)
    # phi=0.95 must cost far less space than phi=1 (paper: 27.3 vs 76.2).
    assert result.phi95_space_less < 0.6 * result.phi1_space_less
    # m-view cheaper than l-view at both settings.
    assert result.phi1_space_more < result.phi1_space_less
    assert result.phi95_space_more < result.phi95_space_less
    # The densest ~15% of prefixes hold the majority of hosts.
    assert result.dense_host_coverage > 0.5
    assert result.dense_space_coverage < 0.1


def test_efficiency(dataset):
    """§1/§4: "TASS scans are 1.25 to 10 times more efficient for a
    period of at least 6 months"."""
    result = run_efficiency(dataset)
    low, high = result.ratio_range()
    assert low > 1.0, "TASS must always beat periodic full scans"
    assert high > 2.5, "aggressive settings must be several times cheaper"
    for row in result.rows:
        assert row.final_hitrate > 0.8


def test_missed_hosts(dataset):
    result = run_missed_hosts(dataset)
    assert result.found_count > result.missed_count
    assert 0.0 <= result.kind_divergence <= 1.0


def test_reseeding(dataset):
    result = run_reseeding(dataset)
    for protocol in dataset.protocols:
        rows = {row.reseed_every: row for row in result.for_protocol(protocol)}
        assert rows[None].total_probes < rows[1].total_probes
        assert rows[1].worst_hitrate >= rows[None].worst_hitrate


def test_adaptive(dataset):
    for comparison in run_adaptive(dataset).comparisons:
        assert comparison.hitrate_gain_month6 > -0.01
        assert comparison.probe_overhead > 0.0


def test_churn_decomposition(dataset):
    for row in run_churn_decomposition(dataset).rows:
        # The paper's stability explanation: most hitlist loss must be
        # within-prefix renumbering that prefix scanning survives.
        assert row.breakdown.renumbering_share > 0.5, row.protocol


def test_view_tradeoff(dataset):
    """§5: m-prefixes scan less space at phi=1 but hold accuracy no
    better than l-prefixes, for every protocol."""
    table = dataset.topology.table
    for protocol in dataset.protocols:
        series = dataset.series_for(protocol)
        rows = {}
        for view in (LESS_SPECIFIC, MORE_SPECIFIC):
            strategy = TassStrategy(table, phi=1.0, view=view)
            campaign = simulate_campaign(strategy, series)
            rows[view] = (
                strategy.last_selection.space_coverage,
                campaign.hitrates()[-1],
            )
        (less_space, less_final) = rows[LESS_SPECIFIC]
        (more_space, more_final) = rows[MORE_SPECIFIC]
        assert more_space < less_space, "m-view must scan less"
        assert more_final <= less_final + 0.003, (
            "m-view must not hold accuracy better than l-view"
        )


def test_clustering_ablation(dataset):
    """§5 future work: a clustered-/24 refinement scans the least space
    at seed time but decays like a hitlist (FTP, phi=1)."""
    table = dataset.topology.table
    series = dataset.series_for("ftp")
    seed = series.seed_snapshot
    partitions = {
        "l-prefixes": table.partition(LESS_SPECIFIC),
        "m-prefixes": table.partition(MORE_SPECIFIC),
        "clustered-/24": refine_partition(
            seed, table.partition(LESS_SPECIFIC), max_gap=1
        ),
    }
    announced = table.partition(LESS_SPECIFIC).address_count()
    space, final = {}, {}
    for name, partition in partitions.items():
        strategy = TassStrategy(partition, phi=1.0)
        campaign = simulate_campaign(strategy, series)
        space[name] = (
            strategy.last_selection.selected_address_count() / announced
        )
        final[name] = campaign.hitrates()[-1]
    # Finer partitions scan monotonically less space at seed time...
    assert (
        space["clustered-/24"] < space["m-prefixes"] < space["l-prefixes"]
    )
    # ...but hold accuracy monotonically worse over six months.
    assert (
        final["clustered-/24"]
        < final["m-prefixes"]
        < final["l-prefixes"] + 1e-9
    )
