"""Regeneration of Figure 2 (prefix deaggregation).

Also runs the whole-table decomposition into the more-specific
partition — the heaviest routing-side computation in the pipeline.
"""

from repro.analysis.figure2 import render_figure2, run_figure2
from repro.bgp.deaggregate import partition_table

from benchmarks.conftest import save_artifact


def test_figure2(dataset, artifact_dir):
    result = run_figure2(dataset)
    save_artifact(artifact_dir, "figure2.txt", render_figure2(result))
    assert result.partition_covers_announced


def test_whole_table_deaggregation(dataset):
    """The raw Figure-2 algorithm at table scale."""
    table = dataset.topology.table
    forest = {p: table.children_of(p) for p in table.prefixes}

    parts = partition_table(forest, table.l_prefixes)
    assert sum(p.size for p in parts) == sum(p.size for p in table.l_prefixes)
