"""Regeneration of Table 1.

Regenerates the paper's Table 1 (address-space coverage at
φ ∈ {1, 0.99, 0.95, 0.7, 0.5} × four protocols × both prefix views).
"""

from repro.analysis.table1 import render_table1, run_table1

from benchmarks.conftest import save_artifact


def test_table1(dataset, artifact_dir):
    result = run_table1(dataset)
    save_artifact(artifact_dir, "table1.txt", render_table1(result))
    # Sanity: the headline orderings of the paper hold.
    assert result.cell("more-specific", 1.0, "ftp") < result.cell(
        "less-specific", 1.0, "ftp"
    )
    assert result.cell("less-specific", 0.5, "ftp") < 0.1
