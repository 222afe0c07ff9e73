"""Regeneration of the churn-decomposition analysis (§2)."""

from repro.analysis.churn_decomposition import (
    render_churn_decomposition,
    run_churn_decomposition,
)

from benchmarks.conftest import save_artifact


def test_churn_decomposition(dataset, artifact_dir):
    result = run_churn_decomposition(dataset)
    save_artifact(
        artifact_dir,
        "churn_decomposition.txt",
        render_churn_decomposition(result),
    )
    for row in result.rows:
        # The paper's stability explanation: most hitlist loss must be
        # within-prefix renumbering that prefix scanning survives.
        assert row.breakdown.renumbering_share > 0.5, row.protocol
