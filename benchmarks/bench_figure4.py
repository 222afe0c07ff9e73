"""Regeneration of Figure 4 (density-ranked coverage curves).

Also exports the full per-rank series as CSV (the paper plots ~100K+
points; the text render downsamples).
"""

from repro.analysis.figure4 import (
    export_figure4_csv,
    render_figure4,
    run_figure4,
)

from benchmarks.conftest import save_artifact


def test_figure4(dataset, artifact_dir):
    result = run_figure4(dataset)
    save_artifact(artifact_dir, "figure4.txt", render_figure4(result))
    export_figure4_csv(result, str(artifact_dir))
    for (view, protocol), curve in result.curves.items():
        knees = result.knee_stats(view, protocol)
        # The concentration knee the paper's argument rests on.
        assert knees["space_at_host_0.5"] < 0.1, (view, protocol)
