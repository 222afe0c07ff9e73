"""Regeneration of Figure 3 (hosts per prefix length).

Seven monthly measurements × two protocols × both views, matching the
paper's panels (a)-(d).
"""

from repro.analysis.figure3 import render_figure3, run_figure3

from benchmarks.conftest import save_artifact


def test_figure3(dataset, artifact_dir):
    result = run_figure3(dataset)
    save_artifact(artifact_dir, "figure3.txt", render_figure3(result))
    for protocol in result.protocols:
        # Stability across the seven measurements...
        assert result.stability("less-specific", protocol) < 0.35
        # ...and the right-shift of the more-specific view.
        assert result.mean_length("more-specific", protocol) > (
            result.mean_length("less-specific", protocol)
        )
