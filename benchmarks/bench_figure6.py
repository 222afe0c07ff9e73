"""Regeneration of Figure 6 (TASS hitrate over time).

Both panels: φ=1 and φ=0.95, both prefix views, all four protocols.
"""

from repro.analysis.figure6 import render_figure6, run_figure6

from benchmarks.conftest import save_artifact


def test_figure6(dataset, artifact_dir):
    result = run_figure6(dataset)
    save_artifact(artifact_dir, "figure6.txt", render_figure6(result))
    for protocol in dataset.protocols:
        less = result.decay(1.0, "less-specific", protocol)
        # Paper: ~ -0.3%/month for the less-specific view.
        assert -0.007 < less < 0.0
        final_95 = result.campaigns[
            (0.95, "less-specific", protocol)
        ].hitrates()[-1]
        assert final_95 > 0.85
