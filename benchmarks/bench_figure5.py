"""Regeneration of Figure 5 (hitlist hitrate over time)."""

from repro.analysis.figure5 import render_figure5, run_figure5

from benchmarks.conftest import save_artifact


def test_figure5(dataset, artifact_dir):
    result = run_figure5(dataset)
    save_artifact(artifact_dir, "figure5.txt", render_figure5(result))
    rates = result.hitrates()
    # Paper: server protocols ~0.8 after one month; CWMP collapses.
    for protocol in ("ftp", "http", "https"):
        assert 0.7 < rates[protocol][1] < 0.9
    assert rates["cwmp"][-1] < 0.55
