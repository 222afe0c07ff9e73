"""Regeneration of the §1/§4 efficiency headline.

"TASS scans are 1.25 to 10 times more efficient for a period of at
least 6 months" — full campaign accounting against periodic full scans.
"""

from repro.analysis.efficiency import render_efficiency, run_efficiency

from benchmarks.conftest import save_artifact


def test_efficiency(dataset, artifact_dir):
    result = run_efficiency(dataset)
    save_artifact(artifact_dir, "efficiency.txt", render_efficiency(result))
    low, high = result.ratio_range()
    assert low > 1.0, "TASS must always beat periodic full scans"
    assert high > 2.5, "aggressive settings must be several times cheaper"
    for row in result.rows:
        assert row.final_hitrate > 0.8
