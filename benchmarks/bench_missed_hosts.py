"""Regeneration of the found-vs-missed host analysis (§5)."""

from repro.analysis.missed import render_missed_hosts, run_missed_hosts

from benchmarks.conftest import save_artifact


def test_missed_hosts(dataset, artifact_dir):
    result = run_missed_hosts(dataset)
    save_artifact(
        artifact_dir, "missed_hosts.txt", render_missed_hosts(result)
    )
    assert result.found_count > result.missed_count
    assert 0.0 <= result.kind_divergence <= 1.0
