"""Regeneration of the re-seed interval sweep (TASS step 5)."""

from repro.analysis.reseeding import render_reseeding, run_reseeding

from benchmarks.conftest import save_artifact


def test_reseeding(dataset, artifact_dir):
    result = run_reseeding(dataset)
    save_artifact(artifact_dir, "reseeding.txt", render_reseeding(result))
    for protocol in dataset.protocols:
        rows = {row.reseed_every: row for row in result.for_protocol(protocol)}
        assert rows[None].total_probes < rows[1].total_probes
        assert rows[1].worst_hitrate >= rows[None].worst_hitrate
