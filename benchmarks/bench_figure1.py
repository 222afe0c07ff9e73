"""Regeneration of Figure 1 (scanning-strategy scopes)."""

from repro.analysis.figure1 import render_figure1, run_figure1

from benchmarks.conftest import save_artifact


def test_figure1(dataset, artifact_dir):
    result = run_figure1(dataset)
    save_artifact(artifact_dir, "figure1.txt", render_figure1(result))
    assert (
        result.iana_slash0
        > result.iana_allocated
        > result.bgp_announced
        > max(result.hitlist_sizes.values())
    )
