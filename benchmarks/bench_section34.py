"""Regeneration of the §3.4 headline statistics (FTP)."""

from repro.analysis.section34 import render_section34, run_section34

from benchmarks.conftest import save_artifact


def test_section34(dataset, artifact_dir):
    result = run_section34(dataset)
    save_artifact(artifact_dir, "section34.txt", render_section34(result))
    # phi=0.95 must cost far less space than phi=1 (paper: 27.3 vs 76.2).
    assert result.phi95_space_less < 0.6 * result.phi1_space_less
    # m-view cheaper than l-view at both settings.
    assert result.phi1_space_more < result.phi1_space_less
    assert result.phi95_space_more < result.phi95_space_less
    # The densest ~15% of prefixes hold the majority of hosts.
    assert result.dense_host_coverage > 0.5
    assert result.dense_space_coverage < 0.1
