"""Regeneration of the static-vs-adaptive TASS comparison."""

from repro.analysis.adaptive import render_adaptive, run_adaptive

from benchmarks.conftest import save_artifact


def test_adaptive(dataset, artifact_dir):
    result = run_adaptive(dataset)
    save_artifact(artifact_dir, "adaptive.txt", render_adaptive(result))
    for comparison in result.comparisons:
        assert comparison.hitrate_gain_month6 > -0.01
        assert comparison.probe_overhead > 0.0
