"""Regression contract for progress.json.

``progress.json`` is the wall-clock-side heartbeat: advisory, never
read back to reconstruct deterministic state, but external tooling
(`status --follow`, dashboards, the obs report) depends on its shape.
Every key must be documented in ``PROGRESS_KEYS``, strictly
JSON-serializable (``allow_nan=False``), and present regardless of
which executor ran the campaign.
"""

import json

import pytest

from conftest import build_mini_dataset
from repro.orchestrator import CampaignRunner, CampaignSpec
from repro.orchestrator.campaign import PROGRESS_KEYS


def _run_campaign(tmp_path, executor, monkeypatch):
    if executor == "distributed":
        monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    spec = CampaignSpec(
        preset="mini",
        waves=2,
        phi=0.9,
        shards=2,
        executor=executor,
        batch_size=1 << 12,
    )
    directory = tmp_path / executor
    runner = CampaignRunner(
        spec, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    runner.run()
    return json.loads((directory / "progress.json").read_text())


def test_every_key_is_documented():
    assert PROGRESS_KEYS
    for key, doc in PROGRESS_KEYS.items():
        assert isinstance(key, str) and key
        assert isinstance(doc, str) and doc.strip(), (
            f"PROGRESS_KEYS[{key!r}] needs a real description"
        )


@pytest.mark.parametrize("executor", ["serial", "distributed"])
def test_schema_is_stable_across_executors(
    tmp_path, monkeypatch, executor
):
    progress = _run_campaign(tmp_path, executor, monkeypatch)

    # Exactly the documented keys — nothing undeclared, nothing missing.
    assert set(progress) == set(PROGRESS_KEYS)

    # Strict JSON: round-trips losslessly and admits no NaN/Infinity.
    encoded = json.dumps(progress, allow_nan=False, sort_keys=True)
    assert json.loads(encoded) == progress

    assert isinstance(progress["time"], float)
    assert progress["executor"] == executor
    assert progress["finished"] is True
    assert progress["waves_completed"] == 2
    assert isinstance(progress["probes_sent"], int)
    assert progress["probes_sent"] > 0
    assert progress["wave_retries_used"] == 0
    assert isinstance(progress["executor_telemetry"], dict)
    if executor == "distributed":
        # The fleet reports in even on a clean run.
        telemetry = progress["executor_telemetry"]
        assert telemetry["fleet_initial"] == 2
        assert telemetry["failures"] == 0
    else:
        assert progress["executor_telemetry"] == {}
