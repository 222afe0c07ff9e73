"""Campaign orchestrator: checkpointed and uncheckpointed campaigns.

Runs the same short campaign with checkpointing disabled and with a
durable checkpoint after every shard, on the small preset.  The
runs must agree byte-for-byte on every deterministic field,
re-asserting kill-and-resume's precondition on a generated preset.  perfbench's ``v4-campaign`` workload times checkpointing
(``orchestrator.checkpoint_save_s``) inside a whole campaign.
"""

import json

import pytest

from repro.orchestrator import CampaignSpec, ReseedPolicy, run_campaign

_WAVES = 2
_PHI = 0.9


@pytest.fixture(scope="module")
def campaign_spec(dataset):
    return CampaignSpec(
        name="bench",
        preset=dataset.preset,
        protocol="http",
        phi=_PHI,
        waves=_WAVES,
        reseed=ReseedPolicy("interval", interval=0),
        shards=4,
        executor="serial",
    )


@pytest.fixture(scope="module")
def reference_status(campaign_spec, dataset):
    return run_campaign(campaign_spec, dataset=dataset)


def _deterministic_digest(status):
    return json.dumps(
        {"waves": status["waves"], "totals": status["totals"]},
        sort_keys=True,
    )


def test_campaign_checkpoint_off(campaign_spec, dataset, reference_status):
    status = run_campaign(campaign_spec, dataset=dataset)
    assert _deterministic_digest(status) == _deterministic_digest(
        reference_status
    )


def test_campaign_checkpoint_every_shard(
    campaign_spec, dataset, reference_status, tmp_path
):
    status = run_campaign(campaign_spec, dataset=dataset, directory=tmp_path)
    assert _deterministic_digest(status) == _deterministic_digest(
        reference_status
    )
