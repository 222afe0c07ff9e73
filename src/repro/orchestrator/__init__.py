"""Campaign orchestrator: resumable multi-wave scan campaigns.

A *campaign* is a declarative spec (dataset preset, strategy
parameters, wave count, reseed policy, shard/executor knobs,
probe budget, pacing rate) compiled into a sequence of *waves*.  Each
wave plans a selection with :class:`~repro.core.tass.TassStrategy`,
executes it through the sharded scan layer, and feeds the achieved
hitrate and missed counts into the reseed decision for the next wave.
Campaign state is checkpointed after every shard, so a killed run
resumes byte-identically — run-to-completion ≡ kill-and-resume at any
shard boundary.

Modules:

- :mod:`repro.orchestrator.campaign`   — spec and runner;
- :mod:`repro.orchestrator.waves`      — wave compilation, the reseed
  policy, and the per-wave cores shared with the analysis layer;
- :mod:`repro.orchestrator.checkpoint` — atomic single-file checkpoints
  and the wave records they hold;
- :mod:`repro.orchestrator.pacing`     — token-bucket probe pacing;
- :mod:`repro.orchestrator.cli`        — ``python -m repro.orchestrator``.
"""

from repro.orchestrator.campaign import (
    CampaignRunner,
    CampaignSpec,
    WaveRecord,
    run_campaign,
    status_from_manifest,
)
from repro.orchestrator.checkpoint import CheckpointStore
from repro.orchestrator.pacing import PacedTargets, TokenBucket
from repro.orchestrator.waves import ReseedPolicy, WavePlan, compile_waves

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CheckpointStore",
    "PacedTargets",
    "ReseedPolicy",
    "TokenBucket",
    "WavePlan",
    "WaveRecord",
    "compile_waves",
    "run_campaign",
    "status_from_manifest",
]
