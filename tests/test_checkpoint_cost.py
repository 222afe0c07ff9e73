"""What one checkpoint costs, and the journal cache that keeps it low.

A shard's checkpoint (``_checkpoint()`` then ``_progress()``) makes
exactly four ``fsync``s — the generation file, the directory after its
rename, ``checkpoints.json`` and the directory after its rename — and a
steady-state save never re-parses the journal it wrote itself.  The
journal cache is an exact bytes match, so a journal rewritten on disk
behind the store's back is always re-read, and a save after a rollback
writes the same bytes a store with no cache writes.  The runner builds
the manifest's spec and wave-record dicts once, and never hands them to
a caller.
"""

import json
import os
import shutil
import stat

import numpy as np
import pytest

from conftest import build_mini_dataset, checkpoint_manifest
from repro.orchestrator import (
    CampaignRunner,
    CampaignSpec,
    CheckpointStore,
    ReseedPolicy,
    checkpoint,
)
from repro.orchestrator.checkpoint import flip_byte

SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)


pytestmark = pytest.mark.usefixtures("clear_knobs")


def _save(store, ordinal):
    store.save(
        checkpoint_manifest(ordinal=ordinal),
        {"mask": np.arange(6) + ordinal},
    )


def _runner(directory) -> CampaignRunner:
    runner = CampaignRunner(
        SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    return runner


# ---------------------------------------------------------------------------
# The fsync budget and the skipped re-parse
# ---------------------------------------------------------------------------


def test_shard_checkpoint_makes_four_fsyncs(tmp_path, monkeypatch):
    runner = _runner(tmp_path)
    runner._checkpoint()  # the first save writes the first journal
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return real_fsync(fd)

    monkeypatch.setattr(checkpoint.os, "fsync", recording_fsync)
    manifest = runner._checkpoint()
    runner._progress(manifest=manifest)
    # Generation file, directory, journal, directory; progress.json
    # is renamed into place without one.
    assert synced == [False, True, False, True]
    assert runner.store.progress_path.exists()


def test_steady_state_save_does_not_parse_the_journal(
    tmp_path, monkeypatch
):
    store = CheckpointStore(tmp_path, keep=2)
    _save(store, 0)
    _save(store, 1)
    real_loads = json.loads
    parsed = []

    def counting_loads(*args, **kwargs):
        parsed.append(args[0])
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(checkpoint.json, "loads", counting_loads)
    _save(store, 2)
    _save(store, 3)
    assert parsed == []
    monkeypatch.undo()
    journal, error = CheckpointStore(tmp_path).read_journal()
    assert error is None
    assert [e["gen"] for e in journal["generations"]] == [3, 4]


# ---------------------------------------------------------------------------
# Journal-cache coherence
# ---------------------------------------------------------------------------


def test_same_length_damaged_journal_is_reread(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    _save(store, 0)
    _save(store, 1)
    raw = store.journal_path.read_bytes()
    damaged = raw.replace(b'"latest": 2', b'"latest": 9')
    assert len(damaged) == len(raw) and damaged != raw
    store.journal_path.write_bytes(damaged)
    journal, error = store.read_journal()
    assert journal is None
    assert "latest does not match" in error
    # save() reports it as the usual incident and falls back to the
    # generation files on disk.
    _save(store, 2)
    corrupt = store.incidents[-1]
    assert corrupt["type"] == "checkpoint.corrupt"
    assert corrupt["gen"] is None
    assert "checkpoints.json" in corrupt["reason"]
    assert store.read_journal()[0]["latest"] == 3


def test_same_length_valid_journal_is_reread(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    _save(store, 0)
    _save(store, 1)
    journal, _ = store.read_journal()
    old = journal["generations"][0]["sha256"]
    new = ("0" if old[0] != "0" else "1") + old[1:]
    raw = store.journal_path.read_bytes()
    store.journal_path.write_bytes(raw.replace(old.encode(), new.encode()))
    journal, error = store.read_journal()
    assert error is None
    assert journal["generations"][0]["sha256"] == new
    # Restoring the bytes this store wrote serves its cached document.
    store.journal_path.write_bytes(raw)
    assert store.read_journal()[0]["generations"][0]["sha256"] == old


def test_save_after_rollback_writes_the_uncached_bytes(tmp_path):
    warm_dir, cold_dir = tmp_path / "warm", tmp_path / "cold"
    store = CheckpointStore(warm_dir, keep=3)
    for ordinal in range(3):
        _save(store, ordinal)
    flip_byte(warm_dir / "checkpoint.3.npz")
    manifest, _ = store.load()
    assert manifest["ordinal"] == 1
    assert store.incidents[-1]["type"] == "checkpoint.rollback"
    shutil.copytree(warm_dir, cold_dir)
    # The same save, by the store that rolled back (its cache holds
    # the rewound journal) and by a fresh store that parses it.
    _save(store, 2)
    _save(CheckpointStore(cold_dir, keep=3), 2)
    for name in ("checkpoints.json", "checkpoint.3.npz"):
        assert (warm_dir / name).read_bytes() == (cold_dir / name).read_bytes()
    journal = json.loads((warm_dir / "checkpoints.json").read_text())
    assert journal["latest"] == 3
    assert [e["gen"] for e in journal["generations"]] == [1, 2, 3]


# ---------------------------------------------------------------------------
# The manifest caches stay private to the runner
# ---------------------------------------------------------------------------


def test_status_does_not_share_the_manifest_caches(tmp_path):
    runner = _runner(tmp_path / "campaign")
    final = runner.run()
    before = json.dumps(runner._manifest(), sort_keys=True)
    final["spec"]["name"] = "mutated"
    final["waves"][0]["probes_sent"] = -1
    status = runner.status()
    status["spec"]["phi"] = 0.1
    status["waves"][-1]["responses"] = -1
    assert json.dumps(runner._manifest(), sort_keys=True) == before
    assert runner.status()["spec"]["name"] == SPEC.name
