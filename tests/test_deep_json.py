"""JSON nested too deeply to decode, at every reader that parses JSON.

``json.loads`` raises ``RecursionError`` on ``"[" * 200_000``.  Every
reader goes through :func:`repro.jsonio.loads`, which makes that a
``ValueError``, so each reader gives the outcome it already gives for
any other malformed JSON.  One case per reader, each asserting that
named outcome.
"""

import json
import socket
import threading

import numpy as np
import pytest

from conftest import build_mini_dataset
from repro import obs
from repro.census import loader
from repro.census.loader import CensusDataset, DatasetCacheError, get_dataset
from repro.obs.__main__ import main as obs_main
from repro.obs.report import load_rollup, read_events
from repro.obs.schema import validate_file
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.orchestrator.checkpoint import CheckpointStore
from repro.orchestrator.cli import _follow_events, main
from repro.scan.distributed import FrameStream

DEEP = "[" * 200_000 + "]" * 200_000

SPEC = CampaignSpec(
    preset="mini",
    waves=1,
    phi=0.9,
    shards=2,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)


@pytest.fixture(autouse=True)
def _quiet(monkeypatch):
    for knob in ("REPRO_FS_FAULT_PLAN", "REPRO_FAULT_PLAN",
                 "REPRO_CKPT_KEEP"):
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_OBS", "off")
    yield
    obs.take_executor_telemetry()


def _campaign(directory, observe="off"):
    """A finished one-wave mini campaign in ``directory``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_OBS", observe)
        runner = CampaignRunner(
            SPEC, dataset=build_mini_dataset(), directory=directory
        )
        runner.store.write_spec(runner.spec.to_dict())
        runner.run()
    return runner.store


def _read_spec(tmp_path, capsys):
    store = CheckpointStore(tmp_path)
    store.spec_path.write_text(DEEP)
    with pytest.raises(ValueError, match="is not valid JSON"):
        store.read_spec()


def _run_exits_2(tmp_path, capsys):
    (tmp_path / "campaign.json").write_text(DEEP)
    assert main(["run", "--dir", str(tmp_path), "--no-pace"]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def _read_journal(tmp_path, capsys):
    store = CheckpointStore(tmp_path)
    store.journal_path.write_text(DEEP)
    journal, reason = store.read_journal()
    assert journal is None and reason.startswith("ValueError")


def _read_progress(tmp_path, capsys):
    store = CheckpointStore(tmp_path)
    store.progress_path.write_text(DEEP)
    assert store.read_progress() is None


def _audit(tmp_path, capsys):
    store = _campaign(tmp_path)
    store.progress_path.write_text(DEEP)
    (finding,) = [
        f for f in store.audit() if f["artifact"] == "progress.json"
    ]
    assert not finding["ok"] and "not valid JSON" in finding["detail"]


def _validate_events(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text(DEEP + "\n")
    (error,) = validate_file(path)
    assert error.startswith("line 1: not JSON")


def _obs_report(tmp_path, capsys):
    _campaign(tmp_path)
    (tmp_path / "events.jsonl").write_text(DEEP + "\n")
    with pytest.raises(ValueError, match="nests too deeply"):
        read_events(tmp_path / "events.jsonl")
    (tmp_path / "events.jsonl").unlink()
    (tmp_path / "status.json").write_text(DEEP)
    with pytest.raises(ValueError, match="nests too deeply"):
        load_rollup(tmp_path)
    assert obs_main(["report", "--dir", str(tmp_path)]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def _follow(tmp_path, capsys):
    store = _campaign(tmp_path, observe="events")
    lines = store.events_path.read_text()
    store.events_path.write_text(DEEP + "\n" + lines)
    # The deep line is skipped like any unparsable one; the follower
    # prints the rest and stops at the campaign's end.
    assert _follow_events(store) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines.splitlines())


def _dataset_meta(tmp_path, capsys):
    path = tmp_path / f"census-tiny-seed0-v{loader.LOADER_VERSION}.npz"
    get_dataset(preset="tiny", seed=0, cache_dir=tmp_path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["meta"] = np.array(DEEP)
    np.savez(path, **arrays)
    with pytest.raises(DatasetCacheError, match=str(path)):
        CensusDataset.load(path)
    # get_dataset answers the named error by regenerating the cache.
    dataset = get_dataset(preset="tiny", seed=0, cache_dir=tmp_path)
    assert dataset.preset == "tiny"
    CensusDataset.load(path)


def _frame(tmp_path, capsys):
    ours, theirs = socket.socketpair()
    body = DEEP.encode()
    # The frame outgrows the socket buffer: send it while recv drains.
    sender = threading.Thread(
        target=theirs.sendall, args=(len(body).to_bytes(4, "big") + body,)
    )
    with ours, theirs:
        sender.start()
        with pytest.raises(ValueError, match="nests too deeply"):
            FrameStream(ours).recv()
        sender.join()


BOUNDARIES = {
    "read_spec": _read_spec,
    "orchestrator-run": _run_exits_2,
    "read_journal": _read_journal,
    "read_progress": _read_progress,
    "audit": _audit,
    "obs-validate": _validate_events,
    "obs-report": _obs_report,
    "status-follow": _follow,
    "dataset-meta": _dataset_meta,
    "wire-frame": _frame,
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_too_deep_json_is_the_readers_named_outcome(
    boundary, tmp_path, capsys
):
    BOUNDARIES[boundary](tmp_path, capsys)


def test_deep_json_still_overflows_the_stdlib_decoder():
    """The reason for the helper: without it these cases would raise
    ``RecursionError``, which no ``except ValueError`` catches."""
    with pytest.raises(RecursionError):
        json.loads(DEEP)
