"""Reader commands beside a running campaign: ``status``, ``obs report``
and ``verify``.

``status`` and ``obs report`` read a campaign directory that another
process may be writing.
They verify the newest checkpoint generation and fall back to an older
intact one exactly as a resume would, but they move, delete and
rewrite nothing: no tmp-file sweep, no quarantine, no journal rewind.
A reader that unlinks ``checkpoint.N.tmp.npz`` between a campaign's
write and its rename kills that campaign.  Only the next ``resume``
quarantines and rolls back.  No reader creates anything: given a
missing directory, each of the three exits 2 with the missing
``campaign.json`` error and leaves no directory behind.  Neither do
``run`` and ``resume``, which refuse a missing directory before they
open the store that writes.
"""

import json

import pytest

from conftest import build_mini_dataset
from repro import obs
from repro.obs.__main__ import main as obs_main
from repro.obs.report import load_rollup
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.orchestrator.cli import main
from repro.orchestrator.storage_faults import flip_byte

SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)

#: What a campaign killed mid-write leaves next to the real files.
_STRAYS = ("checkpoint.9.tmp.npz", "checkpoints.tmp", "campaign.tmp")


class _Killed(RuntimeError):
    """Raised by the checkpoint hook to stop a run at a boundary."""


@pytest.fixture(autouse=True)
def _quiet(monkeypatch):
    for knob in ("REPRO_FS_FAULT_PLAN", "REPRO_FAULT_PLAN",
                 "REPRO_CKPT_KEEP"):
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_OBS", "off")
    yield
    obs.take_executor_telemetry()


def _killed_campaign(directory, checkpoints: int) -> list[dict]:
    """Run SPEC until its ``checkpoints``-th checkpoint, then kill it;
    the status after each checkpoint, oldest first."""
    runner = CampaignRunner(
        SPEC, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    statuses = []

    def hook(runner):
        statuses.append(runner.status())
        if len(statuses) == checkpoints:
            raise _Killed()

    with pytest.raises(_Killed):
        runner.run(on_checkpoint=hook)
    assert not (directory / "status.json").exists()
    return statuses


def _snapshot(directory) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def test_readers_leave_stray_tmp_files(tmp_path, capsys):
    _killed_campaign(tmp_path, checkpoints=2)
    for name in _STRAYS:
        (tmp_path / name).write_bytes(b"half-written")
    before = _snapshot(tmp_path)
    assert main(["status", "--dir", str(tmp_path), "--json"]) == 0
    assert obs_main(["report", "--dir", str(tmp_path), "--json"]) == 0
    capsys.readouterr()
    assert _snapshot(tmp_path) == before


def test_status_of_bitrotted_newest_reads_the_previous_generation(
    tmp_path, capsys
):
    statuses = _killed_campaign(tmp_path, checkpoints=3)
    journal = (tmp_path / "checkpoints.json").read_bytes()
    newest = json.loads(journal)["latest"]
    flip_byte(tmp_path / f"checkpoint.{newest}.npz")
    before = _snapshot(tmp_path)

    assert main(["status", "--dir", str(tmp_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == statuses[-2]
    campaign = load_rollup(tmp_path)["campaign"]
    assert campaign["position"] == statuses[-2]["position"]
    assert campaign["totals"] == statuses[-2]["totals"]
    # Nothing moved: the journal still names the rotten generation,
    # which is still in place, and there is no quarantine.
    assert _snapshot(tmp_path) == before
    assert (tmp_path / "checkpoints.json").read_bytes() == journal
    assert not (tmp_path / "quarantine").exists()

    # The next resume is what quarantines and rolls back.
    runner = CampaignRunner.resume(tmp_path, dataset=build_mini_dataset())
    assert [i["type"] for i in runner.store.incidents] == [
        "checkpoint.corrupt", "checkpoint.rollback",
    ]
    assert (tmp_path / "quarantine" / f"checkpoint.{newest}.npz").exists()
    assert runner.status() == statuses[-2]


_NO_SPEC = "no campaign.json under {} — run `plan` first"


def test_status_of_a_missing_directory_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["status", "--dir", str(missing)]) == 2
    assert _NO_SPEC.format(missing) in capsys.readouterr().err
    assert not missing.exists()


def test_obs_report_of_a_missing_directory_creates_nothing(
    tmp_path, capsys
):
    missing = tmp_path / "missing"
    assert obs_main(["report", "--dir", str(missing)]) == 2
    assert _NO_SPEC.format(missing) in capsys.readouterr().err
    assert not missing.exists()


def test_verify_of_a_missing_directory_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["verify", "--dir", str(missing)]) == 2
    assert _NO_SPEC.format(missing) in capsys.readouterr().err
    assert not missing.exists()


def test_run_of_a_missing_directory_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["run", "--dir", str(missing)]) == 2
    assert _NO_SPEC.format(missing) in capsys.readouterr().err
    assert not missing.exists()


def test_resume_of_a_missing_directory_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["resume", "--dir", str(missing)]) == 2
    assert f"no checkpoint under {missing} — nothing to resume" in (
        capsys.readouterr().err
    )
    assert not missing.exists()
