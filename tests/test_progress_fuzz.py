"""Mutation fuzz of ``progress.json`` through ``read_progress`` and resume.

``progress.json`` is wall-clock telemetry, written atomically but not
durably, so a resume may find it missing, stale, truncated or damaged.
Whatever it holds, :meth:`CheckpointStore.read_progress` must return a
dict or ``None``, and :meth:`CampaignRunner.resume` must finish the
campaign with status and journaled generations byte-identical to an
unfaulted run: the file may cost counters, never the campaign.  A bare
exception from any mutation is a failure.

The serial executor publishes no fleet telemetry, so each resume gets
one publication in the mailbox: the fuzzed counters are then summed
with a real update, as a distributed resume sums them.  The named
reproducer at the end runs that distributed resume itself.
"""

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_mini_dataset, byte_edits, mutate_bytes
from repro import obs
from repro.orchestrator import (
    CampaignRunner,
    CampaignSpec,
    CheckpointStore,
    ReseedPolicy,
)

SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)

#: One fleet run's telemetry, as the distributed coordinator publishes.
_UPDATE = {"failures": 1, "respawns": 1, "degraded": False,
           "survivors": None, "fleet_initial": 2}


class _Killed(RuntimeError):
    """Raised by the checkpoint hook to stop a run at a boundary."""


def _kill_at(n):
    seen = [0]

    def hook(_):
        seen[0] += 1
        if seen[0] == n:
            raise _Killed()

    return hook


def _run(spec, directory, on_checkpoint=None):
    runner = CampaignRunner(
        spec, dataset=build_mini_dataset(), directory=directory
    )
    runner.store.write_spec(runner.spec.to_dict())
    return runner.run(on_checkpoint=on_checkpoint)


def _final_bytes(directory):
    """The deterministic artifacts: journaled generations + status."""
    journal, error = CheckpointStore(directory).read_journal()
    assert error is None, error
    generations = {
        entry["gen"]: (directory / entry["file"]).read_bytes()
        for entry in journal["generations"]
    }
    return generations, (directory / "status.json").read_bytes()


@pytest.fixture(autouse=True)
def _quiet(clear_knobs, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "off")
    yield
    obs.take_executor_telemetry()


#: The autouse environment fixture holds for every example alike.
_FUZZ = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """``(reference bytes, killed directory)`` of the serial SPEC.

    The killed directory stopped mid-wave 0, at its second shard
    checkpoint, with a ``progress.json`` of the real shape on disk.
    """
    root = tmp_path_factory.mktemp("progress-fuzz")
    _run(SPEC, root / "reference")
    killed = root / "killed"
    with pytest.raises(_Killed):
        _run(SPEC, killed, on_checkpoint=_kill_at(2))
    assert (killed / "progress.json").exists()
    return _final_bytes(root / "reference"), killed


def _resume_with(killed, progress: bytes | None):
    """Resume a copy of ``killed`` whose progress.json holds
    ``progress`` (``None``: deleted); the copy's final bytes and
    progress document."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "campaign"
        shutil.copytree(killed, directory)
        if progress is None:
            (directory / "progress.json").unlink()
        else:
            (directory / "progress.json").write_bytes(progress)
        document = CheckpointStore(directory).read_progress()
        assert document is None or isinstance(document, dict)
        runner = CampaignRunner.resume(
            directory, dataset=build_mini_dataset()
        )
        obs.take_executor_telemetry()
        obs.publish_executor_telemetry(_UPDATE)
        status = runner.run()
        assert status["finished"] is True
        final = json.loads((directory / "progress.json").read_text())
        return _final_bytes(directory), final


def _check_resume(campaign, progress: bytes | None) -> dict:
    reference, killed = campaign
    final_bytes, final = _resume_with(killed, progress)
    assert final_bytes == reference
    retries = final["wave_retries_used"]
    assert isinstance(retries, int) and not isinstance(retries, bool)
    assert retries >= 0
    for key, value in final["executor_telemetry"].items():
        assert value is None or (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
        ), (key, value)
    return final


_EDITS = byte_edits(1 << 10, min_size=1)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


@_FUZZ
@given(edits=_EDITS)
def test_byte_mutated_progress_resumes_identically(campaign, edits):
    raw = (campaign[1] / "progress.json").read_bytes()
    _check_resume(campaign, mutate_bytes(raw, edits))


_DELETE = object()


@_FUZZ
@given(
    field=st.sampled_from(
        ["wave_retries_used", "executor_telemetry", "time", "finished"]
    ),
    value=st.one_of(
        _JSON,
        st.just(_DELETE),
        st.dictionaries(
            st.sampled_from(["failures", "respawns", "survivors",
                             "degraded", "fleet_initial", "other"]),
            _JSON,
            max_size=4,
        ),
    ),
)
def test_structured_progress_resumes_identically(campaign, field, value):
    document = json.loads((campaign[1] / "progress.json").read_text())
    if value is _DELETE:
        del document[field]
    else:
        document[field] = value
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts:
    # a hand-edited file can hold them too.
    _check_resume(campaign, json.dumps(document).encode())


@pytest.mark.parametrize(
    "progress",
    [
        None,
        b"",
        b"[1, 2]",
        b'"progress"',
        b"\xff\xfe{",
        b'{"executor_telemetry": {"failures": 1e999}}',
        b'{"executor_telemetry": {"failures": NaN}}',
        b'{"executor_telemetry": {"failures": ' + b"9" * 400 + b"}}",
        b'{"wave_retries_used": true}',
        b'{"wave_retries_used": -1}',
        b'{"wave_retries_used": 1.5}',
    ],
    ids=["deleted", "empty", "list", "string", "not-utf8", "inf-counter",
         "nan-counter", "huge-counter", "bool-retries",
         "negative-retries", "float-retries"],
)
def test_named_progress_damage_resumes_identically(campaign, progress):
    _check_resume(campaign, progress)


def test_truncated_progress_resumes_identically(campaign):
    raw = (campaign[1] / "progress.json").read_bytes()
    _check_resume(campaign, raw[: len(raw) // 2])


def test_damaged_counters_are_dropped_and_numeric_ones_kept(campaign):
    document = json.loads((campaign[1] / "progress.json").read_text())
    document["wave_retries_used"] = True
    document["executor_telemetry"] = {
        "failures": "x", "respawns": 2, "survivors": None,
        "degraded": True, "fleet_initial": [1],
    }
    final = _check_resume(campaign, json.dumps(document).encode())
    assert final["wave_retries_used"] == 0
    # respawns continues from 2; the damaged counters restart from the
    # update alone; a None sample takes the update's value.
    assert final["executor_telemetry"] == {
        "failures": 1, "respawns": 3, "degraded": 0,
        "survivors": None, "fleet_initial": 2,
    }


def test_damaged_telemetry_counter_does_not_crash_distributed_resume(
    tmp_path, monkeypatch
):
    # Reproducer: a 2-worker campaign stopped after wave 1 whose
    # progress.json says ``"failures": "x"`` used to crash the resume
    # with a bare TypeError from merge_telemetry ("x" + 0).
    monkeypatch.setenv("REPRO_DIST_WORKERS", "2")
    spec = dataclasses.replace(SPEC, executor="distributed")
    _run(spec, tmp_path / "reference")
    directory = tmp_path / "campaign"
    # Wave 0's 3 shard checkpoints and its boundary checkpoint, whose
    # progress.json is on disk when wave 1's first checkpoint stops it.
    with pytest.raises(_Killed):
        _run(spec, directory, on_checkpoint=_kill_at(5))
    progress = json.loads((directory / "progress.json").read_text())
    assert progress["waves_completed"] == 1
    assert isinstance(progress["executor_telemetry"]["failures"], int)
    progress["executor_telemetry"]["failures"] = "x"
    (directory / "progress.json").write_text(json.dumps(progress))

    status = CampaignRunner.resume(
        directory, dataset=build_mini_dataset()
    ).run()
    assert status["finished"] is True
    assert _final_bytes(directory) == _final_bytes(tmp_path / "reference")
    final = json.loads((directory / "progress.json").read_text())
    failures = final["executor_telemetry"]["failures"]
    assert isinstance(failures, int) and not isinstance(failures, bool)
