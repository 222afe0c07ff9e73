"""Generation-journaled checkpoint store: digests, rollback, and fsck.

Unit coverage for the storage-hardened :class:`CheckpointStore`: the
``checkpoint.<gen>.npz`` layout and its ``checkpoints.json`` journal,
keep-N pruning, integrity verification (whole-payload SHA-256 +
per-array digests), quarantine-and-rollback on corruption, journal
rebuild, the failed-write cleanup guarantees, and the
``verify [--repair]`` CLI.  Campaign-level recovery (byte-identity
under fault plans) lives in ``test_storage_chaos.py``.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.orchestrator.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruption,
    CheckpointStore,
    _sanitize_floats,
)
from repro.orchestrator.cli import main
from repro.orchestrator.storage_faults import FsFaultPlan, flip_byte


def _save_n(store, n, start=0):
    """n deterministic saves; the manifest carries its ordinal."""
    for i in range(start, start + n):
        store.save(
            {"spec": {}, "ordinal": i}, {"mask": np.arange(6) + i}
        )


def _rewrite_newest(directory, damage):
    """Rewrite ``checkpoint.2.npz`` as ``damage(manifest, arrays)``
    returns it, and drop the journal so its whole-file digest cannot
    catch the change first: only the archive's own checks remain."""
    path = directory / "checkpoint.2.npz"
    with np.load(path) as npz:
        manifest = json.loads(str(npz["manifest"]))
        arrays = {name: npz[name] for name in npz.files if name != "manifest"}
    manifest, arrays = damage(manifest, arrays)
    np.savez_compressed(path, manifest=json.dumps(manifest), **arrays)
    (directory / "checkpoints.json").unlink()


def _assert_rolls_back_to_first(directory):
    store = CheckpointStore(directory, keep=2)
    manifest, arrays = store.load()
    assert manifest["ordinal"] == 0
    assert np.array_equal(arrays["mask"], np.arange(6))
    assert (store.quarantine_dir / "checkpoint.2.npz").exists()
    assert store.incidents[0]["type"] == "checkpoint.corrupt"


# ---------------------------------------------------------------------------
# Generation layout and journal
# ---------------------------------------------------------------------------


class TestGenerations:
    def test_every_save_promotes_a_new_generation(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=4)
        _save_n(store, 3)
        assert [g for g, _ in store.generation_files()] == [1, 2, 3]
        journal, error = store.read_journal()
        assert error is None
        assert journal["latest"] == 3
        assert [e["gen"] for e in journal["generations"]] == [1, 2, 3]

    def test_journal_digests_match_the_files(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        _save_n(store, 2)
        journal, _ = store.read_journal()
        for entry in journal["generations"]:
            data = (tmp_path / entry["file"]).read_bytes()
            assert entry["bytes"] == len(data)
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    def test_keep_window_prunes_old_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        _save_n(store, 5)
        assert [g for g, _ in store.generation_files()] == [4, 5]
        journal, _ = store.read_journal()
        assert [e["gen"] for e in journal["generations"]] == [4, 5]

    def test_keep_env_knob_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT_KEEP", "3")
        store = CheckpointStore(tmp_path)
        assert store.keep == 3
        _save_n(store, 4)
        assert [g for g, _ in store.generation_files()] == [2, 3, 4]

    def test_keep_one_restores_single_checkpoint_behaviour(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, keep=1)
        _save_n(store, 3)
        assert [g for g, _ in store.generation_files()] == [3]

    def test_checkpoint_path_tracks_the_latest_generation(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, keep=2)
        assert store.checkpoint_path is None
        _save_n(store, 2)
        assert store.checkpoint_path == store.generation_path(2)

    def test_manifest_carries_per_array_digests(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _save_n(store, 1)
        manifest, arrays = store.load()
        assert manifest["version"] == CHECKPOINT_VERSION
        digest = manifest["array_sha256"]["mask"]
        assert isinstance(digest, str) and len(digest) == 64
        assert set(manifest["array_sha256"]) == set(arrays)

    def test_failed_save_consumes_no_generation_number(self, tmp_path):
        store = CheckpointStore(
            tmp_path, keep=4, fault_plan=FsFaultPlan.parse("enospc@save-1")
        )
        _save_n(store, 1)
        with pytest.raises(OSError):
            _save_n(store, 1, start=1)
        _save_n(store, 1, start=1)
        assert [g for g, _ in store.generation_files()] == [1, 2]
        manifest, _ = store.load()
        assert manifest["ordinal"] == 1

    def test_numbering_continues_across_reopen(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        reopened = CheckpointStore(tmp_path, keep=2)
        _save_n(reopened, 1, start=2)
        journal, _ = reopened.read_journal()
        assert journal["latest"] == 3


# ---------------------------------------------------------------------------
# Verification, quarantine, rollback
# ---------------------------------------------------------------------------


class TestRollback:
    def test_bitrot_quarantines_and_rolls_back(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=3), 3)
        flip_byte(tmp_path / "checkpoint.3.npz")
        store = CheckpointStore(tmp_path, keep=3)
        manifest, arrays = store.load()
        assert manifest["ordinal"] == 1  # gen 2 holds the 2nd save
        assert np.array_equal(arrays["mask"], np.arange(6) + 1)
        assert (store.quarantine_dir / "checkpoint.3.npz").exists()
        assert not (tmp_path / "checkpoint.3.npz").exists()
        types = [i["type"] for i in store.incidents]
        assert types == ["checkpoint.corrupt", "checkpoint.rollback"]
        rollback = store.incidents[-1]
        assert rollback["from_gen"] == 3 and rollback["to_gen"] == 2
        journal, _ = store.read_journal()
        assert journal["latest"] == 2

    def test_next_save_after_rollback_reuses_the_generation(
        self, tmp_path
    ):
        _save_n(CheckpointStore(tmp_path, keep=3), 3)
        flip_byte(tmp_path / "checkpoint.3.npz")
        store = CheckpointStore(tmp_path, keep=3)
        store.load()
        _save_n(store, 1, start=2)  # replays the lost 3rd save
        journal, _ = store.read_journal()
        assert journal["latest"] == 3
        assert store.verify_generation(
            store.generation_path(3), journal["generations"][-1]
        ) is None

    def test_truncation_caught_by_journaled_size(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        path = tmp_path / "checkpoint.2.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        store = CheckpointStore(tmp_path, keep=2)
        manifest, _ = store.load()
        assert manifest["ordinal"] == 0
        reason = store.incidents[0]["reason"]
        assert "size" in reason or "sha256" in reason

    def test_all_generations_corrupt_raises(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        flip_byte(tmp_path / "checkpoint.1.npz")
        flip_byte(tmp_path / "checkpoint.2.npz")
        store = CheckpointStore(tmp_path, keep=2)
        with pytest.raises(CheckpointCorruption, match="verify"):
            store.load()
        # Both files held for inspection, not deleted.
        held = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert held == ["checkpoint.1.npz", "checkpoint.2.npz"]

    def test_lost_journal_rebuilt_from_disk(self, tmp_path):
        _save_n(CheckpointStore(tmp_path, keep=2), 3)
        (tmp_path / "checkpoints.json").unlink()
        store = CheckpointStore(tmp_path, keep=2)
        manifest, _ = store.load()
        assert manifest["ordinal"] == 2
        journal, error = store.read_journal()
        assert error is None
        assert journal["latest"] == 3

    @pytest.mark.parametrize(
        "journal",
        [
            "{not json",
            # An entry naming a file outside the campaign directory.
            json.dumps({
                "latest": 2,
                "generations": [
                    {"gen": 1, "file": "../checkpoint.1.npz"},
                    {"gen": 2, "file": "checkpoint.2.npz"},
                ],
            }),
            # Generation numbers that are not ints.
            json.dumps({"latest": "x", "generations": []}),
            json.dumps({"latest": 1.5, "generations": []}),
        ],
        ids=["not-json", "outside-file", "str-latest", "float-latest"],
    )
    def test_corrupt_journal_falls_back_to_scanning(self, tmp_path, journal):
        _save_n(CheckpointStore(tmp_path, keep=2), 2)
        (tmp_path / "checkpoints.json").write_text(journal)
        store = CheckpointStore(tmp_path, keep=2)
        manifest, _ = store.load()
        assert manifest["ordinal"] == 1
        corrupt = store.incidents[0]
        assert corrupt["type"] == "checkpoint.corrupt"
        assert corrupt["gen"] is None
        assert "checkpoints.json" in corrupt["reason"]
        # save() falls back the same way: the next generation number
        # comes from the files on disk.
        (tmp_path / "checkpoints.json").write_text(journal)
        _save_n(store, 1, start=2)
        assert store.incidents[-1]["type"] == "checkpoint.corrupt"
        assert [g for g, _ in store.generation_files()] == [1, 2, 3]
        assert store.read_journal()[0]["latest"] == 3

    @pytest.mark.parametrize("outside", ["absolute", "relative"])
    def test_journal_never_reaches_outside_the_directory(
        self, tmp_path, outside
    ):
        directory = tmp_path / "campaign"
        victim = tmp_path / "victim.npz"
        victim.write_bytes(b"not this campaign's")
        name = str(victim) if outside == "absolute" else "../victim.npz"
        journal = json.dumps({
            "version": 1,
            "latest": 1,
            "generations": [
                {"gen": 1, "file": name, "sha256": "0" * 64, "bytes": 1},
            ],
        })
        _save_n(CheckpointStore(directory, keep=1), 1)
        store = CheckpointStore(directory, keep=1)
        # save() prunes, load() and audit(repair=True) quarantine: none
        # of them may delete or move the named file.
        for act in (
            lambda: _save_n(store, 1, start=1),
            store.load,
            lambda: store.audit(repair=True),
        ):
            (directory / "checkpoints.json").write_text(journal)
            act()
            assert victim.read_bytes() == b"not this campaign's"

    def test_version_mismatch_is_an_error_not_corruption(
        self, tmp_path
    ):
        # A schema-version skew is a code/state mismatch: it must raise
        # plainly, never quarantine the (intact) file.
        path = tmp_path / "checkpoint.1.npz"
        np.savez_compressed(
            path, manifest=json.dumps({"version": 999})
        )
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="version"):
            store.load()
        assert path.exists()
        assert not store.quarantine_dir.exists()

    def test_non_object_manifest_is_corrupt(self, tmp_path, capsys):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        _rewrite_newest(tmp_path, lambda manifest, arrays: ([1, 2], arrays))
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  checkpoint.2.npz" in out and "not an object" in out
        _assert_rolls_back_to_first(tmp_path)

    @pytest.mark.parametrize(
        "damage",
        [
            # The field is gone and the mask changed with it.
            lambda manifest, arrays: (
                {k: v for k, v in manifest.items() if k != "array_sha256"},
                {"mask": arrays["mask"][::-1], "extra": arrays["extra"]},
            ),
            lambda manifest, arrays: (
                dict(manifest, array_sha256="0" * 64), arrays
            ),
            lambda manifest, arrays: (manifest, {"mask": arrays["mask"]}),
        ],
        ids=["field-missing", "field-not-a-dict", "array-missing"],
    )
    def test_manifest_must_digest_every_array(self, tmp_path, damage):
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(2):
            store.save(
                {"ordinal": i},
                {"mask": np.arange(6) + i, "extra": np.zeros(2) + i},
            )
        _rewrite_newest(tmp_path, damage)
        _assert_rolls_back_to_first(tmp_path)


# ---------------------------------------------------------------------------
# Satellites: clear() drops status, failed writes clean up, spec errors
# ---------------------------------------------------------------------------


class TestClear:
    def test_clear_drops_status_journal_and_quarantine(self, tmp_path):
        # Regression: clear() used to leave status.json behind, so
        # `run --fresh` served a stale document from the old campaign.
        _save_n(CheckpointStore(tmp_path, keep=2), 3)
        flip_byte(tmp_path / "checkpoint.3.npz")
        store = CheckpointStore(tmp_path, keep=2)
        store.load()  # populates quarantine/
        store.write_status({"finished": True})
        store.write_progress({"finished": True})
        store.clear()
        assert not store.has_checkpoint()
        assert not store.status_path.exists()
        assert not store.journal_path.exists()
        assert not store.progress_path.exists()
        assert not store.quarantine_dir.exists()


class TestFailedWriteCleanup:
    def test_failed_save_leaves_no_tmp(self, tmp_path):
        store = CheckpointStore(
            tmp_path, fault_plan=FsFaultPlan.parse("enospc@save-0")
        )
        with pytest.raises(OSError):
            _save_n(store, 1)
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_failed_json_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        # An fsync EIO (dying disk) mid-_write_json must unlink its own
        # tmp instead of waiting for the next store open to sweep it.
        store = CheckpointStore(tmp_path)

        def dying_fsync(fd):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(
            "repro.orchestrator.checkpoint.os.fsync", dying_fsync
        )
        with pytest.raises(OSError):
            store.write_status({"finished": False})
        assert list(tmp_path.glob("*.tmp*")) == []


class TestReadSpec:
    def test_corrupt_spec_is_a_clear_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.spec_path.write_text('{"name": "camp"')  # truncated
        with pytest.raises(ValueError) as excinfo:
            store.read_spec()
        message = str(excinfo.value)
        assert "campaign.json" in message
        assert "plan" in message and "verify" in message


# ---------------------------------------------------------------------------
# The verify CLI (fsck)
# ---------------------------------------------------------------------------


def _planned_store(tmp_path) -> CheckpointStore:
    from repro.orchestrator.campaign import CampaignSpec

    store = CheckpointStore(tmp_path, keep=2)
    store.write_spec(CampaignSpec(executor="serial").resolved().to_dict())
    return store


class TestVerifyCLI:
    def test_healthy_store_exits_zero(self, tmp_path, capsys):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        store.write_status({"finished": True})
        assert main(["verify", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr()
        assert "FAIL" not in out.out
        assert "all artifacts verify" in out.err

    def test_corruption_reports_per_artifact_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        flip_byte(tmp_path / "checkpoint.2.npz")
        (tmp_path / "status.json").write_text("{")
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  checkpoint.2.npz" in out
        assert "FAIL  status.json" in out
        assert "ok    checkpoint.1.npz" in out
        # Report-only: nothing was moved or deleted.
        assert (tmp_path / "checkpoint.2.npz").exists()
        assert (tmp_path / "status.json").exists()

    def test_repair_quarantines_and_subsequent_verify_is_clean(
        self, tmp_path, capsys
    ):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        flip_byte(tmp_path / "checkpoint.2.npz")
        assert main(["verify", "--dir", str(tmp_path), "--repair"]) == 1
        assert (
            tmp_path / "quarantine" / "checkpoint.2.npz"
        ).exists()
        journal, _ = store.read_journal()
        assert journal["latest"] == 1
        capsys.readouterr()
        assert main(["verify", "--dir", str(tmp_path)]) == 0

    def test_strays_reported_and_removed_on_repair(
        self, tmp_path, capsys
    ):
        store = _planned_store(tmp_path)
        _save_n(store, 1)
        (tmp_path / "checkpoint.9.tmp.npz").write_bytes(b"torn")
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        assert "checkpoint.9.tmp.npz" in capsys.readouterr().out
        assert (tmp_path / "checkpoint.9.tmp.npz").exists()
        assert main(["verify", "--dir", str(tmp_path), "--repair"]) == 1
        assert not (tmp_path / "checkpoint.9.tmp.npz").exists()
        capsys.readouterr()
        assert main(["verify", "--dir", str(tmp_path)]) == 0

    def test_lost_journal_rebuilt_on_repair(self, tmp_path, capsys):
        store = _planned_store(tmp_path)
        _save_n(store, 2)
        store.journal_path.unlink()
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        assert store.read_journal() == (None, None)
        assert main(["verify", "--dir", str(tmp_path), "--repair"]) == 1
        journal, error = store.read_journal()
        assert error is None and journal["latest"] == 2
        capsys.readouterr()
        assert main(["verify", "--dir", str(tmp_path)]) == 0

    def test_json_findings_are_machine_readable(self, tmp_path, capsys):
        store = _planned_store(tmp_path)
        _save_n(store, 1)
        assert main(["verify", "--dir", str(tmp_path), "--json"]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert isinstance(findings, list)
        assert {"artifact", "ok", "detail", "repaired"} == set(
            findings[0]
        )


# ---------------------------------------------------------------------------
# _sanitize_floats: Hypothesis property
# ---------------------------------------------------------------------------


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
)
_nested = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=25,
)


def _reference_transform(value):
    """Independent spec of the sanitizer, for equality checking."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _reference_transform(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_transform(v) for v in value]
    return value


def _contains_tuple(value) -> bool:
    if isinstance(value, tuple):
        return True
    if isinstance(value, dict):
        return any(_contains_tuple(v) for v in value.values())
    if isinstance(value, list):
        return any(_contains_tuple(v) for v in value)
    return False


class TestSanitizeFloats:
    @given(_nested)
    def test_output_is_strict_json_and_preserves_structure(self, value):
        out = _sanitize_floats(value)
        # Strict JSON: allow_nan=False must not raise, and the text
        # must round-trip without the Infinity/NaN constant tokens.
        text = json.dumps(out, allow_nan=False)
        assert json.loads(text) == out
        # Finite values and structure preserved; non-finite -> None;
        # tuples -> lists is the one intended shape change (pinned
        # below), which the reference transform also applies.
        assert out == _reference_transform(value)
        assert not _contains_tuple(out)

    def test_tuples_become_lists_pinned(self):
        assert _sanitize_floats((1, 2)) == [1, 2]
        assert _sanitize_floats({"t": (1, (2.5, None))}) == {
            "t": [1, [2.5, None]]
        }
