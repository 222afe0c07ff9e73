"""Generation-journaled, self-verifying campaign checkpoints.

A checkpoint is one compressed ``.npz`` holding the JSON manifest (the
campaign position, accounting, RNG state, and per-array SHA-256
digests) alongside the state arrays (the live selection mask).  Saves
never overwrite: every ``save()`` promotes a new ``checkpoint.<gen>.npz``
via write-tmp-fsync-rename (plus a directory fsync), then commits it to
the ``checkpoints.json`` journal — which records each generation's
whole-payload SHA-256 — and prunes generations beyond the keep-N window
(``REPRO_CKPT_KEEP``, default 2).  The store is the journal's only
writer, so it keeps the bytes it last wrote and their parsed document;
a save whose journal on disk still holds those bytes skips the
re-parse.

``load()`` trusts nothing: the newest journaled generation is verified
digest-first (whole file, then every array), and a torn write, bitrot,
or truncation quarantines the damaged file under ``quarantine/`` and
**rolls back** to the newest intact generation — from which shard-replay
determinism re-runs the lost tail byte-identically.  Every detection,
rollback, and injected fault is recorded as an incident for the
observability plane (``checkpoint.corrupt`` / ``checkpoint.rollback`` /
``storage.fault_fired`` events).

Storage faults are injectable deterministically via
``REPRO_FS_FAULT_PLAN`` (:mod:`repro.orchestrator.storage_faults`), and
``python -m repro.orchestrator verify [--repair]`` audits every artifact
through :meth:`CheckpointStore.audit`.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from repro import jsonio
from repro.orchestrator.storage_faults import SimulatedCrash, flip_byte

__all__ = [
    "CHECKPOINT_VERSION",
    "JOURNAL_VERSION",
    "CheckpointCorruption",
    "CheckpointStore",
]


def _fsync_path(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

#: Bump when the manifest/array schema changes shape.
#: v2: the manifest carries ``wave_attempts`` (wave-level retry budget).
#: v3: the manifest carries ``array_sha256`` (per-array integrity
#: digests, verified on every load).
#: v4: the manifest carries ``hitlist_month`` (v6 hitlist seeding) and
#: the spec carries ``family``/``samples_per_prefix``.
CHECKPOINT_VERSION = 4

#: Bump when the ``checkpoints.json`` journal schema changes shape.
JOURNAL_VERSION = 1

_MANIFEST_KEY = "manifest"

_GENERATION_RE = re.compile(r"^checkpoint\.(\d+)\.npz$")


def _is_gen(value) -> bool:
    """A generation number: a non-negative ``int``, never a ``bool``."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def nothing_to_resume(directory) -> FileNotFoundError:
    return FileNotFoundError(
        f"no checkpoint under {directory} — nothing to resume"
    )


class CheckpointCorruption(ValueError):
    """Every candidate checkpoint generation failed verification."""


class _CorruptGeneration(Exception):
    """Internal: one generation failed verification (reason in args)."""


def _journal_entry(gen: int, path: Path, data: bytes) -> dict:
    """Generation ``gen``'s journal entry: its file, digest and size."""
    return {
        "gen": gen,
        "file": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def _array_digest(array) -> str:
    """SHA-256 over an array's dtype, shape, and raw bytes."""
    array = np.asarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(str(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class CheckpointStore:
    """Durable campaign state under one directory.

    Files:

    - ``campaign.json``        — the immutable (resolved) campaign
      spec, written once at plan time;
    - ``checkpoint.<gen>.npz`` — atomic checkpoint generations, newest
      ``REPRO_CKPT_KEEP`` kept (default 2);
    - ``checkpoints.json``     — the generation journal: the latest
      good generation plus each generation's whole-payload SHA-256;
    - ``quarantine/``          — checkpoint files that failed
      verification, moved aside for inspection instead of deleted;
    - ``status.json``          — the deterministic status document;
    - ``progress.json``        — wall-clock telemetry (timestamps,
      achieved probe rate, cumulative executor telemetry);
      deliberately *outside* the determinism contract, and atomic but
      not durable (no ``fsync``), like ``metrics.json``;
    - ``events.jsonl``         — the structured trace-event log
      (:mod:`repro.obs`, ``REPRO_OBS=events|full``); append-only, so
      a resumed campaign continues the same file under a new run id;
    - ``metrics.json``         — the latest metrics-registry snapshot
      (``REPRO_OBS=full``).

    ``keep``/``fault_plan`` default to the validated environment knobs
    (``REPRO_CKPT_KEEP`` / ``REPRO_FS_FAULT_PLAN``); ``sweep=False``
    opens a reader's store: it leaves orphaned tmp files in place so
    :meth:`audit` can report them, and creates nothing — a missing
    directory is the same :class:`FileNotFoundError` as a missing
    ``campaign.json``.  Detections and injected faults are appended to
    :attr:`incidents` — the campaign runner drains them into the
    observability plane via :meth:`drain_incidents`.

    A checkpoint (:meth:`save`, then :meth:`write_progress`) makes four
    ``fsync``s: the generation file and the directory after its rename,
    then ``checkpoints.json`` and the directory after its rename.
    ``progress.json`` and ``metrics.json`` are renamed into place
    without one.
    """

    def __init__(self, directory, keep=None, fault_plan=None,
                 sweep: bool = True):
        from repro.env import ckpt_keep, fs_fault_plan

        self.directory = Path(directory)
        if sweep:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise self._no_spec()
        self.keep = ckpt_keep(keep)
        self.fault_plan = fs_fault_plan(fault_plan)
        #: Pending observability incidents (dicts with a ``type`` key).
        self.incidents: list[dict] = []
        self._save_index = 0
        #: ``(raw bytes, parsed document)`` of the journal this store
        #: last wrote or validated; see :meth:`read_journal`.
        self._journal_cache: tuple[bytes, dict] | None = None
        if sweep:
            # A kill mid-write leaves an orphaned tmp file next to the
            # real one; it is never a valid resume source (the rename
            # that would have promoted it never happened), so sweep
            # strays on open.
            for stray in self.directory.glob("*.tmp"):
                stray.unlink(missing_ok=True)
            for stray in self.directory.glob("*.tmp.npz"):
                stray.unlink(missing_ok=True)

    # -- paths ---------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        return self.directory / "campaign.json"

    @property
    def journal_path(self) -> Path:
        return self.directory / "checkpoints.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    @property
    def status_path(self) -> Path:
        return self.directory / "status.json"

    @property
    def progress_path(self) -> Path:
        return self.directory / "progress.json"

    @property
    def events_path(self) -> Path:
        return self.directory / "events.jsonl"

    @property
    def metrics_path(self) -> Path:
        return self.directory / "metrics.json"

    def generation_path(self, gen: int) -> Path:
        return self.directory / f"checkpoint.{gen}.npz"

    @property
    def checkpoint_path(self) -> Path | None:
        """The newest journaled generation's path (``None`` when empty)."""
        journal, _ = self.read_journal()
        if journal is not None and journal["generations"]:
            entry = max(journal["generations"], key=lambda e: e["gen"])
            return self.directory / entry["file"]
        files = self.generation_files()
        return files[-1][1] if files else None

    def generation_files(self) -> list[tuple[int, Path]]:
        """``(gen, path)`` for every generation file on disk, ascending."""
        found = []
        for path in self.directory.glob("checkpoint.*.npz"):
            match = _GENERATION_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    # -- incidents (observability seam) --------------------------------

    def _incident(self, type_: str, **data) -> None:
        self.incidents.append({"type": type_, **data})

    def drain_incidents(self) -> list[dict]:
        """Take (and clear) the pending observability incidents."""
        taken, self.incidents = self.incidents, []
        return taken

    def _corrupt(self, gen, reason: str, path=None) -> None:
        """A ``checkpoint.corrupt`` incident; a damaged generation's
        ``path`` is quarantined, and the incident names where to."""
        if path is None:
            self._incident("checkpoint.corrupt", gen=gen, reason=reason)
            return
        moved = self.quarantine(path)
        self._incident(
            "checkpoint.corrupt", gen=gen, reason=reason,
            quarantined=moved.name if moved else None,
        )

    def _fault_fired(self, spec) -> None:
        self._incident(
            "storage.fault_fired", kind=spec.kind, site=spec.site_label
        )

    # -- spec ----------------------------------------------------------

    def write_spec(self, spec_dict: dict) -> None:
        self._write_json(self.spec_path, spec_dict)

    def _no_spec(self) -> FileNotFoundError:
        return FileNotFoundError(
            f"no campaign.json under {self.directory} — run `plan` first"
        )

    def read_spec(self) -> dict:
        if not self.spec_path.exists():
            raise self._no_spec()
        try:
            return jsonio.loads(self.spec_path.read_text())
        except ValueError as exc:
            raise ValueError(
                f"{self.spec_path} is not valid JSON ({exc}) — the "
                "campaign spec is truncated or corrupt; re-run `plan` "
                "to rewrite it, or audit the directory with "
                "`python -m repro.orchestrator verify`"
            ) from None

    # -- journal -------------------------------------------------------

    def read_journal(self) -> tuple[dict | None, str | None]:
        """``(journal, None)``, ``(None, None)`` when absent, or
        ``(None, reason)`` when the journal itself is damaged.

        When the file holds exactly the bytes this store last wrote or
        validated, their cached document comes back without a re-parse;
        any other bytes are parsed and validated afresh.  The document
        may be that shared cache: callers must not mutate it.
        """
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return None, None
        cached = self._journal_cache
        if cached is not None and cached[0] == raw:
            return cached[1], None
        try:
            document = jsonio.loads(raw.decode())
            entries = document["generations"]
            latest = document["latest"]
            if not _is_gen(latest):
                raise ValueError(f"latest {latest!r} is not a generation")
            # Each entry must name the one file save() writes for its
            # generation, so pruning, loading and repair never touch a
            # path outside the campaign directory.
            if not isinstance(entries, list) or not all(
                isinstance(e, dict)
                and _is_gen(e.get("gen"))
                and e.get("file") == f"checkpoint.{e['gen']}.npz"
                for e in entries
            ):
                raise ValueError("malformed generation entries")
            if entries and latest != max(e["gen"] for e in entries):
                raise ValueError("latest does not match the newest entry")
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"{type(exc).__name__}: {exc}"
        self._journal_cache = (raw, document)
        return document, None

    def _write_journal(self, entries) -> None:
        entries = sorted(entries, key=lambda e: e["gen"])
        document = {
            "version": JOURNAL_VERSION,
            "latest": entries[-1]["gen"] if entries else 0,
            "generations": entries,
        }
        raw = self._write_json(self.journal_path, document)
        self._journal_cache = (raw, document)

    # -- checkpoint ----------------------------------------------------

    def has_checkpoint(self) -> bool:
        return bool(self.generation_files())

    def save(self, manifest: dict, arrays: dict) -> None:
        """Atomically persist one checkpoint generation.

        The payload is serialized in memory first so its SHA-256 lands
        in the journal entry; the manifest gains per-array digests.  A
        failed save cleans up its tmp file and leaves the journal (and
        therefore the resume point) untouched, so the caller may simply
        retry — the generation number is only consumed on success.
        """
        index = self._save_index
        self._save_index += 1
        fault = self.fault_plan.save_fault(index)

        manifest = dict(manifest, version=CHECKPOINT_VERSION)
        payload = {}
        digests = {}
        for name, array in arrays.items():
            if name == _MANIFEST_KEY:
                raise ValueError(f"array name {name!r} is reserved")
            array = np.asarray(array)
            payload[name] = array
            digests[name] = _array_digest(array)
        manifest["array_sha256"] = digests
        payload[_MANIFEST_KEY] = json.dumps(manifest, sort_keys=True)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        data = buffer.getvalue()

        journal, journal_error = self.read_journal()
        if journal_error is not None:
            self._corrupt(None, f"checkpoints.json: {journal_error}")
        if journal is not None:
            entries = list(journal["generations"])
            gen = journal["latest"] + 1
        else:
            # No (or unreadable) journal: never clobber a real
            # generation file — pick up past the newest on disk.
            files = self.generation_files()
            entries = []
            gen = (files[-1][0] if files else 0) + 1

        path = self.generation_path(gen)
        tmp = path.with_suffix(".tmp.npz")
        to_write = data
        if fault is not None and fault.kind == "torn_write":
            # A lying disk: the rename promotes a silent truncation.
            # The journal records the digest of the *full* payload, so
            # the tear surfaces at the next load and rolls back.
            to_write = data[: max(1, len(data) // 2)]
            self._fault_fired(fault)
        try:
            with open(tmp, "wb") as fh:
                if fault is not None and fault.kind == "enospc":
                    self._fault_fired(fault)
                    raise OSError(
                        errno.ENOSPC,
                        "no space left on device (injected enospc)",
                    )
                fh.write(to_write)
                # "Atomic" rename without durability is not atomic
                # under power loss: the rename can hit disk before the
                # data does, surfacing a truncated checkpoint.  fsync
                # the file before the rename and the directory after.
                fh.flush()
                if fault is not None and fault.kind == "fsync_fail":
                    self._fault_fired(fault)
                    raise OSError(
                        errno.EIO, "fsync: I/O error (injected fsync_fail)"
                    )
                os.fsync(fh.fileno())
            if fault is not None and fault.kind == "rename_crash":
                self._fault_fired(fault)
                raise SimulatedCrash(
                    f"injected rename_crash at save {index}: process "
                    "presumed dead mid-promote"
                )
            tmp.replace(path)
        except SimulatedCrash:
            # A real crash cleans up nothing — the orphaned tmp is
            # exactly what the next open's sweep exists for.
            raise
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        _fsync_path(self.directory)

        entries.append(_journal_entry(gen, path, data))
        entries.sort(key=lambda e: e["gen"])
        kept, pruned = entries[-self.keep:], entries[: -self.keep]
        self._write_journal(kept)
        for entry in pruned:
            (self.directory / entry["file"]).unlink(missing_ok=True)

        rot = self.fault_plan.gen_fault(gen)
        if rot is not None:
            flip_byte(path, rot.offset)
            self._fault_fired(rot)

    def _read_generation(self, path: Path, entry: dict | None = None):
        """Read + verify one generation; ``(manifest, arrays, data)``.

        Raises :class:`_CorruptGeneration` on any integrity failure and
        plain :class:`ValueError` on a schema-version mismatch (which is
        a code/state skew, not disk damage — never quarantined).
        """
        if not path.exists():
            raise _CorruptGeneration("file missing")
        data = path.read_bytes()
        if entry is not None:
            expected_bytes = entry.get("bytes")
            if expected_bytes is not None and len(data) != expected_bytes:
                raise _CorruptGeneration(
                    f"size {len(data)} != journaled {expected_bytes} "
                    "(torn write?)"
                )
            expected_sha = entry.get("sha256")
            if expected_sha is not None:
                digest = hashlib.sha256(data).hexdigest()
                if digest != expected_sha:
                    raise _CorruptGeneration(
                        "payload sha256 mismatch (journal "
                        f"{expected_sha[:12]}…, file {digest[:12]}…)"
                    )
        try:
            with np.load(io.BytesIO(data)) as npz:
                if _MANIFEST_KEY not in npz.files:
                    raise _CorruptGeneration("no manifest in archive")
                manifest = jsonio.loads(str(npz[_MANIFEST_KEY]))
                arrays = {
                    name: npz[name]
                    for name in npz.files
                    if name != _MANIFEST_KEY
                }
        except _CorruptGeneration:
            raise
        except Exception as exc:
            # BadZipFile, zlib.error, json/KeyError — an opaque parse
            # failure becomes a named integrity failure.
            raise _CorruptGeneration(
                f"unreadable archive ({type(exc).__name__}: {exc})"
            ) from None
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {manifest.get('version')!r} does "
                f"not match this code's version {CHECKPOINT_VERSION}"
            )
        expected = manifest.get("array_sha256")
        if isinstance(expected, dict):
            for name, array in arrays.items():
                if expected.get(name) != _array_digest(array):
                    raise _CorruptGeneration(
                        f"array {name!r} digest mismatch"
                    )
        return manifest, arrays, data

    def verify_generation(self, path, entry: dict | None = None):
        """Verify one generation file; ``None`` or the failure reason."""
        try:
            self._read_generation(Path(path), entry)
        except (_CorruptGeneration, ValueError) as exc:
            return str(exc)
        return None

    def quarantine(self, path) -> Path | None:
        """Move a damaged file under ``quarantine/``; the new path."""
        path = Path(path)
        if not path.exists():
            return None
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / path.name
        copy = 1
        while target.exists():
            target = self.quarantine_dir / f"{path.name}.{copy}"
            copy += 1
        path.replace(target)
        return target

    def _verify_newest(self):
        """Verify generations newest-first, moving and writing nothing:
        ``(journal, journal_error, candidates, rejected, adopted)``, with
        ascending ``(gen, path, entry)`` candidates, the ``(gen, path,
        reason)`` of each newer one that failed, and the newest intact
        one's ``(gen, manifest, arrays, data)`` (``None`` if none is)."""
        journal, journal_error = self.read_journal()
        if journal is not None:
            candidates = [
                (entry["gen"], self.directory / entry["file"], entry)
                for entry in sorted(
                    journal["generations"], key=lambda e: e["gen"]
                )
            ]
        else:
            candidates = [
                (gen, path, None) for gen, path in self.generation_files()
            ]
        if not candidates:
            raise nothing_to_resume(self.directory)
        rejected = []
        for gen, path, entry in reversed(candidates):
            try:
                manifest, arrays, data = self._read_generation(path, entry)
            except _CorruptGeneration as exc:
                rejected.append((gen, path, str(exc)))
                continue
            adopted = (gen, manifest, arrays, data)
            break
        else:
            adopted = None
        return journal, journal_error, candidates, rejected, adopted

    def read_newest(self) -> tuple[dict, dict]:
        """:meth:`load` for a reader beside a running campaign: it
        quarantines, rewrites and queues nothing."""
        *_, adopted = self._verify_newest()
        if adopted is None:
            raise CheckpointCorruption(
                f"every checkpoint generation under {self.directory} is "
                "corrupt — audit with `python -m repro.orchestrator verify`"
            )
        return adopted[1], adopted[2]

    def load(self) -> tuple[dict, dict]:
        """Load the newest *intact* checkpoint as ``(manifest, arrays)``.

        Generations are verified newest-first; damaged ones are
        quarantined (``checkpoint.corrupt`` incident) and the journal
        rewound to the survivor (``checkpoint.rollback`` incident).  A
        lost or damaged journal is rebuilt from the intact generation
        files on disk.  Only when *no* generation survives does
        :class:`CheckpointCorruption` propagate.  A reader that must
        not move or write anything uses :meth:`read_newest`.
        """
        journal, journal_error, candidates, rejected, adopted = (
            self._verify_newest()
        )
        if journal_error is not None:
            self._corrupt(None, f"checkpoints.json: {journal_error}")
        for gen, path, reason in rejected:
            self._corrupt(gen, reason, path)
        if adopted is None:
            raise CheckpointCorruption(
                f"every checkpoint generation under {self.directory} is "
                f"corrupt ({len(rejected)} file(s) moved to "
                f"{self.quarantine_dir.name}/) — audit with `python -m "
                "repro.orchestrator verify`, or start over with "
                "`run --fresh`"
            )
        gen, manifest, arrays, data = adopted
        newest = candidates[-1][0]

        if journal is not None:
            if gen != newest:
                self._write_journal(
                    [
                        entry
                        for entry in journal["generations"]
                        if entry["gen"] <= gen
                    ]
                )
        else:
            # Journal lost: rebuild it from whatever verifies on disk.
            survivors = []
            for other_gen, path, _ in candidates:
                if other_gen > gen:
                    continue
                if other_gen == gen:
                    payload = data
                else:
                    try:
                        _, _, payload = self._read_generation(path)
                    except _CorruptGeneration as exc:
                        self._corrupt(other_gen, str(exc), path)
                        continue
                survivors.append(_journal_entry(other_gen, path, payload))
            self._write_journal(survivors)
        if gen != newest:
            self._incident(
                "checkpoint.rollback", from_gen=newest, to_gen=gen
            )
        return manifest, arrays

    def clear(self) -> None:
        """Drop every campaign artifact except the planned spec.

        That includes ``status.json``: a ``run --fresh`` that kept the
        previous attempt's status (or its ``progress.json`` /
        ``events.jsonl``) would serve a stale document from a campaign
        that no longer exists until the new run's first checkpoint.
        """
        for _, path in self.generation_files():
            path.unlink(missing_ok=True)
        self.journal_path.unlink(missing_ok=True)
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.iterdir():
                path.unlink(missing_ok=True)
            self.quarantine_dir.rmdir()
        self.status_path.unlink(missing_ok=True)
        self.progress_path.unlink(missing_ok=True)
        self.events_path.unlink(missing_ok=True)
        self.metrics_path.unlink(missing_ok=True)

    # -- status & telemetry -------------------------------------------

    def write_status(self, status: dict) -> None:
        self._write_json(self.status_path, status)

    def write_progress(self, progress: dict) -> None:
        """Persist the progress document (wall-clock-side).

        Atomic but not durable, as :meth:`write_metrics` is: the
        document is telemetry outside the determinism contract,
        rewritten at every checkpoint, and :meth:`read_progress`
        tolerates a stale, missing or damaged file.
        """
        self._write_json(
            self.progress_path, _sanitize_floats(progress), durable=False
        )

    def read_progress(self) -> dict | None:
        """The last progress document, or ``None`` (never raises on a
        malformed file — telemetry must not block a resume)."""
        if not self.progress_path.exists():
            return None
        try:
            document = jsonio.loads(self.progress_path.read_text())
        except ValueError:
            return None
        return document if isinstance(document, dict) else None

    def write_metrics(self, snapshot: dict) -> None:
        """Persist a metrics-registry snapshot (wall-clock-side).

        Atomic (readers never see a torn file) but *not* durable: the
        snapshot is advisory telemetry rewritten at every checkpoint,
        so unlike the checkpoint itself it skips both fsyncs — under
        power loss the next checkpoint simply rewrites it, and paying
        two fsyncs per shard here is exactly the overhead the <5%
        observability budget cannot afford.
        """
        self._write_json(
            self.metrics_path, _sanitize_floats(snapshot), durable=False
        )

    @staticmethod
    def _write_json(
        path: Path, document: dict, durable: bool = True
    ) -> bytes:
        """Write ``document`` atomically; the bytes written."""
        data = (
            json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        ).encode()
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            tmp.replace(path)
        except BaseException:
            # A failed write (ENOSPC, fsync EIO) must clean up after
            # itself instead of leaving the tmp for the next open's
            # sweep — the retry is the caller's business, the mess is
            # ours.
            tmp.unlink(missing_ok=True)
            raise
        if durable:
            _fsync_path(path.parent)
        return data

    # -- fsck ----------------------------------------------------------

    def audit(self, repair: bool = False) -> list[dict]:
        """Audit every artifact; one finding dict per artifact.

        Findings are ``{"artifact", "ok", "detail", "repaired"}``.
        With ``repair=True``, reparable damage is fixed in place:
        corrupt generations are quarantined and dropped from the
        journal, a lost/damaged journal is rebuilt from the intact
        generations, unjournaled generation files and stray tmp files
        are removed, and malformed derived documents (status, progress,
        metrics — all regenerated by the next run/resume) are deleted.
        ``campaign.json`` and ``events.jsonl`` are never modified: the
        spec is the store's source of truth and the event log is
        append-only history.
        """
        findings: list[dict] = []

        def finding(artifact, ok, detail, repaired=None):
            findings.append(
                {
                    "artifact": artifact,
                    "ok": ok,
                    "detail": detail,
                    "repaired": repaired,
                }
            )

        # The spec.
        spec_dict = None
        try:
            spec_dict = self.read_spec()
        except FileNotFoundError:
            finding("campaign.json", False, "missing — run `plan` first")
        except ValueError as exc:
            finding("campaign.json", False, str(exc))
        if spec_dict is not None:
            from repro.orchestrator.campaign import CampaignSpec

            try:
                CampaignSpec.from_dict(spec_dict)
                finding(
                    "campaign.json", True, "spec parses and validates"
                )
            except ValueError as exc:
                finding("campaign.json", False, f"spec invalid: {exc}")

        # The journal and its generations.
        journal, journal_error = self.read_journal()
        files = dict(self.generation_files())
        journaled: set[int] = set()
        survivors: list[dict] = []
        journal_dirty = False
        if journal_error is not None:
            journal_dirty = True
            finding(
                "checkpoints.json",
                False,
                f"damaged journal ({journal_error})",
                "rebuilt from intact generations" if repair else None,
            )
        elif journal is None and files:
            journal_dirty = True
            finding(
                "checkpoints.json",
                False,
                f"missing, but {len(files)} generation file(s) exist",
                "rebuilt from intact generations" if repair else None,
            )
        elif journal is None:
            finding(
                "checkpoints.json",
                True,
                "no checkpoints yet (campaign not run)",
            )
        if journal is not None:
            for entry in sorted(
                journal["generations"], key=lambda e: e["gen"]
            ):
                journaled.add(entry["gen"])
                path = self.directory / entry["file"]
                error = self.verify_generation(path, entry)
                if error is None:
                    survivors.append(entry)
                    finding(
                        entry["file"],
                        True,
                        "payload sha256 + array digests verified",
                    )
                    continue
                repaired = None
                if repair:
                    journal_dirty = True
                    moved = self.quarantine(path)
                    repaired = (
                        f"quarantined as {moved.relative_to(self.directory)}"
                        if moved
                        else "dropped from journal"
                    )
                finding(entry["file"], False, error, repaired)

        # Generation files the journal does not know about: either the
        # rebuild source (journal lost) or the debris of a crash
        # between rename and journal commit (journal present).
        for gen, path in sorted(files.items()):
            if gen in journaled:
                continue
            error = self.verify_generation(path)
            if journal is None and error is None:
                repaired = None
                if repair:
                    survivors.append(
                        _journal_entry(gen, path, path.read_bytes())
                    )
                    repaired = "journaled"
                finding(path.name, False, "intact but not journaled",
                        repaired)
                continue
            detail = (
                "not journaled (crash before journal commit?)"
                if error is None
                else f"not journaled and corrupt ({error})"
            )
            repaired = None
            if repair:
                if error is None:
                    path.unlink(missing_ok=True)
                    repaired = "removed"
                else:
                    moved = self.quarantine(path)
                    repaired = (
                        f"quarantined as {moved.relative_to(self.directory)}"
                        if moved
                        else "removed"
                    )
            finding(path.name, False, detail, repaired)
        if repair and journal_dirty:
            self._write_journal(survivors)

        # Orphaned tmp files.
        strays = sorted(
            path.name
            for pattern in ("*.tmp", "*.tmp.npz")
            for path in self.directory.glob(pattern)
        )
        if strays:
            repaired = None
            if repair:
                for name in strays:
                    (self.directory / name).unlink(missing_ok=True)
                repaired = "removed"
            finding(
                "strays",
                False,
                "orphaned tmp file(s): " + ", ".join(strays),
                repaired,
            )
        else:
            finding("strays", True, "none")

        # Derived JSON documents (all regenerated by a run/resume).
        for name, path in (
            ("status.json", self.status_path),
            ("progress.json", self.progress_path),
            ("metrics.json", self.metrics_path),
        ):
            if not path.exists():
                finding(name, True, "absent")
                continue
            try:
                jsonio.loads(path.read_text())
                finding(name, True, "parses")
            except ValueError as exc:
                repaired = None
                if repair:
                    path.unlink(missing_ok=True)
                    repaired = "removed (regenerated on the next resume)"
                finding(name, False, f"not valid JSON ({exc})", repaired)

        # The trace-event log.
        if self.events_path.exists():
            from repro.obs.schema import validate_file

            errors = validate_file(self.events_path)
            if errors:
                shown = "; ".join(errors[:3])
                if len(errors) > 3:
                    shown += "; …"
                finding(
                    "events.jsonl",
                    False,
                    f"{len(errors)} schema error(s): {shown}",
                )
            else:
                with open(self.events_path) as fh:
                    count = sum(1 for line in fh if line.strip())
                finding("events.jsonl", True, f"{count} event(s) validate")
        else:
            finding("events.jsonl", True, "absent")

        # Quarantined damage is held, not hidden.
        if self.quarantine_dir.is_dir():
            held = sum(1 for _ in self.quarantine_dir.iterdir())
            if held:
                finding(
                    "quarantine/",
                    True,
                    f"{held} damaged file(s) held for inspection",
                )
        return findings


def _sanitize_floats(value):
    """Replace non-finite floats with ``None``, recursively.

    ``json.dumps`` would happily emit ``Infinity``/``NaN`` tokens that
    no strict JSON parser accepts; progress telemetry aggregates
    wall-clock rates, so a pathological clock must degrade to ``null``,
    not corrupt the file.  (Status/manifest JSON is deterministic by
    construction and goes through ``allow_nan=False`` instead, which
    *raises* — corruption there is a bug to surface, not to paper over.)
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_floats(v) for v in value]
    return value
