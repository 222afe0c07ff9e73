"""Deterministic filesystem fault injection for the checkpoint store.

The storage chaos plane mirrors :mod:`repro.scan.faults`: a
declarative :class:`FsFaultPlan` — parsed from the
``REPRO_FS_FAULT_PLAN`` environment variable or built programmatically
— *describes* what goes wrong and where, and the
:class:`~repro.orchestrator.checkpoint.CheckpointStore` enforces it
inside its own file operations.  Faults are keyed on deterministic
positions (the Nth ``save()`` call of a store instance, or a
checkpoint generation number), never on wall clock, so the same plan
replays the same damage on every run — which is what lets the test
matrix assert byte-identical recovery *under* every fault.

Plan syntax (entries separated by ``,`` or ``;``)::

    kind@save-N              fire on the Nth save() call (0-based)
    bitrot@gen-N[:offset=K]  flip one byte of generation N at rest

    torn_write@save-2        save 2 promotes a silently truncated
                             payload (the journal records the digest
                             of the full bytes, so the tear is caught
                             at the next load and rolled back)
    bitrot@gen-3             generation 3 rots on disk after it is
                             journaled (offset defaults to mid-file)
    enospc@save-1            save 1 raises ENOSPC mid-write; the tmp
                             file is cleaned up and the save retried
    fsync_fail@save-0        save 0's fsync raises EIO (a dying disk)
    rename_crash@save-2      the process "dies" at the promote rename:
                             :class:`SimulatedCrash` propagates and
                             the orphaned tmp is left for the next
                             open to sweep

``save-N`` counts ``save()`` calls per store instance (i.e. per
process), 0-based; a resumed campaign starts counting from zero again,
so a resume arm that should run clean simply unsets the plan.
``gen-N`` is the 1-based checkpoint generation number, stable across
kill/resume.  Each entry fires exactly once — its position either
matches or it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FS_FAULT_KINDS",
    "SAVE_FAULT_KINDS",
    "GEN_FAULT_KINDS",
    "FsFaultSpec",
    "FsFaultPlan",
    "SimulatedCrash",
    "flip_byte",
]

#: Faults fired at a ``save()`` call site.
SAVE_FAULT_KINDS = (
    "torn_write",    # promote a silently truncated payload
    "enospc",        # OSError(ENOSPC) mid-write, before any fsync
    "fsync_fail",    # OSError(EIO) at the payload fsync
    "rename_crash",  # SimulatedCrash at the promote rename (tmp left)
)

#: Faults fired against a generation file already on disk.
GEN_FAULT_KINDS = ("bitrot",)

FS_FAULT_KINDS = SAVE_FAULT_KINDS + GEN_FAULT_KINDS


class SimulatedCrash(RuntimeError):
    """An injected process death mid-operation.

    Deliberately *not* an :class:`OSError`: the campaign's bounded
    save-retry path must not swallow it — a crash kills the process,
    and only a ``resume`` (which sweeps the orphaned tmp and reloads
    the journal) may continue the campaign.
    """


@dataclass(frozen=True)
class FsFaultSpec:
    """One declarative storage fault: what, at which position.

    ``site`` is ``"save"`` (``index`` counts ``save()`` calls,
    0-based) or ``"gen"`` (``index`` is a generation number, 1-based).
    ``offset`` is the byte position ``bitrot`` flips (``None`` = the
    middle of the file).
    """

    kind: str
    site: str
    index: int
    offset: int | None = None

    def __post_init__(self):
        if self.kind not in FS_FAULT_KINDS:
            raise ValueError(
                f"unknown storage fault kind {self.kind!r}; "
                f"choose one of {FS_FAULT_KINDS}"
            )
        expected = "gen" if self.kind in GEN_FAULT_KINDS else "save"
        if self.site != expected:
            raise ValueError(
                f"{self.kind} faults fire at {expected}-N sites, "
                f"not {self.site}-{self.index}"
            )
        if self.index < 0:
            raise ValueError(
                f"fault position must be >= 0, got {self.index}"
            )
        if self.site == "gen" and self.index < 1:
            raise ValueError(
                f"generations are numbered from 1, got gen-{self.index}"
            )
        if self.offset is not None and self.offset < 0:
            raise ValueError(
                f"bitrot offset must be >= 0, got {self.offset}"
            )
        if self.offset is not None and self.kind not in GEN_FAULT_KINDS:
            raise ValueError(f"{self.kind} does not take an offset")

    @property
    def site_label(self) -> str:
        return f"{self.site}-{self.index}"

    # -- text form -----------------------------------------------------

    def to_string(self) -> str:
        text = f"{self.kind}@{self.site}-{self.index}"
        if self.offset is not None:
            text += f":offset={self.offset}"
        return text

    @classmethod
    def parse(cls, entry: str) -> "FsFaultSpec":
        entry = entry.strip()
        head, _, tail = entry.partition(":")
        kind, sep, where = head.partition("@")
        kind = kind.strip()
        if not sep:
            raise ValueError(
                f"storage fault entry {entry!r} needs kind@site-N "
                "(e.g. 'torn_write@save-2' or 'bitrot@gen-3')"
            )
        site, sep, index_text = where.strip().partition("-")
        if not sep or site not in ("save", "gen"):
            raise ValueError(
                f"storage fault entry {entry!r}: site must be save-N "
                "or gen-N"
            )
        try:
            index = int(index_text)
        except ValueError:
            raise ValueError(
                f"storage fault entry {entry!r}: position must be an "
                "integer"
            ) from None
        offset: int | None = None
        for option in filter(None, (p.strip() for p in tail.split(":"))):
            key, sep, value = option.partition("=")
            if not sep:
                raise ValueError(
                    f"storage fault entry {entry!r}: option {option!r} "
                    "must be key=value"
                )
            if key.strip() == "offset":
                try:
                    offset = int(value.strip())
                except ValueError:
                    raise ValueError(
                        f"storage fault entry {entry!r}: offset must "
                        "be an integer"
                    ) from None
            else:
                raise ValueError(
                    f"storage fault entry {entry!r}: unknown option "
                    f"{key.strip()!r} (expected offset=)"
                )
        return cls(kind=kind, site=site, index=index, offset=offset)


class FsFaultPlan:
    """An ordered collection of :class:`FsFaultSpec`\\ s (first match wins)."""

    __slots__ = ("specs",)

    def __init__(self, specs=()):
        self.specs = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FsFaultPlan) and self.specs == other.specs
        )

    def __repr__(self) -> str:
        return f"FsFaultPlan({self.to_string()!r})"

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, text: str | None) -> "FsFaultPlan":
        """Parse the ``REPRO_FS_FAULT_PLAN`` syntax (empty → no faults)."""
        if not text or not text.strip():
            return cls()
        entries = text.replace(";", ",").split(",")
        return cls(
            FsFaultSpec.parse(entry) for entry in entries if entry.strip()
        )

    def to_string(self) -> str:
        return ",".join(spec.to_string() for spec in self.specs)

    # -- queries -------------------------------------------------------

    def save_fault(self, index: int) -> FsFaultSpec | None:
        """The fault (if any) armed for the ``index``-th ``save()`` call."""
        for spec in self.specs:
            if spec.site == "save" and spec.index == index:
                return spec
        return None

    def gen_fault(self, gen: int) -> FsFaultSpec | None:
        """The at-rest fault (if any) armed for generation ``gen``."""
        for spec in self.specs:
            if spec.site == "gen" and spec.index == gen:
                return spec
        return None


def flip_byte(path, offset: int | None = None) -> int:
    """Flip one byte of ``path`` in place; returns the offset used.

    The bitrot primitive: ``offset`` is taken modulo the file size
    (``None`` = the middle of the file), so a plan stays valid whatever
    the payload compresses to.
    """
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"cannot bitrot empty file {path}")
    position = (size // 2) if offset is None else (offset % size)
    with open(path, "r+b") as fh:
        fh.seek(position)
        byte = fh.read(1)
        fh.seek(position)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return position
