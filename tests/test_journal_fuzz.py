"""Mutation fuzz of the ``checkpoints.json`` journal.

The journal records each kept generation's file, byte size and payload
digest.  Whatever bytes it holds, :meth:`CheckpointStore.load` must
adopt a generation or raise :class:`CheckpointCorruption`, and
:meth:`CheckpointStore.audit` must return its findings: a bare
``KeyError``, ``IndexError`` or ``TypeError`` from either fails the
test.  The generation files stay intact in every case, so a journal
that is damaged (not merely wrong about a digest or a size) never
costs a generation: ``load`` rebuilds it from the files.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import byte_edits, checkpoint_manifest, mutate_bytes
from repro.orchestrator.checkpoint import (
    CheckpointCorruption,
    CheckpointStore,
)

pytestmark = pytest.mark.usefixtures("clear_knobs")

#: The knob-clearing fixture holds for every example alike.
_FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A directory holding generations 1 and 2 and their journal."""
    directory = tmp_path_factory.mktemp("journal-fuzz")
    store = CheckpointStore(directory, keep=2, fault_plan="")
    for ordinal in range(2):
        store.save(
            checkpoint_manifest(ordinal=ordinal),
            {"mask": np.arange(6) + ordinal},
        )
    return directory


def _check(campaign, journal: bytes):
    """Load and audit a copy of ``campaign`` whose journal holds
    ``journal``; the adopted manifest's ordinal, or ``None``."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "campaign"
        shutil.copytree(campaign, directory)
        (directory / "checkpoints.json").write_bytes(journal)
        findings = CheckpointStore(directory, keep=2).audit()
        assert findings and all(
            set(f) == {"artifact", "ok", "detail", "repaired"}
            for f in findings
        )
        try:
            manifest, _ = CheckpointStore(directory, keep=2).load()
        except CheckpointCorruption:
            return None
        return manifest["ordinal"]


@_FUZZ
@given(edits=byte_edits(1 << 9, min_size=1))
def test_byte_mutated_journal_loads_or_raises_corruption(campaign, edits):
    raw = (campaign / "checkpoints.json").read_bytes()
    assert _check(campaign, mutate_bytes(raw, edits)) in (None, 0, 1)


#: Values of every JSON type, a few of them nearly right.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=1 << 70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["0" * 64, "A" * 64, "checkpoint.2.npz", "2"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

_DELETE = object()


@_FUZZ
@example(index=1, field="sha256", value=5)
@example(index=1, field="sha256", value=["a"])
@example(index=1, field="bytes", value="12")
@example(index=0, field=None, value=_DELETE)
@example(index=None, field=None, value=[])
@given(
    index=st.sampled_from([0, 1, None]),
    field=st.sampled_from(["gen", "file", "sha256", "bytes", None]),
    value=st.one_of(_VALUES, st.just(_DELETE)),
)
def test_mistyped_journal_field_loads_or_raises_corruption(
    campaign, index, field, value
):
    """``index``/``field`` pick an entry field (``None``: the whole
    entry, or with ``index`` ``None`` the document's ``latest`` or
    ``generations``), which becomes ``value`` or is deleted."""
    document = json.loads((campaign / "checkpoints.json").read_text())
    entries = document["generations"]
    if index is None:
        target, key = document, "latest" if field else "generations"
    elif field is None:
        target, key = entries, index
    else:
        target, key = entries[index], field
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    journal = json.dumps(document).encode()
    ordinal = _check(campaign, journal)
    if index is not None and field in ("sha256", "bytes"):
        # A digest or size of the wrong type is journal damage: the
        # files rebuild the journal and the intact newest one wins.
        # Only a well-formed but wrong value costs its generation.
        wrong_but_well_formed = (
            field == "sha256" and value == "0" * 64
        ) or (
            field == "bytes"
            and isinstance(value, int)
            and not isinstance(value, bool)
            and value >= 0
        )
        if not wrong_but_well_formed:
            assert ordinal == 1
    else:
        assert ordinal in (None, 0, 1)
