"""Structured mutation of ``campaign.json`` through ``from_directory``
and the CLI.

``plan`` writes the resolved spec once; every later ``run`` and
``status`` reads it back.  Whatever the file holds, reading it must
either give a runner or raise a :class:`ValueError` that names the
file and the field: never a bare ``KeyError``/``TypeError`` traceback,
and never a spec with a field silently defaulted.  The CLI turns that
error into exit status 2.

Mutated integers stay small.  A huge but well-typed count (``waves``,
``shards``, ``batch_size``) is a valid spec whose cost grows with it;
that is a resource limit, not a parse error.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.census.loader as loader
from conftest import build_mini_dataset
from repro.orchestrator import CampaignRunner, CampaignSpec, ReseedPolicy
from repro.orchestrator.cli import main

SPEC = CampaignSpec(
    preset="mini",
    waves=2,
    phi=0.9,
    shards=3,
    executor="serial",
    reseed=ReseedPolicy("interval", interval=2),
    batch_size=1 << 12,
)

#: The resolved spec exactly as ``plan`` writes it.
_PLANNED = json.loads(json.dumps(SPEC.resolved().to_dict()))


@pytest.fixture(autouse=True)
def _mini_dataset(monkeypatch):
    """Every preset loads the mini world, so the CLI needs no cache."""
    dataset = build_mini_dataset()
    monkeypatch.setattr(loader, "get_dataset", lambda **_: dataset)
    return dataset


def _check(document, dataset, capsys):
    """Read a ``campaign.json`` holding ``document`` both ways; the
    :class:`ValueError` it raised, or ``None`` when it loaded."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        (directory / "campaign.json").write_text(json.dumps(document))
        try:
            CampaignRunner.from_directory(directory, dataset)
            error = None
        except ValueError as exc:
            error = str(exc)
        capsys.readouterr()
        code = main(["status", "--dir", str(directory), "--json"])
    err = capsys.readouterr().err
    if error is None:
        assert code == 0, err
    else:
        assert code == 2 and err == f"error: {error}\n", err
    return error


# ---------------------------------------------------------------------------
# The damage seen in the field, by name
# ---------------------------------------------------------------------------


_NAMED = {
    "not-an-object": ([], "not an object"),
    "name-only": ({"name": "x"}, "lacks field 'backend'"),
    "waves-as-string": (
        dict(_PLANNED, waves="3"), "field 'waves' must be int, not str"
    ),
    "reseed-as-number": (
        dict(_PLANNED, reseed=5),
        "field 'reseed' must be ReseedPolicy, not int",
    ),
    "unknown-key": (dict(_PLANNED, colour="red"), "unknown field 'colour'"),
    "reseed-interval-as-string": (
        dict(_PLANNED, reseed=dict(_PLANNED["reseed"], interval="2")),
        "reseed policy field 'interval' must be int, not str",
    ),
    "waves-as-bool": (
        dict(_PLANNED, waves=True), "field 'waves' must be int, not bool"
    ),
    "negative-scan-seed": (dict(_PLANNED, scan_seed=-1), "scan_seed"),
}


@pytest.mark.parametrize("case", sorted(_NAMED))
def test_damaged_spec_is_a_named_error(
    case, _mini_dataset, tmp_path, capsys
):
    document, reason = _NAMED[case]
    error = _check(document, _mini_dataset, capsys)
    assert error is not None and reason in error, error
    assert "campaign.json" in error
    # `run` reads the same file before it scans anything.
    (tmp_path / "campaign.json").write_text(json.dumps(document))
    assert main(["run", "--dir", str(tmp_path), "--no-pace"]) == 2
    assert reason in capsys.readouterr().err


def test_planned_spec_loads(_mini_dataset, capsys):
    assert _check(_PLANNED, _mini_dataset, capsys) is None


def test_json_number_forms_load(_mini_dataset, capsys):
    # An integer where a float belongs is still that float.
    document = dict(_PLANNED, phi=1, explore_frac=0)
    assert _check(document, _mini_dataset, capsys) is None


# ---------------------------------------------------------------------------
# Structured mutation
# ---------------------------------------------------------------------------


_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(
        ["tiny", "mini", "http", "ftp", "serial", "distributed", "v4",
         "v6", "never", "hitrate", "more-specific", "searchsorted"]
    )
    | st.lists(st.integers(min_value=0, max_value=2), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2)
)

_KEYS = st.sampled_from(sorted(_PLANNED) + ["colour", ""])
_RESEED_KEYS = st.sampled_from(sorted(_PLANNED["reseed"]) + ["colour"])

#: One edit: ``("set"|"drop", key, value)`` on the spec, or the same
#: on its ``reseed`` object.
_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "drop"]), _KEYS, _VALUES)
    | st.tuples(
        st.sampled_from(["set-reseed", "drop-reseed"]), _RESEED_KEYS,
        _VALUES,
    ),
    min_size=1,
    max_size=3,
)


def _mutate(edits) -> dict:
    document = json.loads(json.dumps(_PLANNED))
    for operation, key, value in edits:
        target = document
        if operation.endswith("-reseed"):
            target = document.get("reseed")
            if not isinstance(target, dict):
                continue
        if operation.startswith("set"):
            target[key] = value
        else:
            target.pop(key, None)
    return document


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(edits=[("set", "protocol", "x")])
@example(edits=[("set", "executor", "x")])
@example(edits=[("set", "family", "v6")])
@example(edits=[("set-reseed", "mode", "x")])
@given(edits=_EDITS)
def test_mutated_spec_loads_or_names_its_error(
    edits, _mini_dataset, capsys
):
    _check(_mutate(edits), _mini_dataset, capsys)
