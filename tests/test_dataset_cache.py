"""The dataset cache's host-id contract, checked by ``CensusDataset.load``.

Churn analysis indexes a table by host id, so every ``hid_<protocol>_<m>``
array must pair one-to-one with its addresses and hold distinct ids in
``[0, rows)``, ``rows`` being the protocol's total row count over all
months.  A damaged array is a ``ValueError`` naming it.  These tests call
``CensusDataset.load`` directly: ``get_dataset`` deletes and regenerates
any cache it cannot load.  The last test generates a preset from
scratch, as a cold cache does.
"""

import numpy as np
import pytest

from conftest import build_mini_dataset
from repro.census.loader import CensusDataset

MINI = build_mini_dataset()
ROWS = sum(len(snapshot) for snapshot in MINI.series_for("http"))


def _damaged_cache(tmp_path, damage):
    """The mini dataset's cache with ``hid_http_1`` replaced by
    ``damage(hid)``."""
    path = tmp_path / "census.npz"
    MINI.save(path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["hid_http_1"] = damage(arrays["hid_http_1"].copy())
    np.savez_compressed(path, **arrays)
    return path


def _set(hid, at, value):
    hid[at] = value
    return hid


def test_intact_cache_loads(tmp_path):
    loaded = CensusDataset.load(_damaged_cache(tmp_path, lambda hid: hid))
    for saved, read in zip(MINI.series_for("http"), loaded.series_for("http")):
        assert np.array_equal(saved.host_ids, read.host_ids)


def test_largest_valid_host_id_loads(tmp_path):
    CensusDataset.load(
        _damaged_cache(tmp_path, lambda hid: _set(hid, 0, ROWS - 1))
    )


@pytest.mark.parametrize(
    "damage, detail",
    [
        (lambda hid: hid[:-1], "addresses"),
        (lambda hid: _set(hid, 0, -1), r"outside \[0, "),
        (lambda hid: _set(hid, 1, hid[0]), "repeats a host id"),
        (lambda hid: _set(hid, 0, ROWS), rf"outside \[0, {ROWS}\)"),
    ],
    ids=["length", "negative", "repeated", "at-row-count"],
)
def test_damaged_host_ids_are_a_named_error(tmp_path, damage, detail):
    path = _damaged_cache(tmp_path, damage)
    with pytest.raises(ValueError, match=rf"hid_http_1 .*{detail}"):
        CensusDataset.load(path)


def test_tiny_preset_generates_every_protocol():
    generated = CensusDataset.generate(preset="tiny", seed=99)
    assert generated.protocols == ["cwmp", "ftp", "http", "https"]
