"""The dataset cache: its round trip, its container and its contract.

``CensusDataset.save`` writes a stored (uncompressed) ``.npz``, and
``CensusDataset.load`` must give back every array it was given, with
its dtype.  A damaged cache is a ``DatasetCacheError`` (a
``ValueError``) naming the file, never a bare ``BadZipFile``,
``KeyError`` or ``OSError``; ``get_dataset`` answers exactly that error
by regenerating the preset, and lets any other error through.

Churn analysis indexes a table by host id, so every ``hid_<protocol>_<m>``
array must pair one-to-one with its addresses and hold distinct ids in
``[0, rows)``, ``rows`` being the protocol's total row count over all
months.  A damaged array is a ``ValueError`` naming it.  These tests call
``CensusDataset.load`` directly: ``get_dataset`` deletes and regenerates
any cache it finds damaged.  ``test_tiny_preset_generates_every_protocol``
generates a preset from scratch, as a cold cache does.
"""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_mini_dataset
from repro.census import loader
from repro.census.loader import CensusDataset, DatasetCacheError, get_dataset

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
    np.savez(path, **arrays)
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


# ---------------------------------------------------------------------------
# Round trip and container
# ---------------------------------------------------------------------------


def _assert_same_dataset(read, saved):
    """Every array of ``read`` equals ``saved``'s, dtype included."""
    assert (read.preset, read.seed) == (saved.preset, saved.seed)
    assert read.protocols == saved.protocols
    assert read.months == saved.months
    for protocol in saved.protocols:
        pairs = zip(read.series_for(protocol), saved.series_for(protocol))
        for month, (got, want) in enumerate(pairs):
            assert got.month == want.month == month
            for name, a, b in [
                ("addresses", got.addresses.values, want.addresses.values),
                ("host_ids", got.host_ids, want.host_ids),
                ("kinds", got.kinds, want.kinds),
            ]:
                assert a.dtype == b.dtype, (protocol, month, name)
                assert np.array_equal(a, b), (protocol, month, name)
    got, want = read.topology, saved.topology
    assert got.table.prefixes == want.table.prefixes
    for prefix in want.table.prefixes:
        assert got.table.children_of(prefix) == want.table.children_of(
            prefix
        )
    assert got.asns == want.asns
    assert got.allocated_blocks == want.allocated_blocks


@pytest.fixture(scope="module")
def generated():
    """``name -> dataset`` for the presets and the conftest mini world."""
    return {
        "tiny": CensusDataset.generate(preset="tiny", seed=0),
        "v6-tiny": CensusDataset.generate(preset="v6-tiny", seed=0),
        "mini": MINI,
    }


@pytest.mark.parametrize("name", ["tiny", "v6-tiny", "mini"])
def test_load_returns_what_save_was_given(name, generated, tmp_path):
    path = tmp_path / "census.npz"
    generated[name].save(path)
    _assert_same_dataset(CensusDataset.load(path), generated[name])
    # A stored member reads back without zlib; compressing them again
    # would make every load pay for inflating it.
    with zipfile.ZipFile(path) as archive:
        members = archive.infolist()
    assert members
    assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}


def _cache_path(directory, version):
    return directory / f"census-tiny-seed0-v{version}.npz"


def test_an_older_version_beside_the_cache_is_left_alone(
    generated, tmp_path, monkeypatch
):
    # A shared data directory holds caches of both versions: neither may
    # read or delete the other's.
    older = _cache_path(tmp_path, loader.LOADER_VERSION - 1)
    older.write_bytes(b"a cache in an older container")
    loads = []
    real_load = CensusDataset.load.__func__

    def spy(cls, path):
        loads.append(path)
        return real_load(cls, path)

    monkeypatch.setattr(CensusDataset, "load", classmethod(spy))
    current = _cache_path(tmp_path, loader.LOADER_VERSION)
    for _ in range(2):  # the first call generates, the second loads
        dataset = get_dataset(preset="tiny", seed=0, cache_dir=tmp_path)
        _assert_same_dataset(dataset, generated["tiny"])
    assert loads == [current]
    assert older.read_bytes() == b"a cache in an older container"
    assert sorted(tmp_path.iterdir()) == sorted([older, current])


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: raw[: len(raw) // 2],
        lambda raw: raw[:100] + bytes([raw[100] ^ 1]) + raw[101:],
        lambda raw: b"",
    ],
    ids=["truncated", "flipped-bit", "empty"],
)
def test_get_dataset_regenerates_a_damaged_cache(damage, generated, tmp_path):
    path = _cache_path(tmp_path, loader.LOADER_VERSION)
    generated["tiny"].save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DatasetCacheError, match=str(path)):
        CensusDataset.load(path)
    dataset = get_dataset(preset="tiny", seed=0, cache_dir=tmp_path)
    _assert_same_dataset(dataset, generated["tiny"])
    _assert_same_dataset(CensusDataset.load(path), generated["tiny"])


def test_get_dataset_does_not_hide_a_loader_bug(
    generated, tmp_path, monkeypatch
):
    path = _cache_path(tmp_path, loader.LOADER_VERSION)
    generated["tiny"].save(path)

    def broken(*args, **kwargs):
        raise KeyError("a bug, not damage")

    monkeypatch.setattr(loader, "Snapshot", broken)
    with pytest.raises(KeyError, match="a bug"):
        get_dataset(preset="tiny", seed=0, cache_dir=tmp_path)
    assert path.exists()


@pytest.fixture(scope="module")
def tiny_cache(generated, tmp_path_factory):
    """The saved ``tiny`` cache's bytes, the offsets where its members
    begin and where its central directory begins, and a scratch path."""
    directory = tmp_path_factory.mktemp("fuzz")
    generated["tiny"].save(directory / "intact.npz")
    raw = (directory / "intact.npz").read_bytes()
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        starts = [info.header_offset for info in archive.infolist()]
        directory_start = archive.start_dir
    return raw, starts, directory_start, directory / "census.npz"


def _edits(raw, starts, directory_start):
    """Bit flips and truncations: a third of the positions anywhere
    (mostly array data), the rest in the first 256 bytes of a member
    (its zip and ``.npy`` headers) or in the central directory."""
    position = st.one_of(
        st.integers(0, len(raw) - 1),
        st.tuples(st.sampled_from(starts), st.integers(0, 255)).map(sum),
        st.integers(directory_start, len(raw) - 1),
    )
    edit = st.one_of(
        st.tuples(st.just("flip"), position, st.integers(0, 7)),
        st.tuples(st.just("truncate"), position, st.just(0)),
    )
    return st.lists(edit, min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_cache_loads_intact_or_is_a_named_error(
    tiny_cache, generated, data
):
    raw, starts, directory_start, path = tiny_cache
    buf = bytearray(raw)
    for operation, at, bit in data.draw(_edits(raw, starts, directory_start)):
        at %= len(buf) + 1
        if operation == "flip" and at < len(buf):
            buf[at] ^= 1 << bit
        elif operation == "truncate":
            del buf[at:]
    path.write_bytes(bytes(buf))
    try:
        loaded = CensusDataset.load(path)
    except DatasetCacheError as exc:
        assert str(path) in str(exc)
    else:
        _assert_same_dataset(loaded, generated["tiny"])
