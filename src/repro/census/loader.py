"""Census dataset presets, generation, and on-disk caching.

``get_dataset(preset)`` is the single entry point the benchmark suite
uses: the first call generates the synthetic world (see
:mod:`repro.census.synth`) and caches it as an uncompressed ``.npz``
under ``data/``; later calls reload it.  On a 2-CPU x86-64 host a
reload of ``small`` takes about 0.04 s against 0.2 s to generate it
(``v6-small``: 0.06 s against 0.5 s).  Inflating was two thirds of a
reload, so the cache stores its members: ``small`` is 29 MB instead of
7.6 MB, ``v6-small`` 46 MB instead of 11 MB.  Every member is read in
full, so that the zip reader checks its CRC before NumPy parses it; a
damaged cache is a :class:`DatasetCacheError` naming the file, which
``get_dataset`` answers by regenerating.  Bump ``LOADER_VERSION``
whenever the generator or the container changes: the cache's file name
includes it, so an older cache is neither read nor deleted.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from repro import jsonio
from repro.census.addrset import AddressSet
from repro.census.synth import KINDS, PRESETS, generate_world
from repro.bgp.table import Prefix, RoutingTable
from repro.core.addrspace import V6
from repro.env import data_dir

__all__ = [
    "LOADER_VERSION",
    "Snapshot",
    "SnapshotSeries",
    "Topology",
    "CensusDataset",
    "DatasetCacheError",
    "get_dataset",
]

#: Dataset schema/generator/container version; part of every cache key.
LOADER_VERSION = 2


class DatasetCacheError(ValueError):
    """A dataset cache file that does not read back as a dataset."""


#: What the zip reader and NumPy's ``.npy`` header parser raise on a
#: damaged container once it is open: a bad CRC, magic or offset
#: (``BadZipFile``), a seek before the file's start (``OSError``), a
#: member that ends early (``EOFError``), a flipped flag bit
#: (``NotImplementedError`` and, for the encryption bit,
#: ``RuntimeError``), or an unparsable name or header or a member that
#: is not a stored array (``ValueError``).
_CONTAINER_ERRORS = (
    zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError,
)


class Snapshot:
    """The responsive population of one protocol in one month."""

    __slots__ = ("addresses", "host_ids", "kinds", "month")

    def __init__(self, addresses, host_ids, kinds, month=0):
        if not isinstance(addresses, AddressSet):
            addresses = AddressSet(addresses, assume_sorted_unique=True)
        self.addresses = addresses
        self.host_ids = np.asarray(host_ids, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.month = month

    def __len__(self) -> int:
        return len(self.addresses)


class SnapshotSeries:
    """The monthly snapshots of one protocol, seed first."""

    def __init__(self, protocol, snapshots):
        self.protocol = protocol
        self._snapshots = list(snapshots)

    @property
    def seed_snapshot(self) -> Snapshot:
        return self._snapshots[0]

    def __getitem__(self, month) -> Snapshot:
        return self._snapshots[month]

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self):
        return iter(self._snapshots)


class Topology:
    """The synthetic routing world: table, origin ASes, allocations."""

    def __init__(self, table: RoutingTable, asns, allocated_blocks):
        self.table = table
        self.asns = dict(asns)
        self.allocated_blocks = [tuple(b) for b in allocated_blocks]

    def allocated_address_count(self) -> int:
        return int(sum(end - start for start, end in self.allocated_blocks))

    def origin_asn(self, prefix: Prefix) -> int:
        return self.asns[prefix]

    def write_mrt(self, path) -> int:
        """Dump the table as an MRT TABLE_DUMP_V2 RIB; returns #entries."""
        from repro.bgp.mrt import write_rib

        entries = (
            (p, self.asns.get(p, 64512)) for p in self.table.prefixes
        )
        return write_rib(path, entries)


class CensusDataset:
    """A full benchmark dataset: topology + per-protocol snapshot series."""

    def __init__(self, preset, seed, topology, series):
        self.preset = preset
        self.seed = seed
        self.topology = topology
        self._series = dict(series)
        self.protocols = sorted(self._series)
        self.kind_names = list(KINDS)

    @property
    def family(self) -> str:
        """The address family of this dataset (from its prefix width)."""
        prefixes = self.topology.table.l_prefixes
        return "v6" if prefixes and prefixes[0].bits == 128 else "v4"

    def series_for(self, protocol: str) -> SnapshotSeries:
        if protocol not in self._series:
            raise ValueError(f"no protocol {protocol!r} in {self.protocols}")
        return self._series[protocol]

    @property
    def months(self) -> int:
        return len(next(iter(self._series.values())))

    # -- generation ----------------------------------------------------

    @classmethod
    def generate(cls, preset: str = "small", seed: int = 0) -> "CensusDataset":
        """Generate a dataset from scratch (no cache involvement)."""
        spec, table, asns, blocks, census = generate_world(preset, seed)
        series = {
            protocol: SnapshotSeries(
                protocol,
                [
                    Snapshot(addr, hid, kind, month=m)
                    for m, (addr, hid, kind) in enumerate(months)
                ],
            )
            for protocol, months in census.items()
        }
        return cls(preset, seed, Topology(table, asns, blocks), series)

    # -- serialization -------------------------------------------------

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        table = self.topology.table
        prefixes = table.prefixes
        index = {p: i for i, p in enumerate(prefixes)}
        parents = np.full(len(prefixes), -1, dtype=np.int64)
        for parent in prefixes:
            for child in table.children_of(parent):
                parents[index[child]] = index[parent]
        if self.family == "v6":
            # 128-bit networks/blocks don't fit int64: store them in the
            # S16 wire representation under v6-only keys (the v4 cache
            # format is untouched, so LOADER_VERSION stays put).
            network_arrays = {
                "pfx_network6": V6.encode([p.network for p in prefixes]),
            }
            block_arrays = {
                "blocks6": V6.encode(
                    [
                        bound
                        for block in self.topology.allocated_blocks
                        for bound in block
                    ]
                ),
            }
        else:
            network_arrays = {
                "pfx_network": np.fromiter(
                    (p.network for p in prefixes), np.int64, len(prefixes)
                ),
            }
            block_arrays = {
                "blocks": np.asarray(
                    self.topology.allocated_blocks, dtype=np.int64
                ),
            }
        arrays = {
            **network_arrays,
            "pfx_length": np.fromiter(
                (p.length for p in prefixes), np.int64, len(prefixes)
            ),
            "pfx_parent": parents,
            "pfx_asn": np.fromiter(
                (self.topology.asns[p] for p in prefixes),
                np.int64,
                len(prefixes),
            ),
            **block_arrays,
        }
        for protocol, series in self._series.items():
            for m, snap in enumerate(series):
                arrays[f"addr_{protocol}_{m}"] = snap.addresses.values
                arrays[f"hid_{protocol}_{m}"] = snap.host_ids
                arrays[f"kind_{protocol}_{m}"] = snap.kinds
        meta = {
            "version": LOADER_VERSION,
            "preset": self.preset,
            "seed": self.seed,
            "protocols": self.protocols,
            "months": self.months,
        }
        if self.family != "v4":
            meta["family"] = self.family
        tmp = path.with_suffix(".tmp.npz")
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **arrays)
        tmp.replace(path)

    @classmethod
    def load(cls, path) -> "CensusDataset":
        """Read a cache written by :meth:`save`.

        Raises :class:`DatasetCacheError` naming ``path`` for any
        damaged or foreign cache, and ``FileNotFoundError`` for a
        missing one.
        """
        data = _read_members(path)
        try:
            meta = jsonio.loads(str(data["meta"]))
            version, protocols = meta["version"], meta["protocols"]
            preset, seed = meta["preset"], meta["seed"]
            months = range(meta["months"])
            family = meta.get("family", "v4")
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetCacheError(
                f"dataset cache {path}: unreadable meta ({exc!r})"
            ) from exc
        if version != LOADER_VERSION:
            raise DatasetCacheError(
                f"dataset cache {path}: version {version!r}, "
                f"not {LOADER_VERSION}"
            )
        lengths = data["pfx_length"]
        parents = data["pfx_parent"]
        asn_arr = data["pfx_asn"]
        if family == "v6":
            networks = V6.decode(data["pfx_network6"])
            prefixes = [
                Prefix(n, int(l), 128)
                for n, l in zip(networks, lengths.tolist())
            ]
        else:
            networks = data["pfx_network"]
            prefixes = [
                Prefix(int(n), int(l))
                for n, l in zip(networks.tolist(), lengths.tolist())
            ]
        children = {}
        l_prefixes = []
        for i, parent_idx in enumerate(parents.tolist()):
            if parent_idx < 0:
                l_prefixes.append(prefixes[i])
            else:
                children.setdefault(prefixes[parent_idx], []).append(
                    prefixes[i]
                )
        table = RoutingTable(l_prefixes, children)
        asns = {
            p: int(a) for p, a in zip(prefixes, asn_arr.tolist())
        }
        if family == "v6":
            bounds = V6.decode(data["blocks6"])
            blocks = [
                (bounds[i], bounds[i + 1])
                for i in range(0, len(bounds), 2)
            ]
        else:
            blocks = [tuple(b) for b in data["blocks"].tolist()]
        series = {}
        for protocol in protocols:
            addrs = [data[f"addr_{protocol}_{m}"] for m in months]
            hids = [data[f"hid_{protocol}_{m}"] for m in months]
            _check_host_ids(path, protocol, addrs, hids)
            snaps = [
                Snapshot(
                    addrs[m], hids[m], data[f"kind_{protocol}_{m}"],
                    month=m,
                )
                for m in months
            ]
            series[protocol] = SnapshotSeries(protocol, snaps)
        return cls(preset, seed, Topology(table, asns, blocks), series)


class _Members(dict):
    """A cache's arrays by member name; a missing one is damage."""

    def __init__(self, path, members):
        super().__init__(members)
        self.path = path

    def __missing__(self, name):
        raise DatasetCacheError(f"dataset cache {self.path}: no {name}")


def _read_members(path) -> _Members:
    """Every ``.npy`` member of the cache at ``path``, by name."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            with zipfile.ZipFile(fh) as archive:
                return _Members(path, {
                    info.filename.removesuffix(".npy"): _read_npy(
                        archive, info, size
                    )
                    for info in archive.infolist()
                })
        except _CONTAINER_ERRORS as exc:
            raise DatasetCacheError(
                f"dataset cache {path} is damaged: {exc!r}"
            ) from exc


#: Bytes that hold any ``.npy`` 1.0 header NumPy reads without
#: pickles: magic, version and length, then at most 10,000 characters.
_NPY_HEADER_BYTES = 10 + 10_000
#: Bytes read from a member per call: the only transient copy.
_READ_CHUNK = 1 << 18


def _read_npy(archive, info, size) -> np.ndarray:
    """The array in one stored ``.npy`` member, as a view of a buffer
    that holds the whole member.

    The member is read in full before it is parsed, so the zip reader
    has checked its CRC: a flipped bit anywhere in it, its ``.npy``
    header included, fails there and never reaches NumPy.  Its sizes
    are checked against the file's first, so a damaged size field
    cannot allocate more than the file holds.
    """
    if not (
        info.compress_type == zipfile.ZIP_STORED
        and info.file_size == info.compress_size <= size
    ):
        raise ValueError(f"{info.filename} is not a stored member")
    buf = np.empty(info.file_size, np.uint8)
    view = memoryview(buf)
    with archive.open(info) as member:
        filled = 0
        while filled < len(buf):
            got = member.readinto(view[filled:filled + _READ_CHUNK])
            if not got:
                raise EOFError(f"{info.filename} ends at byte {filled}")
            filled += got
    stream = io.BytesIO(buf[:_NPY_HEADER_BYTES].tobytes())
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError(f"{info.filename} is not a .npy 1.0 member")
    header = np.lib.format.read_array_header_1_0(stream)
    shape, fortran_order, dtype = header
    offset = stream.tell()
    if (
        fortran_order
        or dtype.hasobject
        or offset + math.prod(shape) * dtype.itemsize != len(buf)
    ):
        raise ValueError(f"{info.filename} does not hold {header}")
    return buf[offset:].view(dtype).reshape(shape)


def _check_host_ids(path, protocol, addrs, hids) -> None:
    """Each month's host ids pair one-to-one with its addresses and are
    distinct integers in ``[0, rows)``, ``rows`` being the series' total
    row count — so churn analysis may index a table by them.  O(rows):
    a month's ids are scattered into a table allocated once per series
    and must read back as their own row numbers."""
    rows = sum(len(a) for a in addrs)
    where = np.empty(rows, dtype=np.min_scalar_type(rows))
    numbers = np.arange(max(map(len, addrs), default=0), dtype=where.dtype)
    for m, (addr, hid) in enumerate(zip(addrs, hids)):
        name = f"hid_{protocol}_{m}"
        if hid.dtype.kind not in "iu" or hid.shape != addr.shape:
            raise DatasetCacheError(
                f"dataset cache {path}: {name} holds {hid.shape} {hid.dtype} "
                f"host ids for {addr.shape} addresses"
            )
        if not len(hid):
            continue
        if hid.min() < 0 or hid.max() >= rows:
            raise DatasetCacheError(
                f"dataset cache {path}: {name} holds a host id outside "
                f"[0, {rows})"
            )
        index = numbers[: len(hid)]
        where[hid] = index
        if not np.array_equal(where[hid], index):
            raise DatasetCacheError(
                f"dataset cache {path}: {name} repeats a host id"
            )


def get_dataset(
    preset: str = "small", seed: int = 0, cache_dir=None
) -> CensusDataset:
    """Load a cached dataset, generating and caching it on first use."""
    if preset not in PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    directory = Path(data_dir(cache_dir))
    path = directory / f"census-{preset}-seed{seed}-v{LOADER_VERSION}.npz"
    if path.exists():
        try:
            return CensusDataset.load(path)
        except DatasetCacheError:
            path.unlink(missing_ok=True)
    dataset = CensusDataset.generate(preset=preset, seed=seed)
    dataset.save(path)
    return dataset
