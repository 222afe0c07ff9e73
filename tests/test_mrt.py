"""MRT RIB round-trip and prefix→origin-AS extraction."""

from conftest import build_mini_dataset
from repro.bgp.mrt import read_rib, write_rib
from repro.bgp.pfx2as import rib_to_pfx2as
from repro.bgp.table import Prefix


def _entries():
    return [
        (Prefix.from_cidr("10.0.0.0/16"), 64500),
        (Prefix.from_cidr("10.2.0.0/15"), 64501),
        (Prefix.from_cidr("192.0.0.0/8"), 65000),
    ]


def test_rib_round_trip(tmp_path):
    path = tmp_path / "rib.mrt"
    entries = _entries()
    assert write_rib(path, entries) == len(entries)
    assert list(read_rib(path)) == entries


def test_rib_to_pfx2as(tmp_path):
    path = tmp_path / "rib.mrt"
    entries = _entries()
    write_rib(path, entries)
    mapping = rib_to_pfx2as(path)
    assert mapping == dict(entries)


def test_empty_rib(tmp_path):
    path = tmp_path / "empty.mrt"
    assert write_rib(path, []) == 0
    assert list(read_rib(path)) == []
    assert rib_to_pfx2as(path) == {}


def test_topology_dump_round_trips_every_origin(tmp_path):
    """``Topology.write_mrt`` dumps the whole table, origin AS included."""
    topology = build_mini_dataset().topology
    path = tmp_path / "rib.mrt"
    assert topology.write_mrt(path) == len(topology.table.prefixes) > 0
    assert rib_to_pfx2as(path) == topology.asns
