"""Unit tests for blocklist interval handling (no dataset fixture)."""

import numpy as np

from repro.bgp.table import Prefix, ip_to_int
from repro.scan.blocklist import Blocklist, default_blocklist


def _blocked(blocklist, *dotted):
    probes = np.array([ip_to_int(d) for d in dotted], dtype=np.int64)
    return blocklist.blocked_mask(probes).tolist()


def test_default_blocklist_blocks_reserved_space():
    assert _blocked(
        default_blocklist(),
        "10.1.2.3", "192.168.1.1", "224.0.0.1", "8.8.8.8", "1.2.3.4",
    ) == [True, True, True, False, False]


def test_nested_intervals_are_coalesced():
    # A /16 nested inside a /8 must not shadow the enclosing block.
    blocklist = Blocklist.from_cidrs(["10.0.0.0/8", "10.1.0.0/16"])
    assert len(blocklist) == 1
    assert _blocked(blocklist, "10.5.0.0", "10.1.0.1") == [True, True]
    assert blocklist.address_count() == Prefix.from_cidr("10.0.0.0/8").size


def test_overlapping_and_adjacent_intervals_merge():
    blocklist = Blocklist(
        starts=[100, 150, 200, 400], ends=[180, 210, 300, 500]
    )
    assert len(blocklist) == 2
    probes = np.array([99, 100, 250, 299, 300, 450, 500])
    assert blocklist.blocked_mask(probes).tolist() == [
        False, True, True, True, False, True, False,
    ]
    assert blocklist.address_count() == 200 + 100


def test_filter_removes_blocked_probes():
    blocklist = Blocklist.from_cidrs(["10.0.0.0/8"])
    probes = np.array(
        [ip_to_int("9.255.255.255"), ip_to_int("10.0.0.1"), ip_to_int("11.0.0.0")]
    )
    assert probes[~blocklist.blocked_mask(probes)].tolist() == [
        ip_to_int("9.255.255.255"),
        ip_to_int("11.0.0.0"),
    ]
