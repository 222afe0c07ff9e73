"""Unit tests for AddressSet algebra edge cases (no dataset fixture)."""

import numpy as np
import pytest

from repro.census.addrset import AddressSet


def test_empty_set():
    empty = AddressSet()
    assert len(empty) == 0
    assert not empty
    assert 5 not in empty
    other = AddressSet([1, 2, 3])
    assert len(empty | other) == 3
    assert len(other | empty) == 3
    assert len(empty & other) == 0
    assert len(other & empty) == 0
    assert len(empty - other) == 0
    assert len(other - empty) == 3
    assert empty.intersection_count(other) == 0


def test_constructor_sorts_and_dedupes():
    s = AddressSet([5, 1, 5, 3, 1, 1])
    assert s.values.tolist() == [1, 3, 5]
    assert len(s) == 3


def test_values_read_only():
    s = AddressSet([1, 2, 3])
    with pytest.raises(ValueError):
        s.values[0] = 99


def test_disjoint_ranges():
    a = AddressSet(np.arange(0, 100))
    b = AddressSet(np.arange(1000, 1100))
    assert len(a | b) == 200
    assert len(a & b) == 0
    assert (a - b) == a
    assert a.intersection_count(b) == 0


def test_overlapping_algebra():
    a = AddressSet([1, 2, 3, 4, 5])
    b = AddressSet([4, 5, 6, 7])
    assert (a | b).values.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert (a & b).values.tolist() == [4, 5]
    assert (a - b).values.tolist() == [1, 2, 3]
    assert (b - a).values.tolist() == [6, 7]
    assert (a ^ b).values.tolist() == [1, 2, 3, 6, 7]
    assert a.intersection_count(b) == 2
    assert b.intersection_count(a) == 2


def test_membership_mask():
    s = AddressSet([10, 20, 30])
    probes = np.array([5, 10, 15, 20, 25, 30, 35], dtype=np.int64)
    assert s.membership(probes).tolist() == [
        False, True, False, True, False, True, False,
    ]
    assert 10 in s
    assert 15 not in s


def test_union_matches_numpy_reference():
    rng = np.random.default_rng(7)
    a = AddressSet(rng.integers(0, 10_000, 2_000))
    b = AddressSet(rng.integers(0, 10_000, 3_000))
    assert np.array_equal(
        (a | b).values, np.union1d(a.values, b.values)
    )
    assert np.array_equal(
        (a & b).values, np.intersect1d(a.values, b.values)
    )
    assert np.array_equal(
        (a - b).values, np.setdiff1d(a.values, b.values)
    )
    assert a.intersection_count(b) == len(
        np.intersect1d(a.values, b.values)
    )


def test_subset():
    a = AddressSet([2, 4])
    b = AddressSet([1, 2, 3, 4])
    assert a.issubset(b)
    assert not b.issubset(a)
    assert AddressSet().issubset(a)


def test_snapshot_intersection_on_small_preset(small_dataset):
    """Month-over-month snapshot intersection (the Figure 5 inner loop)."""
    series = small_dataset.series_for("https")
    assert series[0].addresses.intersection_count(series[6].addresses) > 0


def test_set_algebra_on_small_preset(small_dataset):
    series = small_dataset.series_for("http")
    a, b = series[0].addresses, series[3].addresses
    assert len((a | b) - (a & b)) > 0
