"""Unit tests for AddressSet algebra edge cases (no dataset fixture)."""

import operator

import numpy as np
import pytest

from repro.census.addrset import AddressSet
from repro.core.addrspace import V6


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


# ---------------------------------------------------------------------------
# Set algebra across address families
# ---------------------------------------------------------------------------

V4_SET = AddressSet([1, 2, 3, 4])
V6_SET = AddressSet(V6.encode([1, 2, (1 << 127) + 3]))

#: Every operation that takes two sets.
TWO_SET_OPS = {
    "union": operator.or_,
    "intersection": operator.and_,
    "difference": operator.sub,
    "symmetric_difference": operator.xor,
    "intersection_count": AddressSet.intersection_count,
    "issubset": AddressSet.issubset,
}


@pytest.mark.parametrize("op", TWO_SET_OPS)
def test_v4_with_v6_raises_a_named_error(op):
    """``v4 | v6`` raised a bare int-parsing ``ValueError``; ``v4 & v6``
    returned an empty set and ``issubset`` ``False``, silently."""
    with pytest.raises(ValueError, match="v4 AddressSet with a v6 AddressSet"):
        TWO_SET_OPS[op](V4_SET, V6_SET)


@pytest.mark.parametrize("op", TWO_SET_OPS)
def test_v6_with_v4_raises_a_named_error(op):
    """``v6 | v4`` returned a 4-element ``S16`` set holding the v4 ints
    as byte strings."""
    with pytest.raises(ValueError, match="v6 AddressSet with a v4 AddressSet"):
        TWO_SET_OPS[op](V6_SET, V4_SET)


@pytest.mark.parametrize("op", TWO_SET_OPS)
@pytest.mark.parametrize("full", [V4_SET, V6_SET], ids=["v4", "v6"])
def test_an_empty_set_combines_with_either_family(op, full):
    for empty in (AddressSet(), AddressSet(V6.empty())):
        TWO_SET_OPS[op](empty, full)
        TWO_SET_OPS[op](full, empty)
    assert (AddressSet() | full) == full
    assert (full | AddressSet(V6.empty())) == full


# ---------------------------------------------------------------------------
# The merge path: the intersection count of comparable v4 sets comes
# from one stable sort
# ---------------------------------------------------------------------------


def test_comparable_v4_sets_count_without_searching(monkeypatch):
    rng = np.random.default_rng(11)
    a = AddressSet(rng.integers(0, 1 << 32, 4_000))
    b = AddressSet(
        np.concatenate([a.values[::3], rng.integers(0, 1 << 32, 2_000)])
    )
    assert 4 * min(len(a), len(b)) >= max(len(a), len(b))
    expected = len(np.intersect1d(a.values, b.values))

    def refuse(*args, **kwargs):
        raise AssertionError("np.searchsorted called on the merge path")

    monkeypatch.setattr(np, "searchsorted", refuse)
    assert a.intersection_count(b) == b.intersection_count(a) == expected


def test_imbalanced_and_v6_pairs_still_search(monkeypatch):
    """A pair whose smaller side is under a quarter of the larger, and a
    v6 pair of comparable size, take the search and answer the same."""
    rng = np.random.default_rng(12)
    big = AddressSet(rng.integers(0, 1 << 20, 10_000))
    small = AddressSet(
        np.concatenate([big.values[:100], [1 << 21, (1 << 32) - 1]])
    )
    assert 4 * len(small) < len(big)
    v6_a = AddressSet(V6.encode([(int(h) << 64) + 7 for h in big.values[:3000]]))
    v6_b = AddressSet(
        V6.encode([(int(h) << 64) + 7 for h in big.values[1000:5000]])
    )
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(
        np, "searchsorted", lambda *a, **k: searches.append(1) or search(*a, **k)
    )
    for x, y in ((big, small), (small, big), (v6_a, v6_b)):
        searches.clear()
        ox, oy = set(iter(x)), set(iter(y))
        assert x.intersection_count(y) == len(ox & oy)
        assert searches
        assert set(iter(x & y)) == ox & oy
        assert set(iter(x | y)) == ox | oy
        assert set(iter(x ^ y)) == ox ^ oy
