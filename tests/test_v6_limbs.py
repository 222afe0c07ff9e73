"""The v6 wave path on ``(hi, lo)`` uint64 limbs, against exact references.

A wave's v6 targets are built, sampled and scored on limbs, never by
``S16`` compares or per-address Python ints.  Each property below
compares one step with a reference that uses neither limbs nor the
code under test:
- :meth:`AddressSet.membership` against the ``S16`` ``np.searchsorted``
  it replaced and against a Python set;
- :meth:`IntervalTargets._v6_samples` against the scalar formula
  ``start + (b + a*j) % size`` in Python ints;
- the hitlist filter against :func:`repro.bgp.table.interval_membership`.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import v6_draws
from repro.bgp.table import interval_membership
from repro.census import addrset
from repro.census.addrset import AddressSet
from repro.core.addrspace import V6
from repro.scan.engine import EngineConfig
from repro.scan.sharded import IntervalTargets, run_sharded

TOP = (1 << 128) - 1
LOW = (1 << 64) - 1

#: High limbs shared by many draws, so members come in equal-high runs.
_HIGHS = st.sampled_from([0, 1, 0x20010DB8 << 32, LOW])
#: Low limbs: narrow ones (the packed-key path), all ones, and ones
#: using all 64 bits (the general path).
_LOWS = st.one_of(
    st.integers(0, 1 << 12), st.just(LOW), st.integers(0, LOW)
)
addresses = st.one_of(
    st.builds(lambda hi, lo: hi << 64 | lo, _HIGHS, _LOWS),
    st.integers(0, TOP),
)


def _s16_membership(members, probes):
    """The S16 search ``AddressSet.membership`` used before limbs."""
    if len(members) == 0 or probes.size == 0:
        return np.zeros(probes.shape, dtype=bool)
    idx = np.searchsorted(members, probes)
    idx[idx == len(members)] = len(members) - 1
    return members[idx] == probes


def _neighbours(values):
    """Each value's two neighbours: a carry or borrow across the limbs
    when the low limb is all ones or zero, and mostly non-members."""
    return [v + d for v in values for d in (-1, 1) if 0 <= v + d <= TOP]


@given(
    st.lists(addresses, max_size=40),
    st.lists(addresses, max_size=40),
    st.booleans(),
)
# Members (1, 5) and (2, 0) as (hi, lo): 3-bit low limbs, so the keys
# are 5 and 8.  Probe (1, 8) would key 8 if its wide low limb were let
# through; probes (0, 5) and (3, 0), whose /64 no member has, would key
# 5 and 8 if they took the nearest member /64's rank.
@example(
    members=[1 << 64 | 5, 2 << 64],
    others=[1 << 64 | 8, 5, 3 << 64],
    narrow=False,
)
@settings(max_examples=100, deadline=None)
def test_membership_matches_s16_search_and_set(members, others, narrow):
    if narrow:
        # Keep every low limb narrow, so the packed keys are used.
        members = [v & ~(LOW ^ 0xFFFF) for v in members]
    probes = members[::2] + others + _neighbours(members)
    member_set = AddressSet(V6.encode(members))
    encoded = V6.encode(probes)
    mask = member_set.membership(encoded)
    reference = _s16_membership(member_set.values, encoded)
    assert mask.tolist() == reference.tolist()
    assert mask.tolist() == [p in set(members) for p in probes]
    # A strided view of the probes gives the same answers.
    strided = member_set.membership(encoded[::2])
    assert strided.tolist() == mask[::2].tolist()


@pytest.fixture
def searched(monkeypatch):
    """The dtype of every member array ``membership`` searches."""
    dtypes = []
    search = addrset._search

    def spy(members, probes):
        dtypes.append(members.dtype.str)
        return search(members, probes)

    monkeypatch.setattr(addrset, "_search", spy)
    return dtypes


@pytest.mark.parametrize(
    "low, probes, path",
    [
        (0xFFFF, 64, "<u8"),
        # A low limb using its top bit: rank and low limb need 64+ bits.
        (1 << 63, 64, "|S16"),
        # Too few probes to pay for the member keys.
        (0xFFFF, 2, "|S16"),
    ],
    ids=["packed", "wide-low-limb", "few-probes"],
)
def test_membership_takes_the_named_path(low, probes, path, searched):
    values = [(h << 64) | (low - i) for h in (3, 9) for i in range(16)]
    members = AddressSet(V6.encode(values))
    needles = V6.encode(values[:probes] + _neighbours(values)[:probes])
    expected = _s16_membership(members.values, needles)
    assert members.membership(needles).tolist() == expected.tolist()
    assert searched == [path]


def test_membership_of_empty_sets():
    empty = AddressSet(V6.empty())
    some = V6.encode([1, 2 << 64])
    assert empty.membership(some).tolist() == [False, False]
    assert AddressSet(some).membership(V6.empty()).shape == (0,)


# ---------------------------------------------------------------------------
# Sampling: the scalar affine formula in Python ints
# ---------------------------------------------------------------------------


def _scalar_samples(starts, ends, seed, samples) -> list[int]:
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        size = end - start
        b, a = v6_draws(seed, i, size)
        out += [start + (b + a * j) % size for j in range(min(size, samples))]
    return out


_SIZES = st.one_of(
    st.sampled_from(
        [1, 2, 3, LOW, LOW + 1, LOW + 2, 3 * 5 * 7 * 11, (1 << 80) - 1]
    ),
    st.integers(1, 1 << 20),
    st.integers(1, TOP >> 2),
)


@st.composite
def intervals(draw):
    """1-3 disjoint intervals of the sizes above, some ending at 2^128-1."""
    sizes = draw(st.lists(_SIZES, min_size=1, max_size=3))
    gaps = draw(st.lists(st.integers(0, 1 << 70), min_size=3, max_size=3))
    starts, ends, at = [], [], draw(st.integers(0, 1 << 100))
    for size, gap in zip(sizes, gaps):
        starts.append(at + gap)
        ends.append(at + gap + size)
        at = ends[-1]
    if draw(st.booleans()) or ends[-1] > TOP:
        shift = TOP - ends[-1]  # the last interval ends at 2^128 - 1
        if starts[0] + shift < 0:
            starts, ends = starts[-1:], ends[-1:]
        starts = [s + shift for s in starts]
        ends = [e + shift for e in ends]
    return starts, ends


@given(
    intervals(),
    st.sampled_from([0, 1, 2, 5, 64]),
    st.integers(0, 1 << 20),
)
@settings(max_examples=100, deadline=None)
def test_samples_match_the_scalar_formula(bounds, samples, seed):
    starts, ends = bounds
    walk = IntervalTargets(
        (V6.encode(starts), V6.encode(ends)), seed=seed, samples=samples
    )
    expected = _scalar_samples(starts, ends, seed, samples)
    assert walk.address_count() == len(expected)
    if expected:
        assert V6.decode(walk._v6_samples()) == expected


@given(
    intervals(),
    st.lists(addresses, max_size=30),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_hitlist_filter_matches_interval_membership(bounds, extra, inside):
    starts, ends = bounds
    rng = random.Random(len(extra))
    # Random entries, entries inside, and each interval's edges.
    hitlist = extra + starts + [e - 1 for e in ends] + ends
    for start, end in zip(starts, ends):
        hitlist += [rng.randrange(start, end) for _ in range(inside)]
    rng.shuffle(hitlist)
    s16 = (V6.encode(starts), V6.encode(ends))
    walk = IntervalTargets(s16, hitlist=V6.encode(hitlist), samples=0)
    unique = np.unique(V6.encode(hitlist))
    expected = unique[interval_membership(*s16, unique)]
    assert walk.hitlist.tobytes() == expected.tobytes()
    assert walk.address_count() == len(expected)


def test_empty_target_set_probes_nothing():
    """No interval covers any hitlist entry, so nothing is probed."""
    hitlist = V6.encode([1 << 100, 5 << 64, 7, 9, TOP - 1])
    empty = (V6.empty(), V6.empty())
    walk = IntervalTargets(empty, hitlist=hitlist, samples=64)
    assert walk.address_count() == 0
    assert len(walk.hitlist) == 0
    sharded = run_sharded(
        empty, hitlist, shards=2, config=EngineConfig(batch_size=4),
        hitlist=hitlist, samples=64,
    )
    assert sharded.result.probes_sent == 0
    assert sharded.result.responses == 0
    # One disjoint interval drops the same hitlist the same way.
    disjoint = (V6.encode([2]), V6.encode([4]))
    assert IntervalTargets(disjoint, hitlist=hitlist).address_count() == 0
