"""Hypothesis property tests: AddressSet algebra, permutation shards, scans.

The AddressSet properties check every set operation against the
built-in ``set`` oracle on random address arrays; the permutation
properties check full-cycle bijectivity and the shard disjoint-union
invariant over random cyclic-group parameters; the scan property checks
a blocklisted v4 ``run_sharded`` against its closed-form totals.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_mini_dataset
from repro.census.addrset import AddressSet
from repro.orchestrator.waves import explore_unselected
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig
from repro.scan.permutation import CyclicPermutation
from repro.scan.sharded import run_sharded

addresses = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1), max_size=200
)


def _pyset(address_set: AddressSet) -> set:
    return set(address_set.values.tolist())


@given(addresses, addresses)
def test_addrset_algebra_matches_set_oracle(a, b):
    sa, sb = AddressSet(a), AddressSet(b)
    oa, ob = set(a), set(b)
    assert _pyset(sa) == oa
    assert _pyset(sa | sb) == oa | ob
    assert _pyset(sa & sb) == oa & ob
    assert _pyset(sa - sb) == oa - ob
    assert _pyset(sa ^ sb) == oa ^ ob
    assert sa.intersection_count(sb) == len(oa & ob)
    assert sa.issubset(sb) == oa.issubset(ob)
    assert (sa | sb) == (sb | sa)


@given(addresses, addresses)
def test_addrset_membership_matches_oracle(a, b):
    sa = AddressSet(a)
    oa = set(a)
    probes = np.asarray(b, dtype=np.int64)
    mask = sa.membership(probes)
    assert mask.tolist() == [v in oa for v in b]
    for v in b[:10]:
        assert (v in sa) == (v in oa)


@given(addresses)
def test_addrset_values_sorted_unique(a):
    sa = AddressSet(a)
    values = sa.values
    assert np.array_equal(values, np.unique(np.asarray(a, dtype=np.int64)))


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=1, max_value=512),
)
@settings(max_examples=50, deadline=None)
def test_permutation_is_bijective(n, seed, batch_size):
    perm = CyclicPermutation(n, seed=seed)
    values = np.concatenate(list(perm.batches(batch_size)))
    assert np.array_equal(np.sort(values), np.arange(n))


@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=50, deadline=None)
def test_shards_are_a_disjoint_cover(n, seed, shards):
    perm = CyclicPermutation(n, seed=seed)
    pieces = []
    for i in range(shards):
        batches = list(perm.shard(i, shards).batches(97))
        if batches:
            pieces.append(np.concatenate(batches))
    union = np.concatenate(pieces)
    # Jointly a bijection onto range(n): disjointness and coverage both.
    assert np.array_equal(np.sort(union), np.arange(n))


@given(
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=2, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_shards_preserve_full_walk_order(n, seed, shards):
    perm = CyclicPermutation(n, seed=seed)
    full = np.concatenate(list(perm.batches(64)))
    position = {int(v): i for i, v in enumerate(full)}
    for i in range(shards):
        batches = list(perm.shard(i, shards).batches(64))
        if not batches:
            continue
        walk = [position[int(v)] for v in np.concatenate(batches)]
        assert walk == sorted(walk)


@st.composite
def blocked_scans(draw):
    """Disjoint target intervals, a truth set and a blocklist over them."""
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    gaps = draw(st.lists(st.integers(0, 100), min_size=len(sizes),
                         max_size=len(sizes)))
    starts, end = [], 0
    for size, gap in zip(sizes, gaps):
        starts.append(end + gap)
        end = starts[-1] + size
    ends = [s + size for s, size in zip(starts, sizes)]
    space = st.integers(0, end + 20)
    truth = draw(st.lists(space, max_size=300))
    blocks = draw(st.lists(st.tuples(space, st.integers(1, 120)),
                           max_size=4))
    return starts, ends, truth, blocks


@given(
    blocked_scans(),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=1, max_value=97),
)
@settings(max_examples=25, deadline=None)
def test_blocklisted_scan_matches_closed_form(case, seed, batch_size):
    starts, ends, truth, blocks = case
    covered = {a for s, e in zip(starts, ends) for a in range(s, e)}
    blocked = {a for s, n in blocks for a in range(s, s + n)}
    expected = (
        len(covered) - len(covered & blocked),
        len(set(truth) & covered - blocked),
        len(covered & blocked),
    )
    merged = set()
    for shards in (1, 3, 8):
        result = run_sharded(
            (np.array(starts), np.array(ends)),
            AddressSet(truth),
            shards=shards,
            config=EngineConfig(batch_size=batch_size),
            blocklist=Blocklist([s for s, _ in blocks],
                                [s + n for s, n in blocks]),
            seed=seed,
        ).result
        assert (
            result.probes_sent, result.responses, result.blocked
        ) == expected, shards
        merged.add(dataclasses.astuple(result))
    assert len(merged) == 1


MINI = build_mini_dataset()
MINI_PARTITION = MINI.topology.table.partition("less-specific")
MINI_VALUES = MINI.series_for("http")[0].addresses.values


def _explore_reference(rng, partition, selected, values, n):
    """Exploration the long way: sort the draws, map each to an address."""
    unselected = np.flatnonzero(~selected)
    sizes = partition.sizes[unselected]
    total = int(sizes.sum())
    empty = np.empty(0, dtype=np.int64)
    if total == 0 or n == 0:
        return 0, empty, empty
    bounds = np.cumsum(sizes)
    draws = np.sort(rng.integers(0, total, size=n))
    slot = np.searchsorted(bounds, draws, side="right")
    offset = draws - (bounds[slot] - sizes[slot])
    probes = partition.starts[unselected[slot]] + offset
    if len(values) == 0:
        return n, empty, empty
    idx = np.searchsorted(probes, values).clip(max=n - 1)
    hits = values[probes[idx] == values]
    parts = np.unique(partition.index_of(hits))
    parts = parts[parts >= 0]
    return n, hits, parts[~selected[parts]]


@st.composite
def explorations(draw):
    """A selection, responsive values in and out of it, and a budget."""
    partition = MINI_PARTITION
    size = len(partition)
    selected = np.array(
        draw(st.lists(st.booleans(), min_size=size, max_size=size))
    )
    inside = [
        int(partition.starts[i]) + off % int(partition.sizes[i])
        for i, off in draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, 1 << 17)),
                max_size=300,
            )
        )
    ]
    # Mostly outside the announced space, which spans ~0.003% of v4.
    outside = draw(st.lists(st.integers(0, (1 << 32) - 1), max_size=30))
    values = inside + outside
    if draw(st.booleans()):
        values += MINI_VALUES.tolist()
    values = np.unique(np.asarray(values, dtype=np.int64))
    # Past the unselected space's size, so draws repeat.
    announced = int(partition.sizes.sum())
    n = draw(st.one_of(st.integers(0, 600), st.integers(0, announced + 5000)))
    return selected, values, n


@given(explorations(), st.integers(min_value=0, max_value=(1 << 32) - 1))
@example((np.zeros(4, dtype=bool), MINI_VALUES, 120_000), 1)
@example((np.array([True, True, True, False]), MINI_VALUES, 2000), 2)
@example((np.ones(4, dtype=bool), MINI_VALUES, 10), 3)
@settings(max_examples=60, deadline=None)
def test_explore_matches_sorted_draw_reference(case, seed):
    selected, values, n = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    count, hits, fresh = explore_unselected(
        rng, MINI_PARTITION, selected, values, n
    )
    ref_count, ref_hits, ref_fresh = _explore_reference(
        ref_rng, MINI_PARTITION, selected, values, n
    )
    assert count == ref_count
    assert hits.tolist() == ref_hits.tolist()
    assert fresh.tolist() == ref_fresh.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
