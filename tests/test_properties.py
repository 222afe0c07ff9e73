"""Hypothesis property tests: AddressSet algebra, permutation shards, scans.

The AddressSet properties check every set operation against the
built-in ``set`` oracle on random address arrays; the permutation
properties check full-cycle bijectivity and the shard disjoint-union
invariant over random cyclic-group parameters; the scan property checks
a blocklisted v4 ``run_sharded`` against its closed-form totals.  The
exploration property checks ``explore_unselected`` against a sorted-draw
reference, and the churn property checks the §2 decomposition against
per-month ``hid -> address`` dicts.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_mini_dataset
from repro.analysis.churn_decomposition import _decompose
from repro.bgp.table import Prefix, RoutingTable
from repro.census.addrset import AddressSet
from repro.census.loader import Snapshot
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
#: Two /8s and a /24: 2^25 + 256 coordinates, so exploration's host
#: table buckets 1024 coordinates together (shift 10).
WIDE_PARTITION = RoutingTable(
    [
        Prefix.from_cidr(c)
        for c in ("10.0.0.0/8", "20.0.0.0/8", "30.1.2.0/24")
    ]
).partition("less-specific")
#: Hosts that share buckets: six in the first 1024 coordinates of each
#: /8, two in the next bucket, two in the fifth, and the whole /24 in
#: the last bucket.
WIDE_VALUES = np.unique(
    np.concatenate(
        [
            int(start)
            + np.array([0, 1, 2, 3, 700, 1023, 1024, 1500, 5000, 5001])
            for start in WIDE_PARTITION.starts[:2]
        ]
        + [int(WIDE_PARTITION.starts[2]) + np.arange(256)]
    )
)


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
    """A partition, a selection, responsive values in and out of it,
    and a budget."""
    partition = draw(st.sampled_from([MINI_PARTITION, WIDE_PARTITION]))
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
    # Past the mini partition's whole space, so draws repeat; capped so
    # the wide partition's reference sort stays quick.
    announced = int(partition.sizes.sum())
    n = draw(
        st.one_of(
            st.integers(0, 600),
            st.integers(0, min(announced + 5000, 1 << 19)),
        )
    )
    return partition, selected, values, n


@given(explorations(), st.integers(min_value=0, max_value=(1 << 32) - 1))
@example((MINI_PARTITION, np.zeros(4, dtype=bool), MINI_VALUES, 120_000), 1)
@example(
    (MINI_PARTITION, np.array([True, True, True, False]), MINI_VALUES, 2000),
    2,
)
@example((MINI_PARTITION, np.ones(4, dtype=bool), MINI_VALUES, 10), 3)
# Shift 10: 276 hosts in 7 buckets; 572 draws land in a host's bucket
# and miss it, 21 hit.
@example((WIDE_PARTITION, np.zeros(3, dtype=bool), WIDE_VALUES, 3_000_000), 4)
# Only the second /8 unselected (shift 8): 10 hosts in 6 buckets, 248
# near misses, 2 hits.
@example(
    (WIDE_PARTITION, np.array([True, False, True]), WIDE_VALUES, 3_000_000),
    7,
)
# No responsive host in the unselected space (shift 9).
@example(
    (
        WIDE_PARTITION,
        np.array([False, True, False]),
        WIDE_VALUES[(WIDE_VALUES >= 20 << 24) & (WIDE_VALUES < 21 << 24)],
        50_000,
    ),
    6,
)
@settings(max_examples=60, deadline=None)
def test_explore_matches_sorted_draw_reference(case, seed):
    partition, selected, values, n = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    count, hits, fresh = explore_unselected(
        rng, partition, selected, values, n
    )
    ref_count, ref_hits, ref_fresh = _explore_reference(
        ref_rng, partition, selected, values, n
    )
    assert count == ref_count
    assert hits.tolist() == ref_hits.tolist()
    assert fresh.tolist() == ref_fresh.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _churn_reference(partition, months):
    """Churn decomposition the long way, from per-month ``hid -> address``
    dicts and a linear scan of the partition's intervals.  An address
    outside every interval has prefix ``-1``, so a host that moves
    between two unannounced addresses counts as renumbered."""
    intervals = list(zip(partition.starts.tolist(), partition.ends.tolist()))

    def prefix_of(address):
        for i, (start, end) in enumerate(intervals):
            if start <= address < end:
                return i
        return -1

    renumbered = moved = died = 0
    for cur, nxt in zip(months, months[1:]):
        present = set(nxt.values())
        for hid, address in cur.items():
            if address in present:
                continue
            if hid not in nxt:
                died += 1
            elif prefix_of(address) == prefix_of(nxt[hid]):
                renumbered += 1
            else:
                moved += 1
    return renumbered, moved, died


#: A small address pool, so hosts renumber within a prefix, re-use each
#: other's addresses and move in and out of the announced space.
_CHURN_POOL = sorted(
    {
        int(start) + offset
        for start in MINI_PARTITION.starts
        for offset in range(6)
    }
    | {0, int(MINI_PARTITION.ends[0]), int(MINI_PARTITION.ends[-1]),
       (1 << 32) - 1}
)


@st.composite
def churn_months(draw):
    """Per-month ``hid -> address`` maps: ids drawn in any order, some
    missing from the next month, addresses unique within a month."""
    months = []
    for _ in range(draw(st.integers(2, 4))):
        hosts = draw(
            st.dictionaries(
                st.integers(0, 80), st.sampled_from(_CHURN_POOL),
                max_size=30,
            )
        )
        # One host per address, like the census: the first drawn wins.
        owner = {}
        for hid, address in hosts.items():
            owner.setdefault(address, hid)
        months.append({hid: address for address, hid in owner.items()})
    return months


@given(churn_months())
@settings(max_examples=80, deadline=None)
def test_churn_decomposition_matches_dict_reference(months):
    snapshots = []
    for month, hosts in enumerate(months):
        addresses = sorted(hosts.values())
        by_address = {address: hid for hid, address in hosts.items()}
        snapshots.append(
            Snapshot(
                np.asarray(addresses, dtype=np.int64),
                np.asarray([by_address[a] for a in addresses], dtype=np.int64),
                np.zeros(len(addresses), dtype=np.int8),
                month=month,
            )
        )
    breakdown = _decompose(MINI_PARTITION, snapshots)
    assert (
        breakdown.renumbered, breakdown.moved, breakdown.died
    ) == _churn_reference(MINI_PARTITION, months)
