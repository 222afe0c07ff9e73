"""The 128-bit address-family surface, end to end.

Covers the :mod:`repro.core.addrspace` representation, the interval
math and counting (against the interval-trie oracle) on 128-bit
partitions, the big-modulus
cyclic walk, hitlist/sampled v6 target streams, executor parity, and a
full v6 campaign with kill-and-resume byte-identity — plus the two
ride-along regressions (exact ``Partition.lengths``, Python-int scalar
iteration).
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import socket
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.table import (
    LESS_SPECIFIC,
    Partition,
    Prefix,
    RoutingTable,
    count_in_intervals,
)
from repro.census.addrset import AddressSet
from repro.census.loader import (
    CensusDataset,
    Snapshot,
    SnapshotSeries,
    Topology,
    get_dataset,
)
from repro.core.addrspace import V4, V6, family_of, get_space, space_of
from repro.core.density import count_trie
from repro.core.tass import TassStrategy, select_by_density
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig
from repro.scan.permutation import CyclicPermutation
from repro.scan.sharded import IntervalTargets, run_sharded, shard_targets

v6_addresses = st.lists(
    st.integers(min_value=0, max_value=(1 << 128) - 1), max_size=120
)


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------


class TestAddressSpace:
    def test_encode_decode_round_trip_preserves_order(self):
        values = [0, 1, 2**64 - 1, 2**64, 2**96 + 5, 2**128 - 1]
        arr = V6.encode(values)
        assert arr.dtype == np.dtype("S16")
        assert V6.decode(arr) == values
        # Lexicographic byte order == numeric order.
        assert V6.decode(np.sort(V6.encode([9, 2**100, 3, 2**64]))) == sorted(
            [9, 2**100, 3, 2**64]
        )

    def test_scalar_round_trip_survives_trailing_nul_strip(self):
        # NumPy strips trailing NULs from S-kind scalars; decode_scalar
        # must re-pad.  1 << 120 encodes as b"\x01" + 15 NULs.
        arr = V6.encode([1 << 120])
        assert V6.decode_scalar(arr[0]) == 1 << 120

    def test_hi_lo_round_trip(self):
        values = [0, (5 << 64) | 7, 2**128 - 1]
        hi, lo = V6.to_hi_lo(V6.encode(values))
        assert np.array_equal(
            V6.from_hi_lo(hi, lo), V6.encode(values)
        )

    def test_family_of_and_get_space(self):
        assert family_of(np.zeros(3, dtype=np.int64)) == "v4"
        assert family_of(V6.encode([1])) == "v6"
        assert get_space("v4") is V4 and get_space("v6") is V6
        with pytest.raises(ValueError):
            get_space("v5")
        assert space_of(V6.encode([1])) is V6

    def test_format_parse(self):
        text = V6.format_address(0x20010DB8 << 96)
        assert text == "2001:db8::"
        assert V6.parse_address(text) == 0x20010DB8 << 96
        assert V4.format_address(0x01000000) == "1.0.0.0"


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


class TestLengthsExact:
    def test_non_power_of_two_interval_raises(self):
        # Coalescing 1.0.0.0/24 + 1.0.1.0/25 yields a 384-address run:
        # the old log2-round path silently called it a /23.5-ish /24.
        part = Partition(np.array([1 << 24]), np.array([(1 << 24) + 384]))
        with pytest.raises(ValueError, match="non-power-of-two"):
            part.lengths

    def test_aligned_intervals_exact(self):
        starts = np.array([0, 1 << 24], dtype=np.int64)
        ends = np.array([1 << 8, (1 << 24) + (1 << 16)], dtype=np.int64)
        assert Partition(starts, ends).lengths.tolist() == [24, 16]

    def test_v6_aligned_intervals_exact(self):
        base = 0x20010DB8 << 96
        part = Partition(
            V6.encode([base]), V6.encode([base + (1 << 96)])
        )
        assert part.lengths.tolist() == [32]

    def test_v6_non_power_of_two_raises(self):
        base = 0x20010DB8 << 96
        part = Partition(
            V6.encode([base]), V6.encode([base + 3 * (1 << 90)])
        )
        with pytest.raises(ValueError, match="non-power-of-two"):
            part.lengths


class TestPythonIntIteration:
    """Scalar iteration is the JSON boundary: never leak NumPy types."""

    def test_addrset_v4_iter(self):
        values = list(AddressSet([3, 1, 2]))
        assert values == [1, 2, 3]
        assert all(type(v) is int for v in values)
        json.dumps(values)

    def test_addrset_v6_iter(self):
        raw = [2**100, 5, 2**64]
        values = list(AddressSet(V6.encode(raw)))
        assert values == sorted(raw)
        assert all(type(v) is int for v in values)
        json.dumps(values)

    def test_permutation_iter(self):
        values = list(CyclicPermutation(50, seed=3))
        assert sorted(values) == list(range(50))
        assert all(type(v) is int for v in values)


# ---------------------------------------------------------------------------
# Hypothesis: 128-bit set algebra against the Python-set oracle
# ---------------------------------------------------------------------------


def _pyset(address_set: AddressSet) -> set:
    return set(iter(address_set))


@given(v6_addresses, v6_addresses)
@settings(max_examples=60, deadline=None)
def test_v6_addrset_algebra_matches_set_oracle(a, b):
    sa, sb = AddressSet(V6.encode(a)), AddressSet(V6.encode(b))
    oa, ob = set(a), set(b)
    assert _pyset(sa) == oa
    assert _pyset(sa | sb) == oa | ob
    assert _pyset(sa & sb) == oa & ob
    assert _pyset(sa - sb) == oa - ob
    assert _pyset(sa ^ sb) == oa ^ ob
    assert sa.intersection_count(sb) == len(oa & ob)
    assert sa.issubset(sb) == oa.issubset(ob)
    # Results stay in the v6 representation.
    for derived in (sa | sb, sa & sb, sa - sb, sa ^ sb):
        assert derived.values.dtype == np.dtype("S16")


@given(v6_addresses, v6_addresses)
@settings(max_examples=60, deadline=None)
def test_v6_addrset_membership_matches_oracle(a, b):
    sa = AddressSet(V6.encode(a))
    oa = set(a)
    mask = sa.membership(V6.encode(b))
    assert mask.tolist() == [v in oa for v in b]
    for v in b[:10]:
        assert (v in sa) == (v in oa)


# ---------------------------------------------------------------------------
# Hypothesis: the cyclic walk beyond 2^63
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=(1 << 63) + 1, max_value=1 << 96),
    st.integers(min_value=0, max_value=1 << 30),
)
@example(1 << 96, 3)  # the walk over one announced /32
@settings(max_examples=10, deadline=None)
def test_big_modulus_walk_matches_bigint_oracle(n, seed):
    """Sampled prefix of an n > 2^63 walk: unique, in range, exact."""
    perm = CyclicPermutation(n, seed=seed)
    assert perm.prime > n
    sampled = []
    for batch in perm.batches(1 << 10):
        assert batch.dtype == object  # Python ints, no silent overflow
        sampled.extend(batch.tolist())
        if len(sampled) >= 2000:
            break
    assert all(type(v) is int for v in sampled)
    assert all(0 <= v < n for v in sampled)
    assert len(set(sampled)) == len(sampled)
    p, g, start = perm.prime, perm._gen, perm._start
    expected, element = [], start
    while len(expected) < len(sampled):
        if element <= n:
            expected.append(element - 1)
        element = element * g % p
    assert sampled == expected


def test_walk_over_one_announced_slash32():
    """The first 8k elements of the 2^96-element walk that covers one /32
    arrive in 1k batches, in range and without repeats."""
    seen = set()
    for batch in CyclicPermutation(1 << 96, seed=3).batches(1 << 10):
        assert len(batch) <= 1 << 10
        seen.update(batch.tolist())
        if len(seen) >= 1 << 13:
            break
    assert len(seen) >= 1 << 13
    assert all(0 <= v < 1 << 96 for v in seen)


@given(
    st.integers(min_value=(1 << 63) + 1, max_value=1 << 96),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=10, deadline=None)
def test_big_modulus_shards_interleave_the_full_cycle(n, seed, shards):
    """Shard i carries exactly positions i, i+K, ... of the group walk.

    Full coverage is unobservable at 2^63+, but the interleaving
    invariant — which is what makes K shards a disjoint cover — is
    checkable on any prefix of the walk.
    """
    perm = CyclicPermutation(n, seed=seed)
    per_shard = 300
    lanes = []
    for i in range(shards):
        lane = []
        for batch in perm.shard(i, shards).batches(1 << 9):
            lane.extend(batch.tolist())
            if len(lane) >= per_shard:
                break
        lanes.append(lane[:per_shard])
    # Reconstruct the full-cycle prefix from the group positions the
    # lanes claim, and compare against the unsharded walk.
    p, g, start = perm.prime, perm._gen, perm._start
    full, element, positions = [], start, 0
    while positions < shards * per_shard:
        if element <= n:
            full.append((positions % shards, element - 1))
        element = element * g % p
        positions += 1
    for lane_index, value in full:
        lane = lanes[lane_index]
        if lane:
            assert lane.pop(0) == value


def test_prime_factors_exact_beyond_trial_division():
    """Pollard rho keeps generator search exact past trial range."""
    from repro.scan.permutation import _prime_factors

    mersennes = (2**61 - 1) * (2**31 - 1)  # both prime, both > 2^20
    n = 12 * mersennes
    factors = _prime_factors(n)
    assert factors == {2, 3, 2**31 - 1, 2**61 - 1}


# ---------------------------------------------------------------------------
# 128-bit counting: the differential oracle
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 128) - (1 << 20)),
            st.integers(min_value=1, max_value=1 << 18),
        ),
        min_size=1,
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_v6_backends_agree_on_random_intervals(raw, data):
    # Disjoint-ify: sort by start and clip each end to the next start.
    raw = sorted(dict(raw).items())
    starts, ends = [], []
    for i, (s, size) in enumerate(raw):
        e = s + size
        if i + 1 < len(raw):
            e = min(e, raw[i + 1][0])
        if e > s:
            starts.append(s)
            ends.append(e)
    if not starts:
        starts, ends = [0], [1]
    inside = [
        data.draw(st.integers(min_value=s, max_value=e - 1))
        for s, e in zip(starts, ends)
    ]
    outside = data.draw(v6_addresses)
    values = np.unique(V6.encode(inside + outside))
    starts, ends = V6.encode(starts), V6.encode(ends)
    counts = count_in_intervals(starts, ends, values)
    assert counts.tolist() == count_trie(starts, ends, values).tolist()


def test_v6_partition_exact_accounting():
    base = 0x20010DB8 << 96
    prefixes = [
        Prefix(base, 32, 128),
        Prefix(base + (1 << 96), 48, 128),
    ]
    part = Partition.from_prefixes(prefixes)
    assert part.sizes_exact == (1 << 96, 1 << 80)
    assert part.address_count() == (1 << 96) + (1 << 80)
    mask = np.array([True, False])
    assert part.masked_address_count(mask) == 1 << 96
    # float64 sizes stay exact for powers of two.
    assert part.sizes.tolist() == [float(1 << 96), float(1 << 80)]


# ---------------------------------------------------------------------------
# Dataset: synth preset + loader round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def v6_dataset():
    return CensusDataset.generate("v6-tiny", seed=1)


def test_v6_synth_world_is_well_formed(v6_dataset):
    ds = v6_dataset
    assert ds.family == "v6"
    table = ds.topology.table
    assert all(p.bits == 128 for p in table.prefixes)
    part = table.partition("less-specific")
    snap = ds.series_for("http").seed_snapshot
    values = snap.addresses.values
    assert values.dtype == np.dtype("S16")
    # Every host lives inside the announced space.
    assert part.count_addresses(values).sum() == len(values)
    # Monthly churn: successive snapshots overlap but differ.
    series = ds.series_for("http")
    nxt = series[1].addresses
    overlap = snap.addresses.intersection_count(nxt)
    assert 0 < overlap < min(len(snap.addresses), len(nxt))


def test_v6_dataset_npz_round_trip(tmp_path, v6_dataset):
    path = tmp_path / "v6.npz"
    v6_dataset.save(path)
    loaded = CensusDataset.load(path)
    assert loaded.family == "v6"
    assert [str(p) for p in loaded.topology.table.prefixes] == [
        str(p) for p in v6_dataset.topology.table.prefixes
    ]
    assert loaded.topology.allocated_blocks == (
        v6_dataset.topology.allocated_blocks
    )
    a = v6_dataset.series_for("http").seed_snapshot.addresses.values
    b = loaded.series_for("http").seed_snapshot.addresses.values
    assert np.array_equal(a, b)


def test_v6_phi_selection_consistent_across_backends(v6_dataset):
    """Planning selects what the interval-trie oracle's counts select."""
    snap = v6_dataset.series_for("http").seed_snapshot
    partition = v6_dataset.topology.table.partition(LESS_SPECIFIC)
    outcomes = set()
    oracle_counts = count_trie(
        partition.starts, partition.ends, snap.addresses.values
    )
    for selection in (
        TassStrategy(partition, phi=0.9).plan(snap),
        select_by_density(partition, oracle_counts, 0.9),
    ):
        outcomes.add(
            (
                len(selection),
                selection.selected_address_count(),
                selection.covered_hosts,
            )
        )
    assert len(outcomes) == 1
    (n, addresses, covered) = outcomes.pop()
    assert n > 0 and addresses > 1 << 64  # sums beyond int64, exactly
    assert covered / len(snap.addresses) >= 0.9


@pytest.fixture(scope="module")
def v6_small():
    """The generated ``v6-small`` preset's HTTP seed addresses and their
    phi=0.9 plan."""
    dataset = get_dataset(preset="v6-small", seed=0)
    responsive = dataset.series_for("http").seed_snapshot.addresses
    strategy = TassStrategy(dataset.topology.table, phi=0.9)
    return strategy, strategy.plan(responsive), responsive


def test_v6_small_selection_plan_is_deterministic(v6_small):
    strategy, selection, responsive = v6_small
    assert strategy.plan(responsive).covered_hosts == selection.covered_hosts


def test_v6_small_sharded_scan_matches_one_shard(v6_small):
    """Hitlist + sampled scan of ``v6-small``: four shards merge to the
    one-shard result."""
    _, selection, responsive = v6_small
    runs = [
        run_sharded(selection, responsive, shards=shards, executor="serial",
                    hitlist=responsive.values, samples=16).result
        for shards in (1, 4)
    ]
    assert dataclasses.astuple(runs[0]) == dataclasses.astuple(runs[1])


# ---------------------------------------------------------------------------
# v6 target streams and executor parity
# ---------------------------------------------------------------------------


def _v6_case():
    base = 0x20010DB8 << 96
    starts = V6.encode([base, base + (1 << 80)])
    ends = V6.encode([base + (1 << 8), base + (1 << 80) + (1 << 4)])
    hitlist = V6.encode(
        [base + 3, base + 7, base + (1 << 80) + 1, base + (1 << 90)]
    )
    return base, starts, ends, hitlist


def _bits(bitmap, coords):
    """Bits ``coords`` of a packed little-endian bitmap, as a mask."""
    return ((bitmap[coords >> 3] >> (coords & 7)) & 1).astype(bool)


def _drain(targets):
    """Every address the shards probe: their coordinates, dropped
    samples removed, mapped through the walk's coordinate order."""
    walk = targets[0]
    addresses = np.concatenate([walk.hitlist, walk._v6_samples()])
    dropped = walk.bitmaps(AddressSet(V6.empty())).dropped
    out = []
    for shard in targets:
        for batch in shard.batches(batch_size=7):
            batch = batch[~_bits(dropped, batch)]
            out.extend(addresses[batch].tolist())
    return sorted(out)


@pytest.fixture
def v6_builds(monkeypatch):
    """Shard counts of each v6 walk build (``_init_v6`` call)."""
    builds = []
    init_v6 = IntervalTargets._init_v6

    def counting(self, *args):
        builds.append(self.shards)
        return init_v6(self, *args)

    monkeypatch.setattr(IntervalTargets, "_init_v6", counting)
    return builds


class TestV6IntervalTargets:
    def test_hitlist_filtered_to_coverage_and_samples_unique(self):
        base, starts, ends, hitlist = _v6_case()
        flat = _drain(
            shard_targets(
                (starts, ends), shards=1, seed=5, hitlist=hitlist, samples=6
            )
        )
        assert len(set(flat)) == len(flat)  # every probe exactly once
        covered = [
            (base, base + (1 << 8)),
            (base + (1 << 80), base + (1 << 80) + (1 << 4)),
        ]
        for raw in flat:
            value = int.from_bytes(raw.ljust(16, b"\0"), "big")
            assert any(s <= value < e for s, e in covered)
        present = set(flat)
        for member in (base + 3, base + 7, base + (1 << 80) + 1):
            assert V6.encode_scalar(member) in present
        # The out-of-coverage hitlist entry was dropped.
        assert V6.encode_scalar(base + (1 << 90)) not in present

    def test_shard_and_seeding_invariance(self):
        _, starts, ends, hitlist = _v6_case()
        kwargs = dict(seed=5, hitlist=hitlist, samples=6)
        one = _drain(shard_targets((starts, ends), shards=1, **kwargs))
        four = _drain(shard_targets((starts, ends), shards=4, **kwargs))
        assert one == four

    def test_shards_share_one_walk(self, v6_builds):
        _, starts, ends, hitlist = _v6_case()
        for shards in (1, 4, 8):
            targets = shard_targets(
                (starts, ends), shards=shards, seed=5,
                hitlist=hitlist, samples=6,
            )
            assert [t.shard for t in targets] == list(range(shards))
            for t in targets:
                assert t.hitlist is targets[0].hitlist
                assert t._offsets is targets[0]._offsets
                assert t._v6 is targets[0]._v6
        assert v6_builds == [1, 4, 8]  # one build per call, any shards

    def test_dropped_samples_send_nothing(self):
        """A sample that draws a hitlist address is dropped, not probed.

        16 samples over a 16-address interval draw every address; the
        8-entry hitlist already probes half of them, so 8 of the 24
        coordinates are dropped.  At batch size 2 some batches hold only
        dropped coordinates: they send nothing and do not count toward
        ``batches``.  The per-shard counts below were worked out on the
        address-stream engine that bitmap scoring replaced (it removed
        dropped samples from each batch and skipped a batch left empty),
        and are pinned so the checkpointed counters never move.
        """
        base = 0x20010DB8 << 96
        starts, ends = V6.encode([base]), V6.encode([base + 16])
        hitlist = V6.encode(
            [base + i for i in (0, 2, 3, 5, 8, 9, 10, 13)]
        )
        truth = {base + i for i in (2, 4, 5, 11, 13, 15)}
        interval = set(range(base, base + 16))
        kwargs = dict(seed=0, hitlist=hitlist, samples=16)
        walk = IntervalTargets((starts, ends), **kwargs)
        dropped = walk.bitmaps(AddressSet(V6.empty())).dropped
        assert np.unpackbits(dropped, bitorder="little").sum() == 8
        # 14 walk batches, 3 of them all dropped.
        assert len(list(walk.batches(2))) == 14
        pinned = {
            1: [(16, 6, 11)],
            3: [(4, 3, 3), (6, 1, 5), (6, 2, 4)],
        }
        for shards, per_shard in pinned.items():
            targets = shard_targets((starts, ends), shards=shards, **kwargs)
            drained = [V6.decode_scalar(a) for a in _drain(targets)]
            assert drained == sorted(interval)  # each address once
            sharded = run_sharded(
                (starts, ends),
                V6.encode(sorted(truth)),
                shards=shards,
                config=EngineConfig(batch_size=2),
                **kwargs,
            )
            assert sharded.result.probes_sent == len(interval)
            assert sharded.result.responses == len(truth & interval)
            assert [
                (r.probes_sent, r.responses, r.batches)
                for r in sharded.shard_results
            ] == per_shard

    def test_pickle_round_trip(self):
        _, starts, ends, hitlist = _v6_case()
        targets = IntervalTargets(
            (starts, ends), seed=5, shard=1, shards=3,
            hitlist=hitlist, samples=6,
        )
        clone = pickle.loads(pickle.dumps(targets))
        assert _drain([targets]) == _drain([clone])

    def test_v4_rejects_seeding(self):
        starts = np.array([0], dtype=np.int64)
        ends = np.array([64], dtype=np.int64)
        with pytest.raises(ValueError, match="v6-only"):
            IntervalTargets((starts, ends), samples=4)


class TestV6ExecutorParity:
    def test_serial_distributed_agree(self):
        base, starts, ends, hitlist = _v6_case()
        responsive = V6.encode(
            sorted({base + 3, base + 9, base + (1 << 80) + 2})
        )
        outcomes = set()
        for shards, executor in [
            (1, "serial"), (4, "serial"), (4, "distributed"),
        ]:
            sharded = run_sharded(
                (starts, ends),
                responsive,
                shards=shards,
                executor=executor,
                seed=5,
                hitlist=hitlist,
                samples=6,
            )
            outcomes.add(
                (sharded.result.probes_sent, sharded.result.responses)
            )
        assert len(outcomes) == 1
        probes, responses = outcomes.pop()
        assert probes > 0 and responses == 2

    def test_worker_session_builds_walk_once(self, v6_builds):
        # A worker builds the init walk once and drains every shard
        # frame through it; its results equal the serial per-shard ones.
        from repro.scan.distributed import (
            FrameStream,
            _session,
            encode_array,
        )

        base, starts, ends, hitlist = _v6_case()
        responsive = V6.encode(
            sorted({base + 3, base + 9, base + (1 << 80) + 2})
        )
        serial = run_sharded(
            (starts, ends), responsive, shards=3, seed=5,
            hitlist=hitlist, samples=6,
        ).shard_results
        v6_builds.clear()
        ours, theirs = socket.socketpair()
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(_session(FrameStream(theirs))),
            daemon=True,
        )
        thread.start()
        stream = FrameStream(ours)
        try:
            assert stream.recv()["type"] == "hello"
            stream.send({
                "type": "init",
                "protocol": None,
                "batch_size": 1 << 16,
                "responsive": encode_array(responsive),
                "block_starts": None,
                "block_ends": None,
                "starts": encode_array(starts),
                "ends": encode_array(ends),
                "seed": 5,
                "shards": 3,
                "hitlist": encode_array(hitlist),
                "samples": 6,
            })
            replies = []
            for shard in range(3):
                stream.send({"type": "shard", "shard": shard, "index": shard})
                replies.append(stream.recv())
            stream.send({"type": "shutdown"})
            assert stream.recv()["type"] == "stats"
            thread.join(timeout=10)
        finally:
            stream.close()
            theirs.close()
        assert outcome == ["shutdown"]
        assert v6_builds == [3]
        assert [(r["index"], r["shard"]) for r in replies] == [
            (0, 0), (1, 1), (2, 2)
        ]
        assert [
            (r["probes_sent"], r["responses"], r["blocked"]) for r in replies
        ] == [(r.probes_sent, r.responses, r.blocked) for r in serial]


# ---------------------------------------------------------------------------
# The v6 campaign: orchestrator, checkpoints, resume
# ---------------------------------------------------------------------------


def build_mini_v6_dataset(
    seed: int = 7, months: int = 3, hosts: int = 1200
) -> CensusDataset:
    """A hand-built v6 world mirroring conftest's v4 mini dataset."""
    prefixes = [
        Prefix.from_cidr(c)
        for c in (
            "2001:db8::/32",
            "2400:cb00::/36",
            "2a00:1450::/48",
            "2c0f:f248::/44",
        )
    ]
    table = RoutingTable(prefixes)
    rng = np.random.default_rng(seed)
    weights = np.array([5.0, 0.5, 8.0, 0.3])
    probs = weights / weights.sum()
    networks = [int(p.network) for p in prefixes]
    snapshots = []
    for month in range(months):
        counts = rng.multinomial(hosts, probs)
        addresses = set()
        for network, count in zip(networks, counts):
            # Low-entropy tails: hosts cluster near the prefix base,
            # like the hitlist-style populations v6 scanning assumes.
            offsets = rng.integers(0, 1 << 20, int(count))
            addresses.update(network + int(o) for o in offsets)
        values = V6.encode(sorted(addresses))
        snapshots.append(
            Snapshot(
                values,
                np.arange(len(addresses)),
                np.zeros(len(addresses), dtype=np.int8),
                month=month,
            )
        )
    series = {"http": SnapshotSeries("http", snapshots)}
    asns = {p: 64512 + i for i, p in enumerate(prefixes)}
    blocks = [(networks[0], networks[0] + (1 << 96))]
    return CensusDataset(
        "mini-v6", seed, Topology(table, asns, blocks), series
    )


@pytest.fixture(scope="module")
def mini_v6_dataset() -> CensusDataset:
    return build_mini_v6_dataset()


def _v6_spec(**overrides):
    from repro.orchestrator.campaign import CampaignSpec

    base = dict(
        name="v6-campaign",
        preset="v6-tiny",
        dataset_seed=7,
        waves=3,
        phi=0.9,
        shards=3,
        executor="serial",
        family="v6",
        samples_per_prefix=8,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestV6Campaign:
    def test_full_run_and_kill_resume_byte_identity(
        self, tmp_path, mini_v6_dataset
    ):
        from repro.orchestrator.campaign import (
            CampaignRunner,
            run_campaign,
        )

        spec = _v6_spec()
        baseline = run_campaign(
            spec, dataset=mini_v6_dataset, directory=tmp_path / "base"
        )
        assert baseline["waves_completed"] == 3
        assert baseline["totals"]["responses"] > 0
        # announced_addresses is exact far beyond int64.
        assert baseline["announced_addresses"] > 1 << 64
        encoded = json.dumps(baseline, sort_keys=True)

        class Boom(Exception):
            pass

        directory = tmp_path / "killed"
        runner = CampaignRunner(
            spec, dataset=mini_v6_dataset, directory=directory
        )
        runner.store.write_spec(runner.spec.to_dict())
        checkpoints = []

        def bomb(r):
            checkpoints.append(r.state.shard)
            if len(checkpoints) == 2:
                raise Boom

        with pytest.raises(Boom):
            runner.run(on_checkpoint=bomb)
        resumed = CampaignRunner.resume(directory, dataset=mini_v6_dataset)
        status = resumed.run()
        assert json.dumps(status, sort_keys=True) == encoded

    def test_resume_rejects_family_mismatch(
        self, tmp_path, mini_v6_dataset, mini_dataset
    ):
        from repro.orchestrator.campaign import CampaignRunner

        runner = CampaignRunner(
            _v6_spec(waves=1), dataset=mini_v6_dataset, directory=tmp_path
        )
        runner.store.write_spec(runner.spec.to_dict())
        runner.run()
        with pytest.raises(ValueError, match="family"):
            CampaignRunner.resume(tmp_path, dataset=mini_dataset)

    def test_v4_spec_rejects_v6_dataset(self, mini_v6_dataset):
        from repro.orchestrator.campaign import (
            CampaignRunner,
            CampaignSpec,
        )

        with pytest.raises(ValueError, match="family"):
            CampaignRunner(
                CampaignSpec(preset="tiny"), dataset=mini_v6_dataset
            )

    def test_v6_forbids_explore_and_blocklist(self):
        with pytest.raises(ValueError, match="explore_frac is v4-only"):
            _v6_spec(explore_frac=0.1).resolved()
        with pytest.raises(ValueError, match="use_blocklist is v4-only"):
            _v6_spec(use_blocklist=True).resolved()
        # The scan layer refuses one too: a blocklist is v4 intervals.
        _, starts, ends, hitlist = _v6_case()
        walk = IntervalTargets((starts, ends), hitlist=hitlist, samples=4)
        with pytest.raises(ValueError, match="blocklists are v4-only"):
            walk.bitmaps(AddressSet(V6.empty()), Blocklist([0], [1]))

    def test_family_resolution_order(self, monkeypatch):
        from repro.orchestrator.campaign import CampaignSpec

        # The preset implies the family when the spec names none ...
        assert CampaignSpec(preset="v6-tiny").resolved().family == "v6"
        assert CampaignSpec(preset="tiny").resolved().family == "v4"
        # ... an explicit family wins ...
        assert (
            CampaignSpec(preset="tiny", family="v6").resolved().family
            == "v6"
        )
        # ... and the environment changes nothing.
        monkeypatch.setenv("REPRO_ADDR_FAMILY", "v6")
        assert CampaignSpec(preset="tiny").resolved().family == "v4"

    def test_obs_events_flow_on_v6(
        self, tmp_path, mini_v6_dataset, monkeypatch
    ):
        from repro.orchestrator.campaign import run_campaign

        monkeypatch.setenv("REPRO_OBS", "events")
        run_campaign(
            _v6_spec(waves=1),
            dataset=mini_v6_dataset,
            directory=tmp_path,
        )
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        kinds = {e.get("type") for e in events}
        assert {"campaign", "wave", "shard", "checkpoint"} <= kinds


# ---------------------------------------------------------------------------
# Wire codec: S16 through the distributed frame carrier
# ---------------------------------------------------------------------------


def test_encode_array_round_trips_s16():
    from repro.scan.distributed import decode_array, encode_array

    values = V6.encode([0, 5, 2**96 + 1, 2**128 - 1])
    carried = decode_array(encode_array(values))
    assert carried.dtype == np.dtype("S16")
    assert np.array_equal(carried, values)
