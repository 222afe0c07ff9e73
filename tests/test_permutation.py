"""Unit tests for the cyclic-group permutation (no dataset fixture)."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
import pytest

from repro.scan.permutation import CyclicPermutation, _mulmod


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 97, 100, 1000, 1 << 12])
def test_full_cycle_covers_every_element_once(n):
    perm = CyclicPermutation(n, seed=3)
    values = np.concatenate(list(perm.batches(64)))
    assert len(values) == n
    assert np.array_equal(np.sort(values), np.arange(n))


@pytest.mark.parametrize("batch_size", [1, 7, 64, 1 << 16])
def test_batch_sizes_do_not_change_coverage(batch_size):
    perm = CyclicPermutation(500, seed=11)
    values = np.concatenate(list(perm.batches(batch_size)))
    assert np.array_equal(np.sort(values), np.arange(500))


def test_batches_respect_batch_size():
    perm = CyclicPermutation(1000, seed=0)
    assert all(len(b) <= 64 for b in perm.batches(64))


def test_seed_changes_order():
    a = np.concatenate(list(CyclicPermutation(997, seed=1).batches(256)))
    b = np.concatenate(list(CyclicPermutation(997, seed=2).batches(256)))
    assert not np.array_equal(a, b)
    assert np.array_equal(np.sort(a), np.sort(b))


def test_deterministic_for_fixed_seed():
    a = np.concatenate(list(CyclicPermutation(512, seed=9).batches(100)))
    b = np.concatenate(list(CyclicPermutation(512, seed=9).batches(100)))
    assert np.array_equal(a, b)


def test_order_is_not_sequential():
    values = np.concatenate(list(CyclicPermutation(4096, seed=5).batches()))
    assert not np.array_equal(values, np.arange(4096))


def test_iter_yields_every_element_without_lists():
    perm = CyclicPermutation(300, seed=4)
    seen = list(perm)
    assert sorted(int(v) for v in seen) == list(range(300))
    assert np.array_equal(
        np.asarray(seen), np.concatenate(list(perm.batches()))
    )


def test_batches_are_independent_arrays():
    # The walk may reuse scratch buffers internally, but every yielded
    # batch must be a fresh array a caller can keep or mutate.
    perm = CyclicPermutation(1000, seed=2)
    batches = list(perm.batches(64))
    frozen = [b.copy() for b in batches]
    batches[0][:] = -1
    for later, kept in zip(batches[1:], frozen[1:]):
        assert np.array_equal(later, kept)


# ---------------------------------------------------------------------------
# Big-modulus (p > 2^31) arithmetic: the 16-bit-split _mulmod path
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 33) - 1),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=0, max_value=(1 << 33) - 1),
    st.integers(min_value=(1 << 31) + 1, max_value=(1 << 33) - 1),
)
def test_mulmod_big_modulus_matches_python_bigint(values, scalar, p):
    arr = np.asarray([v % p for v in values], dtype=np.int64)
    got = _mulmod(arr, scalar, p)
    expected = [v % p * scalar % p for v in values]
    assert got.tolist() == expected


@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 33) - 1),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=0, max_value=(1 << 33) - 1),
    st.integers(min_value=(1 << 31) + 1, max_value=(1 << 33) - 1),
)
def test_mulmod_big_modulus_out_buffers_match(values, scalar, p):
    arr = np.asarray([v % p for v in values], dtype=np.int64)
    out = np.empty_like(arr)
    tmp = np.empty_like(arr)
    got = _mulmod(arr, scalar, p, out=out, tmp=tmp)
    assert got is out
    assert out.tolist() == _mulmod(arr, scalar, p).tolist()


def test_permutation_beyond_int32_space():
    """End-to-end walk sampling over n > 2^31 (the big-modulus regime)."""
    n = (1 << 31) + 1000
    perm = CyclicPermutation(n, seed=7)
    assert perm.prime > 1 << 31
    p, g, start = perm.prime, perm._gen, perm._start

    sampled = []
    for batch in perm.batches(1 << 12):
        sampled.append(batch)
        if len(sampled) == 4:
            break
    sampled = np.concatenate(sampled)
    assert np.all(sampled >= 0) and np.all(sampled < n)
    assert len(np.unique(sampled)) == len(sampled)  # no repeats

    # Cross-check against the obviously-correct Python big-int walk.
    expected, element = [], start
    while len(expected) < len(sampled):
        if element <= n:
            expected.append(element - 1)
        element = element * g % p
    assert sampled.tolist() == expected


# ---------------------------------------------------------------------------
# Split walks: contiguous runs of one shard's batches
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=1, max_value=3000),
    shards=st.integers(min_value=1, max_value=9),
    shard=st.integers(min_value=0, max_value=8),
    batch_size=st.integers(min_value=1, max_value=700),
    parts=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=50),
)
@example(n=1, shards=9, shard=8, batch_size=1, parts=9, seed=0)  # empty
@example(n=5, shards=1, shard=0, batch_size=700, parts=9, seed=0)  # 1 batch
def test_split_runs_concatenate_to_the_unsplit_walk(
    n, shards, shard, batch_size, parts, seed
):
    walk = CyclicPermutation(n, seed=seed).shard(shard % shards, shards)
    whole = list(walk.batches(batch_size))
    count = walk.batch_count(batch_size)
    runs = walk.split(batch_size, parts)
    assert len(runs) == min(parts, count)
    split = [batch for run in runs for batch in run]
    assert len(split) == len(whole)
    for got, want in zip(split, whole):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # The same through explicit start/stop ranges, cut anywhere.
    cut = count * shard // 9
    ranged = list(walk.batches(batch_size, 0, cut)) + list(
        walk.batches(batch_size, cut)
    )
    assert [b.tolist() for b in ranged] == [b.tolist() for b in whole]


def test_big_modulus_walk_is_one_run_but_still_jumps():
    walk = CyclicPermutation(1 << 96, seed=3).shard(1, 2)
    assert walk.prime > 1 << 45
    assert len(walk.split(64, 4)) == 1
    head = np.concatenate(list(walk.batches(64, 0, 4)))
    jumped = np.concatenate(
        list(walk.batches(64, 0, 1)) + list(walk.batches(64, 1, 4))
    )
    assert head.tolist() == jumped.tolist()
