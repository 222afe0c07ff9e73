"""Unit tests for the cyclic-group permutation (no dataset fixture)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import reference_walk
from repro.scan.permutation import MAX_WALK, CyclicPermutation, _mulmod


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
# _mulmod on both paths: one multiply (p <= 2^31) and the 16-bit split
# (2^31 < p < 2^33), each reduced by floor division
# ---------------------------------------------------------------------------


@st.composite
def _mulmod_case(draw, low, high):
    """``(values, scalar, p)`` with every value and the scalar in
    ``[0, p)``, the ends of that range drawn often."""
    p = draw(st.integers(min_value=low, max_value=high))
    element = st.integers(min_value=0, max_value=p - 1) | st.sampled_from(
        [0, p - 1]
    )
    values = draw(st.lists(element, min_size=1, max_size=50))
    return values, draw(element), p


_MULMOD_PATHS = [
    pytest.param(_mulmod_case(2, 1 << 31), id="one-multiply"),
    pytest.param(
        _mulmod_case((1 << 31) + 1, (1 << 33) - 1), id="16-bit-split"
    ),
]


@pytest.mark.parametrize("case", _MULMOD_PATHS)
@given(data=st.data())
def test_mulmod_matches_python_ints(case, data):
    values, scalar, p = data.draw(case)
    arr = np.asarray(values, dtype=np.int64)
    got = _mulmod(arr, scalar, p)
    assert got.tolist() == [v * scalar % p for v in values]
    assert arr.tolist() == values


@pytest.mark.parametrize("case", _MULMOD_PATHS)
@given(data=st.data())
def test_mulmod_into_caller_buffers(case, data):
    # The walk passes the array it will yield as ``tmp``: the result
    # lands in ``out`` whatever ``tmp`` held, and ``tmp`` is then free.
    values, scalar, p = data.draw(case)
    arr = np.asarray(values, dtype=np.int64)
    out = np.full_like(arr, -1)
    kept = np.full_like(arr, p)
    got = _mulmod(arr, scalar, p, out=out, tmp=kept)
    assert got is out
    expected = [v * scalar % p for v in values]
    assert out.tolist() == expected
    np.subtract(out, 1, out=kept)
    assert kept.tolist() == [e - 1 for e in expected]
    assert arr.tolist() == values


def _nonempty(batches):
    return [batch for batch in batches if batch]


def test_permutation_beyond_int32_space():
    """End-to-end walk sampling over n > 2^31 (the 16-bit-split path)."""
    n = (1 << 31) + 1000
    perm = CyclicPermutation(n, seed=7)
    assert perm.prime > 1 << 31
    walk = perm.shard(0, 1).batches(1 << 12, 0, 4)
    sampled = [batch.tolist() for batch in walk]
    (expected,) = reference_walk(perm, 1, 1 << 12, positions=4 << 12)
    assert sampled == _nonempty(expected)
    flat = [v for batch in sampled for v in batch]
    assert all(0 <= v < n for v in flat)
    assert len(set(flat)) == len(flat)


def test_sharded_walk_just_under_the_bound_matches_the_reference():
    """The largest walks' first batches, shard by shard: a prime just
    past 2^32 runs the 16-bit-split ``_mulmod`` at its widest."""
    perm = CyclicPermutation(MAX_WALK - 3, seed=11)
    assert perm.prime > MAX_WALK
    shards, size = 3, 1 << 12
    expected = reference_walk(perm, shards, size, positions=shards * 2 * size)
    for index, lane in enumerate(expected):
        walked = perm.shard(index, shards).batches(size, 0, 2)
        assert [batch.tolist() for batch in walked] == _nonempty(lane)


@given(
    n=st.integers(min_value=1, max_value=3000),
    shards=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=700),
    seed=st.integers(min_value=0, max_value=50),
)
def test_shards_walk_the_reference_cycle_positions(
    n, shards, batch_size, seed
):
    """Shard ``i`` walks exactly cycle positions ``i, i+K, ...``, batch
    by batch, as the scalar reference walk does."""
    perm = CyclicPermutation(n, seed=seed)
    expected = reference_walk(perm, shards, batch_size)
    for index, lane in enumerate(expected):
        walk = perm.shard(index, shards)
        assert walk.batch_count(batch_size) == len(lane)
        walked = [batch.tolist() for batch in walk.batches(batch_size)]
        assert walked == _nonempty(lane)


def test_walk_domain_is_at_most_2_to_the_32():
    first = next(CyclicPermutation(MAX_WALK, seed=1).batches())
    assert first.size and 0 <= first.min() and first.max() < MAX_WALK
    for n in (0, MAX_WALK + 1):
        with pytest.raises(ValueError, match="permutation size"):
            CyclicPermutation(n)


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
