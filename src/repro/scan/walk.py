"""One wave's walk: the shards it splits into and the engine that drains them.

A wave scans disjoint ``[start, end)`` target ranges in a permuted
order.  :func:`shard_targets` builds that walk once
(:class:`IntervalTargets`) and splits it into ``K`` interleaved strided
sub-walks that jointly visit every target exactly once — the zmap
sharding construction.  :func:`build_worker` turns a walk plus the
executors' shared ``worker_args`` into a ready engine and the wave's
bitmaps, in whichever process drains its shards.

This module sits below both executors and :mod:`repro.scan.sharded`:
it imports neither, so a distributed worker builds its walk without
loading the executor table.
"""

from __future__ import annotations

import copy
import math as _math
import random as _random

import numpy as np

from repro.census.addrset import AddressSet
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig, ScanBitmaps, ScanEngine
from repro.scan.permutation import CyclicPermutation

__all__ = ["IntervalTargets", "shard_targets", "build_worker"]

def _coerce_bounds(values) -> np.ndarray:
    """Interval bounds in family dtype: S16 passes through, else int64."""
    arr = np.asarray(values)
    if arr.dtype.kind == "S":
        return arr
    return np.asarray(values, dtype=np.int64)


def _intervals_of(spec):
    """Normalise any target spec to sorted disjoint (starts, ends)."""
    if hasattr(spec, "starts") and hasattr(spec, "ends"):
        starts = _coerce_bounds(spec.starts)
        ends = _coerce_bounds(spec.ends)
    elif isinstance(spec, (int, np.integer)):
        starts = np.zeros(1, dtype=np.int64)
        ends = np.asarray([int(spec)], dtype=np.int64)
    elif isinstance(spec, tuple) and len(spec) == 2:
        starts = _coerce_bounds(spec[0])
        ends = _coerce_bounds(spec[1])
    else:
        prefixes = sorted(spec, key=lambda p: p.start)
        if prefixes and prefixes[0].bits == 128:
            from repro.core.addrspace import V6

            starts = V6.encode([p.start for p in prefixes])
            ends = V6.encode([p.end for p in prefixes])
        else:
            starts = np.fromiter(
                (p.start for p in prefixes), np.int64, len(prefixes)
            )
            ends = np.fromiter(
                (p.end for p in prefixes), np.int64, len(prefixes)
            )
    if starts.shape != ends.shape:
        raise ValueError("starts/ends length mismatch")
    if np.any(ends < starts):
        raise ValueError("interval ends must be >= starts")
    if len(starts) > 1 and not (starts[1:] >= ends[:-1]).all():
        raise ValueError("target intervals must be sorted disjoint")
    return starts, ends


def _pack(lo, hi, total: int) -> np.ndarray:
    """A packed bitmap over ``[0, total)`` with disjoint ``[lo, hi)`` set."""
    bits = np.zeros(-(-total // 8), dtype=np.uint8)
    lo, hi = lo[hi > lo], hi[hi > lo]
    first, last = lo >> 3, (hi - 1) >> 3
    head = ((0xFF << (lo & 7)) & 0xFF).astype(np.uint8)
    tail = (0xFF >> (7 - ((hi - 1) & 7))).astype(np.uint8)
    one = first == last
    np.bitwise_or.at(bits, first, np.where(one, head & tail, head))
    np.bitwise_or.at(bits, last[~one], tail[~one])
    for a, b in zip(first[~one] + 1, last[~one]):
        bits[a:b] = 0xFF
    return bits


class IntervalTargets:
    """One shard of a permuted walk over disjoint ``[start, end)`` ranges.

    The covered space is flattened into ``[0, total)`` coordinates, one
    :class:`CyclicPermutation` walks it, and this object drains the
    ``shard``-th of ``shards`` strided sub-walks as coordinate batches,
    which the engine scores against :meth:`bitmaps`.  Shards of one
    walk share its arrays by reference (:func:`shard_targets` builds
    the walk once and derives each shard with :meth:`_for_shard`);
    :meth:`batches` only reads them.

    **v6 mode** (S16 interval bounds): exhaustive enumeration of 2^96
    addresses is off the table, so the flat space is the *probe budget*
    instead — ``hitlist`` entries (known-host seeding, filtered to the
    covered intervals) followed by ``samples`` pseudorandom draws per
    interval (a per-interval affine walk ``start + (b + a*j) mod size``
    with ``gcd(a, size) = 1``, so draws within one interval never
    collide).  The flat space still fits int64, so the same int64
    cyclic walk shards it, and the shard/executor-invariance contract
    carries over verbatim.
    """

    __slots__ = (
        "starts",
        "ends",
        "seed",
        "shard",
        "shards",
        "hitlist",
        "samples",
        "_offsets",
        "_v6",
    )

    def __init__(
        self,
        spec,
        seed: int = 0,
        shard: int = 0,
        shards: int = 1,
        hitlist=None,
        samples=None,
    ):
        if shards < 1 or not 0 <= shard < shards:
            raise ValueError("need 0 <= shard < shards")
        self.starts, self.ends = _intervals_of(spec)
        self.seed = int(seed)
        self.shard = int(shard)
        self.shards = int(shards)
        if self.starts.dtype.kind == "S":
            self._init_v6(hitlist, samples)
            return
        if hitlist is not None or samples is not None:
            raise ValueError(
                "hitlist/samples seeding is v6-only; the v4 family "
                "enumerates its intervals exhaustively"
            )
        self.hitlist = None
        self.samples = None
        self._v6 = None
        sizes = self.ends - self.starts
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)]
        )

    def _init_v6(self, hitlist, samples) -> None:
        from repro.bgp.table import interval_membership
        from repro.core.addrspace import V6

        hitlist = V6.empty() if hitlist is None else V6.asarray(hitlist)
        # Campaigns pass a snapshot's already sorted, unique values.
        if not (hitlist[1:] > hitlist[:-1]).all():
            hitlist = np.unique(hitlist)
        if len(self.starts):
            hitlist = hitlist[
                interval_membership(self.starts, self.ends, hitlist)
            ]
        hitlist.setflags(write=False)
        self.hitlist = hitlist
        self.samples = int(samples) if samples is not None else 0
        if self.samples < 0:
            raise ValueError("samples must be >= 0")
        start_ints = V6.decode(self.starts)
        size_ints = V6.interval_sizes_exact(self.starts, self.ends)
        budgets = [min(size, self.samples) for size in size_ints]
        offsets = np.zeros(len(budgets) + 1, dtype=np.int64)
        np.cumsum(np.asarray(budgets, dtype=np.int64), out=offsets[1:])
        offsets += len(hitlist)
        self._offsets = offsets
        # Per-interval affine draw parameters, derived deterministically
        # from (seed, interval index): any two builds of one walk agree.
        params = []
        for i, size in enumerate(size_ints):
            rng = _random.Random(f"v6-sample:{self.seed}:{i}")
            if size <= 1:
                params.append((start_ints[i], size, 0, 1))
                continue
            b = rng.randrange(size)
            a = rng.randrange(1, size) | 1
            while _math.gcd(a, size) != 1:
                a = (a + 2) % size or 1
            params.append((start_ints[i], size, b, a))
        self._v6 = params

    def _for_shard(self, shard: int) -> "IntervalTargets":
        """The ``shard``-th sub-walk of this walk, sharing its arrays."""
        if not 0 <= shard < self.shards:
            raise ValueError("need 0 <= shard < shards")
        clone = copy.copy(self)
        clone.shard = int(shard)
        return clone

    def address_count(self) -> int:
        """Flat-space size: covered addresses (v4) or probe budget (v6)."""
        return int(self._offsets[-1])

    def batches(self, batch_size: int = 1 << 16):
        """Yield this shard's permuted ``int64`` coordinate batches.

        Coordinates come straight from the walk: unsorted, unmapped.
        """
        walk = self._walk()
        if walk is not None:
            yield from walk.batches(batch_size)

    def split(self, batch_size: int, parts: int) -> list:
        """:meth:`batches` as at most ``parts`` contiguous runs, in order
        (:meth:`~repro.scan.permutation.PermutationShard.split`)."""
        walk = self._walk()
        return [] if walk is None else walk.split(batch_size, parts)

    def _walk(self):
        """This shard's sub-walk of ``[0, total)``; ``None`` when empty."""
        total = self.address_count()
        if total == 0:
            return None
        return CyclicPermutation(total, seed=self.seed).shard(
            self.shard, self.shards
        )

    def bitmaps(self, responsive: AddressSet, blocklist=None) -> ScanBitmaps:
        """The wave's probe outcomes over ``[0, total)``, built once.

        v4 maps hosts and blocked ranges into coordinates; v6 maps its
        small probe budget forward (:meth:`_v6_addresses`), unblocked.
        """
        total = self.address_count()
        if total == 0:
            return ScanBitmaps(np.zeros(0, dtype=np.uint8))
        if self._v6 is not None:
            if blocklist is not None:
                raise ValueError("blocklists are v4-only")
            addresses = self._v6_addresses()
            n_hits = len(self.hitlist)
            # An affine sample can land on a hitlist address; the hitlist
            # coordinate already probes it, so the sample is dropped
            # (deterministic per coordinate -> shard-invariant).
            hitlist = AddressSet(self.hitlist, assume_sorted_unique=True)
            dropped = np.zeros(total, dtype=bool)
            dropped[n_hits:] = hitlist.membership(addresses[n_hits:])
            hits = responsive.membership(addresses) & ~dropped
            return ScanBitmaps(
                np.packbits(hits, bitorder="little"),
                dropped=np.packbits(dropped, bitorder="little"),
            )
        values = responsive.values
        hits = _pack(self._flat(values), self._flat(values + 1), total)
        if blocklist is not None:
            bounds = self._flat(blocklist.starts), self._flat(blocklist.ends)
            blocked = _pack(*bounds, total)
            if blocked.any():
                # A blocked probe is never sent, so it can never respond.
                hits &= ~blocked
                return ScanBitmaps(hits, blocked)
        return ScanBitmaps(hits)

    def _flat(self, x: np.ndarray) -> np.ndarray:
        """Covered addresses below ``x``: its coordinate, if it is covered."""
        i = (np.searchsorted(self.starts, x, side="right") - 1).clip(0)
        start = self.starts[i]
        return self._offsets[i] + np.clip(x - start, 0, self.ends[i] - start)

    def _v6_addresses(self) -> np.ndarray:
        """The S16 address of every v6 coordinate, in coordinate order."""
        from repro.core.addrspace import V6

        offsets = self._offsets
        sampled = []
        for i, (start, size, b, a) in enumerate(self._v6):
            sampled.extend(
                start + (b + a * j) % size
                for j in range(int(offsets[i + 1] - offsets[i]))
            )
        return np.concatenate([self.hitlist, V6.encode(sampled)])


def shard_targets(spec, shards: int = 1, seed: int = 0, **seeding):
    """Split a target spec into ``shards`` disjoint target streams.

    The walk is built once; every shard shares its arrays.  ``seeding``
    forwards the v6-only ``hitlist``/``samples`` keywords to that build.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    walk = IntervalTargets(spec, seed=seed, shards=shards, **seeding)
    return [walk] + [walk._for_shard(i) for i in range(1, shards)]


def build_worker(walk, responsive_values, batch_size, block_state, protocol):
    """(engine, bitmaps, protocol) ready to drain the shards of ``walk``.

    The last four arguments are the executors' shared ``worker_args``
    tuple ``(responsive_values, batch_size, block_state, protocol)``.
    """
    blocklist = (
        Blocklist(block_state[0], block_state[1])
        if block_state is not None
        else None
    )
    truth = AddressSet(responsive_values, assume_sorted_unique=True)
    engine = ScanEngine(EngineConfig(batch_size=batch_size))
    return engine, walk.bitmaps(truth, blocklist), protocol
