"""Sharded scan execution: disjoint shards, worker engines, exact merge.

The scan is embarrassingly parallel: the cyclic-group permutation
(:mod:`repro.scan.permutation`) splits into ``K`` interleaved strided
sub-walks that jointly visit every target exactly once, so ``K``
:class:`~repro.scan.engine.ScanEngine` workers can drain one shard each
with zero coordination — the zmap sharding construction.  The shards of
one wave share one walk: :func:`shard_targets` builds the interval
arrays (and, on v6, the hitlist and per-interval draws) once, and each
shard is that walk plus its own shard index.  Shards yield walk
coordinates, scored against bitmaps built once per wave
(:meth:`IntervalTargets.bitmaps`).

``run_sharded`` is the entry point: it shards any target spec —
a :class:`~repro.core.tass.Selection`, a
:class:`~repro.bgp.table.Partition`, a prefix list, raw
``(starts, ends)`` arrays, or a plain range size — executes the shards
through one of the two executors (``serial`` or ``distributed``; see
:mod:`repro.scan.executors`), and merges the
per-shard :class:`~repro.scan.engine.ScanResult`\\ s deterministically:
the merged result is **shard-count and executor invariant** (``K=1``
serial and ``K=8`` distributed produce byte-identical merged results),
which the differential test suite asserts.

Knobs: the ``shards``/``executor`` arguments (default: one shard,
``serial``).
"""

from __future__ import annotations

import contextlib
import copy
import math as _math
import random as _random
from dataclasses import dataclass, field

import numpy as np

from repro.census.addrset import AddressSet
from repro.scan.engine import EngineConfig, ScanBitmaps, ScanResult
from repro.scan.executors import executor_supports_wrap, get_executor
from repro.scan.permutation import CyclicPermutation

__all__ = [
    "IntervalTargets",
    "shard_targets",
    "merge_results",
    "ShardedScanResult",
    "run_sharded",
]


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
        total = self.address_count()
        if total == 0:
            return
        yield from CyclicPermutation(total, seed=self.seed).shard(
            self.shard, self.shards
        ).batches(batch_size)

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


def merge_results(results, batch_size: int):
    """Merge per-shard :class:`ScanResult`\\ s into one, deterministically.

    Counters are summed in shard order.  ``batches`` is normalised to
    the batch count of the equivalent serial drain
    (``ceil(targets / batch_size)``) rather than summed, because shard
    boundaries fragment batches — the normalisation is what makes the
    merged result shard-count invariant.

    Shard results carrying *different* protocols are a correctness
    violation — one merged result cannot account for two protocols —
    and raise a :class:`ValueError` naming the conflict instead of
    silently adopting whichever protocol came first.
    """
    results = list(results)
    protocols = {r.protocol for r in results if r.protocol is not None}
    if len(protocols) > 1:
        raise ValueError(
            "cannot merge shard results with conflicting protocols: "
            + ", ".join(repr(p) for p in sorted(protocols))
        )
    merged = ScanResult(protocol=protocols.pop() if protocols else None)
    for result in results:
        merged.probes_sent += result.probes_sent
        merged.responses += result.responses
        merged.blocked += result.blocked
    considered = merged.probes_sent + merged.blocked
    merged.batches = -(-considered // batch_size) if considered else 0
    return merged


@dataclass
class ShardedScanResult:
    """A merged scan outcome plus its per-shard breakdown."""

    result: ScanResult
    shard_results: list = field(default_factory=list)
    shards: int = 1
    executor: str = "serial"


def run_sharded(
    spec,
    responsive,
    shards: int | None = None,
    executor=None,
    config: EngineConfig | None = None,
    blocklist: Blocklist | None = None,
    protocol: str | None = None,
    seed: int = 0,
    *,
    on_shard=None,
    completed=None,
    wrap_targets=None,
    hitlist=None,
    samples=None,
) -> ShardedScanResult:
    """Scan a target spec across ``shards`` engine workers and merge.

    ``executor`` names one of :data:`~repro.scan.executors.EXECUTORS`
    — ``"serial"`` (drain shards in-process, in order) or
    ``"distributed"`` (a coordinator shipping shards to socket workers
    with requeue-on-failure).  Both produce identical results; the
    merged result is also invariant in ``shards`` itself.  ``executor``
    may also be a drain from
    :func:`~repro.scan.executors.open_executor`, whose workers outlive
    this call (a campaign's one fleet).

    Checkpoint hooks (the orchestrator's shard-boundary machinery):

    - ``on_shard(index, result)`` fires after each shard finishes, in
      shard order — a durable checkpoint written here makes the shard
      boundary a resume point.
    - ``completed`` is a list of :class:`ScanResult`\\ s for shards
      ``0..len(completed)-1`` already drained by an earlier, interrupted
      run: those shards are skipped and their results merged as-is, so
      kill-and-resume reproduces the uninterrupted run exactly.
    - ``wrap_targets(shard_targets)`` wraps each shard's target stream
      before draining (e.g. in a pacer); serial executor only, since a
      wrapper's state cannot be shared across worker processes.

    ``hitlist``/``samples`` are the v6-only seeding knobs forwarded to
    every :class:`IntervalTargets` shard (see its docstring); passing
    either for a v4 spec is an error.
    """
    shards = 1 if shards is None else shards
    executor = executor or "serial"
    name = getattr(executor, "executor_name", executor)
    config = config or EngineConfig()
    # shard_targets rejects a non-positive shard count.
    targets = shard_targets(
        spec, shards=shards, seed=seed, hitlist=hitlist, samples=samples
    )
    done = list(completed or [])
    if len(done) > shards:
        raise ValueError(
            f"{len(done)} completed shard results for a {shards}-shard scan"
        )
    targets = targets[len(done):]
    if not isinstance(responsive, AddressSet):
        responsive = AddressSet(responsive)
    values = responsive.values
    block_state = (
        (blocklist.starts, blocklist.ends) if blocklist is not None else None
    )
    worker_args = (values, config.batch_size, block_state, protocol)
    # A single shard never pays for workers; report the mode actually used.
    if shards == 1:
        executor = name = "serial"
    if wrap_targets is not None and not executor_supports_wrap(name):
        raise ValueError(
            "wrap_targets requires the serial executor: wrapper state "
            "cannot be shared across worker processes"
        )
    shard_results = list(done)
    # An all-completed resume has nothing to drain — never spin up an
    # executor (or build a worker) just to map over zero shards.
    if targets:
        drain = get_executor(executor)
        # Executors yield one result per shard, in shard order — the
        # contract that keeps merges deterministic and lets on_shard
        # fire at true shard boundaries.  Closing the drain when
        # on_shard raises ends its wave now, not at garbage collection.
        with contextlib.closing(
            drain(targets, worker_args, wrap_targets=wrap_targets)
        ) as results:
            for result in results:
                shard_results.append(result)
                if on_shard is not None:
                    on_shard(len(shard_results) - 1, result)
    merged = merge_results(shard_results, batch_size=config.batch_size)
    return ShardedScanResult(
        result=merged,
        shard_results=shard_results,
        shards=shards,
        executor=name,
    )
