"""Sharded scan execution: disjoint shards, worker engines, exact merge.

The scan is embarrassingly parallel: the cyclic-group permutation
(:mod:`repro.scan.permutation`) splits into ``K`` interleaved strided
sub-walks that jointly visit every target exactly once, so ``K``
:class:`~repro.scan.engine.ScanEngine` workers can drain one shard each
with zero coordination — the zmap sharding construction.  The shards of
one wave share one walk: :func:`shard_targets` builds the interval
arrays (and, on v6, the hitlist and per-interval draws) once, and each
shard is that walk plus its own shard index.  A shard pickles as those
built arrays, so the process executor ships shards to worker processes
without rebuilding anything.

``run_sharded`` is the entry point: it shards any target spec —
a :class:`~repro.core.tass.Selection`, a
:class:`~repro.bgp.table.Partition`, a prefix list, raw
``(starts, ends)`` arrays, or a plain range size — executes the shards
through a registered executor (``serial``, ``process``, or
``distributed``; see :mod:`repro.scan.executors`), and merges the
per-shard :class:`~repro.scan.engine.ScanResult`\\ s deterministically:
the merged result is **shard-count and executor invariant** (``K=1``
serial and ``K=8`` distributed produce byte-identical merged results),
which the differential test suite asserts.

Knobs: the ``shards``/``executor`` arguments (default: one shard,
``serial``).
"""

from __future__ import annotations

import copy
import math as _math
import random as _random
from dataclasses import dataclass, field

import numpy as np

from repro.census.addrset import AddressSet
from repro.scan.engine import EngineConfig, ScanResult
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


class IntervalTargets:
    """One shard of a permuted walk over disjoint ``[start, end)`` ranges.

    The covered space is flattened into ``[0, total)`` coordinates, one
    :class:`CyclicPermutation` walks it, and this object drains the
    ``shard``-th of ``shards`` strided sub-walks, mapping each batch
    back to real addresses with one ``searchsorted``.  Shards of one
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

        if hitlist is None:
            hitlist = V6.empty()
        hitlist = np.unique(V6.asarray(hitlist))
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
        """Yield permuted address batches for this shard.

        Each batch is sorted before the flat-coordinate -> address
        mapping: probe order within a batch is irrelevant to every
        consumer (the engine only counts), and sorted needles keep both
        the mapping ``searchsorted`` and the engine's membership
        ``searchsorted`` cache-friendly.  Which addresses each batch
        carries — and thus every merged result — is unchanged.
        """
        total = self.address_count()
        if total == 0:
            return
        walk = CyclicPermutation(total, seed=self.seed).shard(
            self.shard, self.shards
        )
        if self._v6 is not None:
            yield from self._batches_v6(walk, batch_size)
            return
        starts, offsets = self.starts, self._offsets
        for values in walk.batches(batch_size):
            values.sort()
            idx = np.searchsorted(offsets, values, side="right") - 1
            yield starts[idx] + (values - offsets[idx])

    def _batches_v6(self, walk, batch_size: int):
        from repro.core.addrspace import V6

        hitlist = self.hitlist
        n_hits = len(hitlist)
        offsets = self._offsets
        params = self._v6
        for values in walk.batches(batch_size):
            values.sort()
            split = int(np.searchsorted(values, n_hits, side="left"))
            parts = []
            if split:
                parts.append(hitlist[values[:split]])
            coords = values[split:]
            if coords.size:
                idx = np.searchsorted(offsets, coords, side="right") - 1
                sampled = []
                for c, i in zip(coords.tolist(), idx.tolist()):
                    start, size, b, a = params[i]
                    j = c - int(offsets[i])
                    sampled.append(start + (b + a * j) % size)
                encoded = V6.encode(sampled)
                if n_hits:
                    # An affine sample can land on a hitlist address; the
                    # hitlist slice already probes it, so drop the copy
                    # (deterministic per coordinate -> shard-invariant).
                    pos = np.searchsorted(hitlist, encoded)
                    dup = (pos < n_hits) & (
                        hitlist[pos.clip(max=n_hits - 1)] == encoded
                    )
                    encoded = encoded[~dup]
                if encoded.size:
                    parts.append(encoded)
            if not parts:
                continue
            batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
            yield np.sort(batch)


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
    executor: str | None = None,
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

    ``executor`` names any executor registered in
    :mod:`repro.scan.executors` — ``"serial"`` (drain shards
    in-process, in order), ``"process"`` (one pool worker process per
    shard, capped at the CPU count), or ``"distributed"`` (a
    coordinator shipping shards to socket workers with
    requeue-on-failure).  All produce identical results; the merged
    result is also invariant in ``shards`` itself.

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
        executor = "serial"
    if wrap_targets is not None and not executor_supports_wrap(executor):
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
        # fire at true shard boundaries.
        for result in drain(targets, worker_args, wrap_targets=wrap_targets):
            shard_results.append(result)
            if on_shard is not None:
                on_shard(len(shard_results) - 1, result)
    merged = merge_results(shard_results, batch_size=config.batch_size)
    return ShardedScanResult(
        result=merged,
        shard_results=shard_results,
        shards=shards,
        executor=executor,
    )
