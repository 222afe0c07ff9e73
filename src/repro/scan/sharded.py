"""Sharded scan execution: disjoint shards, worker engines, exact merge.

The scan is embarrassingly parallel: the cyclic-group permutation
(:mod:`repro.scan.permutation`) splits into ``K`` interleaved strided
sub-walks that jointly visit every target exactly once, so ``K``
:class:`~repro.scan.engine.ScanEngine` workers can drain one shard each
with zero coordination — the zmap sharding construction.  The shards of
one wave share one walk: :func:`~repro.scan.walk.shard_targets` builds
the interval arrays (and, on v6, the hitlist and per-interval draws)
once, and each shard is that walk plus its own shard index.  Shards
yield walk coordinates, scored against bitmaps built once per wave
(:meth:`~repro.scan.walk.IntervalTargets.bitmaps`).

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
from dataclasses import dataclass, field

from repro.census.addrset import AddressSet
from repro.scan.engine import EngineConfig, ScanResult
from repro.scan.executors import executor_supports_wrap, get_executor
from repro.scan.walk import IntervalTargets, shard_targets

__all__ = [
    "IntervalTargets",
    "shard_targets",
    "merge_results",
    "ShardedScanResult",
    "run_sharded",
]


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
