"""The two shard executors, by name.

An executor is a generator function

    fn(targets, worker_args, wrap_targets=None) -> iterator[ScanResult]

that drains a list of :class:`~repro.scan.walk.IntervalTargets`
shard descriptions and yields one :class:`~repro.scan.engine.ScanResult`
per shard **in list order** — the ordering contract is what lets the
orchestrator checkpoint at every shard boundary and keep kill-and-resume
byte-identical no matter which executor drained the shards.

:data:`EXECUTORS` maps the two names a spec may give to their functions:

- ``serial``      — drain shards in-process, in order, each split
  across the CPUs the process may use; the only executor that supports
  ``wrap_targets`` (pacing wrappers share in-process state with the
  caller).
- ``distributed`` — a coordinator that ships shard descriptions to a
  worker fleet over a length-prefixed JSON socket protocol, re-queues
  shards lost to worker failures, and re-orders results back into
  shard order (:mod:`repro.scan.distributed`).  The fleet mixes
  locally spawned children with pre-started remote workers dialed from
  the ``REPRO_DIST_ADDRESS_BOOK``, optionally behind a mutual
  HMAC-SHA256 handshake (``REPRO_DIST_SECRET``).  Each worker scores
  a shard on one thread.

:func:`open_executor` holds an executor open for a ``with`` block: for
``distributed`` it yields a drain whose one fleet serves every call
until the block exits, so a campaign starts its fleet once per run,
not once per wave.  :func:`~repro.scan.sharded.run_sharded` accepts
that drain in place of a name.

``worker_args`` is the 4-tuple
``(responsive_values, batch_size, block_state, protocol)`` accepted by
:func:`~repro.scan.walk.build_worker`, which turns it and the shards'
shared walk into a ready ``(engine, bitmaps, protocol)`` triple once
per wave: in the calling process for ``serial``, once per ``init`` in
a distributed worker.  :class:`ExecutorFailure` (defined with the
fleet's scheduling policy, :mod:`repro.scan.fleet_policy`) is what an
executor raises when its infrastructure collapses.
"""

from __future__ import annotations

import contextlib
import os

from repro.scan.distributed import distributed_executor, open_fleet
from repro.scan.fleet_policy import ExecutorFailure
from repro.scan.walk import build_worker

__all__ = [
    "EXECUTORS",
    "ExecutorFailure",
    "get_executor",
    "open_executor",
    "executor_supports_wrap",
]


def get_executor(executor):
    """Resolve an executor name from :data:`EXECUTORS`.

    A drain yielded by :func:`open_executor` resolves to itself.
    """
    if callable(executor):
        return executor
    if isinstance(executor, str) and executor in EXECUTORS:
        return EXECUTORS[executor]
    raise ValueError(
        f"unknown executor {executor!r}; available: {sorted(EXECUTORS)}"
    )


def executor_supports_wrap(executor) -> bool:
    """Whether ``executor`` applies ``wrap_targets`` wrappers: only the
    in-process serial executor can share a wrapper's state."""
    return get_executor(executor) is serial_executor


@contextlib.contextmanager
def open_executor(name: str):
    """Hold executor ``name`` open; yields what to drain with until the
    block exits.

    ``distributed`` yields a drain on one fleet, labelled with the
    ``executor_name`` that :func:`~repro.scan.sharded.run_sharded`
    reports; any other executor has nothing to hold and is yielded as
    it is.
    """
    if get_executor(name) is not distributed_executor:
        yield name
        return
    with open_fleet() as drain:
        drain.executor_name = name
        yield drain


# ---------------------------------------------------------------------------
# Built-in executors
# ---------------------------------------------------------------------------


def serial_executor(targets, worker_args, wrap_targets=None):
    """Drain shards in-process, in order, each on the CPUs it may use.

    A shard is scored as one contiguous run of batches per CPU in this
    process's affinity mask, at most ``_MAX_PARTS`` runs and one run
    per batch (see :meth:`~repro.scan.engine.ScanEngine.run`).  A
    paced stream keeps one run: its token bucket is shared state.
    """
    engine, bitmaps, protocol = build_worker(targets[0], *worker_args)
    parts = 1
    if wrap_targets is None:
        parts = min(_usable_cpus(), _MAX_PARTS)
    for shard in targets:
        stream = shard if wrap_targets is None else wrap_targets(shard)
        yield engine.run(stream, bitmaps, protocol=protocol, parts=parts)


#: Most runs one serial shard is split into.  Each helper thread keeps
#: its own malloc arena of freed batch scratch, about 4 MiB: with the
#: affinity mask forced to 1, 2, 4 and 8 CPUs on a 2-CPU host,
#: ``v4-campaign`` peaked at 97.5, 101.2, 110.2 and 123.8 MiB (97.8
#: MiB at 8 with ``MALLOC_ARENA_MAX=1``, but 16% slower at 2 in one
#: run).  Past two parts peak RSS is over 10% above one part's, the
#: campaign benchmark's bound; what more parts would gain in wall time
#: on more CPUs is unmeasured.
_MAX_PARTS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS
    has one (macOS has none), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Executor name -> generator function; the only names a spec may give.
EXECUTORS = {
    "serial": serial_executor,
    "distributed": distributed_executor,
}
