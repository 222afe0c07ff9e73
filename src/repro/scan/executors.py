"""The two shard executors, by name.

An executor is a generator function

    fn(targets, worker_args, wrap_targets=None) -> iterator[ScanResult]

that drains a list of :class:`~repro.scan.walk.IntervalTargets`
shard descriptions and yields one :class:`~repro.scan.engine.ScanResult`
per shard **in list order** — the ordering contract is what lets the
orchestrator checkpoint at every shard boundary and keep kill-and-resume
byte-identical no matter which executor drained the shards.

:data:`EXECUTORS` maps the two names a spec may give to their functions:

- ``serial``      — drain shards in-process, in order; the only executor
  that supports ``wrap_targets`` (pacing wrappers share in-process
  state with the caller).
- ``distributed`` — a coordinator that ships shard descriptions to a
  worker fleet over a length-prefixed JSON socket protocol, re-queues
  shards lost to worker failures, and re-orders results back into
  shard order (:mod:`repro.scan.distributed`).  The fleet mixes
  locally spawned children with pre-started remote workers dialed from
  the ``REPRO_DIST_ADDRESS_BOOK``, optionally behind a mutual
  HMAC-SHA256 handshake (``REPRO_DIST_SECRET``).  Local workers are
  also how a scan uses more than one core.

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
    """Drain shards in-process, in order."""
    engine, bitmaps, protocol = build_worker(targets[0], *worker_args)
    for shard in targets:
        stream = shard if wrap_targets is None else wrap_targets(shard)
        yield engine.run(stream, bitmaps, protocol=protocol)


#: Executor name -> generator function; the only names a spec may give.
EXECUTORS = {
    "serial": serial_executor,
    "distributed": distributed_executor,
}
