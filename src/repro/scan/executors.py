"""Pluggable shard-executor registry.

The execution strategy is a *registry* of interchangeable executors.
An executor is a generator function

    fn(targets, worker_args, wrap_targets=None) -> iterator[ScanResult]

that drains a list of :class:`~repro.scan.sharded.IntervalTargets`
shard descriptions and yields one :class:`~repro.scan.engine.ScanResult`
per shard **in list order** — the ordering contract is what lets the
orchestrator checkpoint at every shard boundary and keep kill-and-resume
byte-identical no matter which executor drained the shards.

Built-in executors:

- ``serial``      — drain shards in-process, in order; the only executor
  that supports ``wrap_targets`` (pacing wrappers share in-process
  state with the caller).
- ``process``     — one pool worker process per shard, capped at the CPU
  count (:class:`concurrent.futures.ProcessPoolExecutor`).
- ``distributed`` — a coordinator that ships shard descriptions to a
  worker fleet over a length-prefixed JSON socket protocol, re-queues
  shards lost to worker failures, and re-orders results back into
  shard order (:mod:`repro.scan.distributed`).  The fleet mixes
  locally spawned children with pre-started remote workers dialed from
  the ``REPRO_DIST_ADDRESS_BOOK``, optionally behind a mutual
  HMAC-SHA256 handshake (``REPRO_DIST_SECRET``).

An executor that holds workers (the ``distributed`` fleet) also
registers an ``opener``: :func:`open_executor` then yields a drain
that keeps those workers up across calls until its ``with`` block
exits, so a campaign starts its fleet once per run, not once per wave.
:func:`~repro.scan.sharded.run_sharded` accepts that drain in place of
a name.

Registering a new executor is one decorated generator function::

    from repro.scan.executors import register_executor

    @register_executor("myexec")
    def my_executor(targets, worker_args, wrap_targets=None):
        for shard in targets:
            yield ...  # a ScanResult, in shard order

``worker_args`` is the picklable 4-tuple
``(responsive_values, batch_size, block_state, protocol)`` accepted by
:func:`build_worker`, which turns it and the shards' shared walk into a
ready ``(engine, bitmaps, protocol)`` triple once per wave: in the
calling process for ``serial`` and ``process`` (whose pool inherits
it), once per ``init`` in a distributed worker.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from repro.census.addrset import AddressSet
from repro.scan.blocklist import Blocklist
from repro.scan.engine import EngineConfig, ScanEngine

__all__ = [
    "ExecutorFailure",
    "register_executor",
    "available_executors",
    "get_executor",
    "open_executor",
    "executor_supports_wrap",
    "build_worker",
]

_REGISTRY: dict[str, object] = {}


class ExecutorFailure(RuntimeError):
    """An executor's *infrastructure* collapsed (not a bad input).

    Raised when worker failures exhaust an executor's recovery options
    — a tripped failure budget, a crash-looped fleet with no survivors,
    a global progress stall.  Shards already drained were checkpointed
    by ``on_shard``, so the condition is retryable: the orchestrator's
    wave-level retry policy catches exactly this type and re-runs the
    remainder of the wave.
    """


def register_executor(name: str, *, supports_wrap: bool = False,
                      opener=None):
    """Decorator registering ``fn(targets, worker_args, wrap_targets)``.

    ``supports_wrap`` declares whether the executor can apply a
    ``wrap_targets`` stream wrapper — only in-process executors can,
    since a wrapper's state (e.g. a token bucket) cannot be shared
    across worker processes.  ``opener()``, when given, returns a
    context manager yielding a drain with ``fn``'s signature whose
    workers stay up until the block exits (see :func:`open_executor`).
    """

    def decorate(fn):
        fn.executor_name = name
        fn.supports_wrap = bool(supports_wrap)
        fn.opener = opener
        _REGISTRY[name] = fn
        return fn

    return decorate


def available_executors() -> list[str]:
    """Registered executor names, sorted."""
    return sorted(_REGISTRY)


def get_executor(name):
    """Resolve a registered executor by name.

    A drain yielded by :func:`open_executor` resolves to itself.
    """
    if not isinstance(name, str):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; "
            f"available: {available_executors()}"
        ) from None


def executor_supports_wrap(name: str) -> bool:
    """Whether ``name`` can apply in-process ``wrap_targets`` wrappers."""
    return bool(getattr(get_executor(name), "supports_wrap", False))


@contextlib.contextmanager
def open_executor(name: str):
    """Hold executor ``name`` open; yields its drain until the block exits.

    The drain carries the executor's ``executor_name`` and
    ``supports_wrap``.  An executor without an ``opener`` has nothing
    to hold: its drain is the registered function itself.
    """
    fn = get_executor(name)
    opener = getattr(fn, "opener", None)
    if opener is None:
        yield fn
        return
    with opener() as drain:
        drain.executor_name = fn.executor_name
        drain.supports_wrap = fn.supports_wrap
        yield drain


# ---------------------------------------------------------------------------
# Worker construction (shared by every executor, in any process)
# ---------------------------------------------------------------------------


def build_worker(walk, responsive_values, batch_size, block_state, protocol):
    """(engine, bitmaps, protocol) ready to drain the shards of ``walk``."""
    blocklist = (
        Blocklist(block_state[0], block_state[1])
        if block_state is not None
        else None
    )
    truth = AddressSet(responsive_values, assume_sorted_unique=True)
    engine = ScanEngine(EngineConfig(batch_size=batch_size))
    return engine, walk.bitmaps(truth, blocklist), protocol


#: Per-process worker state, installed once by the pool initializer so
#: the wave's bitmaps cross into each worker once, not once per shard.
_WORKER = None


def _init_worker(worker):
    global _WORKER
    _WORKER = worker


def _run_shard_pooled(targets):
    """Drain one shard in a pool worker (module-level for pickling)."""
    engine, bitmaps, protocol = _WORKER
    return engine.run(targets, bitmaps, protocol=protocol)


def _pool_context():
    """Prefer fork (cheap, inherits sys.path); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


# ---------------------------------------------------------------------------
# Built-in executors
# ---------------------------------------------------------------------------


@register_executor("serial", supports_wrap=True)
def serial_executor(targets, worker_args, wrap_targets=None):
    """Drain shards in-process, in order."""
    engine, bitmaps, protocol = build_worker(targets[0], *worker_args)
    for shard in targets:
        stream = shard if wrap_targets is None else wrap_targets(shard)
        yield engine.run(stream, bitmaps, protocol=protocol)


@register_executor("process")
def process_executor(targets, worker_args, wrap_targets=None):
    """One pool worker process per shard, capped at the CPU count."""
    workers = min(len(targets), os.cpu_count() or 1)
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(build_worker(targets[0], *worker_args),),
    ) as pool:
        # pool.map preserves shard order, so merges stay deterministic
        # and downstream on_shard hooks fire at true shard boundaries.
        yield from pool.map(_run_shard_pooled, targets)


# Imported last so the distributed module can register itself through
# the (already defined) decorator without a circular import.
from repro.scan import distributed as _distributed  # noqa: E402,F401
