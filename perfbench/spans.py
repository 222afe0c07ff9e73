"""In-memory span recorder and the layer wrappers of the traced run.

The traced run times each layer from outside the program: it swaps the
public functions of ``census``, ``bgp``, ``core``, ``scan`` and
``orchestrator`` for wrappers that record one span per call, and puts
the originals back afterwards.  Generator layers (the permutation walk
and the flat-index -> address mapping) get one span per ``next()``, so
the walk, the mapping and the engine that drains them separate cleanly.

A span is ``[id, name, start_ns, end_ns, parent_id, iteration, count]``.
``count`` is 1, except for the ``next()`` that exhausts a generator,
which does no batch of work and counts 0.  Spans of one benchmark
iteration share its ``iteration`` id.  Everything runs on the calling
thread, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

__all__ = [
    "SpanRecorder",
    "LAYERS",
    "FIRST_RESULT",
    "traced",
    "self_times",
    "layer_totals",
    "unattributed_ns",
]

#: ``(span name, module, attribute)`` of every wrapped layer entry point.
#: A dotted attribute names a method, patched on its class; a plain one
#: names a function, patched in every ``repro`` module that imported it
#: by name (``campaign.py`` holds its own ``run_sharded`` and
#: ``explore_unselected``), so each call site reaches the wrapper.
LAYERS = (
    ("census.load", "repro.census.loader", "get_dataset"),
    ("census.setalg", "repro.census.addrset", "AddressSet.__and__"),
    ("census.setalg", "repro.census.addrset", "AddressSet.__or__"),
    ("census.setalg", "repro.census.addrset", "AddressSet.__sub__"),
    ("census.setalg", "repro.census.addrset", "AddressSet.__xor__"),
    ("census.setalg", "repro.census.addrset", "AddressSet.intersection_count"),
    ("census.setalg", "repro.census.addrset", "AddressSet.membership"),
    ("bgp.count", "repro.bgp.table", "Partition.count_addresses"),
    ("core.plan", "repro.core.tass", "TassStrategy.plan"),
    ("core.simulate", "repro.core.simulate", "simulate_campaign"),
    ("orchestrator.explore", "repro.orchestrator.waves", "explore_unselected"),
    ("scan.targets_build", "repro.scan.sharded", "shard_targets"),
    ("scan.walk", "repro.scan.permutation", "PermutationShard.batches"),
    ("scan.map", "repro.scan.sharded", "IntervalTargets.batches"),
    ("scan.engine", "repro.scan.engine", "ScanEngine.run"),
    ("scan.run_sharded", "repro.scan.sharded", "run_sharded"),
    ("scan.distributed.codec", "repro.scan.distributed", "encode_array"),
    ("scan.distributed.codec", "repro.scan.distributed", "decode_array"),
    ("orchestrator.checkpoint_save", "repro.orchestrator.checkpoint",
     "CheckpointStore.save"),
    ("orchestrator.checkpoint_load", "repro.orchestrator.checkpoint",
     "CheckpointStore.load"),
    ("orchestrator.progress", "repro.orchestrator.checkpoint",
     "CheckpointStore.write_progress"),
    ("orchestrator.progress", "repro.orchestrator.checkpoint",
     "CheckpointStore.write_status"),
    ("orchestrator.progress", "repro.orchestrator.checkpoint",
     "CheckpointStore.write_metrics"),
)

#: Generator layers, timed per ``next()``.
GENERATORS = {"scan.walk", "scan.map"}

#: Zero-length span marking the first shard result an executor yields.
FIRST_RESULT = "scan.first_result"


class SpanRecorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.iteration = None
        #: ``(iteration, bytes)`` of each checkpoint generation saved.
        self.checkpoint_bytes: list[tuple] = []
        self._stack: list[list] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, self.clock(), None, parent,
                self.iteration, 1]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = self.clock()
        self._stack.pop()

    def mark(self, name: str) -> None:
        """A zero-length span: a point in time under the current span."""
        self.end(self.begin(name))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        span[6] = 0
                        return
                    finally:
                        self.end(span)
                    yield item
            finally:
                inner.close()

        return wrapper

    def wrap_save(self, fn):
        """``CheckpointStore.save``, also noting the generation's size."""
        timed = self.wrap("orchestrator.checkpoint_save", fn)

        @functools.wraps(fn)
        def wrapper(store, *args, **kwargs):
            timed(store, *args, **kwargs)
            size = store.checkpoint_path.stat().st_size
            self.checkpoint_bytes.append((self.iteration, size))

        return wrapper

    def wrap_executor_lookup(self, get_executor):
        """Mark when each executor yields its first shard result."""

        @functools.wraps(get_executor)
        def lookup(name):
            drain = get_executor(name)

            def marked(*args, **kwargs):
                results = drain(*args, **kwargs)
                try:
                    for index, result in enumerate(results):
                        if index == 0:
                            self.mark(FIRST_RESULT)
                        yield result
                finally:
                    results.close()

            return marked

        return lookup


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Install every layer wrapper for the duration of the block."""
    patches = []  # (owner, attribute, original)
    for name, module_name, attribute in LAYERS:
        owner, leaf = _resolve(module_name, attribute)
        original = owner.__dict__[leaf]
        if attribute == "CheckpointStore.save":
            wrapper = recorder.wrap_save(original)
        elif name in GENERATORS:
            wrapper = recorder.wrap_generator(name, original)
        else:
            wrapper = recorder.wrap(name, original)
        owners = [owner]
        if owner is sys.modules[module_name]:
            owners = [
                module
                for key, module in list(sys.modules.items())
                if key.split(".")[0] == "repro"
                and getattr(module, leaf, None) is original
            ]
        for target in owners:
            patches.append((target, leaf, original))
            setattr(target, leaf, wrapper)
    sharded = sys.modules["repro.scan.sharded"]
    patches.append((sharded, "get_executor", sharded.get_executor))
    sharded.get_executor = recorder.wrap_executor_lookup(sharded.get_executor)
    try:
        yield recorder
    finally:
        for target, leaf, original in reversed(patches):
            setattr(target, leaf, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(int)
    for span in spans:
        if span[4] is not None:
            children[span[4]] += span[3] - span[2]
    return {span[0]: span[3] - span[2] - children[span[0]] for span in spans}


def layer_totals(spans) -> dict:
    """Span name -> (summed self time in ns, summed call count)."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: [0, 0])
    for span in spans:
        entry = totals[span[1]]
        entry[0] += selfs[span[0]]
        entry[1] += span[6]
    return {name: tuple(entry) for name, entry in totals.items()}


def unattributed_ns(spans, wall_ns: int) -> int:
    """Wall time that no span covers: wall minus the sum of self times.

    Self times telescope, so their sum is the summed duration of the
    root spans.
    """
    return wall_ns - sum(s[3] - s[2] for s in spans if s[4] is None)
