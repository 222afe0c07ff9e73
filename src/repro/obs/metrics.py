"""Counters, gauges, and histograms for the campaign hot paths.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

- :class:`Counter`   — a monotonically increasing total (``inc``);
- :class:`Gauge`     — a last-value sample (``set``);
- :class:`Histogram` — a distribution summary: count / sum / min /
  max plus fixed base-2 log buckets, so a shard-latency distribution
  costs O(1) memory however many shards a campaign drains.

Names are dotted paths (``engine.probes``, ``dist.shard_seconds``,
``worker.4711.bytes_out``); the per-entity segment is part of the name
rather than a label system — the report layer groups on it.

Everything is deliberately boring Python: instrument operations are an
attribute lookup and an add, because the engine batch loop calls them.
The registry is **process-local and campaign-scoped** (installed via
:func:`repro.obs.observe`); distributed workers run in other processes
and ship their numbers home inside ``result``/``stats`` protocol
frames instead, which the coordinator folds in under ``worker.*``.

``snapshot()`` renders the whole registry as one plain-JSON dict — the
shape ``metrics.json`` persists and ``repro.obs report`` reads.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
]


class Counter:
    """A monotonically increasing total (ints or float seconds)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount

    def to_json(self):
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A last-value sample."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None

    def set(self, value) -> None:
        self.value = value

    def to_json(self):
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Count/sum/min/max plus base-2 log buckets, O(1) memory.

    Bucket ``i`` counts observations in ``(2**(i-1), 2**i]`` (bucket 0
    holds everything ``<= 1``); rendered with the upper bound as the
    key, so a latency histogram reads ``{"0.25": 3, "0.5": 17, …}``.
    Non-positive observations land in the bottom bucket.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    #: Bucket exponent range: 2**-20 (~1 µs) .. 2**20 (~12 days).
    _LO, _HI = -20, 20

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._buckets = {}

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            exp = self._LO
        else:
            exp = min(self._HI, max(self._LO, math.ceil(math.log2(value))))
        self._buckets[exp] = self._buckets.get(exp, 0) + 1

    def to_json(self):
        return {
            "kind": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else None,
            "buckets": {
                repr(float(2**exp)): n
                for exp, n in sorted(self._buckets.items())
            },
        }


class MetricsRegistry:
    """A named, typed, process-local instrument namespace."""

    def __init__(self):
        self._instruments = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, cls())
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """The whole registry as one plain-JSON dict, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.to_json() for name, instrument in items}


class _NullInstrument:
    """Counter, gauge and histogram at once; every update is dropped."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        return None

    def set(self, value) -> None:
        return None

    def observe(self, value) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The falsy no-op registry installed outside any metrics scope.

    Reporting code updates instruments unconditionally; only code that
    does I/O for metrics (the ``metrics.json`` write, the shutdown
    stats wait) tests the registry's truthiness first.
    """

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    gauge = histogram = counter

    def snapshot(self) -> dict:
        return {}
