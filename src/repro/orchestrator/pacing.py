"""Token-bucket probe pacing.

Unpaced campaigns are exactly the footprint a good Internet citizen
avoids: a scanner that bursts its whole selection saturates stateful
middleboxes and trips rate-based abuse detection.  The orchestrator
bounds probes/sec per wave with a token bucket and records the achieved
rate.  Pacing only ever *delays* probes — it never reorders, drops, or
otherwise perturbs them — so paced and unpaced campaigns produce
byte-identical results and accounting; only the telemetry differs.
"""

from __future__ import annotations

import time

from repro import obs

__all__ = ["TokenBucket", "PacedTargets"]


class TokenBucket:
    """A token bucket bounding an average rate of ``rate`` tokens/sec.

    ``capacity`` is the burst allowance (default: one second of rate).
    ``clock``/``sleep`` are injectable for deterministic tests.
    """

    def __init__(self, rate: float, capacity: float | None = None,
                 clock=time.monotonic, sleep=time.sleep):
        if rate <= 0:
            raise ValueError("pacing rate must be > 0 tokens/sec")
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else self.rate
        if self.capacity <= 0:
            raise ValueError("bucket capacity must be > 0")
        self._clock = clock
        self._sleep = sleep
        self._tokens = self.capacity
        self._last = clock()
        self._started = None
        self.consumed = 0
        self.slept = 0.0

    def throttle(self, n: int) -> float:
        """Block until ``n`` tokens are available, then consume them.

        Returns the time slept.  Requests larger than the burst
        capacity are allowed — the bucket simply waits long enough —
        so batch sizes need not be tuned to the pacing rate.
        """
        now = self._clock()
        if self._started is None:
            self._started = now
        self._tokens = min(
            self.capacity, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        waited = 0.0
        if n > self._tokens:
            waited = (n - self._tokens) / self.rate
            self._sleep(waited)
            self.slept += waited
            # Credit the time that actually elapsed rather than zeroing
            # the bucket: a sleep that overshoots the requested wait
            # accrued real tokens, and discarding them drags long paced
            # waves below the configured rate.  The balance is consumed
            # from the true accrual (so oversized requests are never
            # double-charged) and only the *leftover* is capped at the
            # burst capacity; an undershooting sleep leaves a small
            # deficit the next throttle waits out.
            now = self._clock()
            accrued = self._tokens + (now - self._last) * self.rate
            self._tokens = min(accrued - n, self.capacity)
            self._last = now
        else:
            self._tokens -= n
        self.consumed += int(n)
        registry = obs.get_registry()
        registry.counter("pacing.tokens_consumed").inc(int(n))
        if waited:
            registry.counter("pacing.throttle_sleeps").inc()
            registry.counter("pacing.slept_seconds").inc(waited)
        return waited

    @property
    def achieved_rate(self) -> float:
        """Mean tokens/sec since the first throttle call (telemetry).

        Clamped to 0.0 when no time has elapsed: ``float("inf")`` here
        would flow into ``progress.json`` as a bare ``Infinity`` token,
        which is not JSON — every strict parser downstream rejects the
        file.
        """
        if self._started is None or self.consumed == 0:
            return 0.0
        elapsed = self._clock() - self._started
        return self.consumed / elapsed if elapsed > 0 else 0.0


class PacedTargets:
    """Wrap a target stream so each batch pays the bucket before probing.

    Duck-types the ``batches(batch_size)`` contract of
    :class:`~repro.scan.sharded.IntervalTargets`, which is all the scan
    engine needs — batch contents pass through untouched.
    """

    def __init__(self, targets, bucket: TokenBucket):
        self.targets = targets
        self.bucket = bucket

    def batches(self, batch_size: int = 1 << 16):
        for batch in self.targets.batches(batch_size):
            self.bucket.throttle(len(batch))
            yield batch
