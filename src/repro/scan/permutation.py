"""Cyclic-group probe-order permutations (the zmap technique).

A scan must visit every target address exactly once in an order that
looks random and needs O(1) state.  Like zmap, we iterate the
multiplicative group of integers modulo a prime ``p > n``: the sequence
``start * g^k (mod p)`` for a generator ``g`` visits ``1..p-1`` exactly
once; values above ``n`` are skipped and the rest are shifted down to
``0..n-1``.

Batches are produced array-at-a-time: the powers ``g^0..g^{B-1}`` are
built once per walk and batch size by vectorized doubling (a few
vector multiplies, far cheaper than the walk it drives), and every
batch is a single modular multiply of that table by the cursor element
into a preallocated buffer; no Python-level loop per address, no
per-batch allocation beyond the yielded array itself.

The reduction modulo ``p`` is a floor division by the prime followed
by a multiply and a subtract.  NumPy divides an integer array by a
scalar with a multiply-and-shift (libdivide), which it does not do for
``%``: the whole reduction costs well under half of one int64 ``%``.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

__all__ = ["MAX_WALK", "CyclicPermutation", "PermutationShard"]

#: The one domain of every walk: at most 2^32 coordinates, all of IPv4
#: (a v6 wave walks its probe budget, never a prefix's addresses).
#: Its prime stays below 2^33, so the 16-bit-split :func:`_mulmod`
#: partial sums (< p * 2^17) fit in int64.
MAX_WALK = 1 << 32

_INT64_SAFE_MOD = 1 << 31  # (p-1)^2 still fits in int64 below this

# Witnesses proving Miller-Rabin deterministic for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for every prime a walk can need."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    """Distinct prime factors by trial division.

    Group-parameter search needs the factors of ``p - 1`` to test for
    generators; ``p - 1 < 2^33`` keeps the loop under 2^16 divisors.
    """
    factors = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.add(n)
    return factors


@lru_cache(maxsize=256)
def _group_params(n: int) -> tuple[int, int]:
    """Smallest prime p > n and a generator of (Z/pZ)*."""
    p = n + 1
    while not _is_prime(p):
        p += 1
    if p == 2:
        return 2, 1
    order_factors = _prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in order_factors):
        g += 1
    return p, g


def _reduce(x, p: int, q):
    """``x %= p`` for non-negative int64 ``x``, with ``q`` as scratch.

    ``q * p <= x`` never overflows, and every term stays exact.
    """
    np.floor_divide(x, p, out=q)
    q *= p
    x -= q


def _mulmod(values, scalar: int, p: int, out=None, tmp=None):
    """``values * scalar % p`` without int64 overflow, vectorized.

    ``values`` and ``scalar`` must lie in ``[0, p)``; every caller
    passes a walk element or a power of the generator, both reduced.
    ``out`` and ``tmp`` are optional preallocated result and scratch
    buffers of the same shape as ``values``; ``tmp`` holds the
    quotients (and, for ``p > 2^31``, the low partial product) and its
    contents afterwards are garbage.  ``values`` itself is never
    written.  Returns ``out``.
    """
    if out is None:
        out = np.empty_like(values)
    if tmp is None:
        tmp = np.empty_like(values)
    if p <= _INT64_SAFE_MOD:
        np.multiply(values, scalar, out=out)
        _reduce(out, p, tmp)
        return out
    # Split the scalar into 16-bit halves so partial products stay < 2^50.
    hi, lo = divmod(scalar, 1 << 16)
    np.multiply(values, hi, out=out)
    _reduce(out, p, tmp)
    out <<= 16
    np.multiply(values, lo, out=tmp)
    out += tmp
    _reduce(out, p, tmp)
    return out


@lru_cache(maxsize=4)
def _power_table(p: int, g: int, m: int) -> np.ndarray:
    """``[g^0, g^1, ..., g^{m-1}] mod p`` by vectorized doubling.

    Read-only and cached: the shards of one walk share generator and
    batch size, and so do the threads draining one split shard.
    """
    table = np.empty(m, dtype=np.int64)
    table[0] = 1
    filled = 1
    while filled < m:
        span = min(filled, m - filled)
        scalar = int(table[filled - 1]) * g % p  # g^filled
        _mulmod(table[:span], scalar, p, out=table[filled:filled + span])
        filled += span
    table.setflags(write=False)
    return table


class CyclicPermutation:
    """A full-cycle pseudorandom permutation of ``range(n)``.

    ``seed`` selects both the group generator (a random coprime power of
    the canonical one) and the starting element, so distinct seeds give
    distinct probe orders over the same cyclic group.
    """

    def __init__(self, n: int, seed: int = 0):
        if not 1 <= n <= MAX_WALK:
            raise ValueError(
                f"permutation size must be in [1, {MAX_WALK}], got {n}"
            )
        self.n = int(n)
        self.seed = seed
        p, g = _group_params(self.n)
        self.prime = p
        rng = random.Random(seed)
        if p == 2:
            self._gen, self._start = 1, 1
        else:
            while True:
                k = rng.randrange(1, p - 1)
                if math.gcd(k, p - 1) == 1:
                    break
            self._gen = pow(g, k, p)
            self._start = rng.randrange(1, p)

    def batches(self, batch_size: int = 1 << 16):
        """Yield int64 arrays jointly covering 0..n-1 exactly once."""
        return self.shard(0, 1).batches(batch_size)

    def shard(self, index: int, count: int) -> "PermutationShard":
        """The ``index``-th of ``count`` interleaved sub-walks.

        Shard ``i`` visits the sequence elements at positions
        ``i, i+count, i+2*count, ...`` of the full cycle — the zmap
        sharding construction: every shard is itself a geometric walk
        (generator ``g^count``, start ``start * g^i``) and needs no
        state beyond its own cursor, and the ``count`` shards jointly
        cover ``0..n-1`` exactly once.
        """
        return PermutationShard(self, index, count)

    def __iter__(self):
        # Yield Python ints (``tolist`` per batch): scalar iteration is
        # the JSON/telemetry boundary where ``np.int64`` leaks bite, and
        # per-batch tolist is the faster variant anyway.
        for batch in self.batches():
            yield from batch.tolist()


class PermutationShard:
    """One strided sub-walk of a :class:`CyclicPermutation` full cycle."""

    __slots__ = ("n", "prime", "index", "count", "_gen", "_start", "_total")

    def __init__(self, permutation: CyclicPermutation, index: int, count: int):
        if count < 1 or not 0 <= index < count:
            raise ValueError("need 0 <= index < count")
        self.n = permutation.n
        self.prime = p = permutation.prime
        self.index = index
        self.count = count
        self._gen = pow(permutation._gen, count, p)
        self._start = permutation._start * pow(permutation._gen, index, p) % p
        # Group positions j in [0, p-1) with j == index (mod count).
        self._total = max(0, -(-(p - 1 - index) // count))

    def batch_count(self, batch_size: int) -> int:
        """How many batches :meth:`batches` walks, skipped elements included."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return -(-self._total // batch_size)

    def batches(self, batch_size: int = 1 << 16, start: int = 0, stop=None):
        """Yield int64 arrays covering this shard's slice of 0..n-1.

        The walk is cut into :meth:`batch_count` batches of
        ``batch_size`` group elements; only batches ``[start, stop)``
        are walked (``stop`` defaults to the last).  The cursor jumps to
        batch ``start`` with one ``pow``, so consecutive ranges yield,
        in order, exactly the arrays of the whole walk.

        Every yielded array is freshly allocated (callers may keep or
        mutate it); the modular walk runs in one reused buffer, one
        modular multiply per batch, with the yielded array as its
        quotient scratch.
        """
        return _walk(self, batch_size, start, stop)

    def split(self, batch_size: int, parts: int) -> list:
        """:meth:`batches` as at most ``parts`` contiguous runs, in order.

        One run per batch at most; an empty shard has no run.
        """
        count = self.batch_count(batch_size)
        parts = min(parts, count)
        return [
            _walk(self, batch_size, count * i // parts,
                  count * (i + 1) // parts)
            for i in range(parts)
        ]


def _walk(shard: PermutationShard, batch_size: int, start: int, stop):
    """The generator behind :meth:`PermutationShard.batches`.

    :meth:`PermutationShard.split` hands these out directly, so the
    threads that drain a split shard never call ``batches``.
    """
    count = shard.batch_count(batch_size)
    stop = count if stop is None else min(stop, count)
    start = max(0, start)
    if start >= stop:
        return
    p, n, total = shard.prime, shard.n, shard._total
    m = min(batch_size, total)
    first, end = start * m, min(stop * m, total)
    powers = _power_table(p, shard._gen, m)
    step = pow(shard._gen, m, p)
    cursor = shard._start * pow(step, start, p) % p
    walked = first
    buf = np.empty(m, dtype=np.int64)
    while walked < end:
        k = min(m, end - walked)
        # The fresh output array is the reduction's quotient scratch
        # until it receives the shifted coordinates.
        kept = np.empty(k, dtype=np.int64)
        values = _mulmod(powers[:k], cursor, p, out=buf[:k], tmp=kept)
        cursor = cursor * step % p
        walked += k
        np.subtract(values, 1, out=kept)
        # Only the prime gap above n is skipped: rare, so test first.
        if kept.max() >= n:
            kept = kept[kept < n]
        if kept.size:
            yield kept
