"""Cyclic-group probe-order permutations (the zmap technique).

A scan must visit every target address exactly once in an order that
looks random and needs O(1) state.  Like zmap, we iterate the
multiplicative group of integers modulo a prime ``p > n``: the sequence
``start * g^k (mod p)`` for a generator ``g`` visits ``1..p-1`` exactly
once; values above ``n`` are skipped and the rest are shifted down to
``0..n-1``.

Batches are produced array-at-a-time: the powers ``g^0..g^{B-1}`` are
built once per walk by vectorized doubling (a few vector multiplies,
far cheaper than the walk it drives), and every batch is a single modular
multiply of that table by the cursor element into a preallocated
buffer; no Python-level loop per address, no per-batch allocation
beyond the yielded array itself.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

__all__ = ["CyclicPermutation", "PermutationShard"]

_INT64_SAFE_MOD = 1 << 31  # (p-1)^2 still fits in int64 below this
# Above this prime the 16-bit-split _mulmod partial sums (< p * 2^17)
# would no longer fit in int64; the walk switches to exact Python-int
# arithmetic (object arrays), which is what lets one cyclic walk cover
# a /32..' /64 IPv6 prefix (n up to 2^96) without overflow.
_BIGINT_MOD = 1 << 45

# Witnesses proving Miller-Rabin deterministic for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
# Beyond the proven bound (128-bit moduli) extra witnesses push the
# error probability below 4^-28 — negligible against any hardware fault.
_MR_EXTRA_WITNESSES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)


def _is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic for n < 3.3e24, near-certain above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES
    if n >= _MR_PROVEN_BOUND:
        witnesses = _MR_WITNESSES + _MR_EXTRA_WITNESSES
    for a in witnesses:
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


#: Trial-division ceiling: factors below this are stripped the cheap
#: way; anything left is handed to Pollard rho.  2^20 keeps the trial
#: loop under ~1M iterations while making rho's job easy (every
#: surviving factor is > 2^20, so a composite survivor is > 2^40).
_TRIAL_LIMIT = 1 << 20


def _rho_split(n: int) -> int:
    """A nontrivial factor of composite odd ``n`` (Brent's rho).

    Deterministic: the polynomial offset ``c`` sweeps 1, 2, 3, ... so
    the same ``n`` always factors the same way.  The gcd is batched
    over 128-step products — one gcd per batch instead of per step.
    """
    for c in range(1, 1 << 10):
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # The batch overshot: replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def _prime_factors(n: int):
    """Distinct prime factors; Pollard rho beyond the trial range.

    Group-parameter search needs the factors of ``p - 1`` to test for
    generators; with 128-bit moduli (v6 prefix walks) trial division
    alone would run to sqrt(p) ~ 2^48, so composite survivors are
    split recursively with Brent's rho instead.
    """
    factors = set()
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n == 1:
        return factors
    pending = [n]
    while pending:
        m = pending.pop()
        if _is_prime(m):
            factors.add(m)
            continue
        split = _rho_split(m)
        pending.extend((split, m // split))
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


def _mulmod(values, scalar: int, p: int, out=None, tmp=None):
    """``values * scalar % p`` without int64 overflow, vectorized.

    ``out`` (and, on the big-modulus path, ``tmp``) are optional
    preallocated result/scratch buffers of the same shape as
    ``values``; ``values`` itself is never written.  Returns ``out``.
    """
    if out is None:
        out = np.empty_like(values)
    if p <= _INT64_SAFE_MOD:
        np.multiply(values, scalar, out=out)
        out %= p
        return out
    # Split the scalar into 16-bit halves so partial products stay < 2^49.
    hi, lo = divmod(scalar % p, 1 << 16)
    np.multiply(values, hi, out=out)
    out %= p
    out <<= 16
    if tmp is None:
        tmp = np.empty_like(values)
    np.multiply(values, lo, out=tmp)
    out += tmp
    out %= p
    return out


@lru_cache(maxsize=32)
def _power_table_big(p: int, g: int, m: int) -> tuple:
    """``(g^0, ..., g^{m-1}) mod p`` as Python ints (big-modulus walks)."""
    table = [1] * m
    for i in range(1, m):
        table[i] = table[i - 1] * g % p
    return tuple(table)


def _power_table(p: int, g: int, m: int) -> np.ndarray:
    """``[g^0, g^1, ..., g^{m-1}] mod p`` by vectorized doubling."""
    table = np.empty(m, dtype=np.int64)
    table[0] = 1
    filled = 1
    while filled < m:
        span = min(filled, m - filled)
        scalar = int(table[filled - 1]) * g % p  # g^filled
        _mulmod(table[:span], scalar, p, out=table[filled:filled + span])
        filled += span
    return table


class CyclicPermutation:
    """A full-cycle pseudorandom permutation of ``range(n)``.

    ``seed`` selects both the group generator (a random coprime power of
    the canonical one) and the starting element, so distinct seeds give
    distinct probe orders over the same cyclic group.
    """

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError("permutation size must be >= 1")
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

    def batches(self, batch_size: int = 1 << 16):
        """Yield int64 arrays covering this shard's slice of 0..n-1.

        Every yielded array is freshly allocated (callers may keep or
        mutate it); the modular walk itself runs in two reused scratch
        buffers, one multiply per batch.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        p, n = self.prime, self.n
        total = self._total  # group elements to walk
        if total == 0:
            return
        m = min(batch_size, total)
        if p > _BIGINT_MOD:
            yield from self._batches_bigint(m)
            return
        powers = _power_table(p, self._gen, m)
        step = pow(self._gen, m, p)
        cursor = self._start
        walked = 0
        buf = np.empty(m, dtype=np.int64)
        tmp = np.empty(m, dtype=np.int64) if p > _INT64_SAFE_MOD else None
        while walked < total:
            k = min(m, total - walked)
            values = _mulmod(
                powers[:k],
                cursor,
                p,
                out=buf[:k],
                tmp=None if tmp is None else tmp[:k],
            )
            cursor = cursor * step % p
            walked += k
            kept = values[values <= n]
            if kept.size:
                kept -= 1
                yield kept

    def _batches_bigint(self, m: int):
        """Exact Python-int walk for primes beyond the int64-safe range.

        Yields ``object``-dtype arrays of Python ints — the same cyclic
        construction (generator ``g^count``, start ``start * g^i``),
        just with arbitrary-precision arithmetic so ``n`` may reach the
        2^96 addresses of an announced /32 IPv6 prefix.
        """
        p, n = self.prime, self.n
        total = self._total
        powers = _power_table_big(p, self._gen, min(m, total))
        step = pow(self._gen, len(powers), p)
        cursor = self._start
        walked = 0
        while walked < total:
            k = min(len(powers), total - walked)
            kept = [
                v - 1
                for pw in powers[:k]
                if (v := cursor * pw % p) <= n
            ]
            cursor = cursor * step % p
            walked += k
            if kept:
                out = np.empty(len(kept), dtype=object)
                out[:] = kept
                yield out
