"""Sorted-array address sets (IPv4 ``int64`` or IPv6 ``S16``).

An :class:`AddressSet` is a sorted, duplicate-free NumPy array — plain
``int64`` for the v4 family, or 16-byte big-endian strings (``S16``,
see :mod:`repro.core.addrspace`) for 128-bit v6 addresses, whose
lexicographic order is numeric order so every idiom below works on both
families unchanged.
All set algebra is array-at-a-time: union is a single vectorized merge
of the two sorted operands, intersection/difference/membership are
``searchsorted`` passes, and the intersection count of two v4 sets of
comparable size is one stable sort of their concatenation
(:func:`_mergeable`).  Sets of different families refuse to combine
with a :class:`ValueError`.  The same sorted arrays make per-prefix
counting over a snapshot two ``searchsorted`` calls (see
``repro.bgp.table.Partition``); the scan engine scores bitmaps built
from them once per wave (``repro.scan.walk``).

v6 membership searches ``uint64`` keys, not ``S16`` strings
(:func:`_v6_membership`): each member's high limb is replaced by its
rank among the members' distinct /64s, and when that rank and the low
limb fit in 63 bits together they pack into one key whose order is
address order.
"""

from __future__ import annotations

import numpy as np

from repro.core.addrspace import V6, address_array, family_of, space_of

__all__ = ["AddressSet"]

_EMPTY = np.empty(0, dtype=np.int64)


def _search(members: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Mask of ``probes`` found in the sorted ``members`` (one search)."""
    idx = np.searchsorted(members, probes)
    idx[idx == len(members)] = len(members) - 1
    return members[idx] == probes


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``x``."""
    starts = np.empty(len(x), dtype=bool)
    starts[:1] = True
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    return starts


def _v6_membership(members: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Exact membership of S16 ``probes`` in sorted unique S16 ``members``.

    A member's key is ``rank << lo_bits | lo``: ``rank`` numbers its
    high limb among the members' distinct high limbs (a change flag and
    a cumulative sum over the sorted array) and ``lo_bits`` is the
    width of the largest low limb.  A probe takes the rank of its high
    limb, searched once per run of probes sharing one (a sorted hitlist
    comes in such runs); a probe whose high limb no member has, or
    whose low limb is wider than ``lo_bits``, is no member.

    The limbs are views of the ``S16`` bytes (:meth:`V6.to_hi_lo`):
    besides the member keys, only the probe keys and the search's own
    index arrays are allocated, since every fresh large array costs
    page faults.

    The ``S16`` search itself is the general path, for:
    - members whose rank and low-limb widths add up to more than 63
      bits (a low limb using its top bit, say);
    - fewer than ``len(members) // 4`` probes, where building the
      member keys costs more than the search it speeds up.
    """
    if 4 * probes.size < len(members):
        return _search(members, probes)
    hi, lo = V6.to_hi_lo(members)
    first = _run_starts(hi)
    distinct = hi[first].astype(np.uint64)
    lo_bits = int(lo.max()).bit_length()
    if (len(distinct) - 1).bit_length() + lo_bits > 63:
        return _search(members, probes)
    keys = np.cumsum(first, dtype=np.uint64)
    keys -= 1
    keys <<= lo_bits
    keys |= lo
    hi, lo = V6.to_hi_lo(probes)
    heads = np.flatnonzero(_run_starts(hi))
    run_hi = hi[heads].astype(np.uint64)
    rank = np.searchsorted(distinct, run_hi)
    rank.clip(max=len(distinct) - 1, out=rank)
    base = rank.astype(np.uint64) << lo_bits
    # Keys stay below 2^63, so a run whose /64 no member has searches
    # from 2^63 and finds nothing.
    base[distinct[rank] != run_hi] = 1 << 63
    needles = np.repeat(base, np.diff(heads, append=len(hi)))
    needles |= lo
    found = lo < (1 << lo_bits)
    found &= _search(keys, needles)
    return found.reshape(probes.shape)


def _mergeable(a: np.ndarray, b: np.ndarray) -> bool:
    """Count the common members of two arrays with one merge, not a search?

    Only v4 pairs of comparable size merge: both non-empty, and the
    smaller at least a quarter of the larger.  Measured on int64 on a
    2-CPU host, the merge counts a 60k x 60k intersection in 0.9 ms
    against 2.2 ms for the search, and a 60k x 15k one (the cut-over)
    in 0.37 ms against 0.75 ms; the two meet near 1:24, and at 1:64
    the search is 2.7x faster.  ``S16`` pairs never merge: on two
    ~74k ``v6-small`` months a merge counts in 7.7 ms, the ``S16``
    search in 7.6 ms and the limb keys (:func:`_v6_membership`) in
    3.4 ms.
    """
    if a.dtype.kind == "S":
        return False
    small, big = sorted((len(a), len(b)))
    return 0 < small and 4 * small >= big


def _as_sorted_unique(values) -> np.ndarray:
    arr = address_array(values)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return np.unique(arr)  # sorts and removes duplicates


class AddressSet:
    """An immutable set of IPv4 addresses stored as a sorted int64 array."""

    __slots__ = ("_values",)

    def __init__(self, values=(), *, assume_sorted_unique: bool = False):
        if assume_sorted_unique:
            arr = address_array(values)
        else:
            arr = _as_sorted_unique(values)
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "AddressSet":
        return cls(arr, assume_sorted_unique=True)

    # -- basic protocol ------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The sorted, unique address array (read-only view)."""
        return self._values

    @property
    def space(self):
        """The :class:`~repro.core.addrspace.AddressSpace` of this set."""
        return space_of(self._values)

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        # Yield Python ints, not NumPy scalars: iteration is the JSON /
        # telemetry boundary, and ``np.int64`` is not JSON-serializable.
        if self._values.dtype.kind == "S":
            decode = self.space.decode_scalar
            return iter([decode(v) for v in self._values])
        return iter(self._values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSet(n={len(self)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AddressSet):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash((len(self), self._values[:64].tobytes()))

    def __contains__(self, address) -> bool:
        a = self._values
        if a.dtype.kind == "S" and isinstance(address, int):
            address = self.space.encode_scalar(address)
        i = int(np.searchsorted(a, address))
        if i >= len(a):
            return False
        if a.dtype.kind == "S":
            return bool(a[i] == np.asarray(address, dtype=a.dtype)[()])
        return int(a[i]) == int(address)

    # -- vectorized membership ----------------------------------------

    def membership(self, probes: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``probes`` are in this set.

        One ``searchsorted`` over the sorted member array — the same
        O(m log n) pass a zmap-class simulator runs per probe batch.
        v6 sets search ``uint64`` limb keys (:func:`_v6_membership`).
        """
        a = self._values
        probes = address_array(probes)
        if len(a) == 0 or probes.size == 0:
            return np.zeros(probes.shape, dtype=bool)
        if a.dtype.kind == "S":
            return _v6_membership(a, probes)
        return _search(a, probes)

    def intersection_count(self, other: "AddressSet") -> int:
        """``len(self & other)`` without materialising the intersection."""
        a, b = self._values, self._combinable(other)
        if _mergeable(a, b):
            # The stable sort (timsort on int64) finds the two sorted
            # runs and merges them in one linear pass; a value in both
            # is a pair of equal neighbours.
            merged = np.concatenate((a, b))
            merged.sort(kind="stable")
            return int(np.count_nonzero(merged[1:] == merged[:-1]))
        small, big = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        return int(big.membership(small._values).sum())

    # -- set algebra ---------------------------------------------------

    def __or__(self, other: "AddressSet") -> "AddressSet":
        a, b = self._values, self._combinable(other)
        if len(a) == 0:
            return other
        if len(b) == 0:
            return self
        # Merge-based union: splice b into a at its insertion points
        # (one vectorized O(n+m) pass), then drop adjacent duplicates.
        idx = np.searchsorted(a, b)
        merged = np.insert(a, idx, b)
        keep = np.empty(len(merged), dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        return AddressSet._trusted(merged[keep])

    def __and__(self, other: "AddressSet") -> "AddressSet":
        self._combinable(other)
        small, big = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        if len(small) == 0:
            return AddressSet._trusted(small._values)
        return AddressSet._trusted(
            small._values[big.membership(small._values)]
        )

    def __sub__(self, other: "AddressSet") -> "AddressSet":
        self._combinable(other)
        if len(self) == 0 or len(other) == 0:
            return self
        return AddressSet._trusted(
            self._values[~other.membership(self._values)]
        )

    def __xor__(self, other: "AddressSet") -> "AddressSet":
        return (self | other) - (self & other)

    def issubset(self, other: "AddressSet") -> bool:
        self._combinable(other)
        if len(self) == 0:
            return True
        return bool(other.membership(self._values).all())

    def _combinable(self, other: "AddressSet") -> np.ndarray:
        """``other``'s members, refused when both sets hold addresses of
        different families (an empty set combines with either)."""
        a, b = self._values, other._values
        if a.dtype != b.dtype and len(a) and len(b):
            raise ValueError(
                f"cannot combine a {family_of(a)} AddressSet with a "
                f"{family_of(b)} AddressSet"
            )
        return b
