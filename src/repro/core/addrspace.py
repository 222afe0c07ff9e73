"""Address-family abstraction: 32-bit IPv4 and 128-bit IPv6 spaces.

Every width assumption in the pipeline routes through an
:class:`AddressSpace`: the ``v4`` family keeps today's ``int64``
representation and semantics untouched, while the ``v6`` family stores
128-bit addresses as big-endian 16-byte strings (NumPy dtype ``S16``).

Why ``S16``: big-endian fixed-width byte strings compare
lexicographically in numeric order, so every sorted-array idiom the
repro is built on — ``np.sort``, ``np.unique``, ``np.searchsorted``,
elementwise ``==``/``<`` — works unchanged on 128-bit addresses without
object arrays or (hi, lo) split bookkeeping at the call sites.  The two
things ``S16`` cannot do are arithmetic and ``np.maximum``-style ufuncs;
those few call sites dispatch on the family and do exact math in Python
ints (arbitrary precision, so 2^128 is not special).

Hot vector paths instead view an ``S16`` array as its ``(hi, lo)``
``uint64`` limbs (:meth:`AddressSpace.to_hi_lo`), work on those, and
rebuild ``S16`` with :meth:`AddressSpace.from_hi_lo`: a ``uint64``
compare is a machine compare, an ``S16`` one a byte-string compare.
The array codec goes through the same limbs.  ``S16`` stays the format
of every stored, cached and transmitted array.

One subtlety: NumPy's ``S`` kind strips *trailing* NUL bytes when a
scalar is extracted, so ``bytes(scalar)`` may be shorter than 16 bytes.
All decode paths therefore right-pad with ``b"\\0"`` — numerically this
re-appends the stripped low-order zero bytes.
"""

from __future__ import annotations

import ipaddress

import numpy as np

__all__ = [
    "AddressSpace",
    "V4",
    "V6",
    "FAMILIES",
    "get_space",
    "family_of",
    "space_of",
    "address_array",
]

#: dtype of the v6 representation: 16 big-endian bytes per address.
V6_DTYPE = np.dtype("S16")

#: Mask of one 64-bit limb.
_LOW = (1 << 64) - 1


class AddressSpace:
    """One address family: its width, dtype, and codec helpers.

    Instances are stateless singletons (:data:`V4`, :data:`V6`);
    equality is identity.
    """

    __slots__ = ("name", "bits", "dtype")

    def __init__(self, name: str, bits: int, dtype: np.dtype):
        self.name = name
        self.bits = bits
        self.dtype = np.dtype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace({self.name!r})"

    # -- scalar codec ---------------------------------------------------

    def encode_scalar(self, value: int):
        """A Python int -> one array-compatible scalar of this family."""
        if self.bits == 32:
            return np.int64(value)
        return int(value).to_bytes(16, "big")

    def decode_scalar(self, value) -> int:
        """One array element of this family -> a Python int."""
        if self.bits == 32:
            return int(value)
        # NumPy strips trailing NULs from S-kind scalars; re-pad.
        return int.from_bytes(bytes(value).ljust(16, b"\0"), "big")

    # -- array codec ----------------------------------------------------

    def encode(self, values) -> np.ndarray:
        """A sequence of Python ints -> an array of this family.

        A v6 value outside ``[0, 2^128)`` raises ``OverflowError``.
        """
        if self.bits == 32:
            return np.asarray(values, dtype=np.int64)
        ints = np.array(list(map(int, values)), dtype=object)
        return self.from_hi_lo(
            (ints >> 64).astype(np.uint64), (ints & _LOW).astype(np.uint64)
        )

    def decode(self, arr) -> list:
        """An array of this family -> a list of Python ints."""
        arr = np.asarray(arr, dtype=self.dtype)
        if self.bits == 32:
            return [int(v) for v in arr.tolist()]
        hi, lo = self.to_hi_lo(arr)
        return ((hi.astype(object) << 64) | lo.astype(object)).tolist()

    def asarray(self, values) -> np.ndarray:
        """Coerce to this family's dtype (ints are encoded for v6)."""
        arr = np.asarray(values)
        if arr.dtype == self.dtype:
            return arr
        if self.bits == 32:
            return arr.astype(np.int64)
        if arr.dtype.kind in "SV" and arr.dtype.itemsize == 16:
            return arr.view(V6_DTYPE)
        # A sequence of Python ints (object array after asarray).
        return self.encode(arr.reshape(-1).tolist())

    def empty(self) -> np.ndarray:
        return np.empty(0, dtype=self.dtype)

    # -- (hi, lo) uint64 views (v6 vector construction) -----------------

    def from_hi_lo(self, hi, lo) -> np.ndarray:
        """Build a v6 array from top/bottom 64-bit halves (vectorized)."""
        if self.bits != 128:
            raise ValueError("from_hi_lo is a v6-only constructor")
        hi = np.asarray(hi, dtype=np.uint64)
        lo = np.asarray(lo, dtype=np.uint64)
        out = np.empty((hi.size, 2), dtype=">u8")
        out[:, 0] = hi
        out[:, 1] = lo
        return out.reshape(-1).view(V6_DTYPE)

    def to_hi_lo(self, arr) -> tuple[np.ndarray, np.ndarray]:
        """A v6 array's (hi, lo) uint64 halves, as views of its bytes.

        The views are big-endian (``>u8``) and copy nothing unless
        ``arr`` is not contiguous.  NumPy compares and computes on them
        as on native ``uint64``, converting in small buffered chunks;
        ``astype(np.uint64)`` makes a native copy.  Limb order is
        address order: ``x < y`` exactly when ``(hi_x, lo_x) <
        (hi_y, lo_y)`` lexicographically.
        """
        if self.bits != 128:
            raise ValueError("to_hi_lo is a v6-only accessor")
        arr = np.ascontiguousarray(arr, dtype=V6_DTYPE).reshape(-1)
        hi, lo = arr.view(">u8").reshape(-1, 2).T
        return hi, lo

    # -- interval math ---------------------------------------------------

    def interval_sizes_exact(self, starts, ends) -> list:
        """Per-interval ``end - start`` as exact Python ints."""
        if self.bits == 32:
            return [int(e) - int(s) for s, e in zip(starts, ends)]
        s = self.decode(starts)
        e = self.decode(ends)
        return [b - a for a, b in zip(s, e)]

    def interval_sizes_float(self, starts, ends) -> np.ndarray:
        """Per-interval sizes as float64 (exact for power-of-two sizes).

        Density ranking only needs relative magnitudes; power-of-two
        sizes up to 2^128 are exactly representable in float64.
        """
        return np.array(
            self.interval_sizes_exact(starts, ends), dtype=np.float64
        )

    # -- text ------------------------------------------------------------

    def format_address(self, value) -> str:
        if self.bits == 32:
            from repro.bgp.table import int_to_ip

            return int_to_ip(int(value))
        if isinstance(value, (bytes, np.bytes_)):
            value = self.decode_scalar(value)
        return str(ipaddress.IPv6Address(int(value)))

    def parse_address(self, text: str) -> int:
        if self.bits == 32:
            from repro.bgp.table import ip_to_int

            return ip_to_int(text)
        return int(ipaddress.IPv6Address(text))


V4 = AddressSpace("v4", 32, np.dtype(np.int64))
V6 = AddressSpace("v6", 128, V6_DTYPE)

FAMILIES = ("v4", "v6")
_SPACES = {"v4": V4, "v6": V6}


def get_space(name: str) -> AddressSpace:
    """Look up a family by name, raising loudly on unknown names."""
    try:
        return _SPACES[name]
    except KeyError:
        raise ValueError(
            f"unknown address family {name!r}; choices: {FAMILIES}"
        ) from None


def family_of(arr_or_dtype) -> str:
    """Infer the family from an array/dtype: S16/V16 -> v6, ints -> v4."""
    dtype = getattr(arr_or_dtype, "dtype", None)
    if dtype is None:
        dtype = np.dtype(arr_or_dtype)
    if dtype.kind in "SV":
        if dtype.itemsize != 16:
            raise ValueError(
                f"byte-string address arrays must be 16 bytes wide, "
                f"got dtype {dtype}"
            )
        return "v6"
    return "v4"


def space_of(arr_or_dtype) -> AddressSpace:
    """The :class:`AddressSpace` matching an array's dtype."""
    return _SPACES[family_of(arr_or_dtype)]


def address_array(values) -> np.ndarray:
    """Family-preserving coercion: a byte-string array is v6 and passes
    through as ``S16`` (any other width raises a :class:`ValueError`);
    everything else becomes a v4 ``int64`` array."""
    arr = np.asarray(values)
    if arr.dtype.kind == "S":
        return space_of(arr).asarray(arr)
    return np.asarray(values, dtype=np.int64)
