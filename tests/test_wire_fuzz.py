"""Byte-mutation fuzz of the distributed wire boundary.

Every raw frame read through :meth:`FrameStream.recv` and every array
carrier read through :func:`decode_array` must decode or raise
:class:`ValueError`.  The coordinator's and the listen loop's handlers
catch exactly that type, so anything else a garbled peer provokes (a
``KeyError``, ``TypeError`` or ``RecursionError``) would cost the whole
campaign instead of one worker.
"""

import base64
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan.distributed import (
    _HEADER,
    FrameStream,
    decode_array,
    encode_array,
)


class _BytesSocket:
    """A fake socket serving preloaded bytes ``chunk`` at a time."""

    def __init__(self, data: bytes, chunk: int):
        self.data = data
        self.chunk = chunk

    def recv(self, n: int) -> bytes:
        take = min(n, self.chunk, len(self.data))
        out, self.data = self.data[:take], self.data[take:]
        return out

    def close(self) -> None:
        pass


def _frame(body: bytes) -> bytes:
    return _HEADER.pack(len(body)) + body


_CARRIERS = [
    encode_array(np.arange(6, dtype=np.int64)),
    encode_array(np.array([b"\x20\x01" + bytes(14)], dtype="S16")),
]

_FRAMES = [
    _frame(json.dumps({"type": "hello", "pid": 7, "nonce": "ab"}).encode()),
    _frame(json.dumps({
        "type": "result", "index": 0, "probes_sent": 5, "responses": 1,
        "blocked": 0, "batches": 1, "protocol": "http",
    }).encode()),
    _frame(json.dumps({
        "type": "init", "starts": _CARRIERS[0], "ends": _CARRIERS[0],
    }).encode()),
    _frame(b"[" * 2_000),
]

#: ``(position, operation, byte)`` edits applied in order.
_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 12),
        st.sampled_from(["set", "insert", "delete", "truncate"]),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=6,
)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for position, operation, byte in edits:
        at = position % (len(buf) + 1)
        if operation == "set" and at < len(buf):
            buf[at] = byte
        elif operation == "insert":
            buf.insert(at, byte)
        elif operation == "delete" and at < len(buf):
            del buf[at]
        elif operation == "truncate":
            del buf[at:]
    return bytes(buf)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.sampled_from(_FRAMES),
    edits=_EDITS,
    chunk=st.integers(min_value=1, max_value=1 << 12),
)
def test_mutated_frames_decode_or_raise_value_error(seed, edits, chunk):
    stream = FrameStream(_BytesSocket(_mutate(seed, edits), chunk))
    try:
        stream.recv()
    except ValueError:
        pass


def _check_carrier(carrier) -> None:
    try:
        arr = decode_array(carrier, "starts")
    except ValueError as exc:
        assert "starts" in str(exc)
    else:
        assert isinstance(arr, np.ndarray)


@settings(max_examples=100, deadline=None)
@given(seed=st.sampled_from(_CARRIERS), edits=_EDITS)
def test_mutated_carriers_decode_or_raise_value_error(seed, edits):
    raw = _mutate(json.dumps(seed).encode(), edits)
    try:
        carrier = json.loads(raw)
    except ValueError:
        return  # no longer JSON: the frame layer's failure, fuzzed above
    _check_carrier(carrier)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(
    carrier=st.one_of(
        _JSON,
        st.fixed_dictionaries(
            {
                "dtype": st.one_of(
                    _JSON,
                    st.sampled_from(["<i8", ">i8", "|S16", "<f8", "|b1"]),
                    st.text(alphabet="<>=|biufSUVOM0123456789[](),",
                            max_size=6),
                ),
                "data": st.one_of(
                    _JSON,
                    st.binary(max_size=40).map(
                        lambda b: base64.b64encode(b).decode()
                    ),
                ),
            }
        ),
    )
)
def test_structured_carriers_decode_or_raise_value_error(carrier):
    _check_carrier(carrier)
