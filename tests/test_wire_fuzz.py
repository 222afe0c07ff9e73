"""Mutation fuzz of the distributed wire boundary.

Every raw frame read through :meth:`FrameStream.recv` and every array
carrier read through :func:`decode_array` must decode or raise
:class:`ValueError`.  The coordinator's and the listen loop's handlers
catch exactly that type, so anything else a garbled peer provokes (a
``KeyError``, ``TypeError`` or ``RecursionError``) would cost the whole
campaign instead of one worker.  A listen worker's session fed
structurally mutated ``init`` and ``shard`` frames must end with an
outcome, or raise :class:`OSError` or :class:`ValueError` (which the
listen loop catches): any other exception kills the remote worker.
"""

import base64
import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan.distributed import (
    _HEADER,
    FrameStream,
    _session,
    decode_array,
    encode_array,
)
from repro.scan.faults import WORKER_FAULT_KINDS
from repro.scan.sharded import shard_targets


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


# ---------------------------------------------------------------------------
# Structured mutations of the frames a listen worker serves
# ---------------------------------------------------------------------------


class _PeerSocket(_BytesSocket):
    """A fake coordinator: serves preloaded frames, swallows replies."""

    def __init__(self, data: bytes):
        super().__init__(data, chunk=1 << 16)

    def sendall(self, data: bytes) -> None:
        pass

    def settimeout(self, value) -> None:
        pass


def _session_frames():
    """A valid ``init`` and ``shard`` pair over a small v4 walk."""
    walk = shard_targets(4096, shards=2, seed=3)[0]
    init = {
        "type": "init", "protocol": "http", "batch_size": 256,
        "responsive": encode_array(np.arange(0, 4096, 7)),
        "block_starts": encode_array([100]), "block_ends": encode_array([200]),
        "starts": encode_array(walk.starts), "ends": encode_array(walk.ends),
        "seed": 3, "shards": 2, "hitlist": None, "samples": None,
    }
    return init, {"type": "shard", "shard": 1, "index": 0}


_INIT, _SHARD = _session_frames()
_DELETE = object()

#: A fault that would run (exit, hang or sleep) is never generated; a
#: well-formed ``corrupt`` only sends garbage and carries on.
_FAULTS = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "kind": st.one_of(_JSON, st.just("corrupt")),
        "delay": st.one_of(_JSON, st.floats()),
    }),
).filter(
    lambda f: not (
        isinstance(f, dict) and f.get("kind") in WORKER_FAULT_KINDS
        and f.get("kind") != "corrupt"
    )
)

_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just(0), st.sampled_from(sorted(_INIT)),
            st.one_of(st.just(_DELETE), _JSON, st.floats()),
        ),
        st.tuples(
            st.just(1), st.sampled_from(["type", "shard", "index"]),
            st.one_of(st.just(_DELETE), _JSON, st.floats()),
        ),
        st.tuples(st.just(1), st.just("fault"), _FAULTS),
    ),
    min_size=1,
    max_size=3,
)


def _serve(*frames, strict=False):
    body = b"".join(_frame(json.dumps(f).encode()) for f in frames)
    return _session(FrameStream(_PeerSocket(body)), strict=strict)


def test_unmutated_session_drains_its_shard():
    assert _serve(_INIT, _SHARD) == "eof"


@settings(max_examples=150, deadline=None)
@given(mutations=_MUTATIONS)
def test_mutated_session_frames_end_or_raise_named_errors(mutations):
    frames = [dict(_INIT), dict(_SHARD)]
    for which, key, value in mutations:
        if value is _DELETE:
            frames[which].pop(key, None)
        else:
            frames[which][key] = value
    try:
        outcome = _serve(*frames)
    except (OSError, ValueError):
        return
    assert outcome in ("shutdown", "eof", "denied", "protocol")


@pytest.mark.parametrize(
    "fault",
    [5, [1], "crash", {}, {"kind": 5, "delay": 0.0},
     {"kind": "crash", "delay": "x"}, {"kind": "stall", "delay": -1.0},
     {"kind": "hang", "delay": float("nan")}, {"kind": "stall"}],
)
def test_malformed_fault_is_a_protocol_error(fault):
    # Regression: a non-dict fault raised AttributeError, which the
    # listen loop does not catch, so one stray peer killed the worker.
    shard = dict(_SHARD, fault=fault)
    assert _serve(_INIT, shard) == "protocol"
    with pytest.raises(ValueError, match="malformed fault"):
        _serve(_INIT, shard, strict=True)



def test_init_walk_past_ipv4_is_a_protocol_error():
    # Regression: a walk of 2**62 addresses made the worker allocate its
    # bitmaps (numpy MemoryError, "512. PiB"), which killed a listen
    # worker; it is now refused before anything is allocated.
    init = dict(
        _INIT,
        starts=encode_array([0]),
        ends=encode_array([1 << 62]),
        shards=1,
    )
    for strict in (False, True):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            ours.sendall(_frame(json.dumps(init).encode()))
            stream = FrameStream(theirs)
            if strict:
                with pytest.raises(ValueError, match="starts/ends"):
                    _session(stream, strict=True)
            else:
                assert _session(stream, strict=False) == "protocol"

