"""Shared-memory shard transport: rings, frames, and the struct codec.

The shm backend's correctness story has three independent layers, each
pinned here in isolation: the :class:`SpscRing` frame discipline
(wrap-around via PAD markers, publish-after-write, close semantics),
the struct-packed control/state frames (exact round-trips, malformed
input always raises), and :class:`ShardFrameCodec`'s delivery envelope
over the wire codec -- property-tested with the same annotation-derived
strategies as ``test_runtime_codec.py``, including the guarantee that
a truncated frame can never silently misparse.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Tuple, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.messages import FloodQuery, Message, wire_types
from repro.runtime.codec import CodecError
from repro.shard.ipc import (
    ENVELOPE,
    K_BLOB,
    K_MSG,
    RingClosed,
    ShardFrameCodec,
    SpscRing,
    decode_ctrl,
    decode_state,
    encode_finish,
    encode_issue,
    encode_state,
    encode_stop,
    encode_window,
)
from repro.shard.sync import NullMessageSync

# ----------------------------------------------------------------------
# SpscRing
# ----------------------------------------------------------------------
class TestSpscRing:
    def test_write_read_roundtrip(self):
        ring = SpscRing.over(1024)
        ring.write(K_MSG, b"hello")
        ring.write(K_BLOB, b"")
        kind, view = ring.read()
        assert (kind, bytes(view)) == (K_MSG, b"hello")
        kind, view = ring.read()
        assert (kind, bytes(view)) == (K_BLOB, b"")
        assert ring.try_read() is None
        assert ring.frames_written == ring.frames_read == 2

    def test_wraparound_preserves_frames(self):
        # Capacity chosen so frames repeatedly land on the seam and the
        # producer must emit PAD markers / skip short tails.
        ring = SpscRing.over(256)
        payloads = [bytes([i % 251]) * (i % 61) for i in range(500)]
        for i, payload in enumerate(payloads):
            ring.write(i % 7 + 1, payload)
            kind, view = ring.read()
            assert kind == i % 7 + 1
            assert bytes(view) == payload
        assert ring.frames_read == len(payloads)

    def test_interleaved_wraparound_batches(self):
        # Multiple frames in flight across the wrap point.
        ring = SpscRing.over(512)
        seq = 0
        for _round in range(100):
            batch = [bytes([seq + j & 0xFF]) * 40 for j in range(3)]
            seq += 3
            for p in batch:
                ring.write(2, p)
            for p in batch:
                kind, view = ring.read()
                assert (kind, bytes(view)) == (2, p)

    def test_try_write_full_ring_returns_false(self):
        ring = SpscRing.over(256)
        writes = 0
        while ring.try_write(1, b"x" * 32):
            writes += 1
        assert 0 < writes < 20
        # Draining one frame frees space again.
        ring.read()
        ring.read()  # releases the first frame's region
        assert ring.try_write(1, b"x" * 32)

    def test_oversized_frame_rejected(self):
        ring = SpscRing.over(256)
        assert not ring.try_write(1, b"y" * 512)
        with pytest.raises(ValueError):
            ring.write(1, b"y" * 512)

    def test_view_valid_until_next_read(self):
        ring = SpscRing.over(256)
        ring.write(1, b"first")
        ring.write(1, b"second")
        _, view1 = ring.read()
        assert bytes(view1) == b"first"
        _, view2 = ring.read()
        assert bytes(view2) == b"second"

    def test_producer_close_raises_after_drain(self):
        ring = SpscRing.over(256)
        ring.write(1, b"last")
        ring.close_producer()
        kind, view = ring.read()
        assert bytes(view) == b"last"
        with pytest.raises(RingClosed):
            ring.read()

    def test_shared_memory_ring_roundtrip(self):
        ring = SpscRing.create(1024)
        try:
            ring.write(3, b"over shm")
            kind, view = ring.read()
            assert (kind, bytes(view)) == (3, b"over shm")
            del view  # zero-copy views must be dropped before detach
        finally:
            ring.close()
            ring.unlink()

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            SpscRing.over(16)


# ----------------------------------------------------------------------
# Control / state frames
# ----------------------------------------------------------------------
class TestControlFrames:
    def test_issue_roundtrip(self):
        frame = encode_issue(1234.5, 10, 20, 99.25)
        assert decode_ctrl(frame) == ("issue", 1234.5, 10, 20, 99.25)

    def test_window_roundtrip(self):
        frame = encode_window(777.125, 2, [0, 3, 1])
        assert decode_ctrl(frame) == ("window", 777.125, 2, [0, 3, 1])
        assert decode_ctrl(encode_window(1.0, 0, [])) == ("window", 1.0, 0, [])

    def test_finish_and_stop_roundtrip(self):
        assert decode_ctrl(encode_finish(5.5)) == ("finish", 5.5)
        assert decode_ctrl(encode_stop()) == ("stop",)

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            bytes([99]),                 # unknown opcode
            encode_issue(1.0, 0, 1, 2.0)[:-1],
            encode_window(1.0, 0, [7])[:-2],  # torn owed list
            encode_finish(1.0) + b"x",
        ],
    )
    def test_malformed_ctrl_raises(self, payload):
        with pytest.raises(CodecError):
            decode_ctrl(payload)

    def test_state_roundtrip(self):
        frame = encode_state(42.5, 3, 99.0, [(1, 2, 10.5), (0, 0, float("inf"))])
        next_time, unresolved, max_end, summaries = decode_state(frame)
        assert (next_time, unresolved, max_end) == (42.5, 3, 99.0)
        assert summaries == [(1, 2, 10.5), (0, 0, float("inf"))]

    def test_state_idle_shard(self):
        next_time, unresolved, max_end, summaries = decode_state(
            encode_state(None, 0, 0.0, [])
        )
        assert next_time is None
        assert summaries == []

    def test_malformed_state_raises(self):
        good = encode_state(1.0, 0, 2.0, [(1, 1, 1.0)])
        for cut in (0, 5, len(good) - 3):
            with pytest.raises(CodecError):
                decode_state(good[:cut])


# ----------------------------------------------------------------------
# Delivery codec: property round-trips (same strategies as the wire
# codec suite, plus the envelope fields)
# ----------------------------------------------------------------------
ALL_CLASSES = tuple(wire_types())  # what a simulation can send across shards
_ints = st.integers(min_value=-(2**53), max_value=2**53)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_text = st.text(max_size=20)
_any_value = (
    st.none() | st.booleans() | _ints | _floats | _text | st.binary(max_size=32)
)


def _strategy_for(hint: Any) -> st.SearchStrategy:
    if hint is Any:
        return _any_value
    if hint is int:
        return _ints
    if hint is float:
        return _floats
    if hint is str:
        return _text
    if hint is bool:
        return st.booleans()
    if hint is bytes:
        return st.binary(max_size=32)
    origin = get_origin(hint)
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=4).map(tuple)
        return st.tuples(*(_strategy_for(a) for a in args))
    if origin is Union:
        inner = [a for a in get_args(hint) if a is not type(None)]
        strategies = [_strategy_for(a) for a in inner]
        if type(None) in get_args(hint):
            strategies.append(st.none())
        return st.one_of(strategies)
    raise NotImplementedError(f"no strategy for annotation {hint!r}")


@st.composite
def messages(draw: st.DrawFn) -> Message:
    cls = draw(st.sampled_from(ALL_CLASSES))
    hints = get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.init:
            kwargs[f.name] = draw(_strategy_for(hints[f.name]))
    msg = cls(**kwargs)
    msg.sender = draw(_ints)
    msg.hop_count = draw(st.integers(min_value=0, max_value=64))
    return msg


envelopes = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),       # deliver_time
    st.integers(min_value=-(2**63), max_value=2**63 - 1),   # dst_address
    st.integers(min_value=0, max_value=2**64 - 1),          # seq
    st.integers(min_value=0, max_value=255),                # origin shard
)


@settings(max_examples=300, deadline=None)
@given(envelopes, messages())
def test_delivery_roundtrip_exact(env, msg):
    t, dst, seq, origin, codec = *env, ShardFrameCodec()
    kind, frame = codec.encode_delivery(t, dst, seq, origin, msg)
    t2, dst2, seq2, origin2, msg2 = codec.decode_delivery(kind, frame)
    assert (t2, dst2, seq2, origin2) == (t, dst, seq, origin)
    assert msg2 == msg
    assert msg2.sender == msg.sender
    assert msg2.hop_count == msg.hop_count
    assert codec.peek_destination(frame) == dst


@settings(max_examples=150, deadline=None)
@given(envelopes, messages())
def test_delivery_roundtrip_through_ring(env, msg):
    codec = ShardFrameCodec()
    ring = SpscRing.over(1 << 16)
    kind, frame = codec.encode_delivery(*env, msg)
    ring.write(kind, frame)
    kind2, view = ring.read()
    decoded = codec.decode_delivery(kind2, view)
    assert decoded[:4] == env
    assert decoded[4] == msg


@settings(max_examples=150, deadline=None)
@given(envelopes, messages())
def test_delivery_truncation_never_misparses(env, msg):
    """Every strict prefix of an encoded delivery raises CodecError."""
    codec = ShardFrameCodec()
    kind, frame = codec.encode_delivery(*env, msg)
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            codec.decode_delivery(kind, frame[:cut])


@dataclasses.dataclass(slots=True)
class OffWire(Message):
    """Unregistered message: the rings have no second encoding for it."""

    mapping: dict = dataclasses.field(default_factory=dict)


def test_unregistered_message_raises_no_pickled_frame():
    codec = ShardFrameCodec()
    with pytest.raises(CodecError, match="OffWire"):
        codec.encode_delivery(7.0, 11, 0, 1, OffWire(mapping={"k": [1, 2]}))
    _, frame = codec.encode_delivery(7.0, 11, 0, 1, FloodQuery(key="k"))
    with pytest.raises(CodecError, match="not a delivery frame kind: 4"):
        codec.decode_delivery(4, frame)  # the retired pickled-body kind


def test_registered_messages_avoid_pickle():
    codec = ShardFrameCodec()
    kind, _ = codec.encode_delivery(1.0, 2, 3, 0, FloodQuery(key="k"))
    assert kind == K_MSG


def test_non_delivery_kind_rejected():
    codec = ShardFrameCodec()
    _, frame = codec.encode_delivery(1.0, 2, 3, 0, FloodQuery(key="k"))
    with pytest.raises(CodecError):
        codec.decode_delivery(99, frame)


def test_envelope_is_fixed_size():
    # deliver_time f64 + dst i64 + seq u64 + origin u8
    assert ENVELOPE.size == 25


# ----------------------------------------------------------------------
# Summary-based LBTS accounting (the shm coordinator's view)
# ----------------------------------------------------------------------
class TestSummaryAccounting:
    def test_summary_bounds_floor_like_messages(self):
        sync = NullMessageSync(2, lookahead=5.0)
        sync.note_state(0, None)
        sync.note_state(1, None)
        sync.add_summary(1, count=3, min_time=30.0)
        assert sync.floor() == 30.0
        assert sync.window_end() == 35.0
        assert sync.in_flight == 3

    def test_empty_summary_ignored(self):
        sync = NullMessageSync(2, lookahead=5.0)
        sync.note_state(0, 50.0)
        sync.note_state(1, None)
        sync.add_summary(1, count=0, min_time=float("inf"))
        assert sync.floor() == 50.0
        assert sync.in_flight == 0

    def test_take_inbox_clears_destination_summaries(self):
        sync = NullMessageSync(2, lookahead=1.0)
        sync.add_summary(0, count=2, min_time=10.0)
        assert sync.in_flight == 2
        sync.take_inbox(0)
        assert sync.in_flight == 0

    def test_min_of_mins_matches_message_floor(self):
        # The summary floor must equal the floor inline mode
        # computes from the messages themselves.
        deliveries = [(12.0, 1), (7.5, 1), (9.0, 0)]
        by_msg = NullMessageSync(2, lookahead=1.0)
        by_msg.add_messages(0, [(t, d, 0, object()) for t, d in deliveries])
        by_sum = NullMessageSync(2, lookahead=1.0)
        by_sum.add_summary(1, 2, min(t for t, d in deliveries if d == 1))
        by_sum.add_summary(0, 1, min(t for t, d in deliveries if d == 0))
        assert by_msg.floor() == by_sum.floor() == 7.5
