"""Wire codec: every registered message round-trips exactly.

The property test derives a value strategy from each dataclass field's
type annotation -- the same annotations the codec generates its struct
packers from -- so any annotation shape a future message introduces
that the body format cannot round-trip shows up here as a failing
example.  The adversarial property pins the other direction: whatever
bytes arrive, ``decode`` returns a :class:`Message` or raises
:class:`CodecError`, nothing else.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from types import SimpleNamespace
from typing import Any, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import messages as messages_mod
from repro.overlay.messages import (
    FloodQuery,
    Hello,
    LookupRequest,
    Message,
    RoleHandoff,
    ServerJoin,
    ServerJoinReply,
    wire_types,
)
from repro.runtime.aio_transport import AioTransport
from repro.runtime.client import ClientPut, client_types, runtime_codec
from repro.runtime.codec import (
    CLIENT_TYPE_BASE,
    WIRE_VERSION,
    CodecError,
    default_codec,
    format_endpoint,
    pack_endpoint,
    unpack_endpoint,
)

CODEC = runtime_codec()
ALL_CLASSES = tuple(wire_types()) + tuple(client_types())

# Boundary ids the protocol actually produces: the id space is 32-bit.
ID_BOUNDARIES = [0, 1, 2**31, 2**32 - 1]

_ints = st.integers(min_value=-(2**53), max_value=2**53) | st.sampled_from(
    ID_BOUNDARIES
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_text = st.text(max_size=20)
# ``Any`` fields carry stored values: anything JSON-able plus bytes.
_any_value = st.none() | st.booleans() | _ints | _floats | _text | st.binary(max_size=32)


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


@settings(max_examples=300, deadline=None)
@given(messages())
def test_roundtrip_equals_v2(msg: Message) -> None:
    decoded = CODEC.decode(CODEC.encode(msg))
    assert decoded == msg
    assert decoded.sender == msg.sender
    assert decoded.hop_count == msg.hop_count


@given(messages())
@settings(max_examples=50, deadline=None)
def test_frame_strips_to_payload(msg: Message) -> None:
    frame = CODEC.frame(msg)
    assert CODEC.decode(frame[4:]) == msg
    # decode takes any bytes-like; memoryview is the zero-copy path
    # the daemons actually use.
    assert CODEC.decode(memoryview(frame)[4:]) == msg


def test_every_class_roundtrips_empty() -> None:
    """Default-constructed ("empty payload") instances survive the wire."""
    for cls in ALL_CLASSES:
        msg = cls()
        assert CODEC.decode(CODEC.encode(msg)) == msg


def test_every_class_registers() -> None:
    """Every current message has a wire layout: a class without one
    fails ``register``, so constructing the runtime codec is the check."""
    codec = runtime_codec()
    for cls in ALL_CLASSES:
        assert codec.type_id_of(cls) == CODEC.type_id_of(cls)


def test_boundary_ids_roundtrip() -> None:
    for p_id in ID_BOUNDARIES:
        msg = ServerJoinReply(role="t", p_id=p_id, entry_peer=p_id)
        assert CODEC.decode(CODEC.encode(msg)).p_id == p_id
        q = FloodQuery(d_id=p_id, key="k", origin=3, query_id=p_id, ttl=1)
        assert CODEC.decode(CODEC.encode(q)).d_id == p_id


def test_nested_tuples_revive_as_tuples() -> None:
    msg = RoleHandoff(
        p_id=7,
        fingers=((1, 2), (3, 4)),
        items=(("k", b"v", 9),),
        s_neighbors=(5, 6),
    )
    decoded = CODEC.decode(CODEC.encode(msg))
    assert decoded == msg
    assert isinstance(decoded.fingers, tuple)
    assert all(isinstance(f, tuple) for f in decoded.fingers)
    assert decoded.items[0][1] == b"v"


def test_type_ids_stable() -> None:
    """Ids come from __all__ order: same table on every process."""
    a, b = default_codec(), default_codec()
    for cls in wire_types():
        assert a.type_id_of(cls) == b.type_id_of(cls)


def test_section_5_5_wire_ids_pinned() -> None:
    """The four ``BT*`` ids (three of them reserved, never sent), the
    five swarm messages and Section 5.3's two reserved prefix-search ids
    keep their ids: no name may leave ``__all__``."""
    pinned = {
        "PartialQuery": 28, "PartialResult": 29,
        "BTRegister": 43, "BTLookup": 44, "BTLookupReply": 45, "BTFetch": 46,
        "AnnounceRequest": 51, "AnnounceResponse": 52, "HaveAnnounce": 53,
        "PieceRequest": 54, "PieceResponse": 55,
    }
    ids = {name: CODEC.type_id_of(getattr(messages_mod, name)) for name in pinned}
    assert ids == pinned


# ----------------------------------------------------------------------
# One generation: the bytes are pinned, foreign versions are rejected
# ----------------------------------------------------------------------
def test_default_encodes_v2() -> None:
    assert WIRE_VERSION == 2
    assert CODEC.encode(Hello())[0] == WIRE_VERSION


def test_wire_golden_frames() -> None:
    """Three literal payloads captured before the v1/interpreter paths
    were retired: the generated code must keep producing these bytes."""
    lookup = LookupRequest(
        d_id=2**32 - 1, key="ключ", origin=pack_endpoint("10.0.0.1", 7401),
        query_id=77, ttl=3, attempt=2, span_id=9,
    )
    lookup.sender = pack_endpoint("127.0.0.1", 4242)
    lookup.hop_count = 5
    golden = {
        "020014ffffffffffffffff0000000000000000": Hello(),
        "02001900007f0000011092000000000000000500000000ffffffff00000008"
        "d0bad0bbd18ed18700000a0000011ce9000000000000004d0000000000000003"
        "00000000000000020000000000000009": lookup,
        "020200ffffffffffffffff0000000000000000000000016b000000147b225f5f"
        "62797465735f5f223a224141453d227d0000000000000007": ClientPut(
            key="k", value=b"\x00\x01", request_id=7
        ),
    }
    for hexed, msg in golden.items():
        assert CODEC.encode(msg).hex() == hexed
        decoded = CODEC.decode(bytes.fromhex(hexed))
        assert decoded == msg
        assert (decoded.sender, decoded.hop_count) == (msg.sender, msg.hop_count)


def test_unknown_versions_rejected() -> None:
    body = CODEC.encode(Hello())[1:]
    for version in (0, 1, 3, 255):
        with pytest.raises(CodecError, match="unsupported wire version"):
            CODEC.decode(bytes([version]) + body)


# ----------------------------------------------------------------------
# No fallback: what the layout cannot carry raises, loudly
# ----------------------------------------------------------------------
def test_i64_overflow_raises_and_transport_counts_the_drop() -> None:
    """An int beyond 64 bits cannot ride `!q`: encode raises, and the
    transport counts the drop and enqueues nothing."""
    msg = ServerJoin(address=2**80, capacity=1.0)
    with pytest.raises(CodecError, match="ServerJoin"):
        CODEC.encode(msg)

    async def scenario() -> None:
        transport = AioTransport(CODEC, asyncio.get_running_loop())
        origin = SimpleNamespace(alive=True, address=pack_endpoint("127.0.0.1", 2))
        with pytest.raises(CodecError):
            transport.send(origin, pack_endpoint("127.0.0.1", 1), msg)
        assert transport.messages_dropped == 1
        assert transport.tx_queue_depth() == 0

    asyncio.run(scenario())


def test_register_refuses_classes_without_a_layout() -> None:
    """A class the compiler cannot derive is a registration-time error
    naming the class and field -- never a second body format."""

    @dataclasses.dataclass(slots=True)
    class Odd(Message):
        table: Tuple[Tuple[str, ...], ...] = ()  # nested variadic: fine
        weird: Optional[Tuple[int, str]] = None

    @dataclasses.dataclass(slots=True)
    class Stranger(Message):
        mapping: dict = dataclasses.field(default_factory=dict)

    @dataclasses.dataclass
    class Hooked(Message):
        x: int = 0

        def __post_init__(self) -> None:
            self.x += 1

    @dataclasses.dataclass
    class Iced(Message):
        x: int = 0

    # Python refuses to derive a frozen dataclass from the non-frozen
    # Message, so borrow the params of a real frozen one.
    Iced.__dataclass_params__ = dataclasses.make_dataclass(
        "F", [], frozen=True
    ).__dataclass_params__

    codec = runtime_codec()
    codec.register(Odd, 1000)
    odd = Odd(table=(("a", "b"), ()), weird=(3, "x"))
    assert codec.decode(codec.encode(odd)) == odd
    with pytest.raises(CodecError, match=r"Stranger\.mapping"):
        codec.register(Stranger, 1001)
    with pytest.raises(CodecError, match="Hooked.*__post_init__"):
        codec.register(Hooked, 1001)
    with pytest.raises(CodecError, match="Iced.*frozen"):
        codec.register(Iced, 1001)
    # a refused class leaves no half-registered entry behind
    with pytest.raises(CodecError, match="not registered"):
        codec.encode(Stranger())


# ----------------------------------------------------------------------
# Corruption: truncations and garbage raise, never misparse
# ----------------------------------------------------------------------
def test_decode_rejects_garbage() -> None:
    with pytest.raises(CodecError):
        CODEC.decode(b"")
    with pytest.raises(CodecError):
        CODEC.decode(b"\x63" + b"\x00\x01" + b"[]")  # bad version
    with pytest.raises(CodecError):
        CODEC.decode(b"\x02" + b"\xff\xff" + b"[]")  # unknown type id
    with pytest.raises(CodecError):
        CODEC.decode(CODEC.encode(FloodQuery()) + b"xx")  # trailing bytes


# Adversarial payloads, built field by field from the same annotations:
# mostly well-formed for the layout (so the parser gets deep into the
# body), with wrong-typed, truncated and over-long fields mixed in.
_HOSTILE_JSON = [
    b'{"__bytes__":5}', b'{"__bytes__":"!"}', b'{"__bytes__":[1]}',
    b'{"__bytes__":null}', b'{"__bytes__":"AAE"}', b'{"__bytes__":"AAE="}',
    b'{"a":{"__bytes__":{}}}', b"[" * 100_000, b"1" * 5000, b"\xff\xfe", b"{", b"",
]
_junk = st.binary(max_size=12) | st.sampled_from(_HOSTILE_JSON[:6])


def _u32(draw: st.DrawFn, n: int) -> bytes:
    """A length or count prefix: usually ``n``, sometimes a lie."""
    lie = draw(st.sampled_from([n] * 6 + [n + 1, max(n - 1, 0), 2**32 - 1]))
    return struct.pack("!I", lie)


def _prefixed(draw: st.DrawFn, blob: bytes) -> bytes:
    return _u32(draw, len(blob)) + blob


def _wire(draw: st.DrawFn, hint: Any) -> bytes:
    if draw(st.integers(0, 11)) == 0:
        return draw(_junk)  # wrong-typed: whatever this is, it is not `hint`
    if hint is int:
        return struct.pack("!q", draw(st.integers(-(2**63), 2**63 - 1)))
    if hint is float:
        return struct.pack("!d", draw(st.floats()))
    if hint is bool:
        return draw(st.sampled_from([b"\x00", b"\x01", b"\x02", b"\xff"]))
    if hint is str or hint is bytes:
        return _prefixed(draw, draw(st.text(max_size=6).map(str.encode) | st.binary(max_size=8)))
    if hint is Any:
        return _prefixed(draw, draw(st.sampled_from(_HOSTILE_JSON) | st.binary(max_size=8)))
    args = get_args(hint)
    if get_origin(hint) is Union:  # Optional[X]
        flag = draw(st.sampled_from([0, 1, 1, 2]))
        inner = [a for a in args if a is not type(None)][0]
        return bytes([flag]) + (_wire(draw, inner) if flag else b"")
    if len(args) == 2 and args[1] is Ellipsis:
        items = [_wire(draw, args[0]) for _ in range(draw(st.integers(0, 3)))]
        return _u32(draw, len(items)) + b"".join(items)
    return b"".join(_wire(draw, a) for a in args)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_decode_returns_a_message_or_codec_error(data: st.DataObject) -> None:
    """Whatever the bytes -- any registered type id over a body laid out
    for any class (type confusion included), hostile embedded JSON, any
    version byte, a well-formed v1 JSON frame -- ``decode`` returns a
    Message or raises CodecError, nothing else."""
    cls = data.draw(st.sampled_from(ALL_CLASSES))
    as_cls = data.draw(st.sampled_from((cls, cls) + ALL_CLASSES))
    version = data.draw(st.sampled_from([2] * 8 + [0, 1, 1, 3, 255]))
    hints = get_type_hints(cls)
    if version == 1:  # the retired generation: a JSON array of the fields
        body = json.dumps(
            [data.draw(st.sampled_from([0, "", None, {"__bytes__": 5}, []]))
             for _ in dataclasses.fields(cls)]
        ).encode()
    else:
        body = b"".join(
            _wire(data.draw, hints[f.name]) for f in dataclasses.fields(cls)
        )
    payload = struct.pack("!BH", version, CODEC.type_id_of(as_cls)) + body
    try:
        msg = CODEC.decode(memoryview(payload))
    except CodecError:
        return
    assert version == WIRE_VERSION and type(msg) is as_cls


def test_hostile_embedded_json_raises_codec_error() -> None:
    head = struct.pack("!BH", WIRE_VERSION, CLIENT_TYPE_BASE)  # ClientPut
    assert CODEC.type_id_of(ClientPut) == CLIENT_TYPE_BASE
    fixed = struct.pack("!qq", -1, 0) + struct.pack("!I", 1) + b"k"
    for hostile in _HOSTILE_JSON:
        frame = head + fixed + struct.pack("!I", len(hostile)) + hostile
        frame += struct.pack("!q", 7)
        if hostile == b'{"__bytes__":"AAE="}':
            assert CODEC.decode(frame).value == b"\x00\x01"
            continue
        with pytest.raises(CodecError):
            CODEC.decode(frame)


def test_strict_v2_rejects_v1_frames() -> None:
    """A well-formed frame of the retired JSON generation is refused on
    its version byte, before anything looks at the body."""
    v1 = struct.pack("!BH", 1, CLIENT_TYPE_BASE) + b'[-1,0,"k",{"__bytes__":5},7]'
    with pytest.raises(CodecError, match="unsupported wire version 1"):
        CODEC.decode(v1)


def test_v2_truncations_never_misparse() -> None:
    """Every proper prefix of a frame raises (variable fields
    bounds-check explicitly -- memoryview slicing would otherwise
    truncate silently)."""
    msg = RoleHandoff(
        p_id=7,
        fingers=((1, 2), (3, 4)),
        items=(("key", {"nested": [1, None]}, 9),),
        s_neighbors=(5, 6),
    )
    msg.sender = pack_endpoint("127.0.0.1", 4242)
    payload = CODEC.encode(msg)
    for cut in range(len(payload)):
        with pytest.raises(CodecError):
            CODEC.decode(payload[:cut])


def test_v2_absurd_tuple_count_rejected() -> None:
    """A forged element count larger than the body cannot allocate."""
    msg = RoleHandoff(p_id=1, fingers=((1, 2),), s_neighbors=(9,))
    payload = bytearray(CODEC.encode(msg))
    # Layout: 3-byte head, 7 fixed i64s (sender..successor_pid), then
    # the fingers element count.
    count_at = 3 + 7 * 8
    payload[count_at : count_at + 4] = struct.pack("!I", 2**31)
    with pytest.raises(CodecError):
        CODEC.decode(bytes(payload))


def test_unregistered_class_rejected() -> None:
    @dataclasses.dataclass(slots=True)
    class Stray(Message):
        x: int = 0

    with pytest.raises(CodecError):
        CODEC.encode(Stray())


def test_endpoint_packing_roundtrip() -> None:
    for host, port in [("127.0.0.1", 1), ("10.0.0.1", 65535), ("192.168.1.17", 7401)]:
        addr = pack_endpoint(host, port)
        assert unpack_endpoint(addr) == (host, port)
        assert format_endpoint(addr) == f"{host}:{port}"
    with pytest.raises(ValueError):
        pack_endpoint("127.0.0.1", 0)
    with pytest.raises(ValueError):
        pack_endpoint("not-a-host", 80)
    with pytest.raises(ValueError):
        unpack_endpoint(80)  # too small to hold an endpoint


# ----------------------------------------------------------------------
# Frame size guard
# ----------------------------------------------------------------------
def test_decode_rejects_oversized_payload() -> None:
    """A peer announcing an absurd frame is cut off before allocation."""
    small = default_codec(max_frame_size=64)
    big = FloodQuery(key="x" * 200)
    payload = CODEC.frame(big)[4:]  # strip the length prefix
    with pytest.raises(CodecError, match="max_frame_size"):
        small.decode(payload)
    # The same payload is fine under the default 16 MiB ceiling.
    assert CODEC.decode(payload) == big


def test_frame_rejects_oversized_encode() -> None:
    small = default_codec(max_frame_size=64)
    with pytest.raises(CodecError, match="frame too large"):
        small.frame(FloodQuery(key="x" * 200))
    # Within the limit, framing works as usual.
    roomy = default_codec(max_frame_size=4096)
    tiny = FloodQuery(key="k")
    assert roomy.decode(roomy.frame(tiny)[4:]) == tiny


def test_max_frame_size_validates_floor() -> None:
    with pytest.raises(CodecError, match="max_frame_size"):
        default_codec(max_frame_size=1)
