"""Length-prefixed binary wire format for overlay messages.

The live runtime sends the *same* message dataclasses the simulator
delivers in-process (:mod:`repro.overlay.messages`) over real TCP
sockets.  Encoders are auto-derived per message class -- no per-message
hand-written serialization -- from the dataclass field list and the
type annotations.  There is one wire generation:

* **framing** -- each message is one frame: a 4-byte big-endian length
  followed by the payload (``struct``);
* **payload** -- a 1-byte format version (:data:`WIRE_VERSION`; anything
  else is rejected), a 2-byte big-endian type id, then the field values
  in dataclass field order (``sender`` and ``hop_count`` from the
  :class:`Message` base first, subclass fields after, exactly as
  ``dataclasses.fields`` reports them);
* **body** -- a per-class pair of **generated** encode/decode functions
  compiled at registration time from the annotations.  Runs of
  fixed-width fields (``int`` -> ``!q``, ``float`` -> ``!d``, ``bool``
  -> ``!?``) collapse into single :class:`struct.Struct` pack/unpack
  calls; ``str``/``bytes`` are ``!I``-length-prefixed; homogeneous
  tuples carry a ``!I`` count; fixed-arity tuples are laid out element
  by element; ``Optional`` adds a 1-byte presence flag; ``Any`` fields
  carry a length-prefixed JSON value (``bytes`` inside it become
  ``{"__bytes__": <base64>}``).  Decoding slices the payload in place;
* **no fallback** -- a class whose annotations have no layout (or that
  the decoder cannot build in place: ``__post_init__``, frozen) fails
  :meth:`MessageCodec.register`; a field value outside its layout (an
  int beyond 64 bits) fails :meth:`MessageCodec.encode`.  Both raise
  :class:`CodecError`, as does every malformed, truncated, over-long or
  foreign-version payload handed to :meth:`MessageCodec.decode`;
* **type ids** -- derived from :func:`repro.overlay.messages.wire_types`
  (position in ``__all__``), so ids are stable as long as that list is
  append-only; runtime-private messages (the client verbs) register in
  a reserved band above :data:`CLIENT_TYPE_BASE`.

Everything here is stdlib-only (``struct`` + ``json``) and synchronous;
the asyncio plumbing lives in :mod:`repro.runtime.aio_transport`.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from dataclasses import fields as dataclass_fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..overlay.messages import Message, wire_types

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME",
    "CLIENT_TYPE_BASE",
    "CodecError",
    "MessageCodec",
    "default_codec",
    "pack_endpoint",
    "unpack_endpoint",
    "format_endpoint",
]

# The one body format on the wire; the version byte leads every payload
# so a frame from any other generation is rejected, never misparsed.
WIRE_VERSION = 2
# Hard cap on a single frame; a length prefix beyond this is treated as
# a corrupt/hostile stream rather than an allocation request.
MAX_FRAME = 16 * 1024 * 1024
# Type ids below this band belong to repro.overlay.messages (protocol
# messages, ids assigned from wire_types() order); the band at and
# above it is reserved for runtime-private messages (client verbs).
CLIENT_TYPE_BASE = 512

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!BH")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")


class CodecError(ValueError):
    """Raised on any encode/decode failure (unknown type, bad frame)."""


# ----------------------------------------------------------------------
# Overlay addresses <-> TCP endpoints
# ----------------------------------------------------------------------
# The protocol core addresses actors by int.  The live runtime packs a
# real IPv4 endpoint into that int -- (ip << 16) | port -- so any
# address learned from any message (entry peers, ring pointers, flood
# origins) is directly connectable without a separate address book.


def pack_endpoint(host: str, port: int) -> int:
    """Pack an IPv4 ``(host, port)`` endpoint into an overlay address."""
    if not (0 < port <= 0xFFFF):
        raise ValueError(f"port out of range: {port}")
    try:
        (ip,) = struct.unpack("!I", socket.inet_aton(host))
    except OSError as exc:
        raise ValueError(f"not an IPv4 address: {host!r}") from exc
    return (ip << 16) | port


def unpack_endpoint(address: int) -> Tuple[str, int]:
    """Recover the ``(host, port)`` endpoint packed into an address."""
    if address <= 0xFFFF:
        raise ValueError(f"address {address} does not encode an endpoint")
    host = socket.inet_ntoa(struct.pack("!I", (address >> 16) & 0xFFFFFFFF))
    return host, address & 0xFFFF


def format_endpoint(address: int) -> str:
    host, port = unpack_endpoint(address)
    return f"{host}:{port}"


# ----------------------------------------------------------------------
# JSON value adapters (embedded ``Any`` values)
# ----------------------------------------------------------------------
def _json_default(obj: Any) -> Any:
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(obj)).decode("ascii")}
    raise TypeError(f"{type(obj).__name__} is not wire-encodable")


def _json_object_hook(obj: Dict[str, Any]) -> Any:
    if len(obj) == 1 and "__bytes__" in obj:
        return base64.b64decode(obj["__bytes__"], validate=True)
    return obj


# ----------------------------------------------------------------------
# Per-field packers
# ----------------------------------------------------------------------
# pack_fn(value, out_bytearray) appends bytes; unpack_fn(buf, pos)
# returns (value, new_pos) and must bounds-check (slicing silently
# truncates, so every reader goes through _take).  _compile stitches
# them, and the fixed-width runs between them, into one generated
# encode/decode pair per class.

_FIXED_FMT = {int: "q", float: "d", bool: "?"}

PackFn = Callable[[Any, bytearray], None]
UnpackFn = Callable[[Any, int], Tuple[Any, int]]


def _take(buf: Any, pos: int, n: int) -> Tuple[Any, int]:
    end = pos + n
    if end > len(buf):
        raise CodecError("truncated frame body")
    return buf[pos:end], end


def _pack_i64(v: Any, out: bytearray) -> None:
    out += _I64.pack(v)


def _unpack_i64(buf: Any, pos: int) -> Tuple[int, int]:
    (v,) = _I64.unpack_from(buf, pos)
    return v, pos + 8


def _pack_f64(v: Any, out: bytearray) -> None:
    out += _F64.pack(v)


def _unpack_f64(buf: Any, pos: int) -> Tuple[float, int]:
    (v,) = _F64.unpack_from(buf, pos)
    return v, pos + 8


def _pack_bool(v: Any, out: bytearray) -> None:
    out.append(1 if v else 0)


def _unpack_bool(buf: Any, pos: int) -> Tuple[bool, int]:
    if pos >= len(buf):
        raise CodecError("truncated frame body")
    return bool(buf[pos]), pos + 1


def _pack_str(v: Any, out: bytearray) -> None:
    raw = v.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _unpack_str(buf: Any, pos: int) -> Tuple[str, int]:
    (n,) = _U32.unpack_from(buf, pos)
    raw, pos = _take(buf, pos + 4, n)
    try:
        return str(raw, "utf-8"), pos
    except UnicodeDecodeError as exc:
        raise CodecError(f"bad utf-8 string: {exc}") from exc


def _pack_bytes(v: Any, out: bytearray) -> None:
    out += _U32.pack(len(v))
    out += v


def _unpack_bytes(buf: Any, pos: int) -> Tuple[bytes, int]:
    (n,) = _U32.unpack_from(buf, pos)
    raw, pos = _take(buf, pos + 4, n)
    return bytes(raw), pos


def _pack_any(v: Any, out: bytearray) -> None:
    raw = json.dumps(v, separators=(",", ":"), default=_json_default).encode(
        "utf-8"
    )
    out += _U32.pack(len(raw))
    out += raw


def _unpack_any(buf: Any, pos: int) -> Tuple[Any, int]:
    (n,) = _U32.unpack_from(buf, pos)
    raw, pos = _take(buf, pos + 4, n)
    try:
        return json.loads(str(raw, "utf-8"), object_hook=_json_object_hook), pos
    except (ValueError, TypeError, RecursionError) as exc:
        # bad utf-8 / JSON / base64, a non-string "__bytes__", or a
        # nesting bomb: all the peer's doing, none of them ours to crash on
        raise CodecError(f"bad embedded JSON value: {exc}") from exc


def _homogeneous_tuple_codec(
    elem_pack: PackFn, elem_unpack: UnpackFn
) -> Tuple[PackFn, UnpackFn]:
    def pack(v: Any, out: bytearray) -> None:
        out += _U32.pack(len(v))
        for x in v:
            elem_pack(x, out)

    def unpack(buf: Any, pos: int) -> Tuple[tuple, int]:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        # Every element consumes >= 1 byte, so a count beyond the
        # remaining payload is corrupt -- reject before looping.
        if n > len(buf) - pos:
            raise CodecError("tuple count exceeds frame body")
        items = []
        for _ in range(n):
            x, pos = elem_unpack(buf, pos)
            items.append(x)
        return tuple(items), pos

    return pack, unpack


def _fixed_tuple_codec(
    parts: List[Tuple[PackFn, UnpackFn]]
) -> Tuple[PackFn, UnpackFn]:
    packs = [p for p, _ in parts]
    unpacks = [u for _, u in parts]
    arity = len(parts)

    def pack(v: Any, out: bytearray) -> None:
        if len(v) != arity:
            raise ValueError(f"expected {arity}-tuple, got {len(v)}")
        for fn, x in zip(packs, v):
            fn(x, out)

    def unpack(buf: Any, pos: int) -> Tuple[tuple, int]:
        items = []
        for fn in unpacks:
            x, pos = fn(buf, pos)
            items.append(x)
        return tuple(items), pos

    return pack, unpack


def _optional_codec(
    inner_pack: PackFn, inner_unpack: UnpackFn
) -> Tuple[PackFn, UnpackFn]:
    def pack(v: Any, out: bytearray) -> None:
        if v is None:
            out.append(0)
        else:
            out.append(1)
            inner_pack(v, out)

    def unpack(buf: Any, pos: int) -> Tuple[Any, int]:
        if pos >= len(buf):
            raise CodecError("truncated frame body")
        flag = buf[pos]
        pos += 1
        if flag == 0:
            return None, pos
        if flag != 1:
            raise CodecError(f"bad optional presence flag {flag}")
        return inner_unpack(buf, pos)

    return pack, unpack


def _var_codec_for(hint: Any) -> Optional[Tuple[PackFn, UnpackFn]]:
    """(pack, unpack) for one annotation, or None if not derivable."""
    if hint is Any:
        return _pack_any, _unpack_any
    if hint is bool:
        return _pack_bool, _unpack_bool
    if hint is int:
        return _pack_i64, _unpack_i64
    if hint is float:
        return _pack_f64, _unpack_f64
    if hint is str:
        return _pack_str, _unpack_str
    if hint is bytes:
        return _pack_bytes, _unpack_bytes
    origin = get_origin(hint)
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            elem = _var_codec_for(args[0])
            if elem is None:
                return None
            return _homogeneous_tuple_codec(*elem)
        parts = [_var_codec_for(a) for a in args]
        if any(p is None for p in parts):
            return None
        return _fixed_tuple_codec(parts)  # type: ignore[arg-type]
    if origin is Union:
        args = get_args(hint)
        if type(None) in args:
            inner = [a for a in args if a is not type(None)]
            if len(inner) == 1:
                part = _var_codec_for(inner[0])
                if part is None:
                    return None
                return _optional_codec(*part)
    return None


def _compile(cls: type, head: bytes) -> Tuple[Callable, Callable]:
    """Generate the straight-line ``(encode, decode)`` pair for a class.

    Fixed runs become one bound ``pack``/``unpack_from`` call, variable
    fields one call to their packer; the decoder builds the instance
    via ``object.__new__`` and assigns every field (including
    ``init=False`` ones) directly -- which is why a class that needs its
    constructor run (``__post_init__``) or forbids assignment (frozen)
    is refused here rather than decoded wrongly.
    """
    name = cls.__name__
    if hasattr(cls, "__post_init__") or cls.__dataclass_params__.frozen:
        raise CodecError(
            f"{name} has no wire layout: the decoder assigns fields in "
            f"place, so __post_init__ hooks and frozen classes are refused"
        )
    hints = get_type_hints(cls)
    ns: Dict[str, Any] = {
        "_CodecError": CodecError,
        "_serr": struct.error,
        "_new": object.__new__,
        "_cls": cls,
        "_head": head,
        "_len": len,
    }
    names = [f.name for f in dataclass_fields(cls)]
    enc: List[Tuple[str, bool]] = []  # (source, True if it appends to out itself)
    dec: List[str] = []  # statements that parse the buffer into f0, f1, ...
    run: List[int] = []  # field indices of the fixed-width run being gathered
    run_fmt: List[str] = []

    def flush_run() -> None:
        if not run:
            return
        packer = struct.Struct("!" + "".join(run_fmt))
        ns[f"p{run[0]}"] = packer.pack
        ns[f"u{run[0]}"] = packer.unpack_from
        attrs = ", ".join(f"msg.{names[i]}" for i in run)
        enc.append((f"p{run[0]}({attrs})", False))
        dec.append("".join(f"f{i}, " for i in run) + f"= u{run[0]}(buf, pos)")
        dec.append(f"pos += {packer.size}")
        run.clear()
        run_fmt.clear()

    for i, field in enumerate(names):
        code = _FIXED_FMT.get(hints[field])
        if code is not None:
            run.append(i)
            run_fmt.append(code)
            continue
        pair = _var_codec_for(hints[field])
        if pair is None:
            raise CodecError(
                f"{name}.{field} has no wire layout: "
                f"annotation {hints[field]!r} is not derivable"
            )
        flush_run()
        ns[f"p{i}"], ns[f"u{i}"] = pair
        enc.append((f"p{i}(msg.{field}, out)", True))
        dec.append(f"f{i}, pos = u{i}(buf, pos)")
    flush_run()

    # Encode: all-fixed classes collapse to one concatenation; classes
    # with variable fields accumulate into a bytearray.
    if not any(appends for _, appends in enc):
        lines = ["def _enc(msg):", "    return " + " + ".join(["_head"] + [t for t, _ in enc])]
    else:
        lines = ["def _enc(msg):", "    out = bytearray(_head)"]
        lines += [f"    {t}" if appends else f"    out += {t}" for t, appends in enc]
        lines.append("    return bytes(out)")
    lines += ["def _dec(buf):", "    try:", f"        pos = {_HEAD.size}"]
    lines += [f"        {stmt}" for stmt in dec]
    lines += [
        "    except _serr as exc:",
        f"        raise _CodecError(f'truncated {name} body: {{exc}}') from exc",
        "    if pos != _len(buf):",
        f"        raise _CodecError(f'{{_len(buf) - pos}} trailing bytes after {name}')",
        "    msg = _new(_cls)",
    ]
    lines += [f"    msg.{field} = f{i}" for i, field in enumerate(names)]
    lines.append("    return msg")
    exec("\n".join(lines), ns)  # noqa: S102 - fixed template, no user input
    return ns["_enc"], ns["_dec"]


class _Entry:
    """Per-class codec entry: the type id and the generated pair."""

    __slots__ = ("type_id", "fast_encode", "fast_decode")

    def __init__(self, cls: type, type_id: int) -> None:
        self.type_id = type_id
        self.fast_encode, self.fast_decode = _compile(
            cls, _HEAD.pack(WIRE_VERSION, type_id)
        )


class MessageCodec:
    """Registry of message classes plus the auto-derived encoders.

    Registration is keyed by message class; ids must be unique and the
    class must be a :class:`Message` dataclass every field of which has
    a wire layout.  :func:`default_codec` pre-registers every protocol
    message; callers with runtime-private messages register them on top
    (ids >= :data:`CLIENT_TYPE_BASE`).

    Parameters
    ----------
    max_frame_size:
        Upper bound on a single frame's payload, enforced symmetrically:
        :meth:`frame` refuses to emit a larger frame and :meth:`decode`
        refuses to parse one.  The u32 length prefix would otherwise
        admit up to 4 GiB; anything past this bound is treated as a
        corrupt or hostile stream, not an allocation request.  Defaults
        to :data:`MAX_FRAME` (16 MiB).
    """

    def __init__(self, max_frame_size: int = MAX_FRAME) -> None:
        if max_frame_size < _HEAD.size:
            raise CodecError(
                f"max_frame_size must be >= {_HEAD.size}, got {max_frame_size}"
            )
        self.max_frame_size = max_frame_size
        self._by_class: Dict[type, _Entry] = {}
        self._by_id: Dict[int, _Entry] = {}

    def register(self, cls: type, type_id: int) -> None:
        if not (isinstance(cls, type) and issubclass(cls, Message)):
            raise CodecError(f"{cls!r} is not a Message subclass")
        if cls in self._by_class:
            raise CodecError(f"{cls.__name__} already registered")
        if type_id in self._by_id:
            raise CodecError(f"type id {type_id} already taken")
        if not (0 <= type_id <= 0xFFFF):
            raise CodecError(f"type id {type_id} out of range")
        entry = _Entry(cls, type_id)
        self._by_class[cls] = entry
        self._by_id[type_id] = entry

    def type_id_of(self, cls: type) -> int:
        entry = self._by_class.get(cls)
        if entry is None:
            raise CodecError(f"{cls.__name__} is not registered")
        return entry.type_id

    def encode(self, msg: Message) -> bytes:
        """Payload bytes (no length prefix) for one message."""
        entry = self._by_class.get(type(msg))
        if entry is None:
            raise CodecError(f"{type(msg).__name__} is not registered")
        try:
            return entry.fast_encode(msg)
        except (struct.error, OverflowError, TypeError, ValueError) as exc:
            # A value the layout cannot carry: an int beyond 64 bits,
            # wrong tuple arity, a non-JSON-able ``Any``.
            raise CodecError(
                f"{type(msg).__name__} payload is not wire-encodable: {exc}"
            ) from exc

    def frame(self, msg: Message) -> bytes:
        """Length-prefixed frame ready to write to a socket."""
        payload = self.encode(msg)
        if len(payload) > self.max_frame_size:
            raise CodecError(
                f"frame too large: {len(payload)} bytes exceeds "
                f"max_frame_size {self.max_frame_size}"
            )
        return _LEN.pack(len(payload)) + payload

    def decode(self, payload: Any) -> Message:
        """Rebuild the message from payload bytes (no length prefix).

        Accepts any bytes-like object (``bytes``, ``bytearray``,
        ``memoryview``) and returns a :class:`Message` or raises
        :class:`CodecError` -- nothing else, whatever the bytes.
        """
        if len(payload) > self.max_frame_size:
            raise CodecError(
                f"frame of {len(payload)} bytes exceeds "
                f"max_frame_size {self.max_frame_size}"
            )
        if len(payload) < _HEAD.size:
            raise CodecError("truncated payload")
        version, type_id = _HEAD.unpack_from(payload)
        if version != WIRE_VERSION:
            raise CodecError(f"unsupported wire version {version}")
        entry = self._by_id.get(type_id)
        if entry is None:
            raise CodecError(f"unknown message type id {type_id}")
        return entry.fast_decode(payload)


def default_codec(max_frame_size: int = MAX_FRAME) -> MessageCodec:
    """A codec with every protocol message registered.

    Type ids are ``1 + position`` in :func:`wire_types` order (0 is
    reserved), so both ends of a connection derive the same table from
    the message module alone.
    """
    codec = MessageCodec(max_frame_size=max_frame_size)
    for i, cls in enumerate(wire_types()):
        codec.register(cls, 1 + i)
    return codec
