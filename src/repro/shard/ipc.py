"""Shared-memory IPC for sharded cell runs.

Forked shard workers exchange cross-shard deliveries directly, without
``pickle`` and without passing through the coordinator, over
single-producer/single-consumer ring buffers in
:mod:`multiprocessing.shared_memory`:

* one **data ring per ordered shard pair** ``i -> j`` carrying overlay
  messages encoded with the compiled per-class struct layouts of the
  wire codec (:mod:`repro.runtime.codec`) behind a fixed 25-byte
  delivery envelope -- the consumer decodes straight out of the shared
  buffer as a zero-copy memoryview slice.  A message the codec cannot
  carry raises :class:`CodecError` in the sending worker and fails the
  cell; there is no second encoding;
* one **control ring pair per worker** (coordinator->worker and back)
  carrying struct-packed ``issue``/``window``/``finish``/``stop`` frames
  and the worker's state replies.

Ring layout (all offsets relative to the shared block)::

    [0:8)    write counter  (u64, monotone, owned by the producer)
    [8:16)   read counter   (u64, monotone, owned by the consumer)
    [16]     producer-closed flag
    [17]     consumer-closed flag
    [64:...) frame area of ``capacity`` bytes

Frames are contiguous -- ``u32 length | u8 kind | payload`` -- so a
frame never wraps: when the tail of the buffer is too small the
producer emits a ``PAD`` marker (length ``0xFFFFFFFF``) and continues
at offset 0, and a tail shorter than a frame header is skipped
implicitly.  Counters are monotone u64s published with single aligned
8-byte stores *after* the frame bytes, which is what makes the
SPSC hand-off safe without locks on cache-coherent hardware.

Deadlock discipline: data rings are written with :meth:`SpscRing.
try_write` only -- a full ring spills the frame to the worker's control
ring, where the coordinator buffers it and forwards it with the next
``window`` request.  Blocking writes happen only toward a peer that is
guaranteed to be draining (the coordinator while collecting replies,
the worker while handling a request), and every blocking operation
watches a liveness callback so a dead peer raises :class:`RingClosed`
instead of hanging (see the worker-death test in
``tests/test_shard_determinism.py``).
"""

from __future__ import annotations

import math
import pickle
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime.codec import CodecError, MessageCodec, default_codec

__all__ = [
    "SpscRing",
    "RingError",
    "RingClosed",
    "RingTimeout",
    "ShardFrameCodec",
    "WorkerEndpoint",
    "ENVELOPE",
    "DATA_RING_BYTES",
    "CTRL_RING_BYTES",
    "K_CTRL",
    "K_STATE",
    "K_MSG",
    "K_BLOB",
    "K_BLOBC",
    "K_ERR",
    "encode_issue",
    "encode_window",
    "encode_finish",
    "encode_stop",
    "encode_state",
    "decode_ctrl",
    "decode_state",
]

# ----------------------------------------------------------------------
# Frame kinds
# ----------------------------------------------------------------------
K_CTRL = 1   #: coordinator -> worker control frame (opcode leads payload)
K_STATE = 2  #: worker -> coordinator state reply (+ per-dst summaries)
K_MSG = 3    #: delivery envelope + wire-codec message body
K_BLOB = 5   #: pickled object (finish export), final chunk
K_BLOBC = 6  #: blob continuation chunk (more follow)
K_ERR = 7    #: UTF-8 worker traceback

_PAD = 0xFFFFFFFF
_LEN = struct.Struct("<I")
_LENKIND = struct.Struct("<IB")  # length + kind header in one pack
_FRAME_OVERHEAD = _LENKIND.size

_OFF_W = 0
_OFF_R = 8
_OFF_WCLOSED = 16
HEADER_BYTES = 64

#: Ring capacities.  Data rings see at most one window's worth of
#: cross-shard traffic for one ordered pair; overflow spills through
#: the control path, so these are throughput knobs, not correctness
#: limits.  The coordinator reads ``DATA_RING_BYTES`` when it creates
#: the rings (the determinism suite shrinks it to force the spill path).
DATA_RING_BYTES = 4 << 20
CTRL_RING_BYTES = 1 << 20

#: How much pickled blob travels per frame (finish exports can exceed
#: the control-ring capacity at large scales; the coordinator is
#: draining concurrently, so chunked blocking writes stream through).
_BLOB_CHUNK = 256 << 10


class RingError(RuntimeError):
    """Base class for ring-transport failures."""


class RingClosed(RingError):
    """The peer closed its end (or its process died) with no data left."""


class RingTimeout(RingError):
    """A blocking ring operation exceeded its deadline."""


class SpscRing:
    """Single-producer/single-consumer frame ring over a shared buffer.

    One process calls only the producer methods (``try_write``,
    ``write``, ``close_producer``), the other only the consumer method
    ``read``.  A memoryview returned by ``read`` aliases the shared
    buffer and stays valid until the *next* read call, which is when
    the consumed region is released to the producer -- decode before
    reading on.
    """

    __slots__ = (
        "_buf", "_cap", "_shm", "_w", "_r", "_hdr",
        "bytes_written", "frames_written", "bytes_read", "frames_read",
        "_pending_advance",
    )

    def __init__(self, buf, capacity: int, shm=None) -> None:
        if capacity < 256:
            raise ValueError("ring capacity must be >= 256 bytes")
        self._buf = memoryview(buf)
        # u64 view over the write/read counters (indices 0 and 1): one
        # aligned 8-byte load/store per access on the hot path, against
        # int.from_bytes/to_bytes on a fresh slice.  Native byte order
        # -- both ends of a ring are forks of the same interpreter.
        self._hdr = self._buf[:16].cast("Q")
        self._cap = int(capacity)
        self._shm = shm
        self._w = self._hdr[0]
        self._r = self._hdr[1]
        self._pending_advance = 0
        self.bytes_written = 0
        self.frames_written = 0
        self.bytes_read = 0
        self.frames_read = 0

    @classmethod
    def create(cls, capacity: int) -> "SpscRing":
        """Allocate a fresh ring in POSIX shared memory."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            create=True, size=HEADER_BYTES + int(capacity)
        )
        shm.buf[:HEADER_BYTES] = bytes(HEADER_BYTES)
        return cls(shm.buf, capacity, shm=shm)

    @classmethod
    def over(cls, capacity: int) -> "SpscRing":
        """In-process ring over a plain bytearray (tests)."""
        return cls(bytearray(HEADER_BYTES + int(capacity)), capacity)

    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def producer_closed(self) -> bool:
        return self._buf[_OFF_WCLOSED] != 0

    def close_producer(self) -> None:
        self._buf[_OFF_WCLOSED] = 1

    # -- producer --------------------------------------------------------
    def _place(self, kind: int, payload, need: int) -> None:
        """Write one frame at the (pre-checked) head; publish last."""
        buf = self._buf
        cap = self._cap
        w = self._w
        pos = w % cap
        tail = cap - pos
        if tail < need:
            if tail >= _LEN.size:
                _LEN.pack_into(buf, HEADER_BYTES + pos, _PAD)
            w += tail
            pos = 0
        base = HEADER_BYTES + pos
        _LENKIND.pack_into(buf, base, need - _FRAME_OVERHEAD, kind)
        buf[base + 5:base + need] = payload
        self._w = w + need
        self._hdr[0] = self._w
        self.bytes_written += need
        self.frames_written += 1

    def _free_for(self, need: int) -> bool:
        cap = self._cap
        used = self._w - self._hdr[1]
        pos = self._w % cap
        tail = cap - pos
        pad = tail if tail < need else 0
        return cap - used >= pad + need

    def try_write(self, kind: int, payload) -> bool:
        """Write one frame if space permits; never blocks.

        Returns False when the ring is full *or* the frame cannot fit
        at all -- the caller spills either way.
        """
        need = _FRAME_OVERHEAD + len(payload)
        if need > self._cap:
            return False
        if not self._free_for(need):
            return False
        self._place(kind, payload, need)
        return True

    def write(
        self,
        kind: int,
        payload,
        peer_alive: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Blocking write; only safe toward a peer known to be draining."""
        need = _FRAME_OVERHEAD + len(payload)
        if need > self._cap:
            raise ValueError(
                f"frame of {need} bytes exceeds ring capacity {self._cap}"
            )
        if not self._free_for(need):  # fast path: no closure, no loop
            self._block_until(lambda: self._free_for(need), peer_alive, timeout)
        self._place(kind, payload, need)

    # -- consumer --------------------------------------------------------
    def _release(self) -> None:
        if self._pending_advance:
            self._r += self._pending_advance
            self._pending_advance = 0
            self._hdr[1] = self._r

    def _has_data(self) -> bool:
        return self._hdr[0] > self._r + self._pending_advance

    def try_read(self) -> Optional[Tuple[int, memoryview]]:
        """Read one frame if available: (kind, zero-copy payload view)."""
        pending = self._pending_advance
        r = self._r
        if pending:
            r += pending
            self._r = r
            self._pending_advance = 0
            self._hdr[1] = r
        buf = self._buf
        cap = self._cap
        hdr = self._hdr
        while True:
            if hdr[0] <= r:
                return None
            pos = r % cap
            tail = cap - pos
            if tail < _FRAME_OVERHEAD:
                r = self._r = r + tail
                hdr[1] = r
                continue
            base = HEADER_BYTES + pos
            length, kind = _LENKIND.unpack_from(buf, base)
            if length == _PAD:
                r = self._r = r + tail
                hdr[1] = r
                continue
            need = _FRAME_OVERHEAD + length
            # Consumed space is released on the *next* read so the
            # returned view stays valid meanwhile.
            self._pending_advance = need
            self.bytes_read += need
            self.frames_read += 1
            return kind, buf[base + 5:base + need]

    def read(
        self,
        peer_alive: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, memoryview]:
        """Blocking read; RingClosed when the producer is gone and empty."""
        while True:
            frame = self.try_read()
            if frame is not None:
                return frame
            if self.producer_closed and not self._has_data():
                raise RingClosed("producer closed the ring")
            self._block_until(
                self._has_data, peer_alive, timeout, check_producer=True
            )

    # -- waiting ---------------------------------------------------------
    def _block_until(
        self,
        cond: Callable[[], bool],
        peer_alive: Optional[Callable[[], bool]],
        timeout: Optional[float],
        check_producer: bool = False,
    ) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        next_liveness = time.monotonic() + 0.05
        while not cond():
            if check_producer and self.producer_closed and not self._has_data():
                raise RingClosed("producer closed the ring")
            spins += 1
            if spins < 50:
                # Brief politeness window: the peer usually answers
                # within a scheduling quantum on a loaded box.
                time.sleep(0)
            else:
                time.sleep(0.0002 if spins < 500 else 0.002)
            now = time.monotonic()
            if now >= next_liveness:
                next_liveness = now + 0.05
                if peer_alive is not None and not peer_alive():
                    if cond():
                        return
                    raise RingClosed("ring peer died")
                if deadline is not None and now >= deadline:
                    raise RingTimeout("ring operation timed out")

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Detach from the shared block (both sides call this)."""
        self._release()
        self._hdr.release()
        self._buf.release()
        if self._shm is not None:
            self._shm.close()

    def unlink(self) -> None:
        """Remove the shared block (creator only, after close)."""
        if self._shm is not None:
            self._shm.unlink()


# ----------------------------------------------------------------------
# Delivery envelope + control frames
# ----------------------------------------------------------------------
#: Cross-shard delivery envelope: deliver_time (f64), destination
#: address (i64), per-origin sequence number (u64), origin shard (u8).
#: The (time, origin, seq) triple is the deterministic delivery sort
#: key -- per-origin capture order under an origin-first tie-break is
#: exactly PR 8's (time, origin, global capture order).
ENVELOPE = struct.Struct("!dqQB")

OP_ISSUE = 1
OP_WINDOW = 2
OP_FINISH = 3
OP_STOP = 4

_ISSUE = struct.Struct("!BdIId")      # op, wave_time, lo, hi, fold_time
_WINDOW_HEAD = struct.Struct("!BdI")  # op, w_end, n_spill; then owed u32s
_FINISH = struct.Struct("!Bd")        # op, cut_time
_STOP = struct.Struct("!B")
_OWED = struct.Struct("!I")

# has_next flag, next_time, unresolved, max_end, n_shards; then one
# summary per destination shard: frames written to its data ring this
# reply, total captured deliveries (ring + spill), min delivery time.
_STATE_HEAD = struct.Struct("!BdIdB")
_SUMMARY = struct.Struct("!IId")


def encode_issue(wave_time: float, lo: int, hi: int, fold_time: float) -> bytes:
    return _ISSUE.pack(OP_ISSUE, wave_time, lo, hi, fold_time)


def encode_window(w_end: float, n_spill: int, owed: Sequence[int]) -> bytes:
    parts = [_WINDOW_HEAD.pack(OP_WINDOW, w_end, n_spill)]
    parts.extend(_OWED.pack(n) for n in owed)
    return b"".join(parts)


def encode_finish(cut_time: float) -> bytes:
    return _FINISH.pack(OP_FINISH, cut_time)


def encode_stop() -> bytes:
    return _STOP.pack(OP_STOP)


def decode_ctrl(payload) -> tuple:
    """Parse a K_CTRL payload into the runner's request-tuple shape."""
    if len(payload) < 1:
        raise CodecError("empty control frame")
    op = payload[0]
    if op == OP_ISSUE:
        if len(payload) != _ISSUE.size:
            raise CodecError("malformed issue frame")
        _, wave_time, lo, hi, fold_time = _ISSUE.unpack_from(payload, 0)
        return ("issue", wave_time, lo, hi, fold_time)
    if op == OP_WINDOW:
        if len(payload) < _WINDOW_HEAD.size:
            raise CodecError("malformed window frame")
        _, w_end, n_spill = _WINDOW_HEAD.unpack_from(payload, 0)
        owed = []
        off = _WINDOW_HEAD.size
        if len(payload) - off < 0 or (len(payload) - off) % _OWED.size:
            raise CodecError("malformed window owed-counts")
        while off < len(payload):
            owed.append(_OWED.unpack_from(payload, off)[0])
            off += _OWED.size
        return ("window", w_end, n_spill, owed)
    if op == OP_FINISH:
        if len(payload) != _FINISH.size:
            raise CodecError("malformed finish frame")
        return ("finish", _FINISH.unpack_from(payload, 0)[1])
    if op == OP_STOP:
        return ("stop",)
    raise CodecError(f"unknown control opcode {op}")


def encode_state(
    next_time: Optional[float],
    unresolved: int,
    max_end: float,
    summaries: Sequence[Sequence],
) -> bytes:
    parts = [_STATE_HEAD.pack(
        1 if next_time is not None else 0,
        next_time if next_time is not None else 0.0,
        unresolved,
        max_end,
        len(summaries),
    )]
    for ring_frames, total, min_time in summaries:
        parts.append(_SUMMARY.pack(ring_frames, total, min_time))
    return b"".join(parts)


def decode_state(payload) -> Tuple[Optional[float], int, float, List[Tuple[int, int, float]]]:
    if len(payload) < _STATE_HEAD.size:
        raise CodecError("malformed state frame")
    has_next, next_time, unresolved, max_end, n = _STATE_HEAD.unpack_from(payload, 0)
    if len(payload) != _STATE_HEAD.size + n * _SUMMARY.size:
        raise CodecError("malformed state summaries")
    summaries = []
    off = _STATE_HEAD.size
    for _ in range(n):
        summaries.append(_SUMMARY.unpack_from(payload, off))
        off += _SUMMARY.size
    return (next_time if has_next else None, unresolved, max_end, summaries)


class ShardFrameCodec:
    """Encodes cross-shard deliveries for the rings.

    Wraps the runtime's :func:`default_codec` (compiled per-class
    struct layouts) behind the delivery envelope; a message the codec
    cannot carry raises :class:`CodecError`.
    """

    __slots__ = ("_encode", "_decode")

    def __init__(self, codec: Optional[MessageCodec] = None) -> None:
        codec = codec if codec is not None else default_codec()
        self._encode = codec.encode  # bound once: hot-path calls
        self._decode = codec.decode

    def encode_delivery(
        self,
        deliver_time: float,
        dst_address: int,
        seq: int,
        origin_shard: int,
        msg,
        _pack=ENVELOPE.pack,
    ) -> Tuple[int, bytes]:
        head = _pack(deliver_time, dst_address, seq, origin_shard)
        return K_MSG, head + self._encode(msg)

    def decode_delivery(
        self, kind: int, payload, _unpack=ENVELOPE.unpack_from,
        _env_size=ENVELOPE.size,
    ) -> Tuple[float, int, int, int, object]:
        """Inverse of :meth:`encode_delivery`; raises CodecError on any
        malformed or truncated input (never a silent misparse)."""
        if kind != K_MSG:
            raise CodecError(f"not a delivery frame kind: {kind}")
        view = payload if isinstance(payload, memoryview) else memoryview(payload)
        if len(view) < _env_size:
            raise CodecError("truncated delivery envelope")
        deliver_time, dst_address, seq, origin = _unpack(view, 0)
        return deliver_time, dst_address, seq, origin, self._decode(view[_env_size:])

    @staticmethod
    def peek_destination(payload) -> int:
        """Destination address from an envelope, without decoding."""
        if len(payload) < ENVELOPE.size:
            raise CodecError("truncated delivery envelope")
        return ENVELOPE.unpack_from(payload, 0)[1]


# ----------------------------------------------------------------------
# Worker-side protocol endpoint
# ----------------------------------------------------------------------
class WorkerEndpoint:
    """One worker's view of the shm transport.

    Owns the worker's control ring pair and its row/column of the data
    ring matrix; translates between the runner's request/reply tuples
    and ring frames.  The per-origin sequence counter lives here --
    monotone over the whole run, so the (time, origin, seq) delivery
    key is stable across windows.
    """

    def __init__(
        self,
        shard_index: int,
        n_shards: int,
        ctrl_in: SpscRing,
        ctrl_out: SpscRing,
        rings_in: Dict[int, SpscRing],
        rings_out: Dict[int, SpscRing],
        peer_alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._ctrl_in = ctrl_in
        self._ctrl_out = ctrl_out
        self._rings_in = rings_in
        self._rings_out = rings_out
        self._alive = peer_alive
        self._codec = ShardFrameCodec()
        self._seq = 0
        self.spilled_frames = 0

    # -- inbound ---------------------------------------------------------
    def recv_request(self) -> tuple:
        kind, view = self._ctrl_in.read(peer_alive=self._alive)
        if kind != K_CTRL:
            raise RingError(f"unexpected frame kind {kind} on control ring")
        req = decode_ctrl(view)
        if req[0] != "window":
            return req
        _, w_end, n_spill, owed = req
        spills = []
        for _ in range(n_spill):
            k, v = self._ctrl_in.read(peer_alive=self._alive)
            spills.append((k, bytes(v)))
        return ("window", w_end, owed, spills)

    def drain_inbox(
        self, owed: Sequence[int], spills: Sequence[Tuple[int, bytes]]
    ) -> List[Tuple[float, int, object]]:
        """Consume exactly the frames the coordinator accounted for.

        The owed counts come from state replies the coordinator has
        already collected, so every counted frame is fully published --
        the reads below never wait.  Draining by count (instead of
        "whatever is there") is what keeps the window contents exact
        while other workers are concurrently writing *next*-round
        frames into the same rings.
        """
        decode = self._codec.decode_delivery
        entries = []
        for origin, ring in self._rings_in.items():
            for _ in range(owed[origin]):
                kind, view = ring.read(peer_alive=self._alive)
                t, dst, seq, org, msg = decode(kind, view)
                entries.append((t, org, seq, dst, msg))
        for kind, payload in spills:
            t, dst, seq, org, msg = decode(kind, payload)
            entries.append((t, org, seq, dst, msg))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        return [(e[0], e[3], e[4]) for e in entries]

    # -- outbound --------------------------------------------------------
    def send_state(self, state: dict) -> None:
        """Distribute the captured outbox to data rings; reply K_STATE."""
        summaries = [[0, 0, math.inf] for _ in range(self.n_shards)]
        spill = []
        encode = self._codec.encode_delivery
        me = self.shard_index
        for deliver_time, dst_shard, dst_address, msg in state["outbox"]:
            kind, frame = encode(deliver_time, dst_address, self._seq, me, msg)
            self._seq += 1
            s = summaries[dst_shard]
            s[1] += 1
            if deliver_time < s[2]:
                s[2] = deliver_time
            if self._rings_out[dst_shard].try_write(kind, frame):
                s[0] += 1
            else:
                spill.append((kind, frame))
        for kind, frame in spill:
            self._ctrl_out.write(kind, frame, peer_alive=self._alive)
        self.spilled_frames += len(spill)
        self._ctrl_out.write(
            K_STATE,
            encode_state(
                state["next_time"], state["unresolved"], state["max_end"],
                summaries,
            ),
            peer_alive=self._alive,
        )

    def send_blob(self, obj) -> None:
        """Stream one pickled object in chunks (finish export)."""
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        off = 0
        while len(blob) - off > _BLOB_CHUNK:
            self._ctrl_out.write(
                K_BLOBC, blob[off:off + _BLOB_CHUNK], peer_alive=self._alive
            )
            off += _BLOB_CHUNK
        self._ctrl_out.write(K_BLOB, blob[off:], peer_alive=self._alive)

    def send_error(self, text: str) -> None:
        try:
            self._ctrl_out.write(K_ERR, text.encode(), peer_alive=self._alive)
        except RingError:  # pragma: no cover - coordinator already gone
            pass

    # -- accounting / lifecycle -----------------------------------------
    def counters(self) -> Dict[str, int]:
        data_out = list(self._rings_out.values())
        data_in = list(self._rings_in.values())
        return {
            "data_bytes_out": sum(r.bytes_written for r in data_out),
            "data_frames_out": sum(r.frames_written for r in data_out),
            "data_bytes_in": sum(r.bytes_read for r in data_in),
            "data_frames_in": sum(r.frames_read for r in data_in),
            "ctrl_bytes_out": self._ctrl_out.bytes_written,
            "ctrl_bytes_in": self._ctrl_in.bytes_read,
            "spilled_frames": self.spilled_frames,
        }

    def close(self) -> None:
        for ring in self._rings_out.values():
            ring.close_producer()
        self._ctrl_out.close_producer()
