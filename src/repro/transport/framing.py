"""Length-prefixed framing, write batching and transport accounting.

One frame = a 4-byte big-endian unsigned length followed by that many body
bytes.  The body is UTF-8 JSON during the connection handshake (inspectable
with ``tcpdump``/``nc``, refuses by construction to smuggle arbitrary Python
objects between cluster processes); after the handshake it is whatever the
wire codec produces (see :mod:`repro.transport.codec_binary`).
The length prefix makes message boundaries explicit on a byte stream, which
TCP does not provide.

Three consumption styles:

* :class:`FrameDecoder` — an incremental push parser (feed bytes, pull
  frames) usable without asyncio.  It keeps one compacting ``bytearray``
  with an offset cursor, so feeding a megabyte chunk holding thousands of
  frames costs one append plus one deferred compaction — not one
  ``del buf[:end]`` memmove per frame (quadratic on large chunks).
* :func:`read_frame` / :func:`write_frame` — asyncio stream helpers used
  for the JSON handshake and by tests.
* :class:`BatchWriter` — a per-connection writer task draining a shared
  buffer, so frames enqueued in the same event-loop breath coalesce into
  one ``write()``/``drain()`` pair (the live plane's mirror of the sim
  plane's same-instant message coalescing, DESIGN §7).

Every byte that crosses a connection can be billed to a
:class:`TransportStats` counter; the live backend surfaces those counters
in metrics snapshots (bytes/frames/batches in and out).
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Union

#: Frame header: one 4-byte big-endian unsigned length.
HEADER = struct.Struct(">I")

#: Hard cap on a single frame (16 MiB).  A register message is a few hundred
#: bytes; anything near the cap is a corrupted stream or a hostile peer, and
#: failing fast beats buffering unbounded garbage.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Compact the decoder buffer once this many consumed bytes sit before the
#: cursor.  One memmove per ~64 KiB consumed, amortised O(1) per byte.
_COMPACT_THRESHOLD = 64 * 1024

#: Default micro-batch flush deadline for :class:`BatchWriter`, in seconds.
#: ``0.0`` coalesces everything enqueued in the same event-loop breath (the
#: writer task only runs between turns) while adding no latency to the
#: protocol's sequential hop chain; a positive deadline buys larger batches
#: under open-loop trickle traffic at that much added latency per hop — it
#: measurably *hurts* closed-loop throughput, where same-key operations
#: serialize on the hop chain, so 0 is the default and callers opt in.
FLUSH_DEADLINE = 0.0

_Bytes = Union[bytes, bytearray, memoryview]


class FramingError(ValueError):
    """Raised on an oversized or malformed frame."""


def encode_frame(payload: Any) -> bytes:
    """Encode ``payload`` as one length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(f"frame of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}")
    return HEADER.pack(len(body)) + body


def _parse_json_body(body: _Bytes) -> Any:
    try:
        return json.loads(bytes(body).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FramingError(f"malformed frame body: {exc}") from exc


class FrameDecoder:
    """Incremental frame parser: ``feed`` bytes in, pull complete frames out.

    ``raw=False`` (default) parses each body as JSON — the handshake wire
    and what the historical unit tests exercise.  ``raw=True`` returns the
    body ``bytes`` untouched, for connections past their handshake (the
    caller decodes).

    Internally the decoder appends into one ``bytearray`` and walks it with
    an offset cursor over a ``memoryview``; consumed prefixes are compacted
    away in one move once they pass :data:`_COMPACT_THRESHOLD` (or when the
    buffer empties), never per frame.
    """

    __slots__ = ("_buffer", "_offset", "_raw")

    def __init__(self, raw: bool = False) -> None:
        self._buffer = bytearray()
        self._offset = 0
        self._raw = raw

    def feed(self, data: _Bytes) -> List[Any]:
        """Append ``data``; return every frame completed by it (possibly none)."""
        self._buffer += data
        frames: List[Any] = []
        buffer = self._buffer
        offset = self._offset
        total = len(buffer)
        view = memoryview(buffer)
        try:
            while total - offset >= HEADER.size:
                (length,) = HEADER.unpack_from(buffer, offset)
                if length > MAX_FRAME_BYTES:
                    raise FramingError(
                        f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}"
                    )
                end = offset + HEADER.size + length
                if total < end:
                    break
                body = bytes(view[offset + HEADER.size : end])
                offset = end
                frames.append(body if self._raw else _parse_json_body(body))
        finally:
            # Release the view before any compaction: resizing a bytearray
            # with an exported buffer raises BufferError.
            view.release()
            self._offset = offset
            if offset and (offset == len(buffer) or offset >= _COMPACT_THRESHOLD):
                del buffer[:offset]
                self._offset = 0
        return frames

    @property
    def buffered_bytes(self) -> int:
        """Bytes waiting for the rest of their frame."""
        return len(self._buffer) - self._offset


@dataclass
class TransportStats:
    """Per-connection byte/frame/batch counters (both directions).

    A *batch* on the way out is one ``write()``/``drain()`` flush of the
    :class:`BatchWriter`; on the way in it is one ``reader.read()`` chunk.
    ``frames_out / batches_out`` is therefore the mean frames coalesced per
    syscall — the number the write-batching layer exists to raise.
    ``frames_dropped`` is where a torn link shows: frames handed to a writer
    after its flush failed (or after it was closed), which went nowhere.
    """

    bytes_in: int = 0
    frames_in: int = 0
    batches_in: int = 0
    bytes_out: int = 0
    frames_out: int = 0
    batches_out: int = 0
    frames_dropped: int = 0

    def note_chunk_in(self, nbytes: int) -> None:
        self.bytes_in += nbytes
        self.batches_in += 1

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, int]) -> "TransportStats":
        return TransportStats(**{f.name: int(data.get(f.name, 0)) for f in fields(TransportStats)})


class BatchWriter:
    """Per-connection writer task: concurrent sends coalesce per flush.

    ``send(body)`` frames ``body`` (header + payload appended straight into
    a shared ``bytearray`` — no per-frame ``bytes`` concatenation) and wakes
    the drain task; the drain task swaps the buffer out and issues **one**
    ``writer.write()`` + ``drain()`` for everything accumulated since the
    last flush.  Frames enqueued while a flush's ``drain()`` awaits pile
    into the next flush, so batch size adapts to backpressure by itself.

    ``flush_delay`` bounds how long a lone frame may sit before its flush:
    ``0.0`` flushes on the next event-loop turn (minimum latency, still
    coalescing same-breath sends); a positive deadline micro-batches
    trickle traffic at the cost of that much latency.

    A flush that fails (``ConnectionError``: the link is torn) closes the
    writer: what was pending is released and counted in
    ``stats.frames_dropped``, as is every later ``send`` — nothing is
    buffered for a drain task that will never run again.  ``send`` does not
    raise; what a torn link means for the run is the caller's decision.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        stats: Optional[TransportStats] = None,
        flush_delay: float = FLUSH_DEADLINE,
    ) -> None:
        self._writer = writer
        self.stats = stats if stats is not None else TransportStats()
        self._flush_delay = flush_delay
        self._buffer = bytearray()
        self._pending_frames = 0
        self._wake = asyncio.Event()
        self._closing = False
        self._task: Optional[asyncio.Task] = None

    def start(self) -> "BatchWriter":
        """Spawn the drain task (must run inside the owning event loop)."""
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())
        return self

    def send(self, body: _Bytes) -> None:
        """Enqueue one frame for the next flush (never blocks)."""
        if self._closing:
            self.stats.frames_dropped += 1
            return
        if len(body) > MAX_FRAME_BYTES:
            raise FramingError(f"frame of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}")
        buffer = self._buffer
        buffer += HEADER.pack(len(body))
        buffer += body
        self._pending_frames += 1
        self._wake.set()

    @property
    def pending_bytes(self) -> int:
        """Bytes framed but not yet flushed."""
        return len(self._buffer)

    async def _run(self) -> None:
        try:
            while True:
                await self._wake.wait()
                if self._flush_delay > 0 and not self._closing:
                    # Bounded micro-batch window: let same-deadline sends pile up.
                    await asyncio.sleep(self._flush_delay)
                self._wake.clear()
                await self._flush()
                if self._closing and not self._buffer:
                    return
        except ConnectionError:
            self._closing = True
            self.stats.frames_dropped += self._pending_frames
            self._buffer = bytearray()
            self._pending_frames = 0

    async def _flush(self) -> None:
        if self._buffer:
            buffer = self._buffer
            frames = self._pending_frames
            self._buffer = bytearray()
            self._pending_frames = 0
            self._writer.write(buffer)
            self.stats.bytes_out += len(buffer)
            self.stats.frames_out += frames
            self.stats.batches_out += 1
        await self._writer.drain()

    async def aclose(self) -> None:
        """Flush everything pending, then stop the drain task."""
        self._closing = True
        self._wake.set()
        if self._task is not None:
            try:
                await asyncio.wait_for(asyncio.shield(self._task), timeout=5.0)
            except (asyncio.TimeoutError, ConnectionError, asyncio.CancelledError):
                # Timeout/broken pipe — or teardown cancelled *us* (event-loop
                # shutdown cancels every task, the drain task included, and a
                # cancelled shield re-raises here).  Either way: stop draining.
                self._task.cancel()
            except Exception:
                pass
        elif self._buffer:
            try:
                await self._flush()
            except ConnectionError:
                pass


async def read_frame_raw(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame body as raw bytes; ``None`` on clean EOF at a boundary."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:  # clean EOF between frames
            return None
        raise FramingError("connection closed mid-header") from exc
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FramingError("connection closed mid-frame") from exc


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one JSON frame; ``None`` on clean EOF at a frame boundary."""
    body = await read_frame_raw(reader)
    if body is None:
        return None
    return _parse_json_body(body)


def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Buffer one JSON frame on ``writer`` (callers drain at their own cadence)."""
    writer.write(encode_frame(payload))
