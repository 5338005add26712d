"""Length-prefixed framing, write batching and transport accounting.

One frame = a 4-byte big-endian unsigned length followed by that many body
bytes.  On a live connection every body, the handshake's included, is what
the one wire codec produces (see :mod:`repro.transport.codec_binary`); the
handshake rides its JSON envelope.  The length prefix makes message
boundaries explicit on a byte stream, which TCP does not provide.

Two halves, one per direction:

* :class:`FrameDecoder` — an incremental push parser (feed bytes, pull
  frames) usable without asyncio.  It keeps one compacting ``bytearray``
  with an offset cursor, so feeding a megabyte chunk holding thousands of
  frames costs one append plus one deferred compaction — not one
  ``del buf[:end]`` memmove per frame (quadratic on large chunks).  It
  returns each body's bytes untouched: the wire codec decodes them.
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
import struct
from dataclasses import asdict, dataclass
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

_Bytes = Union[bytes, bytearray, memoryview]


class FramingError(ValueError):
    """Raised on an oversized or malformed frame."""


class FrameDecoder:
    """Incremental frame parser: ``feed`` bytes in, pull complete bodies out.

    Internally the decoder appends into one ``bytearray`` and walks it with
    an offset cursor over a ``memoryview``; consumed prefixes are compacted
    away in one move once they pass :data:`_COMPACT_THRESHOLD` (or when the
    buffer empties), never per frame.
    """

    __slots__ = ("_buffer", "_offset")

    def __init__(self, raw: bool = True) -> None:
        # Bodies are always raw; ``raw=True`` is accepted from callers
        # written when the decoder could also parse JSON.
        if not raw:
            raise ValueError("FrameDecoder returns raw frame bodies only")
        self._buffer = bytearray()
        self._offset = 0

    def feed(self, data: _Bytes) -> List[bytes]:
        """Append ``data``; return every body completed by it (possibly none)."""
        self._buffer += data
        frames: List[bytes] = []
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
                frames.append(bytes(view[offset + HEADER.size : end]))
                offset = end
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


class BatchWriter:
    """Per-connection writer task: concurrent sends coalesce per flush.

    ``send(body)`` frames ``body`` (header + payload appended straight into
    a shared ``bytearray`` — no per-frame ``bytes`` concatenation) and wakes
    the drain task; the drain task swaps the buffer out and issues **one**
    ``writer.write()`` + ``drain()`` for everything accumulated since the
    last flush.  Frames enqueued while a flush's ``drain()`` awaits pile
    into the next flush, so batch size adapts to backpressure by itself.

    A flush that fails (``ConnectionError``: the link is torn) closes the
    writer: what was pending is released and counted in
    ``stats.frames_dropped``, as is every later ``send`` — nothing is
    buffered for a drain task that will never run again.  ``send`` does not
    raise; what a torn link means for the run is the caller's decision.
    """

    def __init__(
        self, writer: asyncio.StreamWriter, stats: Optional[TransportStats] = None
    ) -> None:
        self._writer = writer
        self.stats = stats if stats is not None else TransportStats()
        self._buffer = bytearray()
        self._pending_frames = 0
        self._wake = asyncio.Event()
        #: Set once the stream failed or is closing: a later frame is dropped.
        self.closing = False
        self._task: Optional[asyncio.Task] = None

    def start(self) -> "BatchWriter":
        """Spawn the drain task (must run inside the owning event loop)."""
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())
        return self

    def send(self, body: _Bytes) -> None:
        """Enqueue one frame for the next flush (never blocks)."""
        if self.closing:
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
                self._wake.clear()
                await self._flush()
                if self.closing and not self._buffer:
                    return
        except ConnectionError:
            self.closing = True
            self.stats.frames_dropped += self._pending_frames
            self._buffer = bytearray()
            self._pending_frames = 0

    def write_pending(self) -> None:
        """Hand every pending frame to the transport, so to the kernel, in one ``write()``."""
        if self._buffer:
            buffer = self._buffer
            frames = self._pending_frames
            self._buffer = bytearray()
            self._pending_frames = 0
            self._writer.write(buffer)
            self.stats.bytes_out += len(buffer)
            self.stats.frames_out += frames
            self.stats.batches_out += 1

    async def _flush(self) -> None:
        self.write_pending()
        await self._writer.drain()

    async def aclose(self) -> None:
        """Flush everything pending, then stop the drain task."""
        self.closing = True
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
