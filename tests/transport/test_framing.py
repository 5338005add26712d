"""Unit tests for the live transport's framing, batching and accounting.

A frame is a 4-byte big-endian length and that many body bytes; the decoder
hands bodies back untouched (the wire codec decodes them), so these tests
frame arbitrary bytes.
"""

import asyncio
import struct

import pytest

from repro.transport.framing import (
    _COMPACT_THRESHOLD,
    HEADER,
    MAX_FRAME_BYTES,
    BatchWriter,
    FrameDecoder,
    FramingError,
    TransportStats,
)


def frame(body: bytes) -> bytes:
    return HEADER.pack(len(body)) + body


class TestFrameLayout:
    def test_roundtrip_through_decoder(self):
        body = b"\x01\x02msg from p1 to p2"
        decoder = FrameDecoder()
        assert decoder.feed(frame(body)) == [body]
        assert decoder.buffered_bytes == 0

    def test_header_is_big_endian_length(self):
        data = frame(b"abc")
        assert data[: HEADER.size] == b"\x00\x00\x00\x03"
        (length,) = HEADER.unpack(data[: HEADER.size])
        assert length == len(data) - HEADER.size

    def test_only_raw_bodies_are_decoded(self):
        assert FrameDecoder(raw=True).feed(frame(b"x")) == [b"x"]
        with pytest.raises(ValueError, match="raw"):
            FrameDecoder(raw=False)


class TestFrameDecoder:
    def test_partial_feeds_accumulate_until_complete(self):
        data = frame(b"invoke op 7")
        decoder = FrameDecoder()
        # Byte-at-a-time delivery: nothing until the very last byte.
        for byte in data[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.feed(data[-1:]) == [b"invoke op 7"]

    def test_multiple_frames_in_one_feed(self):
        data = frame(b"1") + frame(b"22") + frame(b"")
        assert FrameDecoder().feed(data) == [b"1", b"22", b""]

    def test_frame_boundary_split_mid_header(self):
        first = frame(b"n1")
        second = frame(b"n2")
        decoder = FrameDecoder()
        # First frame plus 2 bytes of the second frame's header.
        assert decoder.feed(first + second[:2]) == [b"n1"]
        assert decoder.buffered_bytes == 2
        assert decoder.feed(second[2:]) == [b"n2"]

    def test_oversized_frame_rejected_from_header_alone(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FramingError, match="exceeds cap"):
            FrameDecoder().feed(header)

    def test_bodies_come_back_untouched(self):
        body = b"\x00\x01binary\xff not json {"
        assert FrameDecoder().feed(frame(body)) == [body]


class TestFrameDecoderScaleBounds:
    """Regression: the decoder's compacting-bytearray cursor at its bounds.

    An earlier draft compacted the buffer once per *frame* (``del buf[:end]``
    — a memmove of everything behind the cursor), which is quadratic when a
    large feed carries many frames and pathological when bytes dribble in
    one at a time.  These tests pin the fixed behaviour: byte-granularity
    feeding works at the 16 MiB frame cap, and sustained byte-wise traffic
    crossing the 64 KiB compaction threshold keeps the buffer bounded.
    """

    def test_16mib_frame_accepted_at_exactly_the_cap(self):
        body = bytes(MAX_FRAME_BYTES)  # exactly at the cap: must pass
        decoder = FrameDecoder()
        # Header delivered one byte at a time (worst-case fragmentation).
        for byte in HEADER.pack(len(body)):
            assert decoder.feed(bytes([byte])) == []
        # Body in 1 MiB chunks, holding back the very last byte.
        chunk = 1024 * 1024
        for start in range(0, len(body) - 1, chunk):
            assert decoder.feed(body[start : min(start + chunk, len(body) - 1)]) == []
        assert decoder.buffered_bytes == HEADER.size + len(body) - 1
        frames = decoder.feed(b"\x00")  # the final byte completes the frame
        assert len(frames) == 1 and len(frames[0]) == MAX_FRAME_BYTES
        assert decoder.buffered_bytes == 0

    def test_one_past_the_cap_rejected_on_the_last_header_byte(self):
        decoder = FrameDecoder()
        header = HEADER.pack(MAX_FRAME_BYTES + 1)
        for byte in header[:-1]:
            assert decoder.feed(bytes([byte])) == []
        with pytest.raises(FramingError, match="exceeds cap"):
            decoder.feed(header[-1:])

    def test_byte_wise_feed_across_the_compaction_threshold(self):
        # Enough small frames to push the consumed prefix well past the
        # 64 KiB compaction threshold, delivered one byte at a time.
        payloads = [b"%d:" % n + b"x" * 80 for n in range(800)]
        stream = b"".join(frame(p) for p in payloads)
        assert len(stream) > _COMPACT_THRESHOLD
        decoder = FrameDecoder()
        out = []
        for index in range(len(stream)):
            out.extend(decoder.feed(stream[index : index + 1]))
            # The compaction contract: consumed bytes never pile up past
            # the threshold plus one in-flight frame.
            assert len(decoder._buffer) <= _COMPACT_THRESHOLD + 200
        assert out == payloads
        assert decoder.buffered_bytes == 0


class _FakeStreamWriter:
    """Captures write() calls; drain() is a no-op coroutine."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass


class TestBatchWriter:
    def _decode_all(self, writes):
        decoder = FrameDecoder()
        frames = []
        for chunk in writes:
            frames.extend(decoder.feed(chunk))
        return frames

    def test_same_breath_sends_coalesce_into_one_write(self):
        async def scenario():
            fake = _FakeStreamWriter()
            writer = BatchWriter(fake).start()
            bodies = [b"frame-%d" % n for n in range(5)]
            for body in bodies:
                writer.send(body)
            assert writer.pending_bytes > 0
            await writer.aclose()
            return fake, writer, bodies

        fake, writer, bodies = asyncio.run(scenario())
        # All five frames flushed by one write()/drain() pair.
        assert len(fake.writes) == 1
        assert self._decode_all(fake.writes) == bodies
        assert writer.stats.frames_out == 5
        assert writer.stats.batches_out == 1
        assert writer.stats.bytes_out == sum(len(c) for c in fake.writes)

    def test_sends_in_separate_turns_flush_separately(self):
        """Trickle traffic pays no batching latency: a lone frame goes out on
        the next event-loop turn, not when a batch fills."""

        async def scenario():
            fake = _FakeStreamWriter()
            writer = BatchWriter(fake).start()
            for n in range(3):
                writer.send(b"frame-%d" % n)
                while writer.pending_bytes:
                    await asyncio.sleep(0)
            await writer.aclose()
            return fake, writer

        fake, writer = asyncio.run(asyncio.wait_for(scenario(), timeout=5.0))
        assert len(fake.writes) == 3
        assert writer.stats.frames_out == 3
        assert writer.stats.batches_out == 3

    def test_oversized_frame_rejected_before_buffering(self):
        async def scenario():
            writer = BatchWriter(_FakeStreamWriter()).start()
            with pytest.raises(FramingError, match="exceeds cap"):
                writer.send(b"\x00" * (MAX_FRAME_BYTES + 1))
            assert writer.pending_bytes == 0
            await writer.aclose()

        asyncio.run(scenario())

    def test_sends_after_close_are_dropped_not_raised(self):
        async def scenario():
            fake = _FakeStreamWriter()
            writer = BatchWriter(fake).start()
            writer.send(b"before")
            await writer.aclose()
            writer.send(b"after")
            return fake, writer

        fake, writer = asyncio.run(scenario())
        assert self._decode_all(fake.writes) == [b"before"]
        assert writer.stats.frames_out == 1 and writer.stats.frames_dropped == 1

    def test_a_torn_flush_closes_the_writer(self):
        """Regression: ``_run`` used to return on ``ConnectionError`` without
        closing the writer, so every later ``send`` grew a buffer that nothing
        would ever drain.  A real socket pair; the peer closes mid-stream."""

        async def scenario():
            async def hang_up(reader, peer):
                await reader.read(1)
                peer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _reader, stream = await asyncio.open_connection("127.0.0.1", port)
            writer = BatchWriter(stream).start()
            sent = 0
            async with server:
                while not writer.stats.frames_dropped:  # until a flush met the torn link
                    writer.send(b"x" * 1024)
                    sent += 1
                    await asyncio.sleep(0)
                for _ in range(10_000):
                    writer.send(b"x" * 1024)
                sent += 10_000
                pending = writer.pending_bytes
                await writer.aclose()  # the drain task is gone: returns at once
                stream.close()
            return writer.stats, sent, pending

        stats, sent, pending = asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))
        assert pending == 0
        assert stats.frames_dropped >= 10_000
        assert stats.frames_out + stats.frames_dropped == sent


class TestTransportStats:
    def test_note_chunk_in_bills_bytes_and_batches(self):
        stats = TransportStats()
        stats.note_chunk_in(100)
        stats.note_chunk_in(40)
        assert stats.bytes_in == 140 and stats.batches_in == 2
        assert stats.frames_in == 0  # frames are billed by the decoder loop
