"""Unit tests for the live transport's framing, batching and accounting."""

import asyncio
import json
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
    encode_frame,
)


class TestEncodeFrame:
    def test_roundtrip_through_decoder(self):
        payload = {"kind": "msg", "src": 1, "dst": 2, "fields": {"value": "v1", "ts": [3, 1]}}
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(payload))
        assert frames == [payload]
        assert decoder.buffered_bytes == 0

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"a": 1})
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == len(frame) - HEADER.size
        assert json.loads(frame[HEADER.size :].decode("utf-8")) == {"a": 1}

    def test_non_finite_payloads_are_rejected(self):
        # The wire is strict JSON; bare Infinity would not be.
        with pytest.raises(ValueError):
            encode_frame({"x": float("inf")})


class TestFrameDecoder:
    def test_partial_feeds_accumulate_until_complete(self):
        frame = encode_frame({"kind": "invoke", "op_id": 7})
        decoder = FrameDecoder()
        # Byte-at-a-time delivery: nothing until the very last byte.
        for byte in frame[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.feed(frame[-1:]) == [{"kind": "invoke", "op_id": 7}]

    def test_multiple_frames_in_one_feed(self):
        data = encode_frame({"n": 1}) + encode_frame({"n": 2}) + encode_frame({"n": 3})
        assert FrameDecoder().feed(data) == [{"n": 1}, {"n": 2}, {"n": 3}]

    def test_frame_boundary_split_mid_header(self):
        first = encode_frame({"n": 1})
        second = encode_frame({"n": 2})
        decoder = FrameDecoder()
        # First frame plus 2 bytes of the second frame's header.
        assert decoder.feed(first + second[:2]) == [{"n": 1}]
        assert decoder.buffered_bytes == 2
        assert decoder.feed(second[2:]) == [{"n": 2}]

    def test_oversized_frame_rejected_from_header_alone(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FramingError, match="exceeds cap"):
            FrameDecoder().feed(header)

    def test_malformed_json_body_raises(self):
        body = b"not json {"
        data = struct.pack(">I", len(body)) + body
        with pytest.raises(FramingError, match="malformed"):
            FrameDecoder().feed(data)


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
        decoder = FrameDecoder(raw=True)
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
        decoder = FrameDecoder(raw=True)
        header = HEADER.pack(MAX_FRAME_BYTES + 1)
        for byte in header[:-1]:
            assert decoder.feed(bytes([byte])) == []
        with pytest.raises(FramingError, match="exceeds cap"):
            decoder.feed(header[-1:])

    def test_byte_wise_feed_across_the_compaction_threshold(self):
        # Enough small frames to push the consumed prefix well past the
        # 64 KiB compaction threshold, delivered one byte at a time.
        payloads = [{"n": n, "pad": "x" * 80} for n in range(800)]
        stream = b"".join(encode_frame(p) for p in payloads)
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

    def test_raw_mode_returns_untouched_bodies(self):
        body = b"\x00\x01binary\xff"
        frame = HEADER.pack(len(body)) + body
        assert FrameDecoder(raw=True).feed(frame) == [body]


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
        decoder = FrameDecoder(raw=True)
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
    def test_dict_roundtrip(self):
        stats = TransportStats(bytes_in=10, frames_in=2, batches_in=1,
                               bytes_out=30, frames_out=4, batches_out=2, frames_dropped=3)
        assert stats.as_dict()["frames_dropped"] == 3
        assert TransportStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_missing_keys(self):
        assert TransportStats.from_dict({"bytes_in": 5}) == TransportStats(bytes_in=5)

    def test_note_chunk_in_bills_bytes_and_batches(self):
        stats = TransportStats()
        stats.note_chunk_in(100)
        stats.note_chunk_in(40)
        assert stats.bytes_in == 140 and stats.batches_in == 2
        assert stats.frames_in == 0  # frames are billed by the decoder loop
