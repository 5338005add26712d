"""Unit tests for the live transport's message codec registry."""

import json
from dataclasses import dataclass

import pytest

from repro.registers import abd, abd_mwmr, bounded
from repro.transport.codec import (
    CodecError,
    decode_message,
    encode_message,
    register_message_type,
    _REGISTRY,
)


def wire_roundtrip(message):
    """Encode, push through actual JSON (list-ifying tuples), decode."""
    return decode_message(json.loads(json.dumps(encode_message(message))))


class TestBuiltinRegistrations:
    def test_every_protocol_family_is_registered(self):
        names = sorted(_REGISTRY)
        assert "WriteMessage" in names  # two-bit core
        assert "AbdWrite" in names and "AbdReadReply" in names
        assert "ModWrite" in names and "ModWriteBack" in names
        assert "MwAbdTsReply" in names and "MwAbdWriteBack" in names

    def test_abd_roundtrip(self):
        msg = abd.AbdWrite(seq=42, value="v7")
        assert wire_roundtrip(msg) == msg

    def test_mwmr_timestamp_tuples_survive_json(self):
        # JSON turns tuples into lists; the registered field decoder must
        # restore them because the protocol orders timestamps as tuples.
        msg = abd_mwmr.MwAbdWrite(wsn=3, ts=(5, 2), value="x")
        decoded = wire_roundtrip(msg)
        assert decoded == msg
        assert isinstance(decoded.ts, tuple)
        assert decoded.ts < (5, 3) and decoded.ts > (5, 1)

    def test_bounded_roundtrip(self):
        msg = bounded.ModReadReply(rsn_mod=1, seq_mod=0, value="v")
        assert wire_roundtrip(msg) == msg


class TestStrictness:
    def test_encoding_unregistered_class_raises(self):
        @dataclass(frozen=True)
        class NotRegistered:
            x: int

        with pytest.raises(CodecError, match="not registered"):
            encode_message(NotRegistered(x=1))

    def test_decoding_unknown_type_raises(self):
        with pytest.raises(CodecError, match="unknown wire message type"):
            decode_message({"type": "NoSuchMessage", "fields": {}})

    def test_registering_non_dataclass_raises(self):
        class Plain:
            pass

        with pytest.raises(CodecError, match="not a dataclass"):
            register_message_type(Plain)

    def test_name_collision_raises(self):
        @dataclass(frozen=True)
        class AbdWrite:  # shadows the registered repro.registers.abd.AbdWrite
            x: int

        with pytest.raises(CodecError, match="collision"):
            register_message_type(AbdWrite)

    def test_reregistering_same_class_is_idempotent(self):
        register_message_type(abd.AbdWrite)  # no error, registry unchanged
        assert wire_roundtrip(abd.AbdWrite(seq=1, value="v")) == abd.AbdWrite(seq=1, value="v")
