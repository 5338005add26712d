"""Struct-packed binary wire codec for the live transport.

The JSON codec (:mod:`repro.transport.codec`) spends most of a live run's
CPU inside ``json.dumps``/``json.loads`` re-describing the same 23 register
message shapes.  This module packs those shapes natively:

* every registered message class gets a one-byte **tag** (its index in the
  sorted registry snapshot taken at import time);
* fixed ``int`` fields pack as big-endian 32-bit words via one precompiled
  :class:`struct.Struct` per class — one C call for the whole fixed block,
  which beats per-field varints on CPU (the scarce resource on loopback);
* MWMR ``Timestamp`` fields join the same fixed block as two 32-bit words —
  decoded straight back to the ``(seq, pid)`` tuple the protocol compares
  (a ``None`` timestamp, or an int outside ``[0, 2**32)``, drops the whole
  frame to the JSON envelope rather than mis-packing — sequence numbers are
  non-negative and a 4-billion-op register is beyond any run we drive);
* free-form values (``value`` payloads, keys) are a tag byte plus a
  varint-length payload: ``None``/``False``/``True`` are one byte, ints are
  varints, floats are 8 IEEE bytes, strings are UTF-8, and anything else
  falls back to a JSON blob so exotic values keep byte-for-byte the JSON
  codec's semantics (the property suite asserts round-trip equivalence —
  note ``1``, ``1.0`` and ``True`` stay distinct, exactly as the columnar
  value interner requires).

Envelopes wrap the live protocol's frame dicts: one **kind** byte selects a
packed layout for the three hot frame kinds (``msg``, ``invoke``,
``result``); every other frame (handshake, peers, stats, shutdown) rides as
kind 0 = a JSON blob, unchanged.  A message class registered *after* the
import-time snapshot (tests do this) simply falls back to the JSON envelope
per frame — correctness never depends on the snapshot being complete.

There is **one codec on the wire**: every connection speaks this one once
its JSON ``hello`` / ``hello_ack`` handshake has compared the two ends'
:func:`schema_signature` — a mismatch is a refusal that names both
signatures (:mod:`repro.transport.live`), never a change of codec.
:class:`JsonWireCodec` is the kind-0 envelope's body format and the
reference the property suite compares this codec against, frame for frame.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import fields
from typing import Any, Dict, List, Tuple

from repro.transport.codec import (
    CodecError,
    _REGISTRY,
    decode_message,
    encode_message,
)

__all__ = [
    "BinaryWireCodec",
    "JsonWireCodec",
    "WireCodec",
    "make_codec",
    "schema_signature",
]

# ------------------------------------------------------------------- varints

_DOUBLE = struct.Struct(">d")


def write_varint(buf: bytearray, n: int) -> None:
    """Append unsigned LEB128; ``n`` must be non-negative."""
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def write_svarint(buf: bytearray, n: int) -> None:
    """Append a signed int as zigzag LEB128."""
    write_varint(buf, (n << 1) if n >= 0 else ((-n << 1) - 1))


def _read_varint_at(buf: bytes, pos: int) -> Tuple[int, int]:
    """Read unsigned LEB128 at ``pos``; returns ``(value, new_pos)``.

    Flat function over ``(buf, pos)`` rather than a reader object: the
    decode path runs once per frame on the replica hot loop, and attribute
    bookkeeping per byte measurably shows up there.  ``IndexError`` on
    truncation is translated by the caller.
    """
    byte = buf[pos]
    pos += 1
    if byte < 0x80:  # one-byte fast path: nearly every field in practice
        return byte, pos
    result = byte & 0x7F
    shift = 7
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > 680:  # bigint guard: ~2**680 is already absurd
            raise CodecError("varint too long")


# ------------------------------------------------------------- value packing

_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT, _V_STR, _V_JSON = range(7)


def _write_value(buf: bytearray, value: Any) -> None:
    if type(value) is str:  # keys and KV values: the hot case first
        buf.append(_V_STR)
        raw = value.encode("utf-8")
        write_varint(buf, len(raw))
        buf += raw
    elif value is None:
        buf.append(_V_NONE)
    elif value is True:
        buf.append(_V_TRUE)
    elif value is False:
        buf.append(_V_FALSE)
    elif type(value) is int:
        buf.append(_V_INT)
        write_svarint(buf, value)
    elif type(value) is float:
        buf.append(_V_FLOAT)
        buf += _DOUBLE.pack(value)
    else:
        # Anything exotic rides as JSON, so its wire semantics (list/tuple
        # mangling, strict finiteness, rejection of unserializable types)
        # are byte-identical to the JSON codec's.
        buf.append(_V_JSON)
        raw = json.dumps(value, separators=(",", ":"), allow_nan=False).encode("utf-8")
        write_varint(buf, len(raw))
        buf += raw


def _read_value_at(buf: bytes, pos: int) -> Tuple[Any, int]:
    """Read one tagged value at ``pos``; returns ``(value, new_pos)``."""
    tag = buf[pos]
    pos += 1
    if tag == _V_STR:
        length, pos = _read_varint_at(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("binary frame truncated")
        return buf[pos:end].decode("utf-8"), end
    if tag == _V_NONE:
        return None, pos
    if tag == _V_INT:
        n, pos = _read_varint_at(buf, pos)
        return (n >> 1) ^ -(n & 1), pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_FLOAT:
        if pos + 8 > len(buf):
            raise CodecError("binary frame truncated")
        return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
    if tag == _V_JSON:
        length, pos = _read_varint_at(buf, pos)
        end = pos + length
        if end > len(buf):
            raise CodecError("binary frame truncated")
        return json.loads(buf[pos:end].decode("utf-8")), end
    raise CodecError(f"unknown binary value tag {tag}")


# ---------------------------------------------------------- message schemas

_F_INT, _F_TS, _F_VALUE = range(3)

#: Dataclass annotation string/type -> packed field kind.
_FIELD_KINDS = {"int": _F_INT, "Timestamp": _F_TS}


class _MessageSchema:
    """One registered class's packed layout: tag + fixed struct + value tail.

    The fixed fields (``int`` sequence numbers, ``Timestamp`` pairs) pack
    with **one** precompiled :class:`struct.Struct` call — C speed, no
    per-field Python dispatch; free-form value fields follow as tagged
    varint-length payloads.  On the wire: the fixed block first, then the
    value fields in declaration order (the plan knows how to interleave
    them back into constructor kwargs).
    """

    __slots__ = ("cls", "tag", "plan", "fixed", "fixed_names", "value_names")

    def __init__(self, cls: Any, tag: int) -> None:
        self.cls = cls
        self.tag = tag
        plan = []
        fmt = ">"
        fixed_names: List[Tuple[str, int]] = []
        value_names: List[str] = []
        for f in fields(cls):
            annotation = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
            kind = _FIELD_KINDS.get(annotation, _F_VALUE)
            plan.append((f.name, kind))
            if kind == _F_INT:
                fmt += "I"
                fixed_names.append((f.name, _F_INT))
            elif kind == _F_TS:
                fmt += "II"
                fixed_names.append((f.name, _F_TS))
            else:
                value_names.append(f.name)
        self.plan = tuple(plan)
        self.fixed = struct.Struct(fmt) if len(fmt) > 1 else None
        self.fixed_names = tuple(fixed_names)
        self.value_names = tuple(value_names)

    def describe(self) -> str:
        return f"{self.tag}:{self.cls.__name__}({','.join(f'{n}/{k}' for n, k in self.plan)})"

    def encode_into(self, buf: bytearray, message: Any) -> bool:
        """Append tag + packed fields; ``False`` when not packable as-is."""
        mark = len(buf)
        buf.append(self.tag)
        try:
            if self.fixed is not None:
                args: List[int] = []
                for name, kind in self.fixed_names:
                    value = getattr(message, name)
                    if kind == _F_INT:
                        args.append(value)
                    else:  # timestamp pair
                        args.append(value[0])
                        args.append(value[1])
                buf += self.fixed.pack(*args)
            for name in self.value_names:
                _write_value(buf, getattr(message, name))
        except (struct.error, TypeError, IndexError):
            # A None timestamp, a bool in an int slot, an out-of-range
            # bigint: rare shapes ride the JSON envelope instead.
            del buf[mark:]
            return False
        return True

    def decode_at(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        kwargs: Dict[str, Any] = {}
        fixed = self.fixed
        if fixed is not None:
            flat = fixed.unpack_from(buf, pos)  # struct.error when truncated
            pos += fixed.size
            index = 0
            for name, kind in self.fixed_names:
                if kind == _F_INT:
                    kwargs[name] = flat[index]
                    index += 1
                else:
                    kwargs[name] = (flat[index], flat[index + 1])
                    index += 2
        for name in self.value_names:
            kwargs[name], pos = _read_value_at(buf, pos)
        return self.cls(**kwargs), pos


def _build_schema() -> Tuple[Dict[str, _MessageSchema], List[_MessageSchema]]:
    """Snapshot the codec registry into a stable tag table + packed layouts.

    Taken once at import (the built-in registrations run when
    :mod:`repro.transport.codec` imports), so every process computes the
    same table from the same source tree; late registrations fall back to
    the JSON envelope rather than shifting tags out from under live peers.
    """
    by_name: Dict[str, _MessageSchema] = {}
    by_tag: List[_MessageSchema] = []
    for index, name in enumerate(sorted(_REGISTRY)):
        cls, _decoders = _REGISTRY[name]
        schema = _MessageSchema(cls, index)
        by_name[name] = schema
        by_tag.append(schema)
    return by_name, by_tag


_SCHEMAS, _BY_TAG = _build_schema()


def schema_signature() -> str:
    """Digest of the packed schema (tag order + field layouts).

    Exchanged in the handshake: an acceptor refuses a dialer whose
    signature differs, so a registry drift between versions is an error
    naming both digests instead of a mis-tagged message.
    """
    descr = ";".join(schema.describe() for schema in _BY_TAG)
    return hashlib.sha256(descr.encode("utf-8")).hexdigest()[:16]


def _encode_message_binary(buf: bytearray, message: Any) -> bool:
    """Append one packed message; ``False`` if it is not binary-packable."""
    schema = _SCHEMAS.get(type(message).__name__)
    if schema is None or type(message) is not schema.cls:
        return False  # unregistered, or a name collision with a late registration
    return schema.encode_into(buf, message)


def _decode_message_binary(buf: bytes, pos: int) -> Tuple[Any, int]:
    tag = buf[pos]
    if tag >= len(_BY_TAG):
        raise CodecError(f"unknown binary message tag {tag}")
    return _BY_TAG[tag].decode_at(buf, pos + 1)


# ------------------------------------------------------------ frame envelopes

_E_JSON, _E_MSG, _E_INVOKE, _E_RESULT = range(4)

#: One byte per operation kind in invoke frames.  Table, not a pair of
#: constants: the consensus-object kinds (cas/tas/incr) ride the same
#: envelope, and an unknown kind must fail loudly instead of silently
#: decoding as a read.
_OP_BYTES = {"read": 0, "write": 1, "cas": 2, "tas": 3, "incr": 4}
_OP_NAMES = {byte: name for name, byte in _OP_BYTES.items()}
_OP_READ, _OP_WRITE = _OP_BYTES["read"], _OP_BYTES["write"]


class WireCodec:
    """Interface: frame payload dict <-> body bytes.

    Payload dicts are the live protocol's frames, with one convention on
    both codecs: a ``{"kind": "msg", ...}`` payload carries the *live
    message object* under ``"msg"`` — the codec owns its serialization in
    both directions, so server dispatch code never sees wire dicts.
    """

    name = "?"

    def encode(self, payload: Dict[str, Any]) -> bytes:  # pragma: no cover
        raise NotImplementedError

    def decode(self, body: bytes) -> Dict[str, Any]:  # pragma: no cover
        raise NotImplementedError


class JsonWireCodec(WireCodec):
    """UTF-8 JSON bodies, registry-encoded message payloads: the binary codec's
    kind-0 envelope and the property suite's reference — not a wire of its own."""

    name = "json"

    def encode(self, payload: Dict[str, Any]) -> bytes:
        if payload.get("kind") == "msg":
            payload = dict(payload, msg=encode_message(payload["msg"]))
        return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")

    def decode(self, body: bytes) -> Dict[str, Any]:
        frame = json.loads(bytes(body).decode("utf-8"))
        if isinstance(frame, dict) and frame.get("kind") == "msg":
            frame["msg"] = decode_message(frame["msg"])
        return frame


#: Shared kind-0 envelope instance (codecs are stateless).
_JSON_CODEC = JsonWireCodec()


class BinaryWireCodec(WireCodec):
    """Struct-packed bodies for the hot frame kinds; JSON blob otherwise."""

    name = "binary"

    def encode(self, payload: Dict[str, Any]) -> bytes:
        kind = payload.get("kind")
        buf = bytearray()
        if kind == "msg":
            buf.append(_E_MSG)
            write_varint(buf, payload["src"])
            write_varint(buf, payload["dst"])
            _write_value(buf, payload["key"])
            if _encode_message_binary(buf, payload["msg"]):
                return bytes(buf)
            # Not in the import-time snapshot: whole frame rides as JSON.
            del buf[:]
        elif kind == "invoke":
            buf.append(_E_INVOKE)
            write_varint(buf, payload["op_id"])
            try:
                buf.append(_OP_BYTES[payload["op"]])
            except KeyError:
                raise CodecError(f"unknown invoke op {payload['op']!r}") from None
            _write_value(buf, payload["key"])
            _write_value(buf, payload.get("value"))
            return bytes(buf)
        elif kind == "result":
            buf.append(_E_RESULT)
            write_varint(buf, payload["op_id"])
            if payload.get("ok"):
                buf.append(1)
                _write_value(buf, payload.get("value"))
            else:
                buf.append(0)
                _write_value(buf, str(payload.get("error", "")))
            return bytes(buf)
        buf.append(_E_JSON)
        buf += _JSON_CODEC.encode(payload)
        return bytes(buf)

    def decode(self, body: bytes) -> Dict[str, Any]:
        buf = bytes(body)
        try:
            envelope = buf[0]
            if envelope == _E_MSG:
                src, pos = _read_varint_at(buf, 1)
                dst, pos = _read_varint_at(buf, pos)
                key, pos = _read_value_at(buf, pos)
                message, _pos = _decode_message_binary(buf, pos)
                return {"kind": "msg", "src": src, "dst": dst, "key": key, "msg": message}
            if envelope == _E_RESULT:
                op_id, pos = _read_varint_at(buf, 1)
                ok = buf[pos]
                value, _pos = _read_value_at(buf, pos + 1)
                if ok:
                    return {"kind": "result", "op_id": op_id, "ok": True, "value": value}
                return {"kind": "result", "op_id": op_id, "ok": False, "error": value}
            if envelope == _E_INVOKE:
                op_id, pos = _read_varint_at(buf, 1)
                try:
                    op = _OP_NAMES[buf[pos]]
                except KeyError:
                    raise CodecError(f"unknown invoke op byte {buf[pos]}") from None
                key, pos = _read_value_at(buf, pos + 1)
                value, _pos = _read_value_at(buf, pos)
                return {"kind": "invoke", "op_id": op_id, "op": op, "key": key, "value": value}
            if envelope == _E_JSON:
                return _JSON_CODEC.decode(buf[1:])
        except (IndexError, struct.error):
            raise CodecError("binary frame truncated") from None
        raise CodecError(f"unknown binary envelope kind {envelope}")


def make_codec(name: str) -> WireCodec:
    if name == "binary":
        return BinaryWireCodec()
    if name == "json":
        return JsonWireCodec()
    raise CodecError(f"unknown wire codec {name!r}")
