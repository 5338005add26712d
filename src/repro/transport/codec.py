"""Wire codec: register-protocol messages <-> JSON-safe dicts.

Every register message in the repository is a frozen dataclass, so the
codec is a registry keyed by class name: encoding walks the dataclass
fields, decoding calls the constructor back.  Fields whose Python type JSON
cannot round-trip (the MWMR ``Timestamp`` tuples — JSON arrays come back as
lists, and the protocol compares timestamps with tuple ordering) declare a
per-field decoder at registration time.

The codec is *strict*: encoding an unregistered class or decoding an
unknown type name raises :class:`CodecError` immediately, so an algorithm
whose messages were never registered fails at the first live send with a
clear error instead of corrupting a run.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type

__all__ = ["CodecError", "decode_message", "encode_message", "register_message_type"]


class CodecError(ValueError):
    """Raised on an unregistered message class or an unknown wire type."""


#: class name -> (class, {field name -> decoder for JSON-mangled types}).
_REGISTRY: Dict[str, Tuple[Type[Any], Dict[str, Callable[[Any], Any]]]] = {}


def register_message_type(
    cls: Type[Any], field_decoders: Optional[Dict[str, Callable[[Any], Any]]] = None
) -> Type[Any]:
    """Register a frozen-dataclass message class with the wire codec.

    ``field_decoders`` maps field names to converters applied on decode
    (e.g. ``{"ts": tuple}`` to restore a timestamp tuple from a JSON array).
    Returns ``cls`` so the call can be used as a decorator.
    """
    if not is_dataclass(cls):
        raise CodecError(f"{cls.__name__} is not a dataclass; cannot register")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None and existing[0] is not cls:
        raise CodecError(f"message class name collision on {name!r}")
    _REGISTRY[name] = (cls, dict(field_decoders or {}))
    return cls


def encode_message(message: Any) -> Dict[str, Any]:
    """Encode a registered message instance to a JSON-safe dict."""
    name = type(message).__name__
    if name not in _REGISTRY:
        raise CodecError(
            f"message class {name!r} is not registered with the live-transport codec; "
            "register it with repro.transport.codec.register_message_type"
        )
    return {
        "type": name,
        "fields": {f.name: getattr(message, f.name) for f in fields(message)},
    }


def decode_message(wire: Dict[str, Any]) -> Any:
    """Decode a dict produced by :func:`encode_message` back to an instance."""
    name = wire.get("type")
    entry = _REGISTRY.get(name)
    if entry is None:
        raise CodecError(f"unknown wire message type {name!r}")
    cls, decoders = entry
    kwargs = dict(wire.get("fields", {}))
    for field_name, decoder in decoders.items():
        if field_name in kwargs and kwargs[field_name] is not None:
            kwargs[field_name] = decoder(kwargs[field_name])
    return cls(**kwargs)


def _register_builtin_messages() -> None:
    """Register every register-protocol message family shipped in-repo."""
    from repro.core import messages as core_messages
    from repro.registers import abd, abd_mwmr, bounded

    def _ts(value: Any) -> Tuple[int, int]:
        seq, pid = value
        return (seq, pid)

    for cls in (
        core_messages.WriteMessage,
        core_messages.ReadMessage,
        core_messages.ProceedMessage,
        abd.AbdWrite,
        abd.AbdWriteAck,
        abd.AbdReadQuery,
        abd.AbdReadReply,
        abd.AbdWriteBack,
        abd.AbdWriteBackAck,
        bounded.ModWrite,
        bounded.ModWriteAck,
        bounded.ModReadQuery,
        bounded.ModReadReply,
        bounded.ModWriteBack,
        bounded.ModWriteBackAck,
    ):
        register_message_type(cls)
    register_message_type(abd_mwmr.MwAbdTsQuery)
    register_message_type(abd_mwmr.MwAbdTsReply, {"ts": _ts})
    register_message_type(abd_mwmr.MwAbdWrite, {"ts": _ts})
    register_message_type(abd_mwmr.MwAbdWriteAck)
    # Consensus messages (repro.consensus).  The ``cand`` command payload is
    # deliberately a plain JSON-safe list — the binary codec's value encoding
    # does not run field decoders, so any richer type would round-trip
    # differently between the sim and the live wire.
    from repro.consensus import mmr as consensus_messages

    for cls in (
        consensus_messages.ConsEst,
        consensus_messages.ConsAux,
        consensus_messages.ConsCoin,
        consensus_messages.ConsDecide,
    ):
        register_message_type(cls)
    register_message_type(abd_mwmr.MwAbdReadQuery)
    register_message_type(abd_mwmr.MwAbdReadReply, {"ts": _ts})
    register_message_type(abd_mwmr.MwAbdWriteBack, {"ts": _ts})
    register_message_type(abd_mwmr.MwAbdWriteBackAck)


_register_builtin_messages()
