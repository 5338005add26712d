"""Property suite for the binary wire codec (`repro.transport.codec_binary`).

The contract under test: for every registered message class and every frame
kind, the binary codec round-trips payloads **identically to the JSON
codec** — same values, same *types* (``1``, ``1.0`` and ``True`` stay
distinct, exactly as the columnar value interner requires), with tuples
restored for ``Timestamp`` fields.  Shapes the packed layout cannot carry
(negative timestamp components like ``ZERO_TS``, ints at or past 2**32)
must fall back to the JSON envelope rather than mis-pack.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registers.abd_mwmr import ZERO_TS
from repro.transport.codec import _REGISTRY, CodecError
from repro.transport.codec_binary import (
    _E_JSON,
    BinaryWireCodec,
    JsonWireCodec,
    make_codec,
    schema_signature,
)

BINARY = BinaryWireCodec()
JSON = JsonWireCodec()

MESSAGE_NAMES = sorted(_REGISTRY)


# ------------------------------------------------------------- strategies

#: Adversarial scalars first: every member of this list compares equal to
#: some other member under ``==`` (1 == 1.0 == True, 0 == 0.0 == False)
#: but must come back with its exact type.
INTERNER_TRAPS = [1, 1.0, True, False, 0, 0.0, -0.0, "", "1", "true", None]

json_scalars = st.one_of(
    st.sampled_from(INTERNER_TRAPS),
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

#: Free-form ``value`` fields: anything JSON-native.  Tuples are excluded
#: on purpose — *both* wires JSON-mangle them to lists (asserted below),
#: so they are not round-trippable payload values.
values = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=4),
    st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
)

#: ``int`` protocol fields: mostly in the packable [0, 2**32) window, with
#: a tail past it that must ride the JSON fallback.
packable_ints = st.integers(min_value=0, max_value=2 ** 32 - 1)
int_fields = st.one_of(packable_ints, st.integers(min_value=2 ** 32, max_value=2 ** 80))

#: ``Timestamp`` fields: packable pairs plus negative/oversized components
#: (``ZERO_TS == (0, -1)`` is a real protocol value) forcing the fallback.
timestamps = st.tuples(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
)


def field_strategy(f):
    annotation = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
    if f.name == "bit":  # WriteMessage validates bit in {0, 1} at construction
        return st.sampled_from([0, 1])
    if annotation == "int":
        return int_fields
    if annotation == "Timestamp":
        return timestamps
    return values


@st.composite
def messages(draw):
    name = draw(st.sampled_from(MESSAGE_NAMES))
    cls = _REGISTRY[name][0]
    return cls(**{f.name: draw(field_strategy(f)) for f in fields(cls)})


def canonical_instance(cls):
    """One deterministic, binary-packable instance of a registered class."""
    kwargs = {}
    for f in fields(cls):
        annotation = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
        if f.name == "bit":
            kwargs[f.name] = 1
        elif f.name == "cand":  # a command, as consensus messages carry one
            kwargs[f.name] = [1, "write", "v"]
        elif annotation == "int":
            kwargs[f.name] = 7
        elif annotation == "Timestamp":
            kwargs[f.name] = (3, 1)
        else:
            kwargs[f.name] = "v"
    return cls(**kwargs)


# ---------------------------------------------------- type-aware equality


def same_value(a, b):
    """``==`` is too weak here: 1 == 1.0 == True.  Compare types too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_value(v, b[k]) for k, v in a.items())
    return a == b or (a != a and b != b)


def same_message(a, b):
    if type(a) is not type(b):
        return False
    return all(same_value(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def msg_frame(message):
    return {"kind": "msg", "src": 0, "dst": 2, "key": "key3", "msg": message}


# ------------------------------------------------------------------ tests


class TestMessageRoundTrip:
    def test_every_registered_class_roundtrips_on_both_wires(self):
        """Deterministic sweep: all 23 classes, canonical packable values, same price."""
        assert len(MESSAGE_NAMES) >= 23
        for name in MESSAGE_NAMES:
            message = canonical_instance(_REGISTRY[name][0])
            frame = msg_frame(message)
            via_binary = BINARY.decode(BINARY.encode(frame))
            via_json = JSON.decode(JSON.encode(frame))
            assert same_message(via_binary["msg"], message), name
            assert same_message(via_json["msg"], message), name
            assert via_binary["msg"].__class__ is via_json["msg"].__class__
            # A live replica bills the frames it decoded: as the sender billed them.
            assert via_binary["msg"].price == message.price, name
            assert via_json["msg"].price == message.price, name

    @settings(max_examples=200, deadline=None)
    @given(message=messages(), src=packable_ints, dst=packable_ints, key=values)
    def test_binary_roundtrip_matches_json_roundtrip(self, message, src, dst, key):
        frame = {"kind": "msg", "src": src, "dst": dst, "key": key, "msg": message}
        via_binary = BINARY.decode(BINARY.encode(frame))
        via_json = JSON.decode(JSON.encode(frame))
        for decoded in (via_binary, via_json):
            assert decoded["kind"] == "msg"
            assert decoded["src"] == src and decoded["dst"] == dst
            assert same_value(decoded["key"], key)
            assert same_message(decoded["msg"], message)
        assert same_message(via_binary["msg"], via_json["msg"])

    def test_interner_traps_survive_value_fields(self):
        """1 / 1.0 / True collide under ``==`` but not on either wire."""
        from repro.registers.abd_mwmr import MwAbdWrite

        for trap in INTERNER_TRAPS:
            frame = msg_frame(MwAbdWrite(wsn=1, ts=(2, 0), value=trap))
            for codec in (BINARY, JSON):
                decoded = codec.decode(codec.encode(frame))["msg"].value
                assert same_value(decoded, trap), (codec.name, trap, decoded)

    def test_timestamps_decode_back_to_tuples(self):
        from repro.registers.abd_mwmr import MwAbdTsReply

        decoded = BINARY.decode(BINARY.encode(msg_frame(MwAbdTsReply(wsn=4, ts=(9, 2)))))
        assert decoded["msg"].ts == (9, 2)
        assert isinstance(decoded["msg"].ts, tuple)

    def test_both_wires_mangle_tuple_values_identically(self):
        """Tuples in free-form value slots become lists — on both codecs."""
        from repro.registers.abd import AbdWrite

        frame = msg_frame(AbdWrite(seq=1, value=(1, 2)))
        assert BINARY.decode(BINARY.encode(frame))["msg"].value == [1, 2]
        assert JSON.decode(JSON.encode(frame))["msg"].value == [1, 2]


class TestJsonFallback:
    """Shapes the packed layout cannot carry ride the JSON envelope."""

    @pytest.mark.parametrize(
        "message_kwargs",
        [
            dict(ts=ZERO_TS),  # (0, -1): negative pid breaks ">II"
            dict(ts=(2 ** 32, 0)),  # seq past the 32-bit window
            dict(ts=None),  # no timestamp at all
        ],
    )
    def test_unpackable_timestamps_fall_back_and_roundtrip(self, message_kwargs):
        from repro.registers.abd_mwmr import MwAbdReadReply

        message = MwAbdReadReply(rsn=1, value="v", **message_kwargs)
        body = BINARY.encode(msg_frame(message))
        assert body[0] == _E_JSON
        decoded = BINARY.decode(body)
        assert same_message(decoded["msg"], message)
        if message.ts is not None:
            assert isinstance(decoded["msg"].ts, tuple)

    def test_oversized_int_field_falls_back(self):
        from repro.registers.abd import AbdWrite

        body = BINARY.encode(msg_frame(AbdWrite(seq=2 ** 32, value="v")))
        assert body[0] == _E_JSON
        assert BINARY.decode(body)["msg"].seq == 2 ** 32

    def test_late_registered_class_falls_back(self):
        """Classes registered after the import-time snapshot still ship."""
        from dataclasses import dataclass

        from repro.transport.codec import register_message_type

        @dataclass(frozen=True)
        class LateBinaryProbe:
            x: int

        register_message_type(LateBinaryProbe)
        body = BINARY.encode(msg_frame(LateBinaryProbe(x=5)))
        assert body[0] == _E_JSON
        assert BINARY.decode(body)["msg"] == LateBinaryProbe(x=5)

    def test_non_hot_frames_ride_json_envelope(self):
        frame = {"kind": "hello", "role": "client", "codecs": ["binary", "json"]}
        body = BINARY.encode(frame)
        assert body[0] == _E_JSON
        assert BINARY.decode(body) == frame


class TestEnvelopes:
    @settings(max_examples=100, deadline=None)
    @given(op_id=packable_ints, op=st.sampled_from(["read", "write"]), key=values, value=values)
    def test_invoke_roundtrip(self, op_id, op, key, value):
        frame = {"kind": "invoke", "op_id": op_id, "op": op, "key": key, "value": value}
        decoded = BINARY.decode(BINARY.encode(frame))
        assert decoded["kind"] == "invoke"
        assert decoded["op_id"] == op_id and decoded["op"] == op
        assert same_value(decoded["key"], key) and same_value(decoded["value"], value)

    @settings(max_examples=100, deadline=None)
    @given(op_id=packable_ints, value=values)
    def test_result_ok_roundtrip(self, op_id, value):
        frame = {"kind": "result", "op_id": op_id, "ok": True, "value": value}
        decoded = BINARY.decode(BINARY.encode(frame))
        assert decoded == {"kind": "result", "op_id": op_id, "ok": True, "value": decoded["value"]}
        assert same_value(decoded["value"], value)

    def test_result_error_roundtrip(self):
        frame = {"kind": "result", "op_id": 3, "ok": False, "error": "no quorum"}
        decoded = BINARY.decode(BINARY.encode(frame))
        assert decoded == {"kind": "result", "op_id": 3, "ok": False, "error": "no quorum"}

    def test_result_crashed_roundtrip(self):
        """A crashed replica's answer keeps its flag: the client counts it as a clean failure."""
        frame = {"kind": "result", "op_id": 4, "ok": False, "crashed": True, "error": "r2 down"}
        assert BINARY.decode(BINARY.encode(frame)) == frame
        assert JSON.decode(JSON.encode(frame)) == frame


class TestDecodeStrictness:
    def test_truncated_bodies_raise_codec_error(self):
        from repro.registers.abd_mwmr import MwAbdWrite

        bodies = [
            BINARY.encode(msg_frame(MwAbdWrite(wsn=7, ts=(5, 2), value="payload"))),
            BINARY.encode({"kind": "invoke", "op_id": 300, "op": "write",
                           "key": "key1", "value": "x" * 40}),
            BINARY.encode({"kind": "result", "op_id": 300, "ok": True, "value": 12345}),
        ]
        for body in bodies:
            for cut in range(len(body)):
                with pytest.raises(CodecError):
                    BINARY.decode(body[:cut])

    def test_unknown_envelope_kind_raises(self):
        with pytest.raises(CodecError, match="unknown binary envelope"):
            BINARY.decode(bytes([200]))

    def test_unknown_message_tag_raises(self):
        from repro.transport.codec_binary import _BY_TAG, _E_MSG, _V_NONE

        body = bytes([_E_MSG, 0, 0, _V_NONE, len(_BY_TAG)])
        with pytest.raises(CodecError, match="unknown binary message tag"):
            BINARY.decode(body)


class TestSignatureAndFactory:
    def test_signature_is_stable_and_short(self):
        sig = schema_signature()
        assert sig == schema_signature()
        assert len(sig) == 16
        int(sig, 16)  # hex digest prefix

    def test_make_codec(self):
        assert make_codec("binary").name == "binary"
        assert make_codec("json").name == "json"
        with pytest.raises(CodecError, match="unknown wire codec"):
            make_codec("zstd")
