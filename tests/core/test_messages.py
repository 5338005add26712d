"""Unit tests for the four message types and their control-bit accounting."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import (
    CONTROL_BITS_PER_MESSAGE,
    WIRE_CODES,
    ProceedMessage,
    ReadMessage,
    WriteMessage,
    _value_data_bits,
    bits_needed_for_types,
    make_write_message,
    message_type_count,
)
from repro.transport.codec_binary import make_codec, schema_signature


class TestWriteMessage:
    def test_bit_must_be_binary(self):
        WriteMessage(bit=0, value="v")
        WriteMessage(bit=1, value="v")
        with pytest.raises(ValueError):
            WriteMessage(bit=2, value="v")
        with pytest.raises(ValueError):
            WriteMessage(bit=-1, value="v")

    def test_type_name_follows_bit(self):
        assert WriteMessage(bit=0, value="x").type_name == "WRITE0"
        assert WriteMessage(bit=1, value="x").type_name == "WRITE1"

    def test_control_bits_is_always_two(self):
        for bit in (0, 1):
            for value in ("v", 123456789, b"blob" * 100, None):
                assert WriteMessage(bit=bit, value=value).control_bits() == 2

    def test_data_bits_scale_with_value_size(self):
        small = WriteMessage(bit=0, value="a")
        large = WriteMessage(bit=0, value="a" * 100)
        assert small.data_bits() == 8
        assert large.data_bits() == 800

    def test_data_bits_for_various_types(self):
        assert WriteMessage(bit=0, value=None).data_bits() == 0
        assert WriteMessage(bit=0, value=True).data_bits() == 1
        assert WriteMessage(bit=0, value=255).data_bits() == 8
        assert WriteMessage(bit=0, value=3.14).data_bits() == 64
        assert WriteMessage(bit=0, value=b"ab").data_bits() == 16
        assert WriteMessage(bit=0, value=["x"]).data_bits() > 0

    def test_wire_codes_distinct_and_two_bits(self):
        assert WriteMessage(bit=0, value="v").wire_code() == WIRE_CODES["WRITE0"]
        assert WriteMessage(bit=1, value="v").wire_code() == WIRE_CODES["WRITE1"]

    def test_repr(self):
        assert repr(WriteMessage(bit=1, value="v3")) == "WRITE1('v3')"

    def test_messages_are_immutable(self):
        message = WriteMessage(bit=0, value="v")
        with pytest.raises(AttributeError):
            message.bit = 1


#: One strategy per branch of ``_value_data_bits``: none, bool, int, float,
#: str, bytes, and "anything else" (priced by its repr).
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.binary(),
    st.lists(st.integers(), max_size=4),
    st.tuples(st.text(max_size=3), st.integers()),
)


class TestPricedWhenBuilt:
    """``price`` is what the accessors say, computed once, and nothing else sees it."""

    @given(bit=st.integers(min_value=0, max_value=1), value=_VALUES)
    def test_price_is_what_the_accessors_answer(self, bit, value):
        message = WriteMessage(bit=bit, value=value)
        assert message.price == (message.type_name, message.control_bits(), message.data_bits())
        assert message.price == (f"WRITE{bit}", 2, _value_data_bits(value))

    @given(bit=st.integers(min_value=0, max_value=1), value=_VALUES)
    def test_equality_hash_and_repr_ignore_it(self, bit, value):
        message, twin = WriteMessage(bit=bit, value=value), WriteMessage(bit=bit, value=value)
        assert message == twin and repr(message) == f"WRITE{bit}({value!r})"
        if value.__hash__ is not None:
            assert hash(message) == hash((bit, value))
        # Tamper with one twin's price: still the same message.
        object.__setattr__(twin, "price", ("WRITE?", 99, 99))
        assert message == twin and repr(message) == repr(twin)

    def test_it_is_not_a_dataclass_field(self):
        assert [f.name for f in dataclasses.fields(WriteMessage)] == ["bit", "value"]
        assert dataclasses.asdict(WriteMessage(bit=1, value="v")) == {"bit": 1, "value": "v"}
        with pytest.raises(AttributeError):
            WriteMessage(bit=1, value="v").price = ("WRITE1", 2, 0)  # frozen all the same

    def test_copies_are_priced_like_the_original(self):
        message = WriteMessage(bit=0, value="abc")
        assert dataclasses.replace(message, bit=1).price == ("WRITE1", 2, 24)
        assert pickle.loads(pickle.dumps(message)).price == message.price

    def test_the_wire_does_not_carry_it(self):
        """Both codecs enumerate fields: frames are byte for byte what they
        were before messages were priced, and the negotiated schema moved
        only when a *field* was added (``ConsAux.cand``, the command a
        vouching AUX carries: ``c3ff413c69f61967`` before it)."""
        assert schema_signature() == "4e1a3659a3317053"
        frames = {
            ("binary", 1, "v1"): "01000205056b303030311a0000000105027631",
            ("binary", 0, 12345): "01000205056b303030311a0000000003f2c001",
            ("binary", 1, None): "01000205056b303030311a0000000100",
            ("json", 1, "v1"): (
                b'{"kind":"msg","key":"k0001","src":0,"dst":2,'
                b'"msg":{"type":"WriteMessage","fields":{"bit":1,"value":"v1"}}}'
            ).hex(),
        }
        for (codec_name, bit, value), expected in frames.items():
            codec = make_codec(codec_name)
            message = WriteMessage(bit=bit, value=value)
            body = codec.encode({"kind": "msg", "key": "k0001", "src": 0, "dst": 2, "msg": message})
            assert body.hex() == expected
            decoded = codec.decode(body)["msg"]
            assert decoded == message and decoded.price == message.price


class TestControlOnlyMessages:
    def test_read_message(self):
        message = ReadMessage()
        assert message.type_name == "READ"
        assert message.control_bits() == 2
        assert message.data_bits() == 0
        assert repr(message) == "READ()"

    def test_proceed_message(self):
        message = ProceedMessage()
        assert message.type_name == "PROCEED"
        assert message.control_bits() == 2
        assert message.data_bits() == 0
        assert repr(message) == "PROCEED()"

    def test_control_only_messages_compare_equal(self):
        assert ReadMessage() == ReadMessage()
        assert ProceedMessage() == ProceedMessage()


class TestHeadlineClaim:
    """Theorem 2: four message types, two control bits, only WRITEs carry data."""

    def test_exactly_four_types(self):
        assert message_type_count() == 4
        assert len(set(WIRE_CODES.values())) == 4

    def test_two_bits_suffice_for_four_types(self):
        assert bits_needed_for_types(4) == 2
        assert CONTROL_BITS_PER_MESSAGE == 2

    def test_all_wire_codes_fit_in_two_bits(self):
        assert all(0 <= code < 4 for code in WIRE_CODES.values())

    def test_bits_needed_for_types_edge_cases(self):
        assert bits_needed_for_types(1) == 1
        assert bits_needed_for_types(2) == 1
        assert bits_needed_for_types(3) == 2
        assert bits_needed_for_types(5) == 3
        with pytest.raises(ValueError):
            bits_needed_for_types(0)


class TestMakeWriteMessage:
    def test_parity_follows_sequence_number(self):
        assert make_write_message(1, "v1").bit == 1
        assert make_write_message(2, "v2").bit == 0
        assert make_write_message(3, "v3").bit == 1
        assert make_write_message(100, "v100").bit == 0

    def test_sequence_number_must_be_positive(self):
        with pytest.raises(ValueError):
            make_write_message(0, "v0")
        with pytest.raises(ValueError):
            make_write_message(-1, "oops")

    def test_value_is_carried_unchanged(self):
        payload = {"nested": ["structure", 1]}
        assert make_write_message(1, payload).value is payload
