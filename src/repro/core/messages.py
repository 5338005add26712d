"""The four message types of the two-bit algorithm.

The whole point of the paper is that the *only* control information a message
carries is its type, and four types fit in two bits:

==============  ==========  ==================================================
wire encoding   type        carries a data value?
==============  ==========  ==================================================
``00``          WRITE0      yes — the written value ``v`` (data, not control)
``01``          WRITE1      yes — the written value ``v``
``10``          READ        no
``11``          PROCEED     no
==============  ==========  ==================================================

``WRITE0(v)`` and ``WRITE1(v)`` are written ``WRITE(b, v)`` in the paper; the
single bit ``b`` is the parity of the value's (locally reconstructed) sequence
number and is what makes the per-pair alternating-bit pattern work.  No
sequence number is ever transmitted.

The classes below expose ``control_bits()`` / ``data_bits()`` consumed by the
network accounting layer (:class:`repro.sim.network.NetworkStats`) so the
Table-1 "message size (bits)" row can be *measured* rather than asserted.
Where the answer cannot depend on the instance — the control bits of every
type, the data bits of the field-less ones — the accessor is a
``staticmethod``, which the accounting layer reads once per class.  A
``WRITE(b, v)`` is immutable and travels O(n²) hops as the same object (line
15 forwards the message it received), so it is priced once, when it is built
(:attr:`WriteMessage.price`), not once per hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

#: Number of control bits per message for this algorithm — the headline claim.
CONTROL_BITS_PER_MESSAGE = 2

#: Wire encodings (two bits each); used only for accounting/pretty-printing.
WIRE_CODES = {
    "WRITE0": 0b00,
    "WRITE1": 0b01,
    "READ": 0b10,
    "PROCEED": 0b11,
}

#: ``WRITE(b, v)``'s wire type, indexed by the parity bit ``b``.
_WRITE_TYPE_NAMES = ("WRITE0", "WRITE1")


def _value_data_bits(value: Any) -> int:
    """Size in bits of the *data* payload of a written value.

    Data bits are reported separately from control bits: the paper's claim
    concerns control information only (a register for 64-bit values still
    needs 64 data bits per WRITE message, under any algorithm).
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length())
    if isinstance(value, float):
        return 64
    if isinstance(value, (str, bytes)):
        return 8 * len(value)
    # Fallback: a conservative structural estimate based on the repr.
    return 8 * len(repr(value))


@dataclass(frozen=True)
class WriteMessage:
    """``WRITE(b, v)`` — i.e. ``WRITE0(v)`` when ``b == 0``, ``WRITE1(v)`` when ``b == 1``.

    Attributes
    ----------
    bit:
        The alternating parity bit (``sequence number mod 2``), *not* a
        sequence number.
    value:
        The written data value.
    price:
        ``(wire type, control bits, data bits)``, computed when the message
        is built and read by the accounting layer at every hop.  A plain
        attribute, **not** a dataclass field: equality, hash, ``repr`` and
        the wire codecs (which enumerate fields) ignore it.
    """

    bit: int
    value: Any

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"WRITE parity bit must be 0 or 1, got {self.bit}")
        price = (_WRITE_TYPE_NAMES[self.bit], CONTROL_BITS_PER_MESSAGE, _value_data_bits(self.value))
        object.__setattr__(self, "price", price)

    @property
    def type_name(self) -> str:
        """``"WRITE0"`` or ``"WRITE1"`` — the wire type."""
        return self.price[0]

    @staticmethod
    def control_bits() -> int:
        """Control information on the wire: just the 2-bit type."""
        return CONTROL_BITS_PER_MESSAGE

    def data_bits(self) -> int:
        """Data payload size (the written value)."""
        return self.price[2]

    def wire_code(self) -> int:
        """The 2-bit wire encoding of this message's type."""
        return WIRE_CODES[self.type_name]

    def __repr__(self) -> str:
        return f"WRITE{self.bit}({self.value!r})"


@dataclass(frozen=True)
class ReadMessage:
    """``READ()`` — a read request; carries nothing but its type.

    Having no fields, every instance is interchangeable; the algorithm sends
    the shared :data:`READ`.
    """

    type_name = "READ"

    @staticmethod
    def control_bits() -> int:
        return CONTROL_BITS_PER_MESSAGE

    @staticmethod
    def data_bits() -> int:
        return 0

    def wire_code(self) -> int:
        return WIRE_CODES["READ"]

    def __repr__(self) -> str:
        return "READ()"


@dataclass(frozen=True)
class ProceedMessage:
    """``PROCEED()`` — "your history is fresh enough"; carries nothing but its type.

    Having no fields, every instance is interchangeable; the algorithm sends
    the shared :data:`PROCEED`.
    """

    type_name = "PROCEED"

    @staticmethod
    def control_bits() -> int:
        return CONTROL_BITS_PER_MESSAGE

    @staticmethod
    def data_bits() -> int:
        return 0

    def wire_code(self) -> int:
        return WIRE_CODES["PROCEED"]

    def __repr__(self) -> str:
        return "PROCEED()"


#: The one ``READ()`` and the one ``PROCEED()`` (immutable: frozen, field-less).
READ = ReadMessage()
PROCEED = ProceedMessage()


def make_write_message(sequence_number: int, value: Any) -> WriteMessage:
    """Build the ``WRITE(b, v)`` message for the value with local sequence number ``sequence_number``.

    The parity bit is ``sequence_number mod 2`` exactly as in lines 1 and 14
    of the pseudocode.
    """
    if sequence_number < 1:
        raise ValueError(
            f"written values have sequence numbers >= 1 (v0 is the initial value), "
            f"got {sequence_number}"
        )
    return WriteMessage(bit=sequence_number % 2, value=value)


def message_type_count() -> int:
    """Number of distinct message types the algorithm uses (Theorem 2: four)."""
    return len(WIRE_CODES)


def bits_needed_for_types(num_types: int) -> int:
    """Minimum number of bits needed to encode ``num_types`` distinct message types."""
    if num_types < 1:
        raise ValueError("need at least one message type")
    if num_types == 1:
        return 1
    return math.ceil(math.log2(num_types))
