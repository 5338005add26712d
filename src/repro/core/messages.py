"""The four message types of the two-bit algorithm.

The whole point of the paper is that the *only* control information a message
carries is its type, and four types fit in two bits:

==============  ==========  ==================================================
wire encoding   type        carries a data value?
==============  ==========  ==================================================
``00``          WRITE0      yes — the written value ``v`` (data, not control);
                            ``None`` to a process that holds ``v``
``01``          WRITE1      yes — likewise
``10``          READ        no
``11``          PROCEED     no
==============  ==========  ==================================================

``WRITE0(v)`` and ``WRITE1(v)`` are written ``WRITE(b, v)`` in the paper; the
single bit ``b`` is the parity of the value's (locally reconstructed) sequence
number and is what makes the per-pair alternating-bit pattern work.  No
sequence number is ever transmitted.

Each class states its ``price`` — ``(wire type, control bits, data bits)`` —
which the network accounting layer (:class:`repro.sim.network.NetworkStats`)
bills, so the Table-1 "message size (bits)" row can be *measured* rather than
asserted.  ``READ()`` and ``PROCEED()`` carry no field, so their price is a
class attribute.  A ``WRITE(b, v)`` is immutable and travels O(n²) hops as
the same object (line 15 forwards the message it received), so it is priced
once, when it is built (:attr:`WriteMessage.price`), not once per hop.

A copy of ``WRITE(b, v)`` sent to a process that already holds ``v`` — the
writer, or the process whose ``WRITE`` a line-15 forward acknowledges —
is the *bare* ``WRITE(b, None)`` of the same bit (:attr:`WriteMessage.bare`):
the same type and control bits, no data bits.  Its receiver never reads
the value (line 13 is false at a holder; see ``docs/ALGORITHMS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.registers.costmodels import value_bits

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
    bare:
        The shared ``WRITE(b, None)`` of this message's bit: what a copy
        to a process that already holds ``value`` carries.  A plain
        attribute like ``price``; a message whose value is ``None`` is its
        own bare form.
    """

    bit: int
    value: Any

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"WRITE parity bit must be 0 or 1, got {self.bit}")
        bit, value = self.bit, self.value
        # Frozen: the two plain attributes go straight into the instance dict.
        attributes = self.__dict__
        attributes["price"] = (_WRITE_TYPE_NAMES[bit], CONTROL_BITS_PER_MESSAGE, value_bits(value))
        attributes["bare"] = self if value is None else BARE_WRITES[bit]

    def __repr__(self) -> str:
        return f"WRITE{self.bit}({self.value!r})"


@dataclass(frozen=True)
class ReadMessage:
    """``READ()`` — a read request; carries nothing but its type.

    Having no fields, every instance is interchangeable; the algorithm sends
    the shared :data:`READ`.
    """

    price = ("READ", CONTROL_BITS_PER_MESSAGE, 0)

    def __repr__(self) -> str:
        return "READ()"


@dataclass(frozen=True)
class ProceedMessage:
    """``PROCEED()`` — "your history is fresh enough"; carries nothing but its type.

    Having no fields, every instance is interchangeable; the algorithm sends
    the shared :data:`PROCEED`.
    """

    price = ("PROCEED", CONTROL_BITS_PER_MESSAGE, 0)

    def __repr__(self) -> str:
        return "PROCEED()"


#: The shared bare ``WRITE0(None)`` and ``WRITE1(None)``, indexed by the bit.
BARE_WRITES = (WriteMessage(bit=0, value=None), WriteMessage(bit=1, value=None))

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
