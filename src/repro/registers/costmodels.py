"""Analytic cost models behind Table 1.

Table 1 of the paper compares four algorithms along six axes.  For the two
algorithms implemented in this repository (the two-bit algorithm and ABD with
unbounded sequence numbers) the benchmark harness *measures* the quantities;
for the two bounded-control-information baselines the paper itself quotes the
analytic values from the literature ([1] Attiya 2000 and [19] Ruppert 2008),
and so do we.  This module encodes all four columns analytically so that:

* the harness can print "paper value" next to "measured value";
* the bounded columns can be regenerated without an executable implementation
  of bounded timestamp systems (see DESIGN.md §5 — substitutions).

Each model exposes the six rows of the table as methods parameterised by
``n`` (number of processes) and, where relevant, by the number of writes
``w`` (the unbounded quantities grow with ``w``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Sentinel used for "grows without bound" entries of the table.
UNBOUNDED = math.inf


# ----------------------------------------------------- wire-size bit helpers
#
# Every message class in the repository states its ``price`` — ``(wire type,
# control bits, data bits)``, what the network accounting bills — and sizes
# its fields with these two helpers.  The message-size row of Table 1 is only
# as trustworthy as this accounting, so it is defined (and unit-tested)
# exactly once.

#: A message's ``price``: ``(wire type, control bits, data bits)``.
Price = Tuple[str, int, int]


def int_bits(value: int) -> int:
    """Bits needed to represent the magnitude of an integer (at least 1).

    ``int.bit_length`` ignores the sign, so negative integers are priced by
    their magnitude; 0 and ±1 cost one bit (a field of width zero cannot be
    decoded).
    """
    return int(value).bit_length() or 1


def value_bits(value: object) -> int:
    """Data-payload size of a register value, in bits.

    The data bits of every message's ``price``: ``None`` (the "no value"
    marker) is free, booleans cost one bit, integers their magnitude's
    width, floats a 64-bit word, strings/bytes 8 bits per element, and
    anything else the width of its ``repr`` (a deliberate over-approximation
    — exotic payloads should never look cheap).  They are billed apart from
    the control bits: the paper's claim concerns control information only (a
    register of 64-bit values ships 64 data bits per ``WRITE`` under any
    algorithm).
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return int_bits(abs(value))
    if isinstance(value, float):
        return 64
    if isinstance(value, (str, bytes)):
        return 8 * len(value)
    return 8 * len(repr(value))


@dataclass(frozen=True)
class ComplexityEntry:
    """One cell of Table 1: an asymptotic label plus an evaluable function.

    ``formula`` renders the cell the way the paper prints it (e.g. ``"O(n^2)"``
    or ``"2 Delta"``); ``evaluate(n, writes)`` returns a concrete number used
    for plotting/sanity-checking the measured values (``math.inf`` for
    unbounded entries).
    """

    formula: str
    evaluate: Callable[[int, int], float]

    def value(self, n: int, writes: int = 1) -> float:
        """Evaluate the entry for a concrete system size / write count."""
        return self.evaluate(n, writes)


@dataclass(frozen=True)
class AlgorithmCostModel:
    """The six Table-1 rows for one algorithm."""

    name: str
    display_name: str
    write_messages: ComplexityEntry
    read_messages: ComplexityEntry
    message_size_bits: ComplexityEntry
    local_memory: ComplexityEntry
    write_time_delta: ComplexityEntry
    read_time_delta: ComplexityEntry
    executable: bool = False

    def row(self, metric: str) -> ComplexityEntry:
        """Look up a row by its Table-1 name."""
        mapping = {
            "write_messages": self.write_messages,
            "read_messages": self.read_messages,
            "message_size_bits": self.message_size_bits,
            "local_memory": self.local_memory,
            "write_time_delta": self.write_time_delta,
            "read_time_delta": self.read_time_delta,
        }
        if metric not in mapping:
            raise KeyError(f"unknown Table 1 metric {metric!r}")
        return mapping[metric]


def _const(value: float, formula: Optional[str] = None) -> ComplexityEntry:
    return ComplexityEntry(
        formula=formula if formula is not None else str(value),
        evaluate=lambda n, writes: value,
    )


def _linear_n(coefficient: float = 1.0, formula: str = "O(n)") -> ComplexityEntry:
    return ComplexityEntry(formula=formula, evaluate=lambda n, writes: coefficient * n)


def _poly_n(power: int, formula: Optional[str] = None) -> ComplexityEntry:
    return ComplexityEntry(
        formula=formula if formula is not None else f"O(n^{power})",
        evaluate=lambda n, writes: float(n**power),
    )


def _unbounded(formula: str = "unbounded") -> ComplexityEntry:
    return ComplexityEntry(formula=formula, evaluate=lambda n, writes: UNBOUNDED)


#: ABD 1995, the variant carrying unbounded sequence numbers (Table 1 column 1).
ABD_UNBOUNDED_MODEL = AlgorithmCostModel(
    name="abd",
    display_name="ABD95 (unbounded seq. nb)",
    write_messages=ComplexityEntry("O(n)", lambda n, w: 2.0 * (n - 1)),
    read_messages=ComplexityEntry("O(n)", lambda n, w: 4.0 * (n - 1)),
    # Sequence numbers grow with the number of writes: log2(w) control bits.
    message_size_bits=ComplexityEntry(
        "unbounded", lambda n, w: UNBOUNDED if w <= 0 else float(max(1, math.ceil(math.log2(w + 1))))
    ),
    local_memory=_unbounded(),
    write_time_delta=_const(2.0, "2 Delta"),
    read_time_delta=_const(4.0, "4 Delta"),
    executable=True,
)

#: ABD 1995, the bounded-sequence-number variant (Table 1 column 2; values from [1, 19]).
ABD_BOUNDED_MODEL = AlgorithmCostModel(
    name="abd-bounded",
    display_name="ABD95 (bounded seq. nb)",
    write_messages=_poly_n(2),
    read_messages=_poly_n(2),
    message_size_bits=_poly_n(5),
    local_memory=_poly_n(6),
    write_time_delta=_const(12.0, "12 Delta"),
    read_time_delta=_const(12.0, "12 Delta"),
    executable=False,
)

#: H. Attiya's 2000 algorithm (Table 1 column 3; values from [1, 19]).
ATTIYA_MODEL = AlgorithmCostModel(
    name="attiya",
    display_name="H. Attiya's algorithm [1]",
    write_messages=_linear_n(),
    read_messages=_linear_n(),
    message_size_bits=_poly_n(3),
    local_memory=_poly_n(5),
    write_time_delta=_const(14.0, "14 Delta"),
    read_time_delta=_const(18.0, "18 Delta"),
    executable=False,
)

#: The paper's algorithm (Table 1 column 4).
TWO_BIT_MODEL = AlgorithmCostModel(
    name="two-bit",
    display_name="Proposed algorithm (two-bit)",
    # Theorem 2: a write generates (n-1) messages from the writer and then each
    # process forwards the value once to each process => O(n^2); exactly at
    # most n(n-1) WRITE messages per written value.
    write_messages=ComplexityEntry("O(n^2)", lambda n, w: float(n * (n - 1))),
    # Theorem 2: a read generates (n-1) READ messages and (n-1) PROCEED replies.
    read_messages=ComplexityEntry("O(n)", lambda n, w: 2.0 * (n - 1)),
    message_size_bits=_const(2.0, "2"),
    local_memory=_unbounded(),
    write_time_delta=_const(2.0, "2 Delta"),
    read_time_delta=_const(4.0, "4 Delta"),
    executable=True,
)

#: The four Table-1 columns, in the paper's left-to-right order.
TABLE1_MODELS = [ABD_UNBOUNDED_MODEL, ABD_BOUNDED_MODEL, ATTIYA_MODEL, TWO_BIT_MODEL]

#: Table-1 row labels, in the paper's top-to-bottom order.
TABLE1_METRICS = [
    ("write_messages", "#msgs: write"),
    ("read_messages", "#msgs: read"),
    ("message_size_bits", "msg size (bits)"),
    ("local_memory", "local memory"),
    ("write_time_delta", "Time: write"),
    ("read_time_delta", "Time: read"),
]

