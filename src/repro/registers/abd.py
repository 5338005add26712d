"""The ABD baseline: Attiya–Bar-Noy–Dolev SWMR atomic register (unbounded seqnums).

This is the first column of Table 1 ("ABD95 unbounded seq. nb"): the classic
quorum-based construction from

    H. Attiya, A. Bar-Noy, D. Dolev, *Sharing memory robustly in message
    passing systems*, JACM 42(1), 1995.

Write (writer ``p_w``):
    1. increment the sequence number ``seq``;
    2. send ``WRITE(seq, v)`` to all other processes;
    3. wait for acknowledgements until a majority (``n - t`` processes,
       including itself) stores ``(seq, v)``;
    ⇒ 2 communication steps (2Δ), ``2(n-1)`` messages — O(n).

Read (any process):
    1. *query phase*: ask all processes for their current ``(seq, value)``
       pair, wait for ``n - t`` answers, keep the pair with the largest
       sequence number;
    2. *write-back phase*: send the chosen pair to all processes and wait for
       ``n - t`` acknowledgements (this is what rules out new/old read
       inversions);
    ⇒ 4 communication steps (4Δ), ``4(n-1)`` messages — O(n).

The price relative to the paper's algorithm is the **unbounded control
information**: every ``WRITE``, reply and write-back carries a sequence
number that grows with the number of writes, so message size is unbounded
(Table 1, line 3).  The message classes below price their control bits
accordingly so the Table-1 harness can *measure* the growth.

Both phases of both operations run on the shared quorum phase engine
(:mod:`repro.quorum`): each phase is one ``start_phase`` broadcast/collect
call, and reply handling routes through the engine's stale-phase guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.quorum.aggregators import HIGHEST_PAIR
from repro.quorum.engine import PhaseRegisterProcess
from repro.registers.base import OperationRecord, RegisterAlgorithm
from repro.registers.costmodels import Price, int_bits, value_bits

#: Number of distinct message types used by this ABD implementation.
ABD_MESSAGE_TYPES = 6
#: Bits needed to encode the message type alone.
ABD_TYPE_BITS = 3


@dataclass(frozen=True)
class AbdWrite:
    """Writer → replicas: store ``value`` under sequence number ``seq``."""

    seq: int
    value: Any

    @property
    def price(self) -> Price:
        return "ABD_WRITE", ABD_TYPE_BITS + int_bits(self.seq), value_bits(self.value)


@dataclass(frozen=True)
class AbdWriteAck:
    """Replica → writer: acknowledged the write with sequence number ``seq``."""

    seq: int

    @property
    def price(self) -> Price:
        return "ABD_WRITE_ACK", ABD_TYPE_BITS + int_bits(self.seq), 0


@dataclass(frozen=True)
class AbdReadQuery:
    """Reader → replicas: send me your current (seq, value) pair (request #``rsn``)."""

    rsn: int

    @property
    def price(self) -> Price:
        return "ABD_READ_QUERY", ABD_TYPE_BITS + int_bits(self.rsn), 0


@dataclass(frozen=True)
class AbdReadReply:
    """Replica → reader: my current pair is ``(seq, value)`` (answer to request #``rsn``)."""

    rsn: int
    seq: int
    value: Any

    @property
    def price(self) -> Price:
        control = ABD_TYPE_BITS + int_bits(self.rsn) + int_bits(self.seq)
        return "ABD_READ_REPLY", control, value_bits(self.value)


@dataclass(frozen=True)
class AbdWriteBack:
    """Reader → replicas: adopt ``(seq, value)`` before I return it (request #``rsn``)."""

    rsn: int
    seq: int
    value: Any

    @property
    def price(self) -> Price:
        control = ABD_TYPE_BITS + int_bits(self.rsn) + int_bits(self.seq)
        return "ABD_WRITE_BACK", control, value_bits(self.value)


@dataclass(frozen=True)
class AbdWriteBackAck:
    """Replica → reader: acknowledged the write-back of request #``rsn``."""

    rsn: int

    @property
    def price(self) -> Price:
        return "ABD_WRITE_BACK_ACK", ABD_TYPE_BITS + int_bits(self.rsn), 0


class AbdRegisterProcess(PhaseRegisterProcess):
    """One process of the ABD SWMR register (replica + optional writer/reader roles).

    Phase slots: ``"write"`` (ack quorum), ``"read"`` (query quorum, kept
    open through the write-back so late replies land exactly as before the
    engine port), ``"writeback"`` (write-back ack quorum).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Replica state: the highest (seq, value) pair seen so far.
        self.seq = 0
        self.value = self.initial_value
        # Writer state.
        self.write_seq = 0
        # Reader state.
        self.read_rsn = 0

    # ------------------------------------------------------------ replica core

    def _adopt(self, seq: int, value: Any) -> None:
        """Adopt ``(seq, value)`` if it is newer than the local pair."""
        if seq > self.seq:
            self.seq = seq
            self.value = value

    # ---------------------------------------------------------------- write

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        self.write_seq += 1
        seq = self.write_seq
        self._adopt(seq, record.value)

        def finish(_phase) -> None:
            self.close_phases("write")
            done()

        self.start_phase(
            "write",
            tag=seq,
            message=AbdWrite(seq, record.value),
            self_reply=None,
            on_quorum=finish,
            label=("ABD write#%d ack quorum", seq),
        )

    # ----------------------------------------------------------------- read

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        self.read_rsn += 1
        rsn = self.read_rsn

        def start_write_back(query_phase) -> None:
            best_seq, best_value = query_phase.result()
            self._adopt(best_seq, best_value)

            def finish(_phase) -> None:
                self.close_phases("read", "writeback")
                done(best_value)

            self.start_phase(
                "writeback",
                tag=rsn,
                message=AbdWriteBack(rsn, best_seq, best_value),
                self_reply=None,
                on_quorum=finish,
                label=("ABD read#%d write-back quorum", rsn),
            )

        self.start_phase(
            "read",
            tag=rsn,
            message=AbdReadQuery(rsn),
            aggregator=HIGHEST_PAIR,
            self_reply=(self.seq, self.value),
            on_quorum=start_write_back,
            label=("ABD read#%d query quorum", rsn),
        )

    # -------------------------------------------------------------- handlers

    def on_message(self, src: int, message: Any) -> None:
        # A handler runs only on a live process, and a reply is its last
        # step: it goes straight to the network.
        cls = message.__class__
        if cls is AbdWrite:
            self._adopt(message.seq, message.value)
            self.network.send(self.pid, src, AbdWriteAck(message.seq))
        elif cls is AbdWriteAck:
            self.phase_reply("write", src, None, message.seq)
        elif cls is AbdReadQuery:
            self.network.send(self.pid, src, AbdReadReply(message.rsn, self.seq, self.value))
        elif cls is AbdReadReply:
            self.phase_reply("read", src, (message.seq, message.value), message.rsn)
        elif cls is AbdWriteBack:
            self._adopt(message.seq, message.value)
            self.network.send(self.pid, src, AbdWriteBackAck(message.rsn))
        elif cls is AbdWriteBackAck:
            self.phase_reply("writeback", src, None, message.rsn)
        else:
            raise TypeError(f"p{self.pid} received unknown ABD message {message!r} from p{src}")

    # ------------------------------------------------------------- inspection

    def local_memory_words(self) -> int:
        """ABD keeps a constant number of words plus an unbounded sequence number.

        We count words: the (seq, value) pair, the writer/reader counters and
        the transient quorum sets (bounded by ``n``).
        """
        return 4 + self.phase_words("write", "read", "writeback")


#: Factory registered under the name ``"abd"``.
ABD_ALGORITHM = RegisterAlgorithm(
    name="abd",
    description="ABD 1995, unbounded sequence numbers carried by messages",
    process_factory=AbdRegisterProcess,
    supports_multi_writer=False,
    bounded_control_bits=False,
)
