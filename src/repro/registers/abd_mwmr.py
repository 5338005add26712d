"""Multi-writer multi-reader extension of ABD (ablation baseline).

The paper's related-work discussion points at "ABD and its successors"; the
canonical successor is the MWMR variant in which *every* process may write.
A write first queries a majority for the highest timestamp, then imposes a
strictly larger timestamp ``(num + 1, pid)`` (lexicographic order breaks ties
by writer id).  Reads are identical to the SWMR ABD reads (query + write-back).

We include it for two reasons:

* the ablation benchmarks use it to show what the extra write round-trip
  costs (4Δ writes instead of 2Δ) — context for why the paper restricts
  itself to the SWMR case;
* it exercises the verification layer on MWMR histories (the checker must
  order concurrent writes by timestamp rather than by the single writer's
  program order).

All four phases (timestamp query, write imposition, read query, write-back)
are ``start_phase`` calls on the shared quorum engine (:mod:`repro.quorum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro.quorum.aggregators import HIGHEST_PAIR, MaxReply
from repro.quorum.engine import PhaseRegisterProcess
from repro.registers.abd import ABD_TYPE_BITS
from repro.registers.base import OperationRecord, RegisterAlgorithm
from repro.registers.costmodels import Price, int_bits, value_bits

#: A logical timestamp: (counter, writer pid); ordered lexicographically.
Timestamp = Tuple[int, int]

ZERO_TS: Timestamp = (0, -1)


def _ts_bits(ts: Timestamp) -> int:
    """Control bits of a timestamp: counter width plus writer-id width."""
    return int_bits(ts[0]) + int_bits(max(ts[1], 0) + 1)


@dataclass(frozen=True)
class MwAbdTsQuery:
    """Writer → replicas: what is your highest timestamp? (write #``wsn`` of this writer)."""

    wsn: int

    @property
    def price(self) -> Price:
        return "MWABD_TS_QUERY", ABD_TYPE_BITS + int_bits(self.wsn), 0


@dataclass(frozen=True)
class MwAbdTsReply:
    """Replica → writer: my highest timestamp is ``ts``."""

    wsn: int
    ts: Timestamp

    @property
    def price(self) -> Price:
        return "MWABD_TS_REPLY", ABD_TYPE_BITS + int_bits(self.wsn) + _ts_bits(self.ts), 0


@dataclass(frozen=True)
class MwAbdWrite:
    """Writer → replicas: store ``value`` under timestamp ``ts``."""

    wsn: int
    ts: Timestamp
    value: Any

    @property
    def price(self) -> Price:
        control = ABD_TYPE_BITS + int_bits(self.wsn) + _ts_bits(self.ts)
        return "MWABD_WRITE", control, value_bits(self.value)


@dataclass(frozen=True)
class MwAbdWriteAck:
    """Replica → writer: acknowledged write #``wsn``."""

    wsn: int

    @property
    def price(self) -> Price:
        return "MWABD_WRITE_ACK", ABD_TYPE_BITS + int_bits(self.wsn), 0


@dataclass(frozen=True)
class MwAbdReadQuery:
    """Reader → replicas: send me your (ts, value) pair (read #``rsn``)."""

    rsn: int

    @property
    def price(self) -> Price:
        return "MWABD_READ_QUERY", ABD_TYPE_BITS + int_bits(self.rsn), 0


@dataclass(frozen=True)
class MwAbdReadReply:
    """Replica → reader: my pair is ``(ts, value)``."""

    rsn: int
    ts: Timestamp
    value: Any

    @property
    def price(self) -> Price:
        control = ABD_TYPE_BITS + int_bits(self.rsn) + _ts_bits(self.ts)
        return "MWABD_READ_REPLY", control, value_bits(self.value)


@dataclass(frozen=True)
class MwAbdWriteBack:
    """Reader → replicas: adopt ``(ts, value)`` before I return it."""

    rsn: int
    ts: Timestamp
    value: Any

    @property
    def price(self) -> Price:
        control = ABD_TYPE_BITS + int_bits(self.rsn) + _ts_bits(self.ts)
        return "MWABD_WRITE_BACK", control, value_bits(self.value)


@dataclass(frozen=True)
class MwAbdWriteBackAck:
    """Replica → reader: acknowledged write-back of read #``rsn``."""

    rsn: int

    @property
    def price(self) -> Price:
        return "MWABD_WRITE_BACK_ACK", ABD_TYPE_BITS + int_bits(self.rsn), 0


class MwmrAbdRegisterProcess(PhaseRegisterProcess):
    """One process of the MWMR ABD register; any process may write.

    Phase slots: ``"ts"`` (timestamp query) and ``"write"`` (imposition ack
    quorum) for writes, ``"read"`` and ``"writeback"`` for reads.  The query
    slots stay open until the *operation* finishes — late replies keep being
    recorded exactly as the pre-engine bookkeeping did.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.ts: Timestamp = ZERO_TS
        self.value = self.initial_value
        self.wsn = 0
        self.rsn = 0

    def _check_write_permission(self) -> None:
        # MWMR: every process is allowed to write.
        return

    def _adopt(self, ts: Timestamp, value: Any) -> None:
        if ts > self.ts:
            self.ts = ts
            self.value = value

    # ---------------------------------------------------------------- write

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        self.wsn += 1
        wsn = self.wsn

        def impose_write(ts_phase) -> None:
            highest = ts_phase.result()
            new_ts: Timestamp = (highest[0] + 1, self.pid)
            self._adopt(new_ts, record.value)

            def finish(_phase) -> None:
                self.close_phases("ts", "write")
                done()

            self.start_phase(
                "write",
                tag=wsn,
                message=MwAbdWrite(wsn=wsn, ts=new_ts, value=record.value),
                self_reply=None,
                on_quorum=finish,
                label=("MWABD write#%d ack quorum", wsn),
            )

        self.start_phase(
            "ts",
            tag=wsn,
            message=MwAbdTsQuery(wsn=wsn),
            aggregator=MaxReply(),
            self_reply=self.ts,
            on_quorum=impose_write,
            label=("MWABD write#%d ts quorum", wsn),
        )

    # ----------------------------------------------------------------- read

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        self.rsn += 1
        rsn = self.rsn

        def start_write_back(query_phase) -> None:
            best_ts, best_value = query_phase.result()
            self._adopt(best_ts, best_value)

            def finish(_phase) -> None:
                self.close_phases("read", "writeback")
                done(best_value)

            self.start_phase(
                "writeback",
                tag=rsn,
                message=MwAbdWriteBack(rsn=rsn, ts=best_ts, value=best_value),
                self_reply=None,
                on_quorum=finish,
                label=("MWABD read#%d write-back quorum", rsn),
            )

        self.start_phase(
            "read",
            tag=rsn,
            message=MwAbdReadQuery(rsn=rsn),
            aggregator=HIGHEST_PAIR,
            self_reply=(self.ts, self.value),
            on_quorum=start_write_back,
            label=("MWABD read#%d query quorum", rsn),
        )

    # -------------------------------------------------------------- handlers

    def on_message(self, src: int, message: Any) -> None:
        cls = message.__class__
        if cls is MwAbdTsQuery:
            self.send(src, MwAbdTsReply(wsn=message.wsn, ts=self.ts))
        elif cls is MwAbdTsReply:
            self.phase_reply("ts", src, message.ts, tag=message.wsn)
        elif cls is MwAbdWrite:
            self._adopt(message.ts, message.value)
            self.send(src, MwAbdWriteAck(wsn=message.wsn))
        elif cls is MwAbdWriteAck:
            self.phase_reply("write", src, tag=message.wsn)
        elif cls is MwAbdReadQuery:
            self.send(src, MwAbdReadReply(rsn=message.rsn, ts=self.ts, value=self.value))
        elif cls is MwAbdReadReply:
            self.phase_reply("read", src, (message.ts, message.value), tag=message.rsn)
        elif cls is MwAbdWriteBack:
            self._adopt(message.ts, message.value)
            self.send(src, MwAbdWriteBackAck(rsn=message.rsn))
        elif cls is MwAbdWriteBackAck:
            self.phase_reply("writeback", src, tag=message.rsn)
        else:
            raise TypeError(f"p{self.pid} received unknown MWMR-ABD message {message!r} from p{src}")

    def local_memory_words(self) -> int:
        return 6 + self.phase_words("ts", "read")


#: Factory registered under the name ``"abd-mwmr"``.
ABD_MWMR_ALGORITHM = RegisterAlgorithm(
    name="abd-mwmr",
    description="Multi-writer ABD: timestamp query phase before each write",
    process_factory=MwmrAbdRegisterProcess,
    supports_multi_writer=True,
    bounded_control_bits=False,
)
