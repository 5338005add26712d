"""Executable bounded-message-size emulation (stand-in for ABD-bounded / Attiya-2000).

Table 1 compares the paper's algorithm against two algorithms whose messages
carry a *bounded* amount of control information:

* the bounded-sequence-number version of ABD (message size O(n^5) bits), and
* Attiya's 2000 algorithm (message size O(n^3) bits).

Re-implementing either of those faithfully means reproducing bounded
timestamp systems (Israeli–Li) and the associated handshake machinery — a
paper-sized effort in its own right and *not* something the paper under
reproduction implements or evaluates either: its Table 1 quotes the analytic
values from the literature.  Following the substitution rule (DESIGN.md §5),
this module provides:

1. :class:`ModuloSeqAbdProcess` — an **executable** ABD variant whose wire
   format carries sequence numbers **modulo a fixed constant M**, so every
   message has a bounded size, while each process keeps an unbounded local
   sequence number it reconstructs from the modulo value.  This preserves the
   row shape the table cares about for the bounded algorithms: bounded
   message size, O(n) messages per operation, and extra communication rounds
   are *not* modelled (latency is reported via the analytic cost models in
   :mod:`repro.registers.costmodels`).

   The reconstruction is safe as long as fewer than ``M/2`` writes can be
   concurrently "in flight" with respect to any reader — which holds in every
   run the harness generates because the single writer issues writes
   sequentially and ABD write quorums gate each write.  A guard raises if the
   assumption is ever violated, so the emulation cannot silently return wrong
   values.

2. Analytic cost models for the two literature algorithms live in
   :mod:`repro.registers.costmodels` and are what the Table-1 harness prints
   for those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.quorum.aggregators import MaxReply
from repro.quorum.engine import PhaseRegisterProcess
from repro.registers.abd import ABD_TYPE_BITS
from repro.registers.base import OperationRecord, RegisterAlgorithm
from repro.registers.costmodels import value_bits as _value_bits
from repro.transport.base import Clock, Transport

#: Default modulus: sequence numbers travel as values in [0, M); 2*M-1 must
#: exceed the maximum possible writer/reader divergence (see module docstring).
DEFAULT_MODULUS = 64


class ModuloReconstructionError(RuntimeError):
    """Raised when the modulo emulation's divergence assumption is violated."""


def _mod_bits(modulus: int) -> int:
    return max(1, (modulus - 1).bit_length())


@dataclass(frozen=True)
class ModWrite:
    """Writer → replicas: store ``value`` under sequence number ``seq mod M``."""

    seq_mod: int
    value: Any
    modulus: int = DEFAULT_MODULUS

    type_name = "MOD_WRITE"

    def control_bits(self) -> int:
        return ABD_TYPE_BITS + _mod_bits(self.modulus)

    def data_bits(self) -> int:
        return _value_bits(self.value)


@dataclass(frozen=True)
class ModWriteAck:
    """Replica → writer: acknowledged the write tagged ``seq mod M``."""

    seq_mod: int
    modulus: int = DEFAULT_MODULUS

    type_name = "MOD_WRITE_ACK"

    def control_bits(self) -> int:
        return ABD_TYPE_BITS + _mod_bits(self.modulus)

    @staticmethod
    def data_bits() -> int:
        return 0


@dataclass(frozen=True)
class ModReadQuery:
    """Reader → replicas: request the current pair (request tagged ``rsn mod M``)."""

    rsn_mod: int
    modulus: int = DEFAULT_MODULUS

    type_name = "MOD_READ_QUERY"

    def control_bits(self) -> int:
        return ABD_TYPE_BITS + _mod_bits(self.modulus)

    @staticmethod
    def data_bits() -> int:
        return 0


@dataclass(frozen=True)
class ModReadReply:
    """Replica → reader: current pair, sequence number sent modulo M."""

    rsn_mod: int
    seq_mod: int
    value: Any
    modulus: int = DEFAULT_MODULUS

    type_name = "MOD_READ_REPLY"

    def control_bits(self) -> int:
        return ABD_TYPE_BITS + 2 * _mod_bits(self.modulus)

    def data_bits(self) -> int:
        return _value_bits(self.value)


@dataclass(frozen=True)
class ModWriteBack:
    """Reader → replicas: adopt this pair before the read returns."""

    rsn_mod: int
    seq_mod: int
    value: Any
    modulus: int = DEFAULT_MODULUS

    type_name = "MOD_WRITE_BACK"

    def control_bits(self) -> int:
        return ABD_TYPE_BITS + 2 * _mod_bits(self.modulus)

    def data_bits(self) -> int:
        return _value_bits(self.value)


@dataclass(frozen=True)
class ModWriteBackAck:
    """Replica → reader: acknowledged the write-back."""

    rsn_mod: int
    modulus: int = DEFAULT_MODULUS

    type_name = "MOD_WRITE_BACK_ACK"

    def control_bits(self) -> int:
        return ABD_TYPE_BITS + _mod_bits(self.modulus)

    @staticmethod
    def data_bits() -> int:
        return 0


def reconstruct(local_seq: int, seq_mod: int, modulus: int) -> int:
    """Reconstruct a full sequence number from its modulo-M representative.

    Chooses the candidate ``s ≡ seq_mod (mod M)`` closest to ``local_seq``.
    Correct as long as ``|true_seq - local_seq| < M // 2``; a larger
    divergence is detected by the caller through quorum intersection
    arguments and reported as :class:`ModuloReconstructionError` when the
    chosen candidate would have to be negative.
    """
    if not 0 <= seq_mod < modulus:
        raise ValueError(f"seq_mod {seq_mod} out of range for modulus {modulus}")
    base = (local_seq // modulus) * modulus
    candidates = [base - modulus + seq_mod, base + seq_mod, base + modulus + seq_mod]
    best = min(candidates, key=lambda candidate: abs(candidate - local_seq))
    if best < 0:
        best += modulus
    if best < 0:
        raise ModuloReconstructionError(
            f"cannot reconstruct a non-negative sequence number from seq_mod={seq_mod}, "
            f"local_seq={local_seq}, modulus={modulus}"
        )
    return best


class ModuloSeqAbdProcess(PhaseRegisterProcess):
    """ABD with modulo-M sequence numbers on the wire (bounded message size).

    Phase slots mirror plain ABD (``"write"``, ``"read"``, ``"writeback"``);
    phase tags are the *wire* representatives (``seq mod M`` / ``rsn mod M``),
    which is exactly what the stale-reply checks compared before the engine
    port — only one phase per slot is ever open, so the modulo tag is
    unambiguous.
    """

    def __init__(
        self,
        pid: int,
        simulator: Clock,
        network: Transport,
        writer_pid: int,
        t: Optional[int] = None,
        initial_value: Any = None,
        modulus: int = DEFAULT_MODULUS,
    ) -> None:
        super().__init__(pid, simulator, network, writer_pid, t, initial_value)
        if modulus < 4:
            raise ValueError("modulus must be at least 4 for the reconstruction to be meaningful")
        self.modulus = modulus
        self.seq = 0
        self.value = initial_value
        self.write_seq = 0
        self.read_rsn = 0

    def _adopt(self, seq: int, value: Any) -> None:
        if seq > self.seq:
            if seq - self.seq >= self.modulus // 2:
                raise ModuloReconstructionError(
                    f"p{self.pid} observed a jump of {seq - self.seq} >= M/2 "
                    f"({self.modulus // 2}); the modulo emulation's divergence bound is violated"
                )
            self.seq = seq
            self.value = value

    # ---------------------------------------------------------------- write

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        self.write_seq += 1
        seq = self.write_seq
        self._adopt(seq, record.value)
        seq_mod = seq % self.modulus

        def finish(_phase) -> None:
            self.close_phases("write")
            done()

        self.start_phase(
            "write",
            tag=seq_mod,
            message=ModWrite(seq_mod=seq_mod, value=record.value, modulus=self.modulus),
            self_reply=None,
            on_quorum=finish,
            label=("MOD write#%d ack quorum", seq),
        )

    # ----------------------------------------------------------------- read

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        self.read_rsn += 1
        rsn = self.read_rsn
        rsn_mod = rsn % self.modulus

        def start_write_back(query_phase) -> None:
            best_seq, best_value = query_phase.result()
            self._adopt(best_seq, best_value)

            def finish(_phase) -> None:
                self.close_phases("read", "writeback")
                done(best_value)

            self.start_phase(
                "writeback",
                tag=rsn_mod,
                message=ModWriteBack(
                    rsn_mod=rsn_mod,
                    seq_mod=best_seq % self.modulus,
                    value=best_value,
                    modulus=self.modulus,
                ),
                self_reply=None,
                on_quorum=finish,
                label=("MOD read#%d write-back quorum", rsn),
            )

        self.start_phase(
            "read",
            tag=rsn_mod,
            message=ModReadQuery(rsn_mod=rsn_mod, modulus=self.modulus),
            aggregator=MaxReply(key=itemgetter(0)),
            self_reply=(self.seq, self.value),
            on_quorum=start_write_back,
            label=("MOD read#%d query quorum", rsn),
        )

    # -------------------------------------------------------------- handlers

    def on_message(self, src: int, message: Any) -> None:
        cls = message.__class__
        if cls is ModWrite:
            seq = reconstruct(self.seq, message.seq_mod, self.modulus)
            self._adopt(seq, message.value)
            self.send(src, ModWriteAck(seq_mod=message.seq_mod, modulus=self.modulus))
        elif cls is ModWriteAck:
            self.phase_reply("write", src, tag=message.seq_mod)
        elif cls is ModReadQuery:
            self.send(
                src,
                ModReadReply(
                    rsn_mod=message.rsn_mod,
                    seq_mod=self.seq % self.modulus,
                    value=self.value,
                    modulus=self.modulus,
                ),
            )
        elif cls is ModReadReply:
            # Reconstruction only for replies the stale-phase guard admits —
            # a late reply to a finished read must not be able to raise.
            phase = self.active_phase("read", tag=message.rsn_mod)
            if phase is not None and src not in phase.replies:
                seq = reconstruct(self.seq, message.seq_mod, self.modulus)
                phase.accept(src, (seq, message.value))
        elif cls is ModWriteBack:
            seq = reconstruct(self.seq, message.seq_mod, self.modulus)
            self._adopt(seq, message.value)
            self.send(src, ModWriteBackAck(rsn_mod=message.rsn_mod, modulus=self.modulus))
        elif cls is ModWriteBackAck:
            self.phase_reply("writeback", src, tag=message.rsn_mod)
        else:
            raise TypeError(f"p{self.pid} received unknown message {message!r} from p{src}")

    def local_memory_words(self) -> int:
        return 5 + self.phase_words("write", "read", "writeback")


#: Factory registered under the name ``"abd-bounded-emulation"``.
MODULO_ABD_ALGORITHM = RegisterAlgorithm(
    name="abd-bounded-emulation",
    description=(
        "Executable stand-in for the bounded-message-size baselines: ABD with "
        "modulo-M sequence numbers on the wire"
    ),
    process_factory=ModuloSeqAbdProcess,
    supports_multi_writer=False,
    bounded_control_bits=True,
)
