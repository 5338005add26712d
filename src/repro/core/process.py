"""Executable implementation of Figure 1 (the two-bit algorithm).

Every code block below is annotated with the pseudocode line numbers it
implements, so the implementation can be audited against the paper line by
line.  Recap of the structure of Figure 1:

* ``write(v)``            — lines 1–4, executed by the writer ``p_w`` only;
* ``read()``              — lines 5–10, executed by any process;
* ``WRITE(b, v)`` handler — lines 11–18, executed by any process;
* ``READ()`` handler      — lines 19–21;
* ``PROCEED()`` handler   — line 22.

The pseudocode's blocking ``wait`` statements map onto the guard mechanism of
:class:`repro.transport.runtime.ProcessBase`:

=========  =====================================================  ==========================
line       awaited predicate                                      where implemented
=========  =====================================================  ==========================
line 3     ``#{j : w_sync_w[j] = wsn} >= n - t``                  :meth:`_start_write`
line 7     ``#{j : r_sync_i[j] = rsn} >= n - t``                  :meth:`_start_read`
line 9     ``#{j : w_sync_i[j] >= sn} >= n - t``                  :meth:`_start_read`
line 11    ``b = (w_sync_i[j] + 1) mod 2``                        :meth:`_handle_write`
line 20    ``w_sync_i[j] >= sn``                                  :meth:`_handle_read`
=========  =====================================================  ==========================

The per-pair *alternating-bit* discipline is a consequence of the sending
predicates (lines 2, 15, 16) together with the line-11 wait; nothing extra is
needed here beyond implementing those lines faithfully.

The pseudocode's "send ... to every ``p_j`` such that ..." statements (lines
2, 6 and 15) are one :meth:`~repro.transport.runtime.ProcessBase.send` each,
to the list of those ``p_j``: the message is built, priced and checked once
for all of them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.messages import PROCEED, READ, ProceedMessage, ReadMessage, WriteMessage
from repro.core.state import TwoBitState
from repro.registers.base import OperationRecord, RegisterProcess
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class TwoBitRegisterProcess(RegisterProcess):
    """A process running the two-bit SWMR atomic-register algorithm.

    Parameters
    ----------
    pid, simulator, network, writer_pid, t, initial_value:
        See :class:`repro.registers.base.RegisterProcess`.
    writer_fast_read:
        The paper notes (comment on line 5) that the writer "can directly
        return ``history_i[w_sync_i[i]]``".  When this flag is true the
        writer's reads take that shortcut; by default the writer runs the
        general read path (also correct, and what the latency benchmarks
        measure for non-writer readers anyway).
    """

    def __init__(
        self,
        pid: int,
        simulator: Simulator,
        network: Network,
        writer_pid: int,
        t: Optional[int] = None,
        initial_value: Any = None,
        writer_fast_read: bool = False,
    ) -> None:
        super().__init__(pid, simulator, network, writer_pid, t, initial_value)
        self.writer_fast_read = writer_fast_read
        self.state: Optional[TwoBitState] = None
        # Every other process, in pid order (fixed by finish_setup).
        self._others: list[int] = []
        # Messages whose line-11 predicate is not yet satisfied, per sender.
        self._reordered_writes = 0

    # ---------------------------------------------------------------- set-up

    def finish_setup(self) -> None:
        """Allocate the local data structures once the full membership is known."""
        super().finish_setup()
        self.state = TwoBitState(n=self.n, pid=self.pid, initial_value=self.initial_value)
        self._others = self.other_process_ids()

    def _require_state(self) -> TwoBitState:
        if self.state is None:
            raise RuntimeError(
                "finish_setup() was not called; build processes through the "
                "RegisterAlgorithm factory or call finish_setup() explicitly"
            )
        return self.state

    # ------------------------------------------------------------- operations

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        """``operation write(v)`` — lines 1–4 (writer only)."""
        st = self._require_state()
        value = record.value

        # line 1: wsn <- w_sync_w[w] + 1; w_sync_w[w] <- wsn;
        #         history_w[wsn] <- v; b <- wsn mod 2
        wsn = st.w_sync[self.pid] + 1
        st.w_sync[self.pid] = wsn
        st.record_value(wsn, value)
        message = WriteMessage(bit=wsn % 2, value=value)

        # line 2: send WRITE(b, v) to every p_j with w_sync_w[j] = wsn - 1
        quorum, w_sync = self.quorum, st.w_sync
        self.send([j for j in self._others if w_sync[j] == wsn - 1], message)

        # line 3: wait until at least (n - t) processes p_j have w_sync_w[j] = wsn
        # (the writer itself counts: w_sync_w[w] = wsn already).
        def write_quorum_reached() -> bool:
            return quorum.quorum_equal(w_sync, wsn)

        # line 4: return()
        self.add_guard(write_quorum_reached, done, label=("write#%d line 3 quorum", wsn))

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        """``operation read()`` — lines 5–10 (any process)."""
        st = self._require_state()

        # Optional shortcut noted in the paper: the writer may return the last
        # value of its own history immediately.
        if self.writer_fast_read and self.is_writer:
            done(st.history[st.w_sync[self.pid]])
            return

        # line 5: rsn <- r_sync_i[i] + 1; r_sync_i[i] <- rsn
        rsn = st.r_sync[self.pid] + 1
        st.r_sync[self.pid] = rsn

        # line 6: send READ() to every other process
        self.send(self._others, READ)

        # line 7: wait until at least (n - t) processes p_j have r_sync_i[j] = rsn
        quorum, r_sync, w_sync = self.quorum, st.r_sync, st.w_sync

        def read_quorum_reached() -> bool:
            return quorum.quorum_equal(r_sync, rsn)

        def after_proceed_quorum() -> None:
            # line 8: sn <- w_sync_i[i]
            sn = w_sync[self.pid]

            # line 9: wait until at least (n - t) processes p_j have w_sync_i[j] >= sn
            def value_known_by_quorum() -> bool:
                return quorum.quorum_at_least(w_sync, sn)

            # line 10: return(history_i[sn])
            self.add_guard(
                value_known_by_quorum,
                lambda: done(st.history[sn]),
                label=("read#%d line 9 quorum (sn=%d)", rsn, sn),
            )

        self.add_guard(
            read_quorum_reached, after_proceed_quorum, label=("read#%d line 7 quorum", rsn)
        )

    # --------------------------------------------------------------- handlers

    def on_message(self, src: int, message: Any) -> None:
        """Dispatch on the four message types (three classes, by identity)."""
        cls = message.__class__
        if cls is ReadMessage:
            self._handle_read(src)
        elif cls is ProceedMessage:
            self._handle_proceed(src)
        elif cls is WriteMessage:
            self._handle_write(src, message)
        else:
            raise TypeError(f"p{self.pid} received unknown message {message!r} from p{src}")

    # -- WRITE(b, v) -----------------------------------------------------------

    def _handle_write(self, src: int, message: WriteMessage) -> None:
        """``when WRITE(b, v) is received from p_j`` — lines 11–18."""
        w_sync = self._require_state().w_sync

        # line 11: wait (b = (w_sync_i[j] + 1) mod 2).
        # With non-FIFO channels a WRITE can overtake its predecessor; the
        # alternating parity bit detects this, and the wait simply defers the
        # overtaking message until the predecessor has been processed.
        if message.bit == (w_sync[src] + 1) % 2:
            self._process_write(src, message)
        else:
            self._reordered_writes += 1
            self.add_guard(
                lambda: message.bit == (w_sync[src] + 1) % 2,
                lambda: self._process_write(src, message),
                label=("line 11 reorder buffer (from p%d, bit=%d)", src, message.bit),
            )

    def _process_write(self, src: int, message: WriteMessage) -> None:
        """Lines 12–18 — the body executed once the line-11 predicate holds."""
        st = self._require_state()

        # line 12: wsn <- w_sync_i[j] + 1    (the locally reconstructed
        # sequence number of the value carried by this message)
        wsn = st.w_sync[src] + 1

        # line 13: if (wsn = w_sync_i[i] + 1)
        if wsn == st.w_sync[self.pid] + 1:
            # line 14: w_sync_i[i] <- wsn; history_i[wsn] <- v; b <- wsn mod 2
            # (line 11 held, so b is the bit this message arrived with: the
            # WRITE(b, v) to forward is the immutable message itself).
            w_sync = st.w_sync
            w_sync[self.pid] = wsn
            st.record_value(wsn, message.value)
            # line 15: forward WRITE(b, v) to every p_l with w_sync_i[l] = wsn - 1
            # (rule R1; note that p_j itself still has w_sync_i[j] = wsn - 1 at
            # this point, so the forward doubles as the alternating-bit
            # acknowledgement towards p_j).
            self.send([k for k in self._others if w_sync[k] == wsn - 1], message)
        # line 16: else if (wsn < w_sync_i[i]) send WRITE((wsn+1) mod 2, history_i[wsn+1]) to p_j
        elif wsn < st.w_sync[self.pid]:
            catch_up = WriteMessage(bit=(wsn + 1) % 2, value=st.history[wsn + 1])
            self.send(src, catch_up)
        # (implicit third case wsn = w_sync_i[i]: nothing to send — p_j is
        #  exactly as up to date as p_i.)

        # line 18: w_sync_i[j] <- wsn
        if wsn != st.w_sync[src] + 1:  # pragma: no cover - line 12 guarantees this
            raise AssertionError("Lemma 1 violated: w_sync must increase by steps of 1")
        st.w_sync[src] = wsn

    # -- READ() ---------------------------------------------------------------

    def _handle_read(self, src: int) -> None:
        """``when READ() is received from p_j`` — lines 19–21."""
        w_sync = self._require_state().w_sync

        # line 19: sn <- w_sync_i[i]   (freshness point fixed at reception time)
        sn = w_sync[self.pid]

        # line 20: wait (w_sync_i[j] >= sn)
        # line 21: send PROCEED() to p_j
        if w_sync[src] >= sn:
            # The requester is already fresh (nearly every READ): what
            # add_guard does for a wait that already holds, without building
            # the wait — the action, then the scan for what it enabled.
            self.send(src, PROCEED)
            if self._guards:
                self.check_guards()
        else:
            self.add_guard(
                lambda: w_sync[src] >= sn,
                lambda: self.send(src, PROCEED),
                label=("line 20 freshness wait (reader p%d, sn=%d)", src, sn),
            )

    # -- PROCEED() --------------------------------------------------------------

    def _handle_proceed(self, src: int) -> None:
        """``when PROCEED() is received from p_j`` — line 22."""
        st = self._require_state()
        # line 22: r_sync_i[j] <- r_sync_i[j] + 1
        st.r_sync[src] += 1

    # ------------------------------------------------------------- inspection

    @property
    def reordered_write_count(self) -> int:
        """How many WRITE messages arrived out of order and were deferred by line 11."""
        return self._reordered_writes

    def known_history(self) -> list[Any]:
        """The prefix of written values this process currently knows."""
        return self._require_state().known_prefix()

    def local_memory_words(self) -> int:
        """Local-memory footprint in words (Table 1, line 4)."""
        if self.state is None:
            return 0
        return self.state.local_memory_words()
