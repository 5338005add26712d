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
line 11    ``b = (w_sync_i[j] + 1) mod 2``                        :meth:`_buffer_write`
line 20    ``w_sync_i[j] >= sn``                                  :meth:`_handle_read`
=========  =====================================================  ==========================

The per-pair *alternating-bit* discipline is a consequence of the sending
predicates (lines 2, 15, 16) together with the line-11 wait; nothing extra is
needed here beyond implementing those lines faithfully.

Every wait counts or reads array entries that exactly one handler line
assigns — line 22 moves ``r_sync_i[j]`` (line 7), line 18 moves
``w_sync_i[j]`` (lines 3, 9, 11, 20) — so the process records what its pending
waits await, and those two lines ask for a guard scan (``_scan_due``) only
when the entry they just moved completes the awaited quorum count or is read
by a pending line-11 / line-20 wait; no other delivery scans.  The record only
decides *when* to scan: what fires, and in which order, is still the guards'
predicates over the arrays.

The pseudocode's "send ... to every ``p_j`` such that ..." statements (lines
2, 6 and 15) are one ``network.send`` each, to the list of those ``p_j``: the
message is built, priced and checked once for all of them (the network drops
a crashed sender's sends, so the handlers go to it directly).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.messages import PROCEED, READ, ProceedMessage, ReadMessage, WriteMessage
from repro.core.state import TwoBitState
from repro.registers.base import OperationRecord, RegisterAlgorithm, RegisterProcess
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
        # Messages whose line-11 predicate is not yet satisfied, per sender.
        self._reordered_writes = 0
        # What the pending waits await.  Lines 3 and 9 count the w_sync entries
        # that reach `_w_awaited` (entries move by steps of 1, so ">= sn" comes
        # true on reaching sn), line 7 the r_sync entries that reach
        # r_sync[pid]; `_*_missing` is how many more the quorum needs, and a
        # count nobody awaits any more never comes back to 0.
        self._w_awaited = -1
        self._w_missing = 0
        self._r_missing = 0
        # Per process j: pending line-11 / line-20 waits, which read w_sync[j].
        self._entry_waits: list[int] = []

    # ---------------------------------------------------------------- set-up

    def finish_setup(self) -> None:
        """Allocate the local data structures once the full membership is known."""
        super().finish_setup()
        self.state = TwoBitState(n=self.n, pid=self.pid, initial_value=self.initial_value)
        self._entry_waits = [0] * self.n

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
        self.network.send(self.pid, [j for j in self._peers if w_sync[j] == wsn - 1], message)

        # line 3: wait until at least (n - t) processes p_j have w_sync_w[j] = wsn
        # (the writer itself counts: w_sync_w[w] = wsn already).
        def write_quorum_reached() -> bool:
            return quorum.quorum_equal(w_sync, wsn)

        # line 4: return()
        self._w_awaited = wsn
        self._w_missing = quorum.quorum_size - w_sync.count(wsn)
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
        self.network.send(self.pid, self._peers, READ)

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
            wait = self.add_guard(
                value_known_by_quorum,
                lambda: done(st.history[sn]),
                label=("read#%d line 9 quorum (sn=%d)", rsn, sn),
            )
            if wait is not None:
                self._w_awaited = sn
                known = quorum.count_satisfying(w_sync, lambda entry: entry >= sn)
                self._w_missing = quorum.quorum_size - known

        self._r_missing = quorum.quorum_size - r_sync.count(rsn)
        self.add_guard(
            read_quorum_reached, after_proceed_quorum, label=("read#%d line 7 quorum", rsn)
        )

    # --------------------------------------------------------------- handlers

    def on_message(self, src: int, message: Any) -> None:
        """Dispatch on the four message types (three classes, by identity).

        ``WRITE`` first — it is most of the traffic.  Its handler (lines
        11–18, once line 11 holds) and line 22 run in this frame.
        """
        st = self.state
        if st is None:  # the per-message form of _require_state()
            st = self._require_state()
        cls = message.__class__
        if cls is WriteMessage:
            # ``when WRITE(b, v) is received from p_j`` — lines 11–18.
            w_sync = st.w_sync
            # line 11: wait (b = (w_sync_i[j] + 1) mod 2).
            if message.bit != (w_sync[src] + 1) % 2:
                self._buffer_write(src, message)
                return
            pid = self.pid

            # line 12: wsn <- w_sync_i[j] + 1    (the locally reconstructed
            # sequence number of the value carried by this message)
            wsn = w_sync[src] + 1

            # line 13: if (wsn = w_sync_i[i] + 1)
            own = w_sync[pid]
            if wsn == own + 1:
                # line 14: w_sync_i[i] <- wsn; history_i[wsn] <- v; b <- wsn mod 2
                # (line 11 held, so b is the bit this message arrived with: the
                # WRITE(b, v) to forward is the immutable message itself, price
                # included.  No wait reads p_i's own entry below its value.)
                w_sync[pid] = wsn
                st.record_value(wsn, message.value)
                # line 15: forward WRITE(b, v) to every p_l with w_sync_i[l] = wsn - 1
                # (rule R1; note that p_j itself still has w_sync_i[j] = wsn - 1 at
                # this point, so the forward doubles as the alternating-bit
                # acknowledgement towards p_j).
                self.network.send(pid, [k for k in self._peers if w_sync[k] == own], message)
            # line 16: else if (wsn < w_sync_i[i]) send WRITE((wsn+1) mod 2, history_i[wsn+1]) to p_j
            elif wsn < own:
                catch_up = WriteMessage(bit=(wsn + 1) % 2, value=st.history[wsn + 1])
                self.network.send(pid, src, catch_up)
            # (implicit third case wsn = w_sync_i[i]: nothing to send — p_j is
            #  exactly as up to date as p_i.)

            # line 18: w_sync_i[j] <- wsn   (the one line that moves an entry the
            # waits of lines 3, 9, 11 and 20 count or read)
            if wsn != w_sync[src] + 1:  # pragma: no cover - line 12 guarantees this
                raise AssertionError("Lemma 1 violated: w_sync must increase by steps of 1")
            w_sync[src] = wsn
            if wsn == self._w_awaited:
                missing = self._w_missing = self._w_missing - 1
                if not missing:
                    self._scan_due = True
            if self._entry_waits[src]:
                self._scan_due = True
        elif cls is ProceedMessage:
            # ``when PROCEED() is received from p_j`` — line 22:
            # r_sync_i[j] <- r_sync_i[j] + 1
            r_sync = st.r_sync
            answered = r_sync[src] = r_sync[src] + 1
            if answered == r_sync[self.pid]:
                # One more answer to the current read: scan at the one that
                # completes line 7's quorum, not before and not after.
                missing = self._r_missing = self._r_missing - 1
                if not missing:
                    self._scan_due = True
        elif cls is ReadMessage:
            self._handle_read(src)
        else:
            raise TypeError(f"p{self.pid} received unknown message {message!r} from p{src}")

    def _buffer_write(self, src: int, message: WriteMessage) -> None:
        """Line 11 for a ``WRITE`` whose parity bit does not match yet.

        With non-FIFO channels a WRITE can overtake its predecessor; the
        alternating parity bit detects this, and the wait simply defers the
        overtaking message until the predecessor has been processed — then it
        is handled like any other (``on_message``, where line 11 now holds).
        """
        w_sync = self.state.w_sync
        entry_waits = self._entry_waits
        self._reordered_writes += 1

        def handle_buffered_write() -> None:
            entry_waits[src] -= 1
            self.on_message(src, message)

        entry_waits[src] += 1
        self.add_guard(
            lambda: message.bit == (w_sync[src] + 1) % 2,
            handle_buffered_write,
            label=("line 11 reorder buffer (from p%d, bit=%d)", src, message.bit),
        )

    # -- READ() ---------------------------------------------------------------

    def _handle_read(self, src: int) -> None:
        """``when READ() is received from p_j`` — lines 19–21."""
        w_sync = self.state.w_sync

        # line 19: sn <- w_sync_i[i]   (freshness point fixed at reception time)
        sn = w_sync[self.pid]

        # line 20: wait (w_sync_i[j] >= sn)
        # line 21: send PROCEED() to p_j
        if w_sync[src] >= sn:
            # The requester is already fresh (nearly every READ): what
            # add_guard does for a wait that already holds, without building
            # the wait — the action, then the scan, which is due only if an
            # earlier handler of the same coalesced batch left it so.
            self.network.send(self.pid, src, PROCEED)
            if self._scan_due:
                self.check_guards()
        else:
            entry_waits = self._entry_waits

            def send_proceed() -> None:
                entry_waits[src] -= 1
                self.network.send(self.pid, src, PROCEED)

            entry_waits[src] += 1
            self.add_guard(
                lambda: w_sync[src] >= sn,
                send_proceed,
                label=("line 20 freshness wait (reader p%d, sn=%d)", src, sn),
            )

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


#: Factory registered under the name ``"two-bit"``.
TWO_BIT_ALGORITHM = RegisterAlgorithm(
    name="two-bit",
    description="Mostefaoui-Raynal 2016: four message types, two control bits per message",
    process_factory=TwoBitRegisterProcess,
    supports_multi_writer=False,
    bounded_control_bits=True,
)
