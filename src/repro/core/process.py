"""Executable implementation of Figure 1 (the two-bit algorithm).

Every code block below is annotated with the pseudocode line numbers it
implements, so the implementation can be audited against the paper line by
line.  Recap of the structure of Figure 1:

* ``write(v)``            — lines 1–4, executed by the writer ``p_w`` only;
* ``read()``              — lines 5–10, executed by any process;
* ``WRITE(b, v)`` handler — lines 11–18, executed by any process;
* ``READ()`` handler      — lines 19–21;
* ``PROCEED()`` handler   — line 22.

The pseudocode's blocking ``wait`` statements are of two kinds.  The
operation's wait (lines 3, 7 and 9; a sequential process has at most one)
is a *count* kept on the process: how many more entries the quorum needs.
The per-message waits (lines 11 and 20) are *guards* of
:class:`repro.transport.runtime.ProcessBase`, predicates over the arrays:

=========  =====================================================  ===========================
line       awaited predicate                                      kept as
=========  =====================================================  ===========================
line 3     ``#{j : w_sync_w[j] = wsn} >= n - t``                  count ``_w_missing``
line 7     ``#{j : r_sync_i[j] = rsn} >= n - t``                  count ``_r_missing``
line 9     ``#{j : w_sync_i[j] >= sn} >= n - t``                  count ``_w_missing``
line 11    ``b = (w_sync_i[j] + 1) mod 2``                        guard (:meth:`_buffer_write`)
line 20    ``w_sync_i[j] >= sn``                                  guard (:meth:`_handle_read`)
=========  =====================================================  ===========================

The per-pair *alternating-bit* discipline is a consequence of the sending
predicates (lines 2, 15, 16) together with the line-11 wait; nothing extra is
needed here beyond implementing those lines faithfully.

Every wait counts or reads array entries that exactly one handler line
assigns — line 22 moves ``r_sync_i[j]`` (line 7), line 18 moves
``w_sync_i[j]`` (lines 3, 9, 11, 20) — so those two lines keep the counts
and ask for a guard scan (``_scan_due``) only when the entry they just moved
completes the awaited quorum count or is read by a pending line-11 / line-20
wait; no other delivery scans.  The operation's wait fires in that scan, as
a guard would: after the handler, at the end of a coalesced batch, and in
registration order beside pending guards.  While no guard is pending it is
held on the process (:meth:`check_guards` fires it); when it is registered
beside line-11 / line-20 guards, or they beside it, it joins their list as
one more :class:`~repro.transport.runtime.Guard`, at its registration
position.

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
from repro.transport.runtime import Guard, render_label


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

    # The operation's wait (line 3, 7 or 9; a sequential process has at most
    # one): its line (0 while none is pending) and its continuation, the
    # operation's completion.  Its sequence number is ``_w_awaited`` (lines 3
    # and 9) or ``r_sync_i[i]`` (line 7).  Idle values here, so that building
    # a process sets none of them.
    _op_line = 0
    _op_done: Optional[Callable[..., None]] = None

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
        # What the operation's wait awaits.  Lines 3 and 9 count the w_sync
        # entries that reach `_w_awaited` (entries move by steps of 1, so
        # ">= sn" comes true on reaching sn), line 7 the r_sync entries that
        # reach r_sync[pid]; `_*_missing` is how many more the quorum needs
        # (the wait holds at <= 0), and a count nobody awaits any more never
        # comes back to 0.
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
        w_sync = st.w_sync
        self.network.send(self.pid, [j for j in self._peers if w_sync[j] == wsn - 1], message)

        # line 3: wait until at least (n - t) processes p_j have w_sync_w[j] = wsn
        # (the writer itself counts: w_sync_w[w] = wsn already; no entry exceeds it).
        # line 4: return()   (_fire_op)
        self._w_awaited = wsn
        self._w_missing = self.quorum.quorum_size - w_sync.count(wsn)
        self._await_op(3, done)

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
        # (no entry exceeds rsn: p_j answers each READ with one PROCEED).
        self._r_missing = self.quorum.quorum_size - st.r_sync.count(rsn)
        self._await_op(7, done)

    def _read_value(self, done: Callable[[Any], None]) -> None:
        """Lines 8–9 of ``read()``, once line 7's wait holds."""
        w_sync = self.state.w_sync

        # line 8: sn <- w_sync_i[i]
        sn = w_sync[self.pid]

        # line 9: wait until at least (n - t) processes p_j have w_sync_i[j] >= sn
        # line 10: return(history_i[sn])   (_fire_op)
        self._w_awaited = sn
        self._w_missing = self.quorum.quorum_size - len([entry for entry in w_sync if entry >= sn])
        self._await_op(9, done)

    # ----------------------------------------------------- the operation wait

    def _await_op(self, line: int, done: Callable[..., None]) -> None:
        """Register the operation's wait of ``line`` (3, 7 or 9) — ``add_guard``'s rules.

        It fires at once if its count already holds (then scans, if guards
        are pending); a crashed process's wait never fires.  Otherwise it is
        held here while the guard list is empty, and joins the list as an
        ordinary :class:`Guard` — at its registration position — when it is
        registered beside line-11 / line-20 waits or they are registered
        beside it (:meth:`_add_entry_wait`).
        """
        if self.crashed:
            return
        self._op_line = line
        self._op_done = done
        if self._op_ready():
            self._fire_op()
            if self._guards:
                self.check_guards()
        elif self._guards:
            self._guards.append(self._op_guard())

    def _op_ready(self) -> bool:
        """The pending operation wait's predicate: its count reached the quorum."""
        return (self._r_missing if self._op_line == 7 else self._w_missing) <= 0

    def _fire_op(self) -> None:
        """Run the pending operation wait's continuation (once)."""
        line, done = self._op_line, self._op_done
        self._op_line, self._op_done = 0, None
        if line == 7:
            self._read_value(done)
        elif line == 9:
            done(self.state.history[self._w_awaited])  # line 10
        else:
            done()  # line 4

    def _op_label(self) -> tuple:
        """The pending operation wait's diagnostic label (lazy, as guard labels are)."""
        if self._op_line == 3:
            return ("write#%d line 3 quorum", self._w_awaited)
        rsn = self.state.r_sync[self.pid]
        if self._op_line == 7:
            return ("read#%d line 7 quorum", rsn)
        return ("read#%d line 9 quorum (sn=%d)", rsn, self._w_awaited)

    def _op_guard(self) -> Guard:
        """The pending operation wait as an ordinary guard, for the guard list."""
        return Guard(self._op_ready, self._fire_op, self._op_label())

    def _op_held(self) -> bool:
        """The operation wait is pending outside the guard list (which is then empty)."""
        return bool(self._op_line) and not self._guards and not self.crashed

    def check_guards(self) -> None:
        """The scan: :meth:`ProcessBase.check_guards`, or the held operation wait alone.

        The wait's continuation registers no line-11 / line-20 wait, so
        after it fires nothing is left to scan.
        """
        if self._guards:
            super().check_guards()
            return
        if self._op_line and not self.crashed and self._op_ready():
            self._fire_op()
        self._scan_due = False

    def abandon_operation(self) -> None:
        """Let go of a stalled operation and of its wait, held or in the guard list.

        The line-11 / line-20 waits stay: they belong to the replica, not
        to the operation.
        """
        super().abandon_operation()
        if self._op_line:
            fire = self._fire_op
            self._guards = [guard for guard in self._guards if guard.action != fire]
            self._op_line, self._op_done = 0, None

    def waiting_on(self) -> list[str]:
        """The pending waits' labels, in registration order (the held operation wait too)."""
        if self._op_held():
            return [render_label(self._op_label())]
        return super().waiting_on()

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

        self._add_entry_wait(
            src,
            lambda: message.bit == (w_sync[src] + 1) % 2,
            handle_buffered_write,
            ("line 11 reorder buffer (from p%d, bit=%d)", src, message.bit),
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

            self._add_entry_wait(
                src,
                lambda: w_sync[src] >= sn,
                send_proceed,
                ("line 20 freshness wait (reader p%d, sn=%d)", src, sn),
            )

    def _add_entry_wait(
        self, src: int, predicate: Callable[[], bool], action: Callable[[], None], label: tuple
    ) -> None:
        """Register a line-11 / line-20 wait, which reads ``w_sync_i[src]``.

        Its predicate is false when registered.  A held operation wait was
        registered first, so it joins the guard list first.
        """
        if self._op_held():
            self._guards.append(self._op_guard())
        self._entry_waits[src] += 1
        self.add_guard(predicate, action, label=label)

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
