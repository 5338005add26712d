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
The per-message waits (lines 11 and 20) are *thresholds* on the entry
``w_sync_i[j]`` of the sender ``p_j``, queued per ``j``:

=========  =====================================================  =========================================
line       awaited predicate                                      kept as
=========  =====================================================  =========================================
line 3     ``#{j : w_sync_w[j] = wsn} >= n - t``                  count ``_w_missing``
line 7     ``#{j : r_sync_i[j] = rsn} >= n - t``                  count ``_r_missing``
line 9     ``#{j : w_sync_i[j] >= sn} >= n - t``                  count ``_w_missing``
line 11    ``b = (w_sync_i[j] + 1) mod 2``                        in ``_waits[j]``, threshold ``w + 1``
line 20    ``w_sync_i[j] >= sn``                                  in ``_waits[j]``, threshold ``sn``
=========  =====================================================  =========================================

Line 11's parity is a threshold because ``p_j`` sends ``p_i`` value ``k``
only once ``p_i`` has sent it value ``k - 1``: a ``WRITE`` that line 11
holds while ``w_sync_i[j] = w`` carries value ``w + 2``, its bit matches
once line 18 moves the entry to ``w + 1``, and only that ``WRITE`` moves it
further.  The per-pair *alternating-bit* discipline is a consequence of the
sending predicates (lines 2, 15, 16) together with the line-11 wait;
nothing extra is needed here beyond implementing those lines faithfully.

Every wait counts or reads array entries that exactly one handler line
assigns — line 22 moves ``r_sync_i[j]`` (line 7), line 18 moves
``w_sync_i[j]`` (lines 3, 9, 11, 20) — so those two lines keep the counts
and ask for a release (``_scan_due``) only when the entry they just moved
completes the awaited quorum count or reaches the least threshold queued
for ``p_j``; no other delivery releases anything.  The release
(:meth:`check_guards`) runs after the handler, or at the end of a coalesced
batch, and fires the waits that hold in registration order, the operation
wait among them.

The pseudocode's "send ... to every ``p_j`` such that ..." statements (lines
2, 6 and 15) are one ``network.send`` each, to the list of those ``p_j``: the
message is built, priced and checked once for all of them (the network drops
a crashed sender's sends, so the handlers go to it directly).
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.core.messages import PROCEED, READ, ProceedMessage, ReadMessage, WriteMessage
from repro.core.state import TwoBitState
from repro.registers.base import OperationRecord, RegisterAlgorithm, RegisterProcess
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

#: The least threshold of a sender no per-message wait is queued for: never reached.
_NOTHING_QUEUED = sys.maxsize
#: A queued wait is ``(threshold, number, j, message)``; its registration number.
_NUMBER = itemgetter(1)


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
    # one): its line (0 while none is pending), its continuation (the
    # operation's completion) and its registration number.  Its sequence
    # number is ``_w_awaited`` (lines 3 and 9) or ``r_sync_i[i]`` (line 7).
    # Every wait takes its registration number from ``_registered``.  Idle
    # values here, so that building a process sets none of them.
    _op_line = 0
    _op_done: Optional[Callable[..., None]] = None
    _op_number = 0
    _registered = 0

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
        # How many WRITEs line 11 held.
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
        # Per process j: the pending line-11 / line-20 waits, which read
        # w_sync[j], in registration order — ``(threshold, number, j,
        # message)``, the held WRITE or None for a PROCEED — and the least of
        # their thresholds.
        self._waits: list[tuple] = []
        self._due: list[int] = []

    # ---------------------------------------------------------------- set-up

    def finish_setup(self) -> None:
        """Allocate the local data structures once the full membership is known."""
        super().finish_setup()
        self.state = TwoBitState(n=self.n, pid=self.pid, initial_value=self.initial_value)
        self._waits = [()] * self.n
        self._due = [_NOTHING_QUEUED] * self.n

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

    # ---------------------------------------------------------------- waits

    def _await_op(self, line: int, done: Callable[..., None]) -> None:
        """Register the operation's wait of ``line`` (3, 7 or 9).

        It fires at once if its count already holds; a crashed process's
        wait never fires.  Otherwise it is held here under its registration
        number until :meth:`check_guards` finds its count holding.  When it
        fires at once inside a release (a line-7 continuation's line 9)
        while line-11 / line-20 waits are queued, the release starts again
        from the first of them.
        """
        if self.crashed:
            return
        self._op_line = line
        self._op_done = done
        if self._op_ready():
            self._fire_op()
            if any(self._waits):
                self._scan_due = True
                self.check_guards()
        else:
            self._op_number = self._registered = self._registered + 1

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

    def _hold(self, j: int, threshold: int, message: Optional[WriteMessage]) -> None:
        """Queue a line-11 ``WRITE`` from ``p_j`` (``message``), or a line-20
        ``PROCEED`` to ``p_j`` (``None``), until ``w_sync_i[j] >= threshold``.

        The threshold is above ``w_sync_i[j]`` when the wait is registered.
        """
        number = self._registered = self._registered + 1
        self._waits[j] += ((threshold, number, j, message),)
        if threshold < self._due[j]:
            self._due[j] = threshold

    def check_guards(self) -> None:
        """The release, once a handler (or a coalesced batch) asked for it.

        In passes, while the last one asked for another: a pass takes the
        waits queued for every ``p_j`` whose ``w_sync_i[j]`` reached their
        least threshold, and the operation wait, and fires each that holds
        when it is reached, in registration order.  A released ``WRITE`` runs
        lines 12–18: a wait it lets through fires in the same pass if it was
        registered later, in the next pass if earlier.  A pass that a
        release from :meth:`_await_op` interrupted skips what it fired.
        """
        w_sync = self.state.w_sync
        waits, due = self._waits, self._due
        while self._scan_due and not self.crashed:
            self._scan_due = False
            batch = []
            if any(waits):
                for j, least in enumerate(due):
                    if w_sync[j] >= least:
                        batch += waits[j]
            if self._op_line:
                batch.append((0, self._op_number, -1, None))
            batch.sort(key=_NUMBER)
            for wait in batch:
                threshold, _number, j, message = wait
                if j < 0:
                    if self._op_ready():
                        self._fire_op()
                    continue
                queue = waits[j]
                if w_sync[j] < threshold or wait not in queue:
                    continue
                at = queue.index(wait)
                rest = waits[j] = queue[:at] + queue[at + 1 :]
                due[j] = min(rest)[0] if rest else _NOTHING_QUEUED
                if message is None:
                    self.network.send(self.pid, j, PROCEED)  # line 21
                else:
                    self.on_message(j, message)  # line 11 holds: lines 12-18

    def abandon_operation(self) -> None:
        """Let go of a stalled operation and of its wait.

        The line-11 / line-20 waits stay: they belong to the replica, not
        to the operation.
        """
        super().abandon_operation()
        self._op_line, self._op_done = 0, None

    def waiting_on(self) -> list[str]:
        """The pending waits' labels, in registration order (the operation wait too)."""
        if self.crashed:
            return []
        pending = [wait for queue in self._waits for wait in queue]
        if self._op_line:
            pending.append((0, self._op_number, -1, None))
        pending.sort(key=_NUMBER)
        labels = []
        for threshold, _number, j, message in pending:
            if j < 0:
                labels.append(self._op_label())
            elif message is None:
                labels.append("line 20 freshness wait (reader p%d, sn=%d)" % (j, threshold))
            else:
                labels.append("line 11 reorder buffer (from p%d, bit=%d)" % (j, message.bit))
        return labels

    def _op_label(self) -> str:
        """The pending operation wait's diagnostic label."""
        if self._op_line == 3:
            return "write#%d line 3 quorum" % self._w_awaited
        rsn = self.state.r_sync[self.pid]
        if self._op_line == 7:
            return "read#%d line 7 quorum" % rsn
        return "read#%d line 9 quorum (sn=%d)" % (rsn, self._w_awaited)

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
            if wsn >= self._due[src]:  # reached the least threshold queued for p_j
                self._scan_due = True
        elif cls is ProceedMessage:
            # ``when PROCEED() is received from p_j`` — line 22:
            # r_sync_i[j] <- r_sync_i[j] + 1
            r_sync = st.r_sync
            answered = r_sync[src] = r_sync[src] + 1
            if answered == r_sync[self.pid]:
                # One more answer to the current read: release at the one
                # that completes line 7's quorum, not before and not after.
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
        overtaking message until line 18 has processed the predecessor — then
        it is handled like any other (``on_message``, where line 11 now holds).
        """
        self._reordered_writes += 1
        self._hold(src, self.state.w_sync[src] + 1, message)

    # -- READ() ---------------------------------------------------------------

    def _handle_read(self, src: int) -> None:
        """``when READ() is received from p_j`` — lines 19–21."""
        w_sync = self.state.w_sync

        # line 19: sn <- w_sync_i[i]   (freshness point fixed at reception time)
        sn = w_sync[self.pid]

        # line 20: wait (w_sync_i[j] >= sn)
        # line 21: send PROCEED() to p_j
        if w_sync[src] >= sn:
            # The requester is already fresh (nearly every READ): a wait that
            # holds when registered fires at once and then releases what an
            # earlier handler of the same coalesced batch made due.
            self.network.send(self.pid, src, PROCEED)
            if self._scan_due:
                self.check_guards()
        else:
            self._hold(src, sn, None)

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
