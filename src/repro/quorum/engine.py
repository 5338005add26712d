"""The broadcast/collect phase engine.

A *phase* is the unit every quorum protocol is built from:

1. broadcast a phase message to every other process;
2. count the sender's own (implicit) reply;
3. collect replies until at least ``n - t`` processes have answered,
   rejecting *stale* replies (answers to an earlier phase, identified by a
   per-phase **tag** such as a write sequence number or read request number);
4. aggregate the replies and run the continuation.

The wait of step 3 is a **count**, and it is reached at the instant the
reply that reaches it is recorded: :meth:`PhaseRegisterProcess.phase_reply`,
the one place a reply is counted, does the whole job in its own frame — the
stale-phase guard, the duplicate check, recording the payload, the ``n - t``
comparison and the single firing of the continuation, at the quorum-th
distinct reply.  Nothing is polled, and a process built on the engine keeps
no guards.

:class:`PhaseRegisterProcess` owns a small table of named phase *slots*
(``"write"``, ``"read"``, ``"writeback"``, ...): at most one phase is active
per slot, starting a new phase in a slot replaces the previous one, and a
phase that has served its purpose is **closed** (it stops accepting replies
but its reply set is retained — that is what the local-memory accounting of
Table 1 counts as the transient quorum sets).

History preservation contract
-----------------------------
``start_phase`` performs *exactly* the observable actions the hand-rolled
loops in the pre-engine registers performed, in the same order: the sender's
own reply, then the sends to every other process (ascending pid; one
multi-destination ``send``), then the continuation if the quorum is already
there.  Reply acceptance reproduces the ``tag == pending and src not in
replies`` checks, and the continuation runs inside the handler of the reply
that completes the quorum, with that reply recorded — where a wait polled
after every delivery would have run it, because accepting the reply is the
last thing each reply handler does.  Nothing else touches the simulator, so a
ported algorithm produces byte-identical histories
(``tests/workloads/golden_histories.json``) and identical per-operation
message counts (Theorem 2 / ``repro messages``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.quorum.aggregators import AckCounter, ReplyAggregator
from repro.registers.base import RegisterProcess
from repro.transport.runtime import render_label

#: Sentinel: "this phase has no self-reply" (distinct from a ``None`` payload).
NO_SELF_REPLY = object()

#: The reduction of a phase that names none: its replies are acknowledgements.
_ACKS = AckCounter()


class QuorumCollector:
    """One in-flight (or retained) phase: tag, replies, threshold, continuation.

    A reply counts only while the phase is open *and* carries the phase's
    tag (:meth:`PhaseRegisterProcess.phase_reply` checks both).  Closing a
    phase (when its operation completes) freezes the reply set — late replies
    are ignored, exactly like the pre-engine ``pending = None`` idiom.

    ``replies`` maps responder pid -> payload in arrival order (the first
    reply of a responder wins).  ``on_quorum`` is the continuation while the
    phase still waits for its quorum, and ``None`` once it has run (or the
    phase closed, or the process crashed): a phase fires at most once, and
    replies past the quorum are only recorded.
    """

    __slots__ = (
        "slot", "tag", "aggregator", "replies", "quorum_size", "on_quorum", "label", "closed"
    )

    def __init__(
        self,
        slot: str,
        tag: Any,
        aggregator: ReplyAggregator,
        quorum_size: int,
        on_quorum: Optional[Callable[["QuorumCollector"], None]],
        label: Any,
    ) -> None:
        self.slot = slot
        self.tag = tag
        self.aggregator = aggregator
        self.replies: dict = {}
        self.quorum_size = quorum_size
        self.on_quorum = on_quorum
        #: Diagnostic tag, a string or a lazy ``(format, *args)`` tuple (read
        #: only when a run is stuck: ``PhaseRegisterProcess.waiting_on``).
        self.label = label
        self.closed = False

    def accept(self, src: int, payload: Any = None) -> None:
        """Record ``src``'s reply and run nothing: how ``start_phase`` seeds the
        sender's own reply.  A peer's reply is counted, and the continuation
        run, by :meth:`PhaseRegisterProcess.phase_reply`."""
        self.replies[src] = payload

    def result(self) -> Any:
        """The aggregator's reduction over the collected replies."""
        return self.aggregator.result(self.replies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"QuorumCollector({self.slot!r}, tag={self.tag!r}, "
            f"{len(self.replies)}/{self.quorum_size}, {state})"
        )


class PhaseRegisterProcess(RegisterProcess):
    """A register process whose operations are sequences of quorum phases.

    Subclasses express each protocol phase as one :meth:`start_phase` call
    and route reply messages through :meth:`phase_reply`.  The engine owns
    the reply sets, the stale-phase guards and the quorum counts the
    pre-engine implementations each hand-rolled.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._phases: dict[str, QuorumCollector] = {}

    # ------------------------------------------------------------ phase control

    def start_phase(
        self,
        slot: str,
        *,
        on_quorum: Callable[[QuorumCollector], None],
        message: Any = None,
        tag: Any = None,
        aggregator: Optional[ReplyAggregator] = None,
        self_reply: Any = NO_SELF_REPLY,
        label: Any = "",
    ) -> QuorumCollector:
        """Send ``message`` to every other process; run ``on_quorum`` once ``n - t`` replied.

        Replaces any previous phase in ``slot`` (its retained replies stop
        counting toward local memory).  ``self_reply`` seeds the sender's own
        implicit reply *before* the broadcast, mirroring the pseudocode's
        "the writer itself counts" convention; pass :data:`NO_SELF_REPLY`
        (the default) for phases where it does not.  ``aggregator`` is the
        reduction :meth:`QuorumCollector.result` applies (acknowledgement
        counting by default).  A quorum that is already there when the send
        returns runs ``on_quorum`` before this returns.
        """
        phase = self._phases[slot] = QuorumCollector(
            slot,
            tag,
            _ACKS if aggregator is None else aggregator,
            self.quorum.quorum_size,
            on_quorum,
            label,
        )
        if self_reply is not NO_SELF_REPLY:
            phase.accept(self.pid, self_reply)
        if not self.crashed:
            self.network.send(self.pid, self._peers, message)
        if self.crashed:
            # Crashed before the call, or killed by a send hook mid-list: a
            # process that takes no more steps waits for nothing.
            phase.on_quorum = None
        elif len(phase.replies) >= phase.quorum_size:
            phase.on_quorum = None
            on_quorum(phase)
        return phase

    def phase_reply(self, slot: str, src: int, payload: Any = None, tag: Any = None) -> bool:
        """Count ``src``'s reply to the open phase in ``slot`` carrying ``tag``.

        Returns ``False`` for a stale reply (no such phase, closed, or another
        tag) and for a duplicate (``src`` already replied).  The reply that
        brings the count to ``n - t`` runs the continuation, here, with that
        reply already recorded; later replies are only recorded.
        """
        phase = self._phases.get(slot)
        if phase is None or phase.closed or phase.tag != tag:
            return False
        replies = phase.replies
        if src in replies:
            return False
        replies[src] = payload
        on_quorum = phase.on_quorum
        if on_quorum is not None and len(replies) >= phase.quorum_size:
            phase.on_quorum = None
            on_quorum(phase)
        return True

    def close_phases(self, *slots: str) -> None:
        """Close the named phases (idempotent; missing slots are ignored).

        A closed phase never fires, so it drops its continuation; its reply
        set stays (local-memory accounting reads it).
        """
        phases = self._phases
        for slot in slots:
            phase = phases.get(slot)
            if phase is not None:
                phase.closed = True
                phase.on_quorum = None

    def abandon_operation(self) -> None:
        """Let go of a stalled operation, and close every phase it left open."""
        super().abandon_operation()
        self.close_phases(*self._phases)

    def crash(self) -> None:
        """Halt the process; its phases' continuations will never run."""
        super().crash()
        for phase in self._phases.values():
            phase.on_quorum = None

    # ------------------------------------------------------------- inspection

    def waiting_on(self) -> list[str]:
        """Every open phase still short of its quorum, with its progress."""
        return super().waiting_on() + [
            f"{render_label(phase.label) or phase.slot} "
            f"({len(phase.replies)}/{phase.quorum_size} replies)"
            for phase in self._phases.values()
            if phase.on_quorum is not None and not phase.closed
        ]

    def phase_words(self, *slots: str) -> int:
        """Total retained reply-set sizes of the named slots (memory accounting)."""
        phases = self._phases
        total = 0
        for slot in slots:
            phase = phases.get(slot)
            if phase is not None:
                total += len(phase.replies)
        return total
