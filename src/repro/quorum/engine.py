"""The broadcast/collect phase engine.

A *phase* is the unit every quorum protocol is built from:

1. broadcast a phase message to every other process;
2. count the sender's own (implicit) reply;
3. collect replies until at least ``n - t`` processes have answered,
   rejecting *stale* replies (answers to an earlier phase, identified by a
   per-phase **tag** such as a write sequence number or read request number);
4. aggregate the replies and run the continuation.

The wait of step 3 is a **count**, and it is reached at the instant the
reply that reaches it is accepted: :meth:`QuorumCollector.accept`, the one
place a reply is counted, compares the count with the threshold right there
and runs the phase's continuation — exactly once, at the quorum-th distinct
reply.  Nothing is polled, and a process built on the engine keeps no guards.

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
from repro.quorum.tracker import QuorumTracker
from repro.registers.base import RegisterProcess
from repro.transport.runtime import render_label

#: Sentinel: "this phase has no self-reply" (distinct from a ``None`` payload).
NO_SELF_REPLY = object()


class QuorumCollector:
    """One in-flight (or retained) phase: tag, aggregator, threshold, continuation.

    The collector is the stale-phase guard made explicit: a reply is accepted
    only while the phase is open *and* carries the phase's tag.  Closing a
    phase (when its operation completes) freezes the reply set — late replies
    are ignored, exactly like the pre-engine ``pending = None`` idiom.

    ``on_quorum`` is the continuation while the phase still waits for its
    quorum, and ``None`` once it has run (or the process crashed): a phase
    fires at most once, and replies past the quorum are only recorded.
    """

    __slots__ = ("slot", "tag", "aggregator", "quorum_size", "on_quorum", "label", "closed")

    def __init__(
        self,
        slot: str,
        tag: Any,
        aggregator: ReplyAggregator,
        tracker: QuorumTracker,
        on_quorum: Optional[Callable[["QuorumCollector"], None]] = None,
        label: Any = "",
    ) -> None:
        self.slot = slot
        self.tag = tag
        self.aggregator = aggregator
        self.quorum_size = tracker.quorum_size
        self.on_quorum = on_quorum
        #: Diagnostic tag, a string or a lazy ``(format, *args)`` tuple (read
        #: only when a run is stuck: ``PhaseRegisterProcess.waiting_on``).
        self.label = label
        self.closed = False

    @property
    def replies(self) -> dict:
        """Responder pid -> payload, in arrival order."""
        return self.aggregator.replies

    def satisfied(self) -> bool:
        """True when at least ``n - t`` processes (self included) replied."""
        return len(self.aggregator.replies) >= self.quorum_size

    def accept(self, src: int, payload: Any = None) -> bool:
        """Count one reply (ignored when closed or duplicate).

        The reply that brings the count to ``n - t`` runs the continuation,
        here, with that reply already recorded.
        """
        if self.closed:
            return False
        accepted = self.aggregator.accept(src, payload)
        if accepted:
            self.fire_if_due()
        return accepted

    def fire_if_due(self) -> None:
        """Run the continuation if it has not run and the quorum is there."""
        on_quorum = self.on_quorum
        if on_quorum is not None and len(self.aggregator.replies) >= self.quorum_size:
            self.on_quorum = None
            on_quorum(self)

    def result(self) -> Any:
        """The aggregator's reduction over the collected replies."""
        return self.aggregator.result()

    def close(self) -> None:
        """Stop accepting replies (the reply set is retained)."""
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"QuorumCollector({self.slot!r}, tag={self.tag!r}, "
            f"{len(self.aggregator.replies)}/{self.quorum_size}, {state})"
        )


class PhaseRegisterProcess(RegisterProcess):
    """A register process whose operations are sequences of quorum phases.

    Subclasses express each protocol phase as one :meth:`start_phase` call
    and route reply messages through :meth:`phase_reply` (or
    :meth:`active_phase` when the payload needs per-reply computation).  The
    engine owns the reply sets, the stale-phase guards and the quorum counts
    the pre-engine implementations each hand-rolled.
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
        (the default) for phases where it does not.  A quorum that is already
        there when the send returns runs ``on_quorum`` before this returns.
        """
        phase = QuorumCollector(
            slot,
            tag,
            aggregator if aggregator is not None else AckCounter(),
            self.quorum,
            on_quorum,
            label,
        )
        self._phases[slot] = phase
        if self_reply is not NO_SELF_REPLY:
            phase.aggregator.accept(self.pid, self_reply)
        self.send(self._peers, message)
        if self.crashed:
            # Crashed before the call, or killed by a send hook mid-list: a
            # process that takes no more steps waits for nothing.
            phase.on_quorum = None
        else:
            phase.fire_if_due()
        return phase

    def active_phase(self, slot: str, tag: Any = None) -> Optional[QuorumCollector]:
        """The open phase in ``slot`` carrying ``tag``, or None (stale guard)."""
        phase = self._phases.get(slot)
        if phase is None or phase.closed or phase.tag != tag:
            return None
        return phase

    def phase_reply(self, slot: str, src: int, payload: Any = None, tag: Any = None) -> bool:
        """Accept one reply for ``slot`` if the phase is open and ``tag`` matches."""
        phase = self.active_phase(slot, tag)
        if phase is None:
            return False
        return phase.accept(src, payload)

    def close_phases(self, *slots: str) -> None:
        """Close the named phases (idempotent; missing slots are ignored)."""
        for slot in slots:
            phase = self._phases.get(slot)
            if phase is not None:
                phase.close()

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
            f"({len(phase.aggregator.replies)}/{phase.quorum_size} replies)"
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
                total += len(phase.aggregator.replies)
        return total
