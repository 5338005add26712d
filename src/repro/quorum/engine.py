"""The broadcast/collect phase engine.

A *phase* is the unit every quorum protocol is built from:

1. broadcast a phase message to every other process;
2. count the sender's own (implicit) reply;
3. collect replies until at least ``n - t`` processes have answered,
   rejecting *stale* replies (answers to an earlier phase, identified by a
   per-phase **tag** such as a write sequence number or read request number);
4. aggregate the replies and run the continuation.

:class:`PhaseRegisterProcess` owns a small table of named phase *slots*
(``"write"``, ``"read"``, ``"writeback"``, ...): at most one phase is active
per slot, starting a new phase in a slot replaces the previous one, and a
phase that has served its purpose is **closed** (it stops accepting replies
but its reply set is retained — that is what the local-memory accounting of
Table 1 counts as the transient quorum sets).

History preservation contract
-----------------------------
``start_phase`` performs *exactly* the observable actions the hand-rolled
loops in the pre-engine registers performed, in the same order: the sends to
``other_process_ids()`` (ascending pid; one multi-destination ``send``), then
one guard registration.  Reply acceptance reproduces the ``tag == pending and
src not in replies`` checks.  Nothing else touches the simulator, so a ported
algorithm produces byte-identical histories
(``tests/workloads/golden_histories.json``) and identical per-operation
message counts (Theorem 2 / ``repro messages``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.quorum.aggregators import AckCounter, ReplyAggregator
from repro.quorum.tracker import QuorumTracker
from repro.registers.base import RegisterProcess

#: Sentinel: "this phase has no self-reply" (distinct from a ``None`` payload).
NO_SELF_REPLY = object()


class QuorumCollector:
    """One in-flight (or retained) phase: tag, aggregator, threshold, liveness.

    The collector is the stale-phase guard made explicit: a reply is accepted
    only while the phase is open *and* carries the phase's tag.  Closing a
    phase (when its operation completes) freezes the reply set — late replies
    are ignored, exactly like the pre-engine ``pending = None`` idiom.
    """

    __slots__ = ("slot", "tag", "aggregator", "tracker", "closed")

    def __init__(
        self,
        slot: str,
        tag: Any,
        aggregator: ReplyAggregator,
        tracker: QuorumTracker,
    ) -> None:
        self.slot = slot
        self.tag = tag
        self.aggregator = aggregator
        self.tracker = tracker
        self.closed = False

    @property
    def replies(self) -> dict:
        """Responder pid -> payload, in arrival order."""
        return self.aggregator.replies

    def satisfied(self) -> bool:
        """True when at least ``n - t`` processes (self included) replied."""
        return self.tracker.satisfied(len(self.aggregator.replies))

    def accept(self, src: int, payload: Any = None) -> bool:
        """Feed one reply to the aggregator (ignored when closed or duplicate)."""
        if self.closed:
            return False
        return self.aggregator.accept(src, payload)

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
            f"{len(self.aggregator.replies)}/{self.tracker.quorum_size}, {state})"
        )


class PhaseRegisterProcess(RegisterProcess):
    """A register process whose operations are sequences of quorum phases.

    Subclasses express each protocol phase as one :meth:`start_phase` call
    and route reply messages through :meth:`phase_reply` (or
    :meth:`active_phase` when the payload needs per-reply computation).  The
    engine owns the reply sets, the stale-phase guards and the quorum guards
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
        (the default) for phases where it does not.
        """
        phase = QuorumCollector(
            slot,
            tag,
            aggregator if aggregator is not None else AckCounter(),
            self.quorum,
        )
        self._phases[slot] = phase
        if self_reply is not NO_SELF_REPLY:
            phase.aggregator.accept(self.pid, self_reply)
        self.send(self.other_process_ids(), message)
        self.add_guard(phase.satisfied, lambda: on_quorum(phase), label=label)
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

    # ------------------------------------------------------------- inspection

    def phase_words(self, *slots: str) -> int:
        """Total retained reply-set sizes of the named slots (memory accounting)."""
        phases = self._phases
        total = 0
        for slot in slots:
            phase = phases.get(slot)
            if phase is not None:
                total += len(phase.aggregator.replies)
        return total
