"""The discrete-event scheduler (virtual clock + event loop).

The :class:`Simulator` owns the virtual clock and the :class:`EventQueue`.
Protocol code never blocks: waits are expressed as *guards* on processes
(see :mod:`repro.transport.runtime`) or as events scheduled in the future.  The
simulator advances time only when it pops an event, so the clock jumps from
event to event — there is no real-time component at all.

Determinism contract
--------------------
Given the same initial configuration (processes, delay model seed, crash
schedule, workload seed), :meth:`Simulator.run` produces exactly the same
sequence of events, message deliveries, and final states.  All the tests and
benchmarks rely on this.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.transport.runtime import render_label


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or stuck state."""


class Simulator:
    """Deterministic virtual-time event loop.

    Parameters
    ----------
    max_events:
        Safety valve: a run that executes more events than this raises
        :class:`SimulationError` instead of spinning forever (useful when a
        protocol bug creates a message loop).
    """

    def __init__(self, max_events: int = 5_000_000) -> None:
        self._queue = EventQueue()
        self._now: float = 0.0
        self._executed = 0
        self._max_events = max_events
        self._stopped = False
        # Observers are called after every executed event; verification hooks
        # (e.g. global invariant monitors) register themselves here.
        self._observers: list[Callable[["Simulator"], None]] = []

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live events still in the queue."""
        return len(self._queue)

    # -------------------------------------------------------------- scheduling

    def schedule_at(self, time: float, action: Callable[[], None], label: Any = "") -> Event:
        """Schedule ``action`` at absolute virtual ``time`` (must not be in the past).

        ``label`` may be a string, a ``(format, *args)`` tuple or any object;
        it is rendered only when diagnostics are produced (lazy labels — see
        :class:`~repro.sim.events.Event`).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {render_label(label)!r} "
                f"at {time} < current time {self._now}"
            )
        return self._queue.push(time, action, label)

    def schedule_after(self, delay: float, action: Callable[[], None], label: Any = "") -> Event:
        """Schedule ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {render_label(label)!r}")
        return self._queue.push(self._now + delay, action, label)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self._queue.cancel(event)

    def add_observer(self, observer: Callable[["Simulator"], None]) -> None:
        """Register a callback invoked after every executed event."""
        self._observers.append(observer)

    def stop(self) -> None:
        """Request the event loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------- loop

    def step(self, limit: Optional[float] = None) -> bool:
        """Execute a single event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty — or, with a ``limit``, if the next event lies strictly after
        that virtual time (it stays queued and the clock does not move).

        Hot path: the popped queue entry names its own action (an
        :class:`~repro.sim.events.Event`, or a message in flight and the
        endpoint it is delivered through), and the common case (no
        observers) allocates nothing of its own per event and calls no
        observer — verification hooks that do register observers pay for
        them, benchmark runs do not.
        """
        entry = self._queue.pop(limit)
        if entry is None:
            return False
        time = entry[0]
        if time < self._now:  # pragma: no cover - guarded by schedule_at
            raise SimulationError("event queue produced an event in the past")
        self._now = time
        self._executed += 1
        if self._executed > self._max_events:
            raise self._too_many_events()
        entry[2](*entry[3:])
        if self._observers:
            for observer in self._observers:
                observer(self)
        return True

    def _too_many_events(self) -> SimulationError:
        return SimulationError(
            f"exceeded max_events={self._max_events}; "
            "the protocol may be generating an unbounded message storm"
        )

    def _loop(self, predicate: Optional[Callable[[], bool]], limit: Optional[float]) -> bool:
        """The event loop behind :meth:`run` (no predicate) and :meth:`run_until`.

        Returns ``True`` as soon as the predicate (evaluated after each event)
        holds, ``False`` when the queue drained, the next event lies beyond
        ``limit`` (the clock is advanced to it) or :meth:`stop` was called.

        This is :meth:`step` and :meth:`EventQueue.pop
        <repro.sim.events.EventQueue.pop>` written out in one frame — the
        same checks in the same order, one Python call per event (the entry's
        own) instead of three.  It reads the queue's heap in place across
        events, which is why the queue compacts in place.
        """
        queue = self._queue
        heap = queue._heap
        observers = self._observers
        max_events = self._max_events
        while not self._stopped:
            while heap and heap[0][2].cancelled:
                heappop(heap)
                queue._cancelled_in_heap -= 1
            if not heap:
                break
            if limit is not None and heap[0][0] > limit:
                self._now = max(self._now, limit)
                break
            entry = heappop(heap)
            time = entry[0]
            if time < self._now:  # pragma: no cover - guarded by schedule_at
                raise SimulationError("event queue produced an event in the past")
            self._now = time
            self._executed = executed = self._executed + 1
            if executed > max_events:
                raise self._too_many_events()
            entry[2](*entry[3:])
            if observers:
                for observer in observers:
                    observer(self)
            if predicate is not None and predicate():
                return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or :meth:`stop` is called.

        ``until`` is an absolute virtual time; events scheduled strictly after
        it remain in the queue and the clock is advanced to ``until``.
        """
        self._stopped = False
        self._loop(None, until)

    def run_before(self, until: float) -> None:
        """Process every event *strictly before* ``until``; advance the clock to it.

        The shard-parallel barrier primitive (:mod:`repro.parallel`): after a
        worker's batch completes locally, the cluster agrees on the global
        completion time ``T`` and every worker calls ``run_before(T)``.
        Events at exactly ``T`` stay pending — in the single-process
        execution, same-instant events scheduled after the batch-completing
        event are *not* processed before the next batch is submitted, and the
        barrier must reproduce that state exactly.
        """
        self._stopped = False
        while not self._stopped:
            next_time = self._queue.peek_time()
            if next_time is None or next_time >= until:
                break
            self.step()
        self._now = max(self._now, until)

    def run_until(
        self, predicate: Optional[Callable[[], bool]], limit: Optional[float] = None
    ) -> bool:
        """Run until ``predicate()`` becomes true.

        Returns ``True`` if the predicate was satisfied, ``False`` if the
        queue drained (or the ``limit`` virtual time passed) first.  The
        predicate is evaluated before executing any event and after each one.

        With no predicate the run lasts until an event calls :meth:`stop`
        (for a caller who knows which events can end it), and the return
        value says whether one did.
        """
        self._stopped = False
        if predicate is None:
            self._loop(None, limit)
            return self._stopped
        if predicate():
            return True
        return self._loop(predicate, limit) or predicate()

    def drain(self) -> None:
        """Run until the event queue is completely empty."""
        self.run(until=None)

    # -------------------------------------------------------------- inspection

    def pending_labels(self) -> list[str]:
        """Labels of pending events (diagnostics for stuck simulations)."""
        return self._queue.pending_labels()

    def require_quiescent(self, context: str = "") -> None:
        """Raise :class:`SimulationError` if events are still pending.

        Used by tests that expect a protocol to reach quiescence (e.g. after
        all operations completed and all forwarded messages were processed).
        """
        if self.pending_events:
            labels = ", ".join(self.pending_labels()[:10])
            raise SimulationError(
                f"simulation not quiescent{': ' + context if context else ''}; "
                f"{self.pending_events} events pending (first: {labels})"
            )
