"""Event primitives for the discrete-event simulator.

An :class:`Event` is a callback scheduled at a virtual time.  Events are kept
in an :class:`EventQueue`, a binary heap ordered by ``(time, seq)`` where
``seq`` is a monotonically increasing insertion counter.  The counter makes
ordering *total* and *deterministic*: two events scheduled for the same
virtual time always fire in the order they were scheduled, regardless of the
callback objects involved (callbacks are not comparable).

This module sits on the hottest path of every benchmark: one heap entry is
pushed, compared O(log n) times and popped per simulated message.  The queue
therefore accepts any object that honours the small **entry protocol** —
``entry()`` fires it, ``entry.time`` is its virtual time, ``entry.cancelled``
says whether to skip it, ``str(entry)`` is its diagnostic label — so the
network schedules its in-flight ``_Delivery`` records directly, with no
wrapper allocated around them (``Network.send`` pushes ``(time, seq, entry)``
onto the heap in place, drawing ``seq`` from the queue's own counter, so
deliveries interleave with events in exact scheduling order).
:class:`Event` is the general-purpose entry
(timers, crash triggers, client arrivals): a ``__slots__`` class whose label
may be *lazy* — a ``(format, *args)`` tuple, or any object whose ``str()`` is
the label — so nobody pays for formatting diagnostics that are only read
when a run gets stuck.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.transport.runtime import render_label


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Virtual time at which the event fires.
    seq:
        Insertion sequence number; ties on ``time`` are broken by ``seq`` so
        the execution order is deterministic.
    action:
        Zero-argument callable executed when the event fires.
    label:
        Human-readable tag used by tracing and error messages.  May be any
        object — a ``(format, *args)`` tuple is ``%``-formatted, anything else
        goes through ``str()`` — and is rendered on demand (lazy labels keep
        formatting costs off the hot path).
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: Any = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __call__(self) -> None:
        self.action()

    def __str__(self) -> str:
        return render_label(self.label)

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when it is popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}, label={str(self)!r}{state})"


#: Rebuild the heap when at least this many cancelled entries have
#: accumulated *and* they outnumber the live ones — keeps heap operations
#: O(log live) instead of O(log total) under churny cancel-heavy workloads
#: (timeouts, speculative retries) without ever paying for compaction in
#: cancel-free runs.
_COMPACT_MIN_CANCELLED = 64


class EventQueue:
    """A deterministic priority queue of entries (see the module docstring).

    The queue assigns sequence numbers itself so that callers cannot
    accidentally produce non-deterministic orderings.  Cancelled events are
    lazily discarded on :meth:`pop`, and the heap is periodically compacted
    when cancelled entries dominate it.

    The heap stores ``(time, seq, entry)`` tuples rather than entries: tuple
    comparison runs entirely in C (floats, then ints — never reaching the
    incomparable entry object), so heap sifts make no Python-level ``__lt__``
    calls.  This is the single largest win on the hot path.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled_in_heap = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[[], None],
        label: Any = "",
    ) -> Event:
        """Schedule ``action`` at virtual ``time`` and return the event handle."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = next(self._counter)
        event = Event(time, seq, action, label)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent)."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self._cancelled_in_heap += 1
            if (
                self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap > self._live
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (heap order is seq-stable).

        In place: the simulator's event loop holds the heap list across
        events, and an event may cancel enough timers to land here.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0

    def _discard_cancelled_head(self) -> None:
        """Drop cancelled entries from the heap top, keeping the counter exact.

        The single place cancelled entries leave the heap outside
        :meth:`_compact` — ``pop`` and ``peek_time`` both discard through
        here, so ``_cancelled_in_heap`` always equals the number of
        cancelled entries actually in the heap (the drift test pins this).
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1

    def pop(self, limit: Optional[float] = None) -> Optional[Any]:
        """Remove and return the next live entry, or ``None`` if there is none.

        With a ``limit``, an entry scheduled strictly after it stays queued
        and ``None`` is returned (the queue is then still non-empty).
        """
        heap = self._heap
        if heap and heap[0][2].cancelled:
            self._discard_cancelled_head()
        if not heap or (limit is not None and heap[0][0] > limit):
            return None
        self._live -= 1
        return heapq.heappop(heap)[2]

    def peek_time(self) -> Optional[float]:
        """Return the virtual time of the next live event without removing it."""
        self._discard_cancelled_head()
        heap = self._heap
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Discard all pending events."""
        self._heap.clear()
        self._live = 0
        self._cancelled_in_heap = 0

    def pending_labels(self) -> list[str]:
        """Return labels of live entries, sorted by (time, seq) — useful in error messages."""
        return [str(item[2]) for item in sorted(self._heap) if not item[2].cancelled]


def never(_: Any = None) -> bool:
    """A predicate that is never satisfied (useful default for guards in tests)."""
    return False


def always(_: Any = None) -> bool:
    """A predicate that is always satisfied (useful default for guards in tests)."""
    return True
