"""Unit tests for the event queue primitives."""

import pytest

from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"), label="c")
        queue.push(1.0, lambda: fired.append("a"), label="a")
        queue.push(2.0, lambda: fired.append("b"), label="b")
        while queue:
            queue.pop()[2].action()
        assert fired == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for name in ["first", "second", "third"]:
            queue.push(5.0, lambda n=name: fired.append(n), label=name)
        while queue:
            queue.pop()[2].action()
        assert fired == ["first", "second", "third"]

    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        event_a = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(event_a)
        assert len(queue) == 1

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        queue.cancel(event)
        while queue:
            queue.pop()[2].action()
        assert fired == ["kept"]

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(4.0, lambda: None)
        queue.cancel(event)
        assert queue.peek_time() == 4.0

    def test_peek_time_empty_queue(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_queue_returns_none(self):
        assert EventQueue().pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_clear_discards_everything(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_pending_labels_sorted_by_time(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None, label="late")
        queue.push(1.0, lambda: None, label="early")
        assert queue.pending_labels() == ["early", "late"]

    def test_labels_are_rendered_on_demand(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, label=("arrival %d of %s", 7, "client"))
        queue.push(2.0, lambda: None, label="plain")
        queue.push(3.0, lambda: None, label=12)
        assert queue.pending_labels() == ["arrival 7 of client", "plain", "12"]

    def test_bool_conversion(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, lambda: None)
        assert queue


class TestEvent:
    def test_ordering_by_time_then_seq(self):
        early = Event(time=1.0, seq=5, action=lambda: None)
        late = Event(time=2.0, seq=1, action=lambda: None)
        assert early < late
        tie_a = Event(time=1.0, seq=1, action=lambda: None)
        tie_b = Event(time=1.0, seq=2, action=lambda: None)
        assert tie_a < tie_b

    def test_cancel_sets_flag(self):
        event = Event(time=0.0, seq=0, action=lambda: None)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled


class TestCancelledAccounting:
    """``_cancelled_in_heap`` must always equal the cancelled entries actually
    in the heap — pop, peek_time and compaction share one bookkeeping path."""

    @staticmethod
    def _cancelled_actually_in_heap(queue):
        return sum(1 for entry in queue._heap if entry[2].cancelled)

    def _assert_consistent(self, queue):
        assert queue._cancelled_in_heap == self._cancelled_actually_in_heap(queue)
        assert queue._cancelled_in_heap >= 0
        assert len(queue) == sum(not entry[2].cancelled for entry in queue._heap)

    def test_peek_time_discards_with_exact_accounting(self):
        queue = EventQueue()
        doomed = [queue.push(float(t), lambda: None) for t in range(5)]
        survivor = queue.push(9.0, lambda: None)
        for event in doomed:
            queue.cancel(event)
        self._assert_consistent(queue)
        assert queue.peek_time() == 9.0
        self._assert_consistent(queue)
        assert queue._cancelled_in_heap == 0  # peek swept the cancelled head
        assert queue.pop()[2] is survivor
        self._assert_consistent(queue)

    def test_counter_never_drifts_under_mixed_operations(self):
        import random

        rng = random.Random(7)
        queue = EventQueue()
        live_handles = []
        for step in range(2000):
            roll = rng.random()
            if roll < 0.45:
                live_handles.append(queue.push(rng.uniform(0, 100), lambda: None))
            elif roll < 0.75 and live_handles:
                queue.cancel(live_handles.pop(rng.randrange(len(live_handles))))
            elif roll < 0.9:
                popped = queue.pop()
                if popped is not None:
                    event = popped[2]
                    assert not event.cancelled
                    live_handles = [e for e in live_handles if e is not event]
            else:
                queue.peek_time()
            self._assert_consistent(queue)
        # Drain everything; the counter must land exactly on zero.
        while queue.pop() is not None:
            self._assert_consistent(queue)
        assert queue._cancelled_in_heap == 0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        self._assert_consistent(queue)
        assert queue._cancelled_in_heap == 1
        assert queue.pop() is None
        assert queue._cancelled_in_heap == 0

    def test_cancelled_timer_and_in_flight_message_share_an_instant(self):
        """A message in flight is itself a heap tuple: it keeps its place in
        ``(time, seq)`` order among timers scheduled for the same instant,
        and sweeping a cancelled timer past it leaves the counter exact."""
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator
        from tests.sim.conftest import build_recorders

        simulator = Simulator()
        network = Network(simulator)  # FixedDelay(1.0)
        _sender, receiver = build_recorders(simulator, network, 2)
        queue = simulator._queue
        fired = []

        doomed = simulator.schedule_at(1.0, lambda: fired.append("doomed"), label="doomed")
        network.send(0, 1, "first")
        kept = simulator.schedule_at(1.0, lambda: fired.append("timer"), label="timer")
        network.send(0, 1, "second")
        late_doomed = simulator.schedule_at(1.0, lambda: fired.append("late"), label="late")
        simulator.cancel(doomed)
        simulator.cancel(late_doomed)
        self._assert_consistent(queue)
        assert queue._cancelled_in_heap == 2
        assert simulator.pending_labels() == [
            "deliver 'first' p0->p1",
            "timer",
            "deliver 'second' p0->p1",
        ]

        first = queue.pop()  # sweeps the cancelled head, then pops the delivery
        self._assert_consistent(queue)
        assert queue._cancelled_in_heap == 1
        assert first[2].describe(*first[3:]) == "deliver 'first' p0->p1" and first[0] == 1.0
        first[2](*first[3:])
        assert queue.pop()[2] is kept
        kept()
        simulator.run()  # the second delivery, then the cancelled tail
        self._assert_consistent(queue)
        assert queue._cancelled_in_heap == 0 and len(queue) == 0
        assert fired == ["timer"]
        assert [message for _src, message in receiver.received] == ["first", "second"]

    def test_pop_with_a_limit_leaves_later_entries_queued(self):
        queue = EventQueue()
        doomed = queue.push(1.0, lambda: None)
        early = queue.push(2.0, lambda: None)
        late = queue.push(5.0, lambda: None)
        queue.cancel(doomed)
        assert queue.pop(limit=2.0)[2] is early
        assert queue.pop(limit=4.0) is None and len(queue) == 1
        self._assert_consistent(queue)
        assert queue.pop(limit=5.0)[2] is late

    def test_compaction_keeps_the_heap_list_the_event_loop_holds(self):
        """``Simulator.run`` / ``run_until`` read the heap list in place across
        events; an event that cancels enough timers to trigger compaction must
        not leave them popping a dead copy."""
        from repro.sim.scheduler import Simulator

        simulator = Simulator()
        queue = simulator._queue
        heap = queue._heap
        fired = []

        def live(name):
            return lambda: fired.append((name, simulator.now, simulator.pending_events))

        timers = [simulator.schedule_at(5.0 + 0.01 * i, live(f"doomed {i}")) for i in range(200)]
        for time in (2.0, 3.0, 3.0, 6.0, 9.0):  # before, among and after the doomed timers
            simulator.schedule_at(time, live(f"live@{time}"))

        def purge():
            for timer in timers:
                simulator.cancel(timer)
                self._assert_consistent(queue)
            # 200 cancelled against 5 live: the queue compacted (more than once).
            assert len(queue._heap) < 64 and simulator.pending_events == 5
            simulator.schedule_at(4.0, live("scheduled after the compaction"))

        simulator.schedule_at(1.0, purge)
        assert simulator.run_until(lambda: False) is False
        assert queue._heap is heap  # compacted in place, never rebound
        assert fired == [
            ("live@2.0", 2.0, 5),
            ("live@3.0", 3.0, 4),
            ("live@3.0", 3.0, 3),
            ("scheduled after the compaction", 4.0, 2),
            ("live@6.0", 6.0, 1),
            ("live@9.0", 9.0, 0),
        ]
        self._assert_consistent(queue)
        assert simulator.pending_events == 0 and simulator.executed_events == 7
