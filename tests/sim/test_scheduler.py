"""Unit tests for the virtual-time simulator."""

from functools import partial

import pytest

from repro.sim.scheduler import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_at_and_run(self):
        sim = Simulator()
        times = []
        sim.schedule_at(2.0, lambda: times.append(sim.now))
        sim.schedule_at(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]
        assert sim.now == 2.0

    def test_schedule_after_uses_current_time(self):
        sim = Simulator()
        observed = []
        sim.schedule_at(5.0, lambda: sim.schedule_after(3.0, lambda: observed.append(sim.now)))
        sim.run()
        assert observed == [8.0]

    def test_schedule_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("no"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_executed_and_pending_counters(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.step()
        assert sim.executed_events == 1
        assert sim.pending_events == 1


class TestRunModes:
    def test_run_until_time_limit_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_predicate(self):
        sim = Simulator()
        state = {"count": 0}

        def bump():
            state["count"] += 1

        for t in range(1, 10):
            sim.schedule_at(float(t), bump)
        satisfied = sim.run_until(lambda: state["count"] >= 3)
        assert satisfied
        assert state["count"] == 3
        assert sim.now == 3.0

    def test_run_until_predicate_already_true(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.run_until(lambda: True)
        assert sim.executed_events == 0

    def test_run_until_returns_false_when_queue_drains(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert not sim.run_until(lambda: False)

    def test_run_until_with_limit(self):
        sim = Simulator()
        sim.schedule_at(100.0, lambda: None)
        assert not sim.run_until(lambda: False, limit=10.0)
        assert sim.now == 10.0

    def test_stop_halts_the_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [(1, None)] or fired == [1]  # tuple from the lambda expression
        assert sim.pending_events == 1

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_drain_executes_everything(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.schedule_at(float(t), lambda t=t: fired.append(t))
        sim.drain()
        assert fired == [0, 1, 2, 3, 4]


class TestSafetyAndObservers:
    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def reschedule():
            sim.schedule_after(1.0, reschedule)

        sim.schedule_at(0.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_observer_called_after_every_event(self):
        sim = Simulator()
        calls = []
        sim.add_observer(lambda s: calls.append(s.now))
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert calls == [1.0, 2.0]

    def test_require_quiescent_raises_with_pending_events(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, label="straggler")
        with pytest.raises(SimulationError, match="straggler"):
            sim.require_quiescent("test")

    def test_require_quiescent_passes_when_empty(self):
        sim = Simulator()
        sim.require_quiescent()  # must not raise

    def test_drain_runs_each_independent_simulator(self):
        sims = [Simulator() for _ in range(3)]
        fired = []
        for index, sim in enumerate(sims):
            sim.schedule_at(1.0, lambda i=index: fired.append(i))
        for sim in sims:
            sim.drain()
        assert fired == [0, 1, 2]


def test_determinism_same_schedule_same_order():
    """Two identically configured simulators execute identically."""

    def build():
        sim = Simulator()
        order = []
        for t in [3.0, 1.0, 2.0, 1.0]:
            sim.schedule_at(t, lambda t=t: order.append((sim.now, t)))
        sim.run()
        return order

    assert build() == build()


# ------------------------------------------- run / run_until ≡ a loop of step()
#
# ``run`` and ``run_until`` execute ``step``'s body (and the queue's pop) in
# their own frame.  The reference below is what they were: ``step`` called in
# a loop.  Both play the same seeded program — events that spawn, cancel,
# stop the loop or do nothing, with ties and cancelled heads — through the
# same seeded sequence of ``run`` / ``run_until`` calls, and must execute the
# same entries at the same clock values with the same observer calls, return
# the same values and raise the same errors after the same event.


def _reference_run(sim, until=None):
    sim._stopped = False
    while not sim._stopped:
        if not sim.step(until):
            if sim._queue:  # the next event lies beyond the horizon
                sim._now = max(sim._now, until)
            break


def _reference_run_until(sim, predicate, limit=None):
    sim._stopped = False
    if predicate():
        return True
    while not sim._stopped:
        if not sim.step(limit):
            if sim._queue:
                sim._now = max(sim._now, limit)
            break
        if predicate():
            return True
    return predicate()


class _Program:
    """One seeded world: a schedule that rewrites itself while it runs."""

    def __init__(self, seed, inlined):
        import random

        self.rng = random.Random(seed)
        self.sim = sim = Simulator(max_events=self.rng.choice([6, 15, 5_000_000]))
        self.run = sim.run if inlined else partial(_reference_run, sim)
        self.run_until = sim.run_until if inlined else partial(_reference_run_until, sim)
        self.log = []
        self.handles = []
        self.fired = set()
        self.bumps = 0
        self.seen = set()  # which corner cases this seed reached
        if self.rng.random() < 0.5:
            self.sim.add_observer(lambda sim: self.log.append(("observer", sim.now, sim.executed_events)))
        for _ in range(self.rng.randint(3, 25)):
            self._schedule(self.rng.choice([0.0, 1.0, 1.0, 2.0, 3.5, 7.0]))

    def _schedule(self, delay):
        name = len(self.handles)
        action = self.rng.choice(["noop", "noop", "bump", "bump", "spawn", "cancel", "cancel", "stop"])
        argument = [self.rng.random() for _ in range(4)]
        self.handles.append(
            self.sim.schedule_after(delay, lambda: self._fire(name, action, argument), label=("event %d", name))
        )

    def _fire(self, name, action, argument):
        sim = self.sim
        self.fired.add(name)
        self.log.append((name, action, sim.now, sim.executed_events, sim.pending_events))
        if action == "bump":
            self.bumps += 1
        elif action == "spawn":
            for fraction in argument[:2]:
                self._schedule([0.0, 0.5, 1.0, 4.0][int(fraction * 4)])
        elif action == "cancel":
            for fraction in argument:
                doomed = int(fraction * len(self.handles))
                if doomed not in self.fired:  # a timer that fired is no longer the queue's
                    sim.cancel(self.handles[doomed])
        elif action == "stop":
            self.seen.add("stop() from inside an event")
            sim.stop()

    def _call(self, function, *args):
        try:
            return function(*args)
        except SimulationError as error:
            self.seen.add("max_events overflow")
            return f"raised: {error}"

    def drive(self):
        sim, rng = self.sim, self.rng
        for _ in range(rng.randint(1, 6)):
            heap = sim._queue._heap
            if heap and heap[0][2].cancelled:
                self.seen.add("cancelled head")
            limit = rng.choice([None, None, sim.now, sim.now + 0.25, sim.now + 1.0, sim.now + 2.75])
            if rng.random() < 0.4:
                outcome = self._call(self.run, limit)
            else:
                target = self.bumps + rng.choice([0, 1, 1, 2, 5])
                if target == self.bumps:
                    self.seen.add("predicate true on entry")
                outcome = self._call(self.run_until, lambda: self.bumps >= target, limit)
            if limit is not None and sim.pending_events and sim.now == limit:
                self.seen.add("limit between two events")
            self.log.append(
                ("returned", outcome, sim.now, sim.executed_events, sim.pending_events,
                 tuple(sim.pending_labels()), sim._queue._cancelled_in_heap)
            )
        return self.log


def test_run_and_run_until_execute_what_a_loop_of_steps_executes():
    seen = set()
    for seed in range(400):
        inlined, reference = _Program(seed, inlined=True), _Program(seed, inlined=False)
        assert inlined.drive() == reference.drive(), f"seed {seed}"
        seen |= inlined.seen
    assert seen == {
        "cancelled head",
        "limit between two events",
        "max_events overflow",
        "predicate true on entry",
        "stop() from inside an event",
    }
