"""Unit tests for the process base class (crash semantics, dispatch, the release
hook) and for the generic guard list the test oracles keep (``GuardList``)."""

import pytest

from repro.sim.network import Network
from repro.transport.runtime import ProcessBase as Process, ProcessCrashedError
from repro.sim.scheduler import Simulator

from tests.sim.conftest import RecorderProcess, build_recorders


class TestBasics:
    def test_repr_and_properties(self, simulator, network):
        processes = build_recorders(simulator, network, 3)
        process = processes[1]
        assert "pid=1" in repr(process)
        assert process.n == 3
        assert process.other_process_ids() == [0, 2]
        assert process.now == simulator.now

    def test_negative_pid_rejected(self, simulator, network):
        with pytest.raises(ValueError):
            RecorderProcess(-1, simulator, network)

    def test_on_message_must_be_overridden(self, simulator, network):
        process = Process(0, simulator, network)
        with pytest.raises(NotImplementedError):
            process.on_message(1, "x")

    def test_send_to_the_other_processes_skips_self(self, simulator, network):
        processes = build_recorders(simulator, network, 3)
        processes[0].send(processes[0].other_process_ids(), "hi")
        simulator.run()
        assert processes[0].received == []
        assert processes[1].received == [(0, "hi")]
        assert processes[2].received == [(0, "hi")]

    def test_default_local_memory_is_zero(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        assert process.local_memory_words() == 0


class TestTheBaseHoldsNoWaits:
    def test_add_guard_is_refused(self, simulator, network):
        process = Process(0, simulator, network)
        with pytest.raises(NotImplementedError, match=r"item 16\(b\)"):
            process.add_guard(lambda: True, lambda: None)

    def test_the_release_only_clears_the_flag(self, simulator, network):
        process = Process(0, simulator, network)
        process._scan_due = True
        process.check_guards()
        assert process._scan_due is False
        assert process.waiting_on() == []


class TestGuards:
    """The ``GuardList`` helper (``tests/sim/conftest.py``) that the oracles use."""

    def test_guard_fires_when_predicate_becomes_true(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        state = {"ready": False}
        fired = []
        process.add_guard(lambda: state["ready"], lambda: fired.append("go"), label="wait-ready")
        assert fired == []
        state["ready"] = True
        process.check_guards()
        assert fired == ["go"]

    def test_guard_fires_immediately_if_predicate_already_true(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        fired = []
        process.add_guard(lambda: True, lambda: fired.append("now"))
        assert fired == ["now"]
        assert process.pending_guards() == []

    def test_guard_fires_exactly_once(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        fired = []
        state = {"ready": False}
        process.add_guard(lambda: state["ready"], lambda: fired.append("x"))
        state["ready"] = True
        process.check_guards()
        process.check_guards()
        assert fired == ["x"]

    def test_a_fired_guard_leaves_the_pending_list(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        fired = []
        state = {"ready": False}
        guard = process.add_guard(lambda: state["ready"], lambda: fired.append("x"), "wait")
        assert process.pending_guards() == [guard]
        assert process.waiting_on() == ["wait"]
        state["ready"] = True
        process.check_guards()
        assert guard.fired
        assert process.pending_guards() == []
        assert process.waiting_on() == []
        process.check_guards()
        assert fired == ["x"]

    def test_cascading_guards_fire_in_one_pass(self, simulator, network):
        """A guard's action enabling another guard must fire it in the same check."""
        (process,) = build_recorders(simulator, network, 1)
        state = {"stage": 0}
        fired = []

        process.add_guard(lambda: state["stage"] >= 2, lambda: fired.append("second"))

        def first_action():
            fired.append("first")
            state["stage"] = 2

        process.add_guard(lambda: state["stage"] >= 1, first_action)
        state["stage"] = 1
        process.check_guards()
        assert fired == ["first", "second"]

    def test_guard_added_inside_action_is_evaluated(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        fired = []

        def outer():
            fired.append("outer")
            process.add_guard(lambda: True, lambda: fired.append("inner"))

        process.add_guard(lambda: True, outer)
        assert fired == ["outer", "inner"]

    def test_guards_fire_after_message_delivery(self, simulator, network):
        sender, receiver = build_recorders(simulator, network, 2)
        fired = []
        receiver.add_guard(lambda: len(receiver.received) >= 2, lambda: fired.append("quorum"))
        sender.send(1, "a")
        simulator.run()
        assert fired == []
        sender.send(1, "b")
        simulator.run()
        assert fired == ["quorum"]


class TestCrash:
    def test_crash_is_idempotent_and_records_time(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        simulator.schedule_at(4.0, process.crash)
        simulator.run()
        assert process.crashed
        assert process.crash_time == 4.0
        process.crash()  # idempotent
        assert process.crash_time == 4.0

    def test_crashed_process_ignores_deliveries(self, simulator, network):
        sender, receiver = build_recorders(simulator, network, 2)
        sender.send(1, "early")
        simulator.run()
        receiver.crash()
        sender.send(1, "late")
        simulator.run()
        assert receiver.received == [(0, "early")]

    def test_crashed_process_does_not_send(self, simulator, network):
        sender, receiver = build_recorders(simulator, network, 2)
        sender.crash()
        sender.send(1, "nope")
        sender.send([1], "nope")
        simulator.run()
        assert receiver.received == []

    def test_crash_clears_pending_guards(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        fired = []
        process.add_guard(lambda: True if fired else False, lambda: fired.append("x"))
        process.crash()
        assert process.pending_guards() == []
        process.check_guards()
        assert fired == []

    def test_add_guard_after_crash_is_inert(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        process.crash()
        fired = []
        guard = process.add_guard(lambda: True, lambda: fired.append("x"))
        assert guard is not None and not guard.fired
        assert process.pending_guards() == []
        process.check_guards()
        assert fired == []

    def test_require_alive_raises_after_crash(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        process.require_alive("write")  # no raise while alive
        process.crash()
        with pytest.raises(ProcessCrashedError, match="write"):
            process.require_alive("write")

    def test_crash_records_its_time(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        simulator.schedule_at(2.5, process.crash)
        simulator.run()
        process.crash()  # idempotent: the first crash is the one recorded
        assert process.crash_time == 2.5
