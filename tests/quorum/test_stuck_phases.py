"""A stuck quorum operation says which phase it waits in, and how far it got.

The engine keeps no guards, so ``ProcessBase.waiting_on`` (pending guard
labels) would have nothing to report for an engine-based register;
``PhaseRegisterProcess.waiting_on`` names every open phase whose
continuation has not run, by its label and its progress.
"""

import pytest

from repro.exec import Driver
from repro.registers.base import OperationKind
from repro.registers.registry import get_algorithm
from repro.sim.delays import FixedDelay
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

#: algorithm -> (first phase of a write, query phase of a read, its write-back)
LABELS = {
    "abd": ("ABD write#1 ack quorum", "ABD read#1 query quorum", "ABD read#1 write-back quorum"),
    "abd-mwmr": (
        "MWABD write#1 ts quorum",
        "MWABD read#1 query quorum",
        "MWABD read#1 write-back quorum",
    ),
    "abd-bounded-emulation": (
        "MOD write#1 ack quorum",
        "MOD read#1 query quorum",
        "MOD read#1 write-back quorum",
    ),
}

STALLED = "stalled on replica p{pid} (crashed={crashed}); event queue drained"


def deploy(algorithm, n):
    simulator = Simulator()
    network = Network(simulator, delay_model=FixedDelay(1.0))
    processes = get_algorithm(algorithm).build(
        simulator, network, n, writer_pid=0, initial_value="v0"
    )
    return simulator, processes, Driver(simulator)


def stuck(driver, simulator, process, kind, value=None):
    op = driver.new_op(kind, value=value)
    driver.submit(process, op)
    assert driver.drive(limit=simulator.now + 1_000.0) is False
    assert op.failed
    return op.failure_reason


@pytest.mark.parametrize("algorithm", sorted(LABELS))
class TestStuckOperationNamesItsPhase:
    def test_write_with_no_majority_left(self, algorithm):
        simulator, processes, driver = deploy(algorithm, n=3)
        processes[1].crash()
        processes[2].crash()
        reason = stuck(driver, simulator, processes[0], OperationKind.WRITE, "v1")
        assert reason == (
            STALLED.format(pid=0, crashed=False)
            + f"; waiting on: {LABELS[algorithm][0]} (1/2 replies)"
        )

    def test_read_stuck_in_its_query_phase(self, algorithm):
        simulator, processes, driver = deploy(algorithm, n=5)
        for pid in (0, 2, 3):
            processes[pid].crash()
        # One of four peers still answers: two of the three replies needed.
        reason = stuck(driver, simulator, processes[1], OperationKind.READ)
        assert reason == (
            STALLED.format(pid=1, crashed=False)
            + f"; waiting on: {LABELS[algorithm][1]} (2/3 replies)"
        )

    def test_read_stuck_in_its_write_back(self, algorithm):
        simulator, processes, driver = deploy(algorithm, n=5)
        # The query quorum forms at t = 2 and the write-back goes out; three
        # peers die before it reaches them at t = 3.
        for pid in (0, 2, 3):
            simulator.schedule_at(2.5, processes[pid].crash)
        reason = stuck(driver, simulator, processes[1], OperationKind.READ)
        # The query phase is still open (ABD holds it through the write-back)
        # but its continuation has run: only the write-back is waited for.
        assert reason == (
            STALLED.format(pid=1, crashed=False)
            + f"; waiting on: {LABELS[algorithm][2]} (2/3 replies)"
        )

    def test_a_crashed_process_waits_for_nothing(self, algorithm):
        simulator, processes, driver = deploy(algorithm, n=3)
        processes[0].crash()
        processes[2].crash()
        op = driver.new_op(OperationKind.READ)
        driver.submit(processes[1], op)
        assert processes[1].waiting_on() == [f"{LABELS[algorithm][1]} (1/2 replies)"]
        processes[1].crash()
        assert processes[1].waiting_on() == []
        driver.drive(limit=simulator.now + 1_000.0)
        assert op.failure_reason == STALLED.format(pid=1, crashed=True)


def test_a_completed_operation_leaves_nothing_waited_for():
    simulator, processes, driver = deploy("abd", n=3)
    driver.submit(processes[0], driver.new_op(OperationKind.WRITE, value="v1"))
    driver.submit(processes[1], driver.new_op(OperationKind.READ))
    assert driver.drive() is True
    simulator.drain()
    assert [process.waiting_on() for process in processes] == [[], [], []]
