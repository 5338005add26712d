"""A completion is single-shot: a stale one is a no-op, for every algorithm.

A process completes an operation by calling the ``done`` continuation its
``_start_*`` method was handed.  A late reply or a continuation run twice
calls it again after the operation finished; that call must not complete
the process's *next* operation, nor change any result.  A completion for an
operation the driver already failed (stalled, then unblocked by later
traffic) frees the process but leaves the operation failed.
"""

import pytest

from repro.exec.driver import Driver
from repro.registers.base import OperationKind
from repro.registers.registry import available_algorithms, get_algorithm
from repro.sim.delays import FixedDelay
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

_STARTS = ("_start_write", "_start_read", "_start_operation")


def _deploy(name):
    simulator = Simulator()
    network = Network(simulator, delay_model=FixedDelay(1.0))
    processes = get_algorithm(name).build(simulator, network, 3, initial_value="v0")
    return simulator, Driver(simulator), processes


def _capture_continuations(process):
    """Record every ``done`` continuation ``process`` hands its algorithm."""
    continuations = []
    for name in _STARTS:
        start = getattr(process, name)

        def capturing(record, done, start=start):
            continuations.append(done)
            start(record, done)

        setattr(process, name, capturing)
    return continuations


def _row(op):
    return (op.completed, op.failed, op.result, op.responded_at, op.failure_reason)


@pytest.mark.parametrize("name", available_algorithms())
def test_a_stale_completion_never_completes_the_next_operation(name):
    simulator, driver, processes = _deploy(name)
    writer = processes[0]
    continuations = _capture_continuations(writer)
    first = driver.new_op(OperationKind.WRITE, "v1", key="k")
    driver.submit(writer, first)
    assert driver.drive() is True and first.completed
    (stale,) = continuations
    before = _row(first)
    logged_before = _row(driver.oplog.ops_view()[first.op_id])

    second = driver.new_op(OperationKind.WRITE, "v2", key="k")
    driver.submit(writer, second)
    assert writer._current_op is second and not second.done
    stale("stale result")  # the first write's continuation, run again

    assert _row(first) == before
    assert _row(driver.oplog.ops_view()[first.op_id]) == logged_before
    assert not second.done and second.result is None and second.responded_at is None
    assert writer._current_op is second
    assert driver.outstanding == 1

    # The next operation still completes through its own continuation.
    assert driver.drive() is True
    assert second.completed and second.responded_at > first.responded_at
    read = driver.new_op(OperationKind.READ, key="k")
    driver.submit(processes[1], read)
    assert driver.drive() is True and read.result == "v2"
    assert [op.op_id for op in driver.records] == [0, 1, 2]


@pytest.mark.parametrize("name", available_algorithms())
def test_a_completion_after_the_driver_failed_the_operation_frees_the_process(name):
    simulator, driver, processes = _deploy(name)
    writer = processes[0]
    continuations = _capture_continuations(writer)
    for replica in processes[1:]:  # no quorum is left: the write stalls
        replica.crash()
    op = driver.new_op(OperationKind.WRITE, "v1", key="k")
    driver.submit(writer, op)
    assert driver.drive() is False
    assert op.failed and "stalled on replica p0" in op.failure_reason
    (late,) = continuations

    late("late result")

    assert op.failed and not op.completed and op.result is None and op.responded_at is None
    assert driver.oplog.ops_view()[op.op_id].failed
    assert driver.outstanding == 0
    assert writer._current_op is None  # free to serve its next operation
