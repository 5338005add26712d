"""A dropped run leaves nothing of its run side for the cycle collector.

The *run side* of a :class:`~repro.store.store.KVStore` is its driver, the
driver's :class:`~repro.exec.oplog.OpLog` and every
:class:`~repro.registers.base.OperationRecord`.  None of it is on a reference
cycle, and no process (the deployment side, which is cyclic on purpose: a
subnet and its processes point at each other) holds any of it once the run
is over.  So dropping a run's result frees its run side by reference
counting, at once: with the cycle collector off, nothing of it survives the
``del``.

The runs cover every edge that once tied it together: a closed-loop two-bit
store (a lane's completion callback, the store's target), an open-loop ABD
store (a fired ``on_done`` continuation), an MMR consensus store, and two
two-bit stores whose crash point kills a replica with operations in flight
on it (the crashed process's pending continuation; a message-count point's
send hook, which the store's network keeps), and a register run whose
crashed replica leaves its closed loop's operation pending (the client's
chain continuation, which that operation would otherwise keep).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.exec.oplog import OpLog
from repro.faults import CrashPoint
from repro.registers.base import OperationRecord
from repro.sim.delays import UniformDelay
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads.kv import KVWorkloadSpec, run_kv_workload
from repro.workloads.scenarios import kv_cas, kv_openloop

TWO_BIT = KVWorkloadSpec(
    algorithm="two-bit",
    num_keys=8,
    num_shards=2,
    replication=5,
    read_fraction=0.5,
    batch_size=32,
    num_ops=200,
    delay_model=UniformDelay(0.2, 1.0, seed=2),
    seed=2,
)

SPECS = {
    "two-bit closed loop": TWO_BIT,
    "abd open loop": kv_openloop(num_ops=200, arrival_rate=16.0, seed=3),
    "mmr-cas": kv_cas(num_ops=100, seed=3),
    # Replica 1 of shard 0 dies with operations in flight on it (seed 2):
    # at t = 5, and at its 20th send (the crash point's send hook).
    "two-bit with a crash point": TWO_BIT.with_(
        crash_points=(CrashPoint(at_time=5.0, shard=0, replica=1),)
    ),
    "two-bit with a message-count crash point": TWO_BIT.with_(
        crash_points=(CrashPoint(after_messages_sent=20, shard=0, replica=1),)
    ),
}


def _live(cls: type) -> int:
    """How many instances of ``cls`` exist (both classes are GC-tracked)."""
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.fixture
def no_cycle_collection():
    gc.collect()  # earlier tests' garbage must not count against this run
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_dropped_run_frees_its_run_side_without_the_cycle_collector(name, no_cycle_collection):
    records, oplogs = _live(OperationRecord), _live(OpLog)
    result = run_kv_workload(SPECS[name])
    assert result.finished_cleanly and len(result.ops) == SPECS[name].num_ops
    if SPECS[name].crash_points:  # it fired with operations in flight on its replica
        assert result.crashed == [(0, 1)]
        assert any("stalled" in op.failure_reason for op in result.failed_ops())
    driver = weakref.ref(result.store.driver)
    assert _live(OperationRecord) - records == len(result.ops)

    del result

    assert driver() is None, "the driver waits for the cycle collector"
    assert _live(OpLog) == oplogs, "the op log waits for the cycle collector"
    assert _live(OperationRecord) == records, "operation records wait for the cycle collector"


@pytest.mark.parametrize("at_time", [0.5, 1.5, 2.5, 3.5])
def test_a_chain_stopped_by_its_crashed_process_frees_its_pending_operation(
    at_time, no_cycle_collection
):
    # A register run is one client whose chains are the processes' closed
    # loops; replica 2 crashes with its operation in flight, which stays
    # pending (crash-stop) and must not keep the client's continuation.
    records, oplogs = _live(OperationRecord), _live(OpLog)
    spec = WorkloadSpec(
        n=5,
        algorithm="two-bit",
        num_writes=5,
        reads_per_reader=5,
        seed=1,
        crash_points=(CrashPoint(shard=0, replica=2, at_time=at_time),),
    )
    result = run_workload(spec)
    assert result.finished_cleanly
    assert [op.pid for op in result.ops if not op.done] == [2]
    driver = weakref.ref(result.store.driver)

    del result

    assert driver() is None, "the driver waits for the cycle collector"
    assert _live(OpLog) == oplogs, "the op log waits for the cycle collector"
    assert _live(OperationRecord) == records, "operation records wait for the cycle collector"
