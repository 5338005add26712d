"""Register workloads (not just the KV store) under link-level fault plans.

``repro chaos`` sweeps the sharded store; these tests close the remaining
gap: the paper's two-bit algorithm and the MWMR ABD variant must keep their
guarantees — atomicity/linearizability and termination of every operation —
when a *register* workload runs through a partition that heals.
"""

import pytest

from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import FaultPlan
from repro.sim.delays import UniformDelay
from repro.verification.linearizability import is_linearizable
from repro.workloads.runner import run_workload
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec


def partition_plan(isolate, n, start=3.0, heal=16.0, name="register-partition"):
    window = PartitionWindow.isolate(tuple(isolate), n, start=start, heal=heal)
    return FaultPlan(name=name, link_policies=(PartitionSchedule(windows=(window,)),))


class TestTwoBitUnderPartition:
    def test_atomicity_and_termination_through_a_healing_partition(self):
        n = 5
        spec = WorkloadSpec(
            n=n,
            algorithm="two-bit",
            num_writes=10,
            reads_per_reader=10,
            delay_model=UniformDelay(0.2, 1.0, seed=21),
            fault_plan=partition_plan((2,), n),
            check_invariants=True,
            seed=21,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        assert len(result.completed_ops()) == spec.total_operations()
        assert result.check_atomicity().ok
        assert result.monitor is not None and result.monitor.report.ok

    def test_partitioning_a_minority_including_the_writer_side_reader(self):
        # Cut off two non-writer processes together: they can still talk to
        # each other but not to the majority until the heal.
        n = 5
        spec = WorkloadSpec(
            n=n,
            algorithm="two-bit",
            num_writes=8,
            reads_per_reader=8,
            delay_model=UniformDelay(0.2, 1.0, seed=5),
            fault_plan=partition_plan((3, 4), n, start=2.0, heal=12.0),
            seed=5,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        assert result.check_atomicity().ok

    def test_coalescing_preserves_guarantees_under_the_same_plan(self):
        n = 5
        base = WorkloadSpec(
            n=n,
            algorithm="two-bit",
            num_writes=8,
            reads_per_reader=8,
            delay_model=UniformDelay(0.2, 1.0, seed=7),
            fault_plan=partition_plan((1,), n),
            seed=7,
        )
        result = run_workload(base.with_(coalesce=True))
        assert result.finished_cleanly
        assert result.check_atomicity().ok


class TestMwmrAbdUnderPartition:
    def test_linearizable_and_terminating_through_a_healing_partition(self):
        n = 5
        spec = WorkloadSpec(
            n=n,
            algorithm="abd-mwmr",
            num_writes=6,
            reads_per_reader=4,
            multi_writer=True,
            delay_model=UniformDelay(0.2, 1.0, seed=33),
            fault_plan=partition_plan((2,), n),
            seed=33,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        assert len(result.completed_ops()) == spec.total_operations()
        assert is_linearizable(result.history(REGISTER_KEY), max_operations=64)

    def test_partition_stretches_latencies_but_never_loses_operations(self):
        n = 5
        plan = partition_plan((1, 2), n, start=1.0, heal=20.0)
        spec = WorkloadSpec(
            n=n,
            algorithm="abd-mwmr",
            num_writes=5,
            reads_per_reader=3,
            multi_writer=True,
            delay_model=UniformDelay(0.2, 1.0, seed=12),
            fault_plan=plan,
            seed=12,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        # Operations issued by partitioned processes stall until the heal:
        # some latency must exceed the window length under this seed.
        latencies = result.latencies()
        assert latencies and max(latencies) > 5.0
        assert is_linearizable(result.history(REGISTER_KEY), max_operations=64)
