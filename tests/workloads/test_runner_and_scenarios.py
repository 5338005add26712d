"""Tests for the workload runner and the canned scenarios."""

import math

import pytest

from repro.faults import CrashPoint
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay
from repro.verification.register_checker import check_swmr_atomicity
from repro.workloads import REGISTER_KEY, WorkloadSpec, run_workload
from repro.workloads import scenarios
from repro.analysis.metrics import messages_per_operation


def _max_overlap(history) -> int:
    """Most operations whose intervals overlap at one instant (touching ones do not)."""
    boundaries = [(op.invoked_at, 1) for op in history] + [
        (math.inf if op.pending else op.responded_at, -1) for op in history
    ]
    level = best = 0
    for _time, delta in sorted(boundaries):  # an end sorts before a start at the same time
        level += delta
        best = max(best, level)
    return best


class TestConcurrentMode:
    def test_all_operations_complete_in_a_failure_free_run(self):
        spec = WorkloadSpec(n=5, algorithm="two-bit", num_writes=6, reads_per_reader=4, seed=2)
        result = run_workload(spec)
        assert result.finished_cleanly
        assert len(result.completed_ops()) == spec.total_operations()
        assert len(result.history(REGISTER_KEY).pending()) == 0

    def test_history_is_atomic_and_checkable(self):
        result = run_workload(WorkloadSpec(n=5, num_writes=8, reads_per_reader=8, seed=3))
        assert result.verify().ok
        # The claims checker is the diagnostic view of the same history.
        report = check_swmr_atomicity(result.history(REGISTER_KEY))
        assert report.ok
        assert report.reads_checked == 8 * 4

    def test_latency_accessors(self):
        result = run_workload(
            WorkloadSpec(n=5, num_writes=3, reads_per_reader=3, delay_model=FixedDelay(1.0), seed=4)
        )
        assert len(result.latencies(OperationKind.WRITE)) == 3
        assert len(result.latencies(OperationKind.READ)) == 12
        assert all(latency >= 2.0 for latency in result.latencies(OperationKind.WRITE))

    def test_think_times_space_out_operations(self):
        fast = run_workload(WorkloadSpec(n=3, num_writes=5, reads_per_reader=0, seed=5))
        slow = run_workload(
            WorkloadSpec(n=3, num_writes=5, reads_per_reader=0, write_think_time=10.0, seed=5)
        )
        assert slow.makespan > fast.makespan

    def test_crashed_reader_leaves_pending_operations(self):
        spec = WorkloadSpec(
            n=5,
            num_writes=5,
            reads_per_reader=5,
            read_think_time=2.0,
            crash_points=(CrashPoint(shard=0, replica=2, at_time=3.0),),
            seed=6,
        )
        result = run_workload(spec)
        # The run still terminates and the surviving operations are atomic.
        assert result.check_atomicity().ok
        crashed_ops = [op for op in result.history(REGISTER_KEY) if op.pid == 2]
        assert len(crashed_ops) < 5
        # Crash-stop: the read pid 2 had invoked when it crashed stays
        # pending (not failed), and the run still finishes cleanly.
        pending = [op for op in crashed_ops if not op.completed]
        assert len(pending) == 1 and not pending[0].failed
        assert pending[0].responded_at is None
        assert result.finished_cleanly and result.failed == 0

    def test_crashed_writer_stops_the_write_stream_but_reads_go_on(self):
        spec = WorkloadSpec(
            n=5,
            num_writes=20,
            reads_per_reader=5,
            write_think_time=2.0,
            crash_points=(CrashPoint(shard=0, replica=0, allow_writer=True, at_time=9.0),),
            seed=7,
        )
        result = run_workload(spec)
        writes = result.latencies(OperationKind.WRITE)
        reads = result.latencies(OperationKind.READ)
        assert len(writes) < 20
        assert len(reads) == 5 * 4
        assert result.check_atomicity().ok

    def test_monitor_attached_when_requested(self):
        result = run_workload(WorkloadSpec(n=3, num_writes=2, reads_per_reader=2, check_invariants=True))
        assert result.monitor is not None
        assert result.monitor.report.ok
        abd = run_workload(
            WorkloadSpec(n=3, algorithm="abd", num_writes=2, reads_per_reader=2, check_invariants=True)
        )
        assert abd.monitor is None  # the monitor is specific to the two-bit algorithm

    def test_stats_snapshot_exposed(self):
        result = run_workload(WorkloadSpec(n=3, num_writes=2, reads_per_reader=1, seed=8))
        stats = result.store.stats.snapshot()
        assert stats["messages_sent"] == result.total_messages()
        assert stats["messages_sent"] > 0


class TestIsolatedMode:
    def test_per_operation_costs_recorded(self):
        spec = WorkloadSpec(
            n=5, num_writes=3, reads_per_reader=1, isolated_operations=True, delay_model=FixedDelay(1.0)
        )
        result = run_workload(spec)
        assert len(result.isolated_costs) == spec.total_operations()
        write_costs = [cost for cost in result.isolated_costs if cost.kind is OperationKind.WRITE]
        read_costs = [cost for cost in result.isolated_costs if cost.kind is OperationKind.READ]
        assert all(cost.messages == 20 for cost in write_costs)
        assert all(cost.messages == 8 for cost in read_costs)
        assert all(cost.latency == 2.0 for cost in write_costs)

    def test_messages_per_operation_helper(self):
        spec = WorkloadSpec(
            n=3, algorithm="abd", num_writes=2, reads_per_reader=1, isolated_operations=True
        )
        result = run_workload(spec)
        assert messages_per_operation(result, OperationKind.WRITE) == [4, 4]
        assert messages_per_operation(result, OperationKind.READ) == [8, 8]

    def test_messages_per_operation_requires_isolated_mode(self):
        result = run_workload(WorkloadSpec(n=3, num_writes=1, reads_per_reader=1))
        with pytest.raises(ValueError, match="isolated"):
            messages_per_operation(result, OperationKind.WRITE)

    def test_isolated_history_is_sequential_and_atomic(self):
        result = run_workload(
            WorkloadSpec(n=5, num_writes=5, reads_per_reader=2, isolated_operations=True, seed=9)
        )
        assert _max_overlap(result.history(REGISTER_KEY)) == 1
        assert result.check_atomicity().ok


class TestScenarios:
    def test_quickstart_scenario_runs(self):
        result = run_workload(scenarios.quickstart(n=5, seed=0))
        assert result.check_atomicity().ok

    def test_read_dominated_scenario_shape(self):
        spec = scenarios.read_dominated(n=5, reads_per_reader=10, num_writes=2)
        assert spec.reads_per_reader > spec.num_writes
        result = run_workload(spec)
        assert result.check_atomicity().ok

    def test_write_heavy_scenario(self):
        result = run_workload(scenarios.write_heavy(n=3, num_writes=10))
        assert result.check_atomicity().ok

    def test_contended_scenario_produces_overlap(self):
        result = run_workload(scenarios.contended(n=5, seed=1))
        assert _max_overlap(result.history(REGISTER_KEY)) >= 2
        assert result.check_atomicity().ok

    def test_crash_storm_scenario_spares_the_writer_by_default(self):
        spec = scenarios.crash_storm(n=7, seed=2)
        assert 0 not in [point.replica for point in spec.crash_points]
        result = run_workload(spec)
        assert result.check_atomicity().ok

    def test_isolated_latency_probe(self):
        spec = scenarios.isolated_latency_probe(n=5, delta=2.0)
        result = run_workload(spec)
        writes = [cost for cost in result.isolated_costs if cost.kind is OperationKind.WRITE]
        assert all(cost.latency == pytest.approx(4.0) for cost in writes)
