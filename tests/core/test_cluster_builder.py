"""Tests for the two-bit cluster builder (construction options and wiring)."""

import pytest

from repro.core.register import build_two_bit_cluster
from repro.sim.delays import FixedDelay, UniformDelay
from repro.faults import CrashPoint


class TestBuilderOptions:
    def test_default_build(self):
        cluster = build_two_bit_cluster(n=4)
        assert cluster.n == 4
        assert cluster.writer_pid == 0
        assert cluster.monitor is None
        assert len(cluster.handles) == 4
        assert all(handle.pid == process.pid for handle, process in zip(cluster.handles, cluster.processes))

    def test_custom_writer_and_initial_value(self):
        cluster = build_two_bit_cluster(n=4, writer_pid=2, initial_value=42)
        assert cluster.writer.pid == 2
        assert cluster.reader(0).read() == 42

    def test_explicit_t_changes_quorum_size(self):
        cluster = build_two_bit_cluster(n=5, t=1)
        assert all(process.quorum.quorum_size == 4 for process in cluster.processes)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            build_two_bit_cluster(n=4, t=2)

    def test_trace_option_records_events(self):
        cluster = build_two_bit_cluster(n=3, trace=True, delay_model=FixedDelay(1.0))
        cluster.writer.write("v1")
        cluster.settle()
        tracer = cluster.simulator.tracer
        assert tracer.count("send") == 6
        assert tracer.count("deliver") == 6
        assert tracer.count("invoke") == 1
        assert tracer.count("respond") == 1

    def test_trace_disabled_by_default(self):
        cluster = build_two_bit_cluster(n=3)
        cluster.writer.write("v1")
        assert len(cluster.simulator.tracer) == 0

    def test_monitor_attached_when_requested(self):
        cluster = build_two_bit_cluster(n=3, check_invariants=True)
        assert cluster.monitor is not None
        cluster.writer.write("v1")
        cluster.settle()
        assert cluster.monitor.report.checks_performed > 0

    def test_crash_points_validated_at_build_time(self):
        points = tuple(CrashPoint(shard=0, replica=pid, at_time=0.0) for pid in (1, 2))
        with pytest.raises(ValueError, match="t < n/2"):
            build_two_bit_cluster(n=3, crash_points=points)

    def test_custom_delay_model_is_used(self):
        cluster = build_two_bit_cluster(n=3, delay_model=FixedDelay(5.0))
        record = cluster.writer.write("v1")
        assert record.latency == 10.0

    def test_handles_and_processes_are_consistent(self):
        cluster = build_two_bit_cluster(n=5)
        for pid in range(5):
            assert cluster.reader(pid).process is cluster.processes[pid]

    def test_two_independent_clusters_do_not_interfere(self):
        a = build_two_bit_cluster(n=3, initial_value="a0")
        b = build_two_bit_cluster(n=3, initial_value="b0")
        a.writer.write("a1")
        assert b.reader(1).read() == "b0"
        assert a.reader(1).read() == "a1"
        assert b.network.stats.messages_sent < a.network.stats.messages_sent

    def test_random_delays_with_seed_are_reproducible_across_clusters(self):
        def run(seed):
            cluster = build_two_bit_cluster(n=4, delay_model=UniformDelay(0.1, 2.0, seed=seed))
            for index in range(1, 5):
                cluster.writer.write(f"v{index}")
            cluster.settle()
            return cluster.simulator.now, cluster.network.stats.messages_sent

        assert run(9) == run(9)
        assert run(9) != run(10)
