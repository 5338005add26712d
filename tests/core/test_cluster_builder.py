"""Tests for the register deployment (construction options and wiring)."""

import pytest

from repro.api import create_register
from repro.core.process import TWO_BIT_ALGORITHM
from repro.faults import CrashPoint
from repro.registers.base import RegisterHandle
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.transport.runtime import ProcessCrashedError
from repro.workloads import REGISTER_KEY


def _bare_processes(n, **options):
    """Two-bit processes on a network of their own: the process-level surface."""
    simulator = Simulator()
    processes = TWO_BIT_ALGORITHM.build(simulator, Network(simulator), n, **options)
    return simulator, processes


class TestBuilderOptions:
    def test_default_build(self):
        cluster = create_register(n=4)
        assert cluster.n == 4
        assert cluster.writer.pid == 0
        assert cluster.monitor is None
        assert len(cluster.handles) == 4
        assert all(handle.pid == process.pid for handle, process in zip(cluster.handles, cluster.processes))

    def test_a_register_is_the_one_key_of_its_store(self):
        cluster = create_register(n=4)
        assert cluster.store.deployed_keys == [REGISTER_KEY]
        assert cluster.processes == cluster.store.register_for(REGISTER_KEY).processes
        assert cluster.simulator is cluster.store.simulator

    def test_custom_writer_and_initial_value(self):
        simulator, processes = _bare_processes(4, writer_pid=2, initial_value=42)
        writer = RegisterHandle(processes[2], simulator)
        assert writer.is_writer
        assert RegisterHandle(processes[0], simulator).read() == 42
        writer.write(43)
        assert RegisterHandle(processes[0], simulator).read() == 43

    def test_writer_pid_is_not_an_option(self):
        """Process 0 writes in every deployment, so crash points guard the writer."""
        with pytest.raises(TypeError):
            create_register(n=5, writer_pid=2)
        with pytest.raises(ValueError, match="allow_writer"):
            create_register(n=5, crash_points=(CrashPoint(shard=0, replica=0, at_time=1.0),))

    def test_explicit_t_changes_quorum_size(self):
        _, processes = _bare_processes(5, t=1)
        assert all(process.quorum.quorum_size == 4 for process in processes)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            _bare_processes(4, t=2)

    def test_monitor_attached_when_requested(self):
        cluster = create_register(n=3, check_invariants=True)
        assert cluster.monitor is not None
        cluster.writer.write("v1")
        cluster.settle()
        assert cluster.monitor.report.checks_performed > 0

    def test_crash_points_validated_at_build_time(self):
        points = tuple(CrashPoint(shard=0, replica=pid, at_time=0.0) for pid in (1, 2))
        with pytest.raises(ValueError, match="t < n/2"):
            create_register(n=3, crash_points=points)

    def test_crashing_the_writer_needs_no_flag(self):
        cluster = create_register(n=5, initial_value="v0")
        cluster.crash(0)
        assert cluster.processes[0].crashed
        with pytest.raises(ProcessCrashedError):
            cluster.writer.write("v1")
        assert cluster.reader(1).read() == "v0"

    def test_crash_of_an_unknown_pid_names_the_range(self):
        cluster = create_register(n=5)
        with pytest.raises(ValueError, match="replica 9 out of range for replication 5"):
            cluster.crash(9)
        assert not any(process.crashed for process in cluster.processes)

    def test_custom_delay_model_is_used(self):
        cluster = create_register(n=3, delay_model=FixedDelay(5.0))
        record = cluster.writer.write("v1")
        assert record.latency == 10.0

    def test_handles_and_processes_are_consistent(self):
        cluster = create_register(n=5)
        for pid in range(5):
            assert cluster.reader(pid).process is cluster.processes[pid]

    def test_two_independent_clusters_do_not_interfere(self):
        a = create_register(n=3, initial_value="a0")
        b = create_register(n=3, initial_value="b0")
        a.writer.write("a1")
        assert b.reader(1).read() == "b0"
        assert a.reader(1).read() == "a1"
        assert b.network.stats.messages_sent < a.network.stats.messages_sent

    def test_random_delays_with_seed_are_reproducible_across_clusters(self):
        def run(seed):
            cluster = create_register(n=4, delay_model=UniformDelay(0.1, 2.0, seed=seed))
            for index in range(1, 5):
                cluster.writer.write(f"v{index}")
            cluster.settle()
            return cluster.simulator.now, cluster.network.stats.messages_sent

        assert run(9) == run(9)
        assert run(9) != run(10)
