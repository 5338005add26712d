"""Unit tests for the shared register framework (quorums, operations, handles)."""

import pytest

from repro.registers.base import (
    OperationKind,
    OperationRecord,
    QuorumTracker,
    RegisterAlgorithm,
)
from repro.registers.registry import get_algorithm
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class TestQuorumTracker:
    def test_default_t_is_largest_minority(self):
        assert QuorumTracker(5).t == 2
        assert QuorumTracker(4).t == 1
        assert QuorumTracker(7).t == 3
        assert QuorumTracker(2).t == 0

    def test_quorum_size_is_n_minus_t(self):
        assert QuorumTracker(5).quorum_size == 3
        assert QuorumTracker(7).quorum_size == 4
        assert QuorumTracker(5, t=1).quorum_size == 4

    def test_quorums_intersect(self):
        """Any two (n - t)-quorums intersect when t < n/2 — the core safety argument."""
        for n in range(2, 12):
            tracker = QuorumTracker(n)
            assert 2 * tracker.quorum_size > n

    def test_satisfied(self):
        tracker = QuorumTracker(5)
        assert not tracker.satisfied(2)
        assert tracker.satisfied(3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuorumTracker(0)
        with pytest.raises(ValueError):
            QuorumTracker(3, t=3)
        with pytest.raises(ValueError):
            QuorumTracker(3, t=-1)


class TestOperationRecord:
    def test_latency(self):
        record = OperationRecord(op_id=0, pid=1, kind=OperationKind.WRITE, invoked_at=2.0)
        assert record.latency is None
        record.responded_at = 5.5
        assert record.latency == 3.5


class TestAlgorithmBuild:
    def test_build_creates_n_processes_with_roles(self):
        simulator = Simulator()
        network = Network(simulator)
        algorithm = get_algorithm("two-bit")
        processes = algorithm.build(simulator, network, n=5, writer_pid=2)
        assert len(processes) == 5
        assert [p.pid for p in processes] == [0, 1, 2, 3, 4]
        assert [p.is_writer for p in processes] == [False, False, True, False, False]
        assert all(p.quorum.n == 5 for p in processes)

    def test_build_respects_explicit_t(self):
        simulator = Simulator()
        network = Network(simulator)
        processes = get_algorithm("abd").build(simulator, network, n=7, t=1)
        assert all(p.quorum.quorum_size == 6 for p in processes)

    def test_invalid_builds_rejected(self):
        algorithm = get_algorithm("abd")
        with pytest.raises(ValueError):
            algorithm.build(Simulator(), Network(Simulator()), n=1)
        simulator = Simulator()
        with pytest.raises(ValueError):
            algorithm.build(simulator, Network(simulator), n=4, t=2)


class TestRegisterHandle:
    def test_handle_properties(self):
        from repro.api import create_register

        cluster = create_register(n=3, algorithm="abd", initial_value="v0")
        assert cluster.writer.is_writer
        assert not cluster.reader(1).is_writer
        assert cluster.reader(2).pid == 2

    def test_handle_write_and_read_drive_the_simulation(self):
        from repro.api import create_register

        cluster = create_register(n=3, algorithm="abd", initial_value="v0")
        record = cluster.writer.write("hello")
        assert record.completed
        assert cluster.reader(1).read() == "hello"

    def test_handle_read_without_run_returns_the_record(self):
        from repro.api import create_register

        cluster = create_register(n=3, algorithm="abd", initial_value="v0")
        record = cluster.reader(1).read(run=False)
        assert not record.completed
        cluster.simulator.run_until(lambda: record.completed)
        assert record.result == "v0"


class TestRegistry:
    def test_available_algorithms(self):
        from repro.registers.registry import available_algorithms

        names = available_algorithms()
        assert "two-bit" in names
        assert "abd" in names
        assert "abd-mwmr" in names
        assert "abd-bounded-emulation" in names

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            get_algorithm("paxos")

    def test_register_new_algorithm_and_overwrite_protection(self):
        from repro.registers.registry import register_algorithm, unregister_algorithm

        custom = RegisterAlgorithm(
            name="custom-test-alg",
            description="test",
            process_factory=get_algorithm("abd").process_factory,
        )
        register_algorithm(custom)
        try:
            assert get_algorithm("custom-test-alg") is custom
            with pytest.raises(ValueError):
                register_algorithm(custom)
            register_algorithm(custom, overwrite=True)
        finally:
            # Later tests enumerate the registry (every algorithm's pinned run).
            unregister_algorithm("custom-test-alg")
