"""Tests for the cross-algorithm convergence/quiescence checks."""

import pytest

from repro.api import create_register
from repro.verification.invariants import (
    ConvergenceError,
    check_abd_convergence,
    check_quiescence,
    check_two_bit_convergence,
)


class TestQuiescence:
    def test_quiescent_system_passes(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        check_quiescence(cluster.simulator, cluster.network)

    def test_in_flight_messages_detected(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.processes[0].invoke_write("v1", lambda record: None)
        with pytest.raises(ConvergenceError, match="in flight"):
            check_quiescence(cluster.simulator, cluster.network)


class TestTwoBitConvergence:
    def test_full_convergence_after_settle(self):
        cluster = create_register(n=5, initial_value="v0")
        for index in range(1, 6):
            cluster.writer.write(f"v{index}")
        cluster.settle()
        check_two_bit_convergence(cluster.processes, writer_pid=0)

    def test_crashed_processes_are_skipped(self):
        cluster = create_register(n=5, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        cluster.processes[4].crash()
        cluster.writer.write("v2")
        cluster.settle()
        check_two_bit_convergence(cluster.processes, writer_pid=0)

    def test_detects_divergent_history(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        cluster.processes[2].state.history[1] = "tampered"
        with pytest.raises(ConvergenceError, match="not a prefix"):
            check_two_bit_convergence(cluster.processes, writer_pid=0)

    def test_detects_missing_suffix_when_full_history_required(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        del cluster.processes[2].state.history[1]
        cluster.processes[2].state.w_sync[2] = 0
        with pytest.raises(ConvergenceError, match="converged to only"):
            check_two_bit_convergence(cluster.processes, writer_pid=0, require_full_history=True)
        # Relaxed prefix-only mode accepts it.
        check_two_bit_convergence(cluster.processes, writer_pid=0, require_full_history=False)

    def test_missing_writer_rejected(self):
        cluster = create_register(n=3, initial_value="v0")
        with pytest.raises(ValueError):
            check_two_bit_convergence(cluster.processes, writer_pid=9)


class TestAbdConvergence:
    def test_replicas_converge_after_settle(self):
        cluster = create_register(n=5, algorithm="abd", initial_value="v0")
        for index in range(1, 4):
            cluster.writer.write(f"v{index}")
        cluster.settle()
        check_abd_convergence(cluster.processes, minimum_seq=3)

    def test_lagging_replica_detected(self):
        cluster = create_register(n=3, algorithm="abd", initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        cluster.processes[2].seq = 0
        with pytest.raises(ConvergenceError, match="holds seq"):
            check_abd_convergence(cluster.processes, minimum_seq=1)

    def test_crashed_replicas_are_skipped(self):
        cluster = create_register(n=5, algorithm="abd", initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        cluster.processes[3].crash()
        check_abd_convergence(cluster.processes, minimum_seq=1)
