"""``workers=N`` on the live plane: N client processes, one seeded stream.

The open-loop smoke run is the expensive test in this file (one cluster boot
plus two spawned client workers), so it runs once and every property —
counts, linearizability, unique per-op sessions, the p99 gate, per-worker
transport accounting — is asserted against that single run.
"""

import dataclasses
import multiprocessing
import time

import pytest

from repro.parallel.pool import POISON_ENV
from repro.workloads.kv import generate_kv_operations, run_kv_workload
from repro.workloads.scenarios import get_scenario, kv_uniform


class TestTwoClientProcessesOpenLoop:
    @pytest.fixture(scope="class")
    def result(self):
        spec = kv_uniform(
            num_keys=8, num_ops=200, read_fraction=0.8, replication=3, seed=3,
            algorithm="abd-mwmr",
        ).with_(transport="live", workers=2, arrival="poisson", arrival_rate=400.0)
        return run_kv_workload(spec)

    def test_all_ops_complete_with_no_failures(self, result):
        assert result.finished_cleanly and result.worker_failure is None
        assert result.completed == 200 and result.failed == 0
        assert len(result.oplog) == 200
        assert result.total_messages() > 0
        assert result.ipc_bytes > 0  # two workers shipped their columns

    def test_row_i_is_script_operation_i(self, result):
        script = [(op.kind, op.key, op.value) for op in generate_kv_operations(result.spec)]
        assert [(op.kind, op.key, op.value) for op in result.ops] == script
        assert len(result.arrivals) == 200

    def test_merged_history_is_linearizable_per_key(self, result):
        report = result.check_linearizability()
        assert report.ok
        assert report.keys_checked == len(result.histories())

    def test_open_loop_ops_are_one_session_each(self, result):
        """Regression: ops of several client processes must NOT share checker pids.

        Nothing orders an operation of one client process after one of
        another, and an open-loop generator never waits for a response
        either; reusing a per-worker or per-replica pid would make the
        checker impose a fictitious program order over them and reject
        linearizable histories.  Every record therefore carries its own
        globally unique pid.
        """
        pids = [
            record.pid
            for history in result.histories().values()
            for record in history.operations
        ]
        assert len(pids) == len(set(pids))

    def test_written_values_are_globally_distinct(self, result):
        writes = [
            record.value
            for history in result.histories().values()
            for record in history.operations
            if record.is_write
        ]
        assert len(writes) == len(set(writes))  # one generator, by construction

    def test_verdict_is_the_common_one_plus_the_p99_gate(self, result):
        verdict = result.verify()
        assert verdict.ok and verdict.failures == [] and verdict.invariants is None
        assert result.config.effective_spec() == "register"
        summary = result.summary(verdict)
        assert summary["clock"] == "wall"
        latency = summary["latency"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert result.metrics["wall_throughput"] > 0

        gated = dataclasses.replace(result, spec=result.spec.with_(slo_p99=1e-9))
        failures = gated.verify().failures  # p99 cannot beat 1ns
        assert len(failures) == 1 and "misses the" in failures[0] and "SLO" in failures[0]

    def test_transport_accounting_covers_every_worker(self, result):
        transport = result.metrics["transport"]
        rows = transport["client_connections"]
        assert sorted((row["worker"], row["label"]) for row in rows) == [
            (worker, f"->r{replica}") for worker in range(2) for replica in range(3)
        ]
        assert all(row["bytes_out"] > 0 and row["frames_dropped"] == 0 for row in rows)
        assert set(transport["replica_connections"]) == {"0", "1", "2"}


def test_the_p99_gate_reads_the_virtual_clock_too():
    spec = kv_uniform(num_keys=4, num_ops=40, seed=5)
    assert run_kv_workload(spec).verify().ok
    failures = run_kv_workload(spec.with_(slo_p99=0.5)).verify().failures
    assert len(failures) == 1 and "virtual time units SLO" in failures[0]


def test_consensus_objects_from_two_client_processes_pass_the_smr_spec():
    spec = get_scenario("kv_cas").builder(num_ops=120).with_(transport="live", workers=2)
    result = run_kv_workload(spec)
    assert result.finished_cleanly and result.completed == 120
    assert result.config.effective_spec() == "smr"
    assert result.verify().ok


def test_a_poisoned_client_worker_fails_the_run_fast_and_leaves_nothing_behind(monkeypatch):
    monkeypatch.setenv(POISON_ENV, "1")
    spec = kv_uniform(num_keys=4, num_ops=40, replication=3, seed=5)
    started = time.monotonic()
    result = run_kv_workload(spec.with_(transport="live", workers=2))
    assert time.monotonic() - started < 10.0
    assert not result.finished_cleanly and result.completed == 0
    assert "poisoned worker" in result.worker_failure
    assert "Traceback" in result.worker_failure
    verdict = result.verify()
    assert not verdict.ok and "poisoned worker" in verdict.failures[0]
    assert multiprocessing.active_children() == []
