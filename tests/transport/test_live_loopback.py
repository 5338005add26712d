"""Live loopback cluster: end-to-end smoke + cross-backend equivalence.

These tests launch real OS processes talking asyncio TCP on 127.0.0.1, so
they are the slowest in the suite (a few seconds each) but also the proof
that the same register algorithms run unmodified over real sockets.
"""

import pytest

from repro.registers.base import OperationKind
from repro.workloads.kv import iter_kv_operations, run_kv_workload
from repro.workloads.scenarios import kv_uniform


def live_spec(**overrides):
    defaults = dict(num_keys=6, num_ops=60, replication=3, seed=13)
    defaults.update(overrides)
    return kv_uniform(**defaults).with_(transport="live")


class TestLiveLoopbackRun:
    def test_closed_loop_run_is_clean_and_linearizable(self):
        result = run_kv_workload(live_spec())
        assert result.finished_cleanly
        assert result.completed == 60 and result.failed == 0
        assert result.total_messages() > 0
        assert result.store is None and result.virtual_makespan is None
        report = result.check_linearizability()
        assert report.ok
        assert report.keys_checked == len(result.histories())
        # Wall-clock metrics plane: wall throughput present, virtual nulled.
        assert result.metrics["virtual_throughput"] is None
        assert result.metrics["wall_throughput"] > 0
        assert result.wall_throughput() > 0
        assert result.metrics["messages"]["total"] == result.total_messages()

    def test_open_loop_poisson_run_is_clean(self):
        result = run_kv_workload(
            live_spec(num_ops=40).with_(arrival="poisson", arrival_rate=200.0)
        )
        assert result.finished_cleanly
        assert result.completed == 40
        assert result.check_linearizability().ok

    def test_open_loop_latency_is_stamped_when_the_result_frame_arrives(self):
        """Regression: completion used to be stamped at *collection* time.

        The open-loop driver fired the whole schedule and only then walked
        the futures, stamping ``responded_at`` as it went — so every latency
        included the rest of the firing loop (p50 of seconds at 1,000 ops/s
        where the wire answers in ~2 ms).  Stamped on arrival, a 300 ops/s
        loopback run sits far below 100 ms, and the history stays
        Wing–Gong-clean (a later stamp only ever widened intervals; an
        on-arrival stamp is still inside the true one).
        """
        spec = live_spec(num_ops=300, num_keys=8, algorithm="abd-mwmr").with_(
            arrival="poisson", arrival_rate=300.0
        )
        result = run_kv_workload(spec)
        assert result.finished_cleanly and result.completed == 300
        assert result.metrics["latency"]["all"]["p50"] < 0.100
        assert result.check_linearizability(swmr_fast_path=False).ok


class TestCrossBackendEquivalence:
    def test_sim_and_live_execute_the_identical_operation_set(self):
        """Satellite gate: same seeded spec, both backends, same operations.

        The op-mix RNG stream is independent of the arrival model and of the
        transport, so a simulated run and a live loopback run of the same
        spec execute the exact same (kind, key, value) sequence; only the
        timings differ (virtual units vs wall seconds), by design.
        """
        sim_spec = kv_uniform(num_keys=6, num_ops=60, replication=3, seed=13)
        spec = live_spec()

        def op_set(s):
            return [
                (op.kind, op.key, op.value) for op in iter_kv_operations(s)
            ]

        assert op_set(sim_spec) == op_set(spec)

        sim_result = run_kv_workload(sim_spec)
        live_result = run_kv_workload(spec)
        sim_result.check_atomicity()
        assert live_result.check_linearizability().ok
        assert live_result.finished_cleanly

        from collections import Counter

        sim_ops = Counter(
            (op.kind.value, op.key, op.value) for op in sim_result.completed_ops()
        )
        live_ops = Counter()
        for key, history in live_result.histories().items():
            for record in history.operations:
                kind = OperationKind.WRITE if record.is_write else OperationKind.READ
                live_ops[(kind.value, key, record.value if record.is_write else None)] += 1
        assert sim_ops == live_ops

    def test_both_backends_checker_clean_on_every_algorithm(self):
        for algorithm in ("two-bit", "abd-mwmr"):
            spec = live_spec(num_ops=30, algorithm=algorithm)
            live_result = run_kv_workload(spec)
            assert live_result.finished_cleanly, algorithm
            assert live_result.check_linearizability().ok, algorithm
            sim_result = run_kv_workload(spec.with_(transport="sim"))
            sim_result.check_atomicity()
