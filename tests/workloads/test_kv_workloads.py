"""Keyed workload generation: specs, distributions, determinism, scenarios."""

import pytest

from repro.registers.base import OperationKind
from repro.workloads.kv import (
    CrashPoint,
    KVWorkloadSpec,
    generate_kv_operations,
    run_kv_workload,
)
from repro.workloads.scenarios import kv_uniform, kv_zipfian


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = KVWorkloadSpec()
        assert spec.num_keys >= 1
        assert spec.store_config().num_shards == spec.num_shards

    @pytest.mark.parametrize(
        "changes, match",
        [
            (dict(num_keys=0), "at least one key"),
            (dict(num_ops=-1), "non-negative"),
            (dict(read_fraction=1.5), "read_fraction"),
            (dict(distribution="pareto"), "unknown distribution"),
            (dict(zipf_s=0.0), "zipf_s"),
            (dict(batch_size=0), "batch_size"),
        ],
    )
    def test_rejects_bad_parameters(self, changes, match):
        with pytest.raises(ValueError, match=match):
            KVWorkloadSpec(**changes)

    def test_with_copies(self):
        spec = KVWorkloadSpec(num_ops=100)
        changed = spec.with_(batch_size=1)
        assert changed.batch_size == 1
        assert spec.batch_size != 1 or spec.batch_size == changed.batch_size
        assert changed.num_ops == 100

    def test_keys_are_stable_and_padded(self):
        spec = KVWorkloadSpec(num_keys=3)
        assert spec.keys() == ["k0000", "k0001", "k0002"]


class TestGenerator:
    def test_deterministic(self):
        spec = KVWorkloadSpec(num_keys=10, num_ops=200, seed=5)
        assert generate_kv_operations(spec) == generate_kv_operations(spec)

    def test_different_seed_different_stream(self):
        base = KVWorkloadSpec(num_keys=10, num_ops=200, seed=5)
        other = base.with_(seed=6)
        assert generate_kv_operations(base) != generate_kv_operations(other)

    def test_read_fraction_respected(self):
        spec = KVWorkloadSpec(num_keys=8, num_ops=1000, read_fraction=0.75, seed=1)
        operations = generate_kv_operations(spec)
        reads = sum(1 for op in operations if op.kind is OperationKind.READ)
        assert 0.65 < reads / len(operations) < 0.85

    def test_written_values_unique_per_key(self):
        spec = KVWorkloadSpec(num_keys=4, num_ops=400, read_fraction=0.2, seed=2)
        seen: dict[str, set] = {}
        for op in generate_kv_operations(spec):
            if op.kind is OperationKind.WRITE:
                values = seen.setdefault(op.key, set())
                assert op.value not in values
                assert op.value != spec.initial_value
                values.add(op.value)

    def test_all_keys_in_population(self):
        spec = KVWorkloadSpec(num_keys=6, num_ops=300, seed=3)
        keys = set(spec.keys())
        for op in generate_kv_operations(spec):
            assert op.key in keys

    def test_zipfian_is_skewed(self):
        uniform = KVWorkloadSpec(num_keys=50, num_ops=2000, distribution="uniform", seed=4)
        zipfian = uniform.with_(distribution="zipfian", zipf_s=1.3)

        def top_share(spec):
            counts: dict[str, int] = {}
            for op in generate_kv_operations(spec):
                counts[op.key] = counts.get(op.key, 0) + 1
            return max(counts.values()) / sum(counts.values())

        assert top_share(zipfian) > 2 * top_share(uniform)

    def test_zero_ops(self):
        assert generate_kv_operations(KVWorkloadSpec(num_ops=0)) == []


class TestScenarios:
    def test_kv_uniform_builds_valid_spec(self):
        spec = kv_uniform(num_keys=8, num_ops=50)
        assert spec.distribution == "uniform"
        assert spec.num_shards == 4

    def test_kv_zipfian_builds_valid_spec(self):
        spec = kv_zipfian(num_keys=8, num_ops=50)
        assert spec.distribution == "zipfian"
        assert spec.zipf_s > 0

    def test_scenarios_run_end_to_end(self):
        for spec in (kv_uniform(num_keys=6, num_ops=60), kv_zipfian(num_keys=6, num_ops=60)):
            result = run_kv_workload(spec)
            assert len(result.completed_ops()) == 60
            assert result.check_atomicity().ok


class TestRunner:
    def test_batch_accounting(self):
        result = run_kv_workload(KVWorkloadSpec(num_ops=100, batch_size=30, seed=8))
        assert result.batches == 4  # 30 + 30 + 30 + 10
        assert len(result.ops) == 100

    def test_batch_size_one_matches_per_op_pattern(self):
        result = run_kv_workload(KVWorkloadSpec(num_ops=40, batch_size=1, seed=9))
        assert result.batches == 40
        assert result.check_atomicity().ok

    def test_throughput_metrics_positive(self):
        result = run_kv_workload(KVWorkloadSpec(num_ops=80, seed=10))
        assert result.virtual_throughput() > 0
        assert min(result.latencies()) > 0 and len(result.latencies()) == result.completed
        assert result.total_messages() > 0

    def test_crash_points_applied(self):
        spec = KVWorkloadSpec(num_ops=120, num_shards=2, replication=3, seed=12).with_(
            crash_points=(CrashPoint(at_time=2.0, shard=0, replica=2),)
        )
        result = run_kv_workload(spec)
        assert 2 in result.store.shards[0].crashed_replicas
        assert result.check_atomicity().ok


# ------------------------------------------------------ the one result contract

BACKENDS = ("sim-serial", "sim-workers-2", "live", "live-workers-2")

SUMMARY_KEYS = {
    "algorithm", "checked_against", "clock", "submitted", "completed", "failed",
    "messages", "finished_cleanly", "wall_seconds", "wall_throughput",
    "virtual_makespan", "virtual_throughput", "latency", "wire", "batches",
    "ipc_bytes", "per_sender", "coalesced", "crashes_fired",
    "ok", "atomic", "keys_checked", "consensus_violations",
}


SPEC = kv_uniform(num_keys=4, num_ops=40, replication=3, seed=5)


@pytest.fixture(scope="module")
def runs():
    """Each backend's run of the one spec, made on first use."""
    cache = {}

    def run(backend):
        if backend not in cache:
            transport, workers = {
                "sim-serial": ("sim", 1),
                "sim-workers-2": ("sim", 2),
                "live": ("live", 1),
                "live-workers-2": ("live", 2),
            }[backend]
            cache[backend] = run_kv_workload(SPEC.with_(transport=transport, workers=workers))
        return cache[backend]

    return run


class TestOneResultOneVerdict:
    """{sim, live} x {one process, two}: one spec, one shape, one verdict."""

    @pytest.fixture(scope="class", params=BACKENDS)
    def result(self, request, runs):
        return runs(request.param)

    def test_row_i_is_script_operation_i(self, result):
        script = [(op.kind, op.key, op.value) for op in generate_kv_operations(SPEC)]
        assert [(op.kind, op.key, op.value) for op in result.ops] == script

    def test_same_result_type_and_accessors(self, result):
        from repro.exec.oplog import OpLog
        from repro.workloads.kv import KVWorkloadResult

        assert isinstance(result, KVWorkloadResult)
        assert isinstance(result.oplog, OpLog) and len(result.oplog) == 40
        assert len(result.ops) == 40
        assert result.completed == 40 == len(result.completed_ops())
        assert result.failed == 0 == len(result.failed_ops())
        assert result.total_messages() > 0
        assert result.finished_cleanly and result.worker_failure is None
        assert result.makespan > 0 and result.wall_seconds > 0
        assert result.metrics["latency"]["all"]["count"] == 40
        # A store exactly where the replicas live in this process — which is
        # also exactly where a virtual clock timed the run.
        assert (result.store is None) == (result.virtual_makespan is None)
        assert set(result.histories()) <= set(result.oplog.rows_by_key())

    def test_same_verdict_and_summary_shape(self, result):
        from repro.verification.linearizability import PartitionedCheckReport
        from repro.workloads.kv import RunVerdict

        verdict = result.verify()
        assert isinstance(verdict, RunVerdict)
        assert isinstance(verdict.report, PartitionedCheckReport)
        assert verdict.ok and verdict.failures == []
        assert verdict.report.keys_checked == len(result.histories())
        assert verdict.invariants is None  # register run: no consensus replicas to audit
        summary = result.summary(verdict)
        assert set(summary) == SUMMARY_KEYS
        assert summary["completed"] == 40 and summary["ok"] and summary["atomic"]
        assert summary["clock"] == ("wall" if result.store is None else "virtual")
        verdict_keys = {"ok", "atomic", "keys_checked", "consensus_violations"}
        assert set(result.summary()) == SUMMARY_KEYS - verdict_keys

    def test_corrupted_read_fails_the_verdict_and_the_shared_exit(self, result, capsys):
        """Runs last on each backend's result: it corrupts the returned op log."""
        from repro.analysis.report import report_run

        row, op = next(
            (row, op)
            for row, op in enumerate(result.oplog.ops_view())
            if op.completed and op.kind is OperationKind.READ
        )
        result.oplog._result_idx[row] = result.oplog.interner.intern("never-written")
        verdict = result.verify()
        assert not verdict.ok and not verdict.report.ok
        assert verdict.report.failing_keys() == [op.key]
        assert result.summary(verdict)["ok"] is False
        # The function every checking CLI command returns through.
        assert report_run("table", verdict.failures, "store run") == 1
        captured = capsys.readouterr()
        assert captured.out == "table\n"
        assert "store run failures:" in captured.err and repr(op.key) in captured.err


def test_the_live_message_bill_does_not_depend_on_the_worker_count(runs):
    # Not compared with the simulator's: that run stops at the last
    # completion, one ABD message short of what the replicas go on to send.
    assert runs("live").total_messages() == runs("live-workers-2").total_messages()
