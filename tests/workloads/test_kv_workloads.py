"""Keyed workload generation: specs, distributions, determinism, scenarios."""

import pytest

from repro.registers.base import OperationKind
from repro.workloads.kv import (
    CrashPoint,
    ZIPF_EXPONENT,
    KVWorkloadSpec,
    generate_kv_operations,
    run_kv_workload,
)
from repro.workloads.scenarios import consensus_smoke, kv_uniform, kv_zipfian


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
            (dict(batch_size=0), "batch_size"),
        ],
    )
    def test_rejects_bad_parameters(self, changes, match):
        with pytest.raises(ValueError, match=match):
            KVWorkloadSpec(**changes)

    def test_event_valve_scales_only_above_100k_ops(self):
        assert KVWorkloadSpec(num_ops=100_000).store_config().max_events is None
        assert KVWorkloadSpec(num_ops=100_001).store_config().max_events == 60 * 100_001

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
        zipfian = uniform.with_(distribution="zipfian")

        def top_share(spec):
            counts: dict[str, int] = {}
            for op in generate_kv_operations(spec):
                counts[op.key] = counts.get(op.key, 0) + 1
            return max(counts.values()) / sum(counts.values())

        assert top_share(zipfian) > 2 * top_share(uniform)

    def test_zipfian_hot_key_share_follows_the_fixed_exponent(self):
        # Rank r weighs 1 / r**1.2, so the hottest of 50 keys draws 1 / H
        # of the stream; exponents 1.0 and 1.4 would give 0.22 and 0.39.
        spec = KVWorkloadSpec(num_keys=50, num_ops=4000, distribution="zipfian", seed=4)
        counts: dict[str, int] = {}
        for op in generate_kv_operations(spec):
            counts[op.key] = counts.get(op.key, 0) + 1
        expected = 1 / sum(rank**-ZIPF_EXPONENT for rank in range(1, 51))
        assert ZIPF_EXPONENT == 1.2
        assert max(counts.values()) / spec.num_ops == pytest.approx(expected, abs=0.03)

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
    "messages", "max_control_bits", "finished_cleanly", "wall_seconds", "wall_throughput",
    "virtual_makespan", "virtual_throughput", "latency", "wire", "batches",
    "ipc_bytes", "per_sender", "coalesced", "crashes_fired",
    "ok", "atomic", "keys_checked", "consensus_violations",
}


SPEC = kv_uniform(num_keys=4, num_ops=40, replication=3, seed=5)

#: A consensus spec: every backend must audit agreement and validity.
CONSENSUS_SPEC = consensus_smoke(num_keys=4, num_ops=40)


def on_backend(spec, backend):
    transport, workers = {
        "sim-serial": ("sim", 1),
        "sim-workers-2": ("sim", 2),
        "live": ("live", 1),
        "live-workers-2": ("live", 2),
    }[backend]
    return run_kv_workload(spec.with_(transport=transport, workers=workers))


@pytest.fixture(scope="module")
def runs():
    """Each backend's run of the one spec, made on first use."""
    cache = {}

    def run(backend):
        if backend not in cache:
            cache[backend] = on_backend(SPEC, backend)
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
        assert set(result.histories()) <= set(result.oplog.rows_by_key())

    def test_a_store_only_on_the_serial_simulation(self, result):
        # Everything else a finished run is read through is on the result.
        serial_sim = result.spec.transport == "sim" and result.spec.workers == 1
        assert (result.store is None) == (not serial_sim)
        assert (result.virtual_makespan is None) == (result.spec.transport == "live")
        assert result.stats.messages_sent == result.total_messages() > 0
        assert result.crashed == []

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
        assert summary["clock"] == ("wall" if result.virtual_makespan is None else "virtual")
        assert summary["per_sender"] and sum(summary["per_sender"].values()) == summary["messages"]
        assert summary["crashes_fired"] == 0
        # Measured on every backend: a live run's bill is the replicas' own.
        assert summary["max_control_bits"] == result.stats.max_control_bits > 0
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_audits_agreement_and_validity(backend):
    result = on_backend(CONSENSUS_SPEC, backend)
    verdict = result.verify()
    assert verdict.ok, verdict.failures
    assert verdict.invariants == [] and result.invariants == []
    assert result.summary(verdict)["consensus_violations"] == []


def test_the_live_message_bill_does_not_depend_on_the_worker_count(runs):
    # Not compared with the simulator's: that run stops at the last
    # completion, one ABD message short of what the replicas go on to send.
    assert runs("live").total_messages() == runs("live-workers-2").total_messages()


# ----------------------------------------------- one crash model, every backend

#: The victim's send that kills it: a count, so it is the same send on every
#: backend.  One shard, so the shard-parallel engine runs one group and the
#: count spans the store on the simulator too.  The consensus replica sends
#: straight to its transport, several times in one step (a ``DECIDE``, then
#: its next proposal): the transport drops what a crashed sender still sends.
CRASH_AFTER = 6
CRASH_SPEC, CONSENSUS_CRASH_SPEC = (
    spec.with_(
        num_shards=1,
        crash_points=(CrashPoint(shard=0, replica=2, after_messages_sent=CRASH_AFTER),),
    )
    for spec in (SPEC, CONSENSUS_SPEC)
)


def _no_process_outlives_the_run():
    import multiprocessing

    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_replica_crashed_at_its_kth_send_on_every_backend(backend, spec=CRASH_SPEC):
    result = on_backend(spec, backend)
    verdict = result.verify()
    assert verdict.ok, verdict.failures
    assert result.finished_cleanly
    assert result.crashed == [(0, 2)]
    assert result.summary(verdict)["crashes_fired"] == 1
    assert result.stats.per_sender[2] == CRASH_AFTER
    if result.spec.transport == "sim":
        return
    _no_process_outlives_the_run()
    # The halted replica ships its bill: the survivors' sends to it are drops.
    assert result.stats.messages_dropped_to_crashed > 0
    for op in result.failed_ops():
        assert op.failure_reason.startswith("replica 2 crashed: "), op.failure_reason
        if result.spec.workers == 1:
            assert op.pid == 2  # one client: the pid is the serving replica
    rows = result.metrics["transport"]["replica_connections"]
    assert rows["2"]
    survivors = [row for replica in ("0", "1") for row in rows[replica]]
    assert all(row["frames_dropped"] == 0 for row in survivors)
    # The k-th message is in flight and nothing after it is (less each link's hello).
    from_victim = [row["frames_in"] - 1 for row in survivors if row["label"] == "peer<-2"]
    assert len(from_victim) == 2 and sum(from_victim) == CRASH_AFTER


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_consensus_replica_crashed_at_its_kth_send_on_every_backend(backend):
    test_a_replica_crashed_at_its_kth_send_on_every_backend(backend, CONSENSUS_CRASH_SPEC)


@pytest.mark.parametrize("backend", ("sim-serial", "live"))
def test_a_point_past_the_run_never_fires(backend):
    late = SPEC.with_(crash_points=(CrashPoint(shard=0, replica=1, at_time=1e6),))
    result = on_backend(late, backend)
    assert result.verify().ok and result.finished_cleanly
    assert result.crashed == [] and result.failed == 0
    if backend == "live":
        _no_process_outlives_the_run()
        assert sorted(result.metrics["transport"]["replica_connections"]) == ["0", "1", "2"]


#: A point on replica 2 that the run never reaches: planned, but not fired.
UNREACHED = (CrashPoint(shard=0, replica=2, at_time=1e6),)


@pytest.mark.parametrize(
    "planned, how",
    [((), "killed"), (UNREACHED, "killed"), (UNREACHED, "handler raises")],
    ids=["unplanned", "killed-before-its-point", "handler-raises"],
)
def test_a_link_that_ends_outside_the_plan_fails_the_run_by_name(monkeypatch, planned, how):
    import multiprocessing
    import os
    import signal
    import time

    from repro.transport.live import LiveClient

    # Ten seconds of open-loop arrivals; replica 2's link ends at the 200th.
    # No crash ends a link (a fired point halts its replica), so a SIGKILL
    # from outside is a wire fault, planned point or not.
    spec = SPEC.with_(
        transport="live", num_ops=10_000, arrival="poisson", arrival_rate=1000.0,
        crash_points=planned,
    )
    fire, fired, killed = LiveClient.fire, [], []

    def fire_and_kill(client, *args, **kwargs):
        fired.append(None)
        if len(fired) == 200:
            if how == "killed":
                (victim,) = [
                    p for p in multiprocessing.active_children() if p.name == "repro-replica-2"
                ]
                os.kill(victim.pid, signal.SIGKILL)
            else:  # an ``arm`` without its epoch: the replica's handler raises KeyError
                client.conns[2].send({"kind": "arm"})
            killed.append(time.monotonic())
        return fire(client, *args, **kwargs)

    monkeypatch.setattr(LiveClient, "fire", fire_and_kill)
    with pytest.raises(RuntimeError, match=r"link ->r2 ended outside the crash plan: \w+"):
        run_kv_workload(spec)
    assert time.monotonic() - killed[0] < 3.0  # the run stopped; it did not play out
    assert len(fired) < 5000
    _no_process_outlives_the_run()
