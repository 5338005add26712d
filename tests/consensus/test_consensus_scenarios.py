"""Scenario-level consensus tests: seeded workloads gated by the checker.

Every consensus scenario run here must (a) finish cleanly, (b) pass the
SMR-spec Wing–Gong checker on every key, and (c) satisfy the protocol
agreement/validity invariants read straight off the replica processes.
Crash and shard-parallel runs ride the same gates.
"""

from __future__ import annotations

import pytest

from repro.consensus import ConsensusObjectProcess, consensus_invariants
from repro.workloads.kv import CrashPoint, run_kv_workload
from repro.workloads.scenarios import consensus_smoke, kv_cas, kv_counter


def invariant_violations(store) -> list:
    by_key = {}
    for key in store.deployed_keys:
        processes = [
            process
            for process in store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
        if processes:
            by_key[key] = processes
    assert by_key, "expected consensus deployments"
    return consensus_invariants(by_key)


def assert_clean(result) -> None:
    assert result.finished_cleanly
    assert not result.failed_ops()
    assert result.check_atomicity(raise_on_violation=False).ok
    assert invariant_violations(result.store) == []


class TestConsensusScenarios:
    def test_consensus_smoke_is_linearizable(self):
        assert_clean(run_kv_workload(consensus_smoke()))

    def test_kv_cas_is_linearizable(self):
        assert_clean(run_kv_workload(kv_cas(num_keys=12, num_ops=240)))

    def test_kv_counter_is_linearizable(self):
        assert_clean(run_kv_workload(kv_counter(num_keys=6, num_ops=150)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crashed_minority_replica_never_breaks_agreement(self, seed):
        spec = consensus_smoke(num_keys=4, num_ops=80, seed=seed).with_(
            crash_points=(CrashPoint(at_time=5.0, shard=seed % 2, replica=2),)
        )
        result = run_kv_workload(spec)
        assert result.finished_cleanly
        assert result.check_atomicity(raise_on_violation=False).ok
        assert invariant_violations(result.store) == []

    def test_runs_are_reproducible(self):
        spec = consensus_smoke(num_ops=60)

        def signature(result):
            return [
                (op.op_id, op.kind.value, op.key, op.value, repr(op.result))
                for op in result.completed_ops()
            ]

        assert signature(run_kv_workload(spec)) == signature(run_kv_workload(spec))


class TestConsensusParallel:
    def test_workers_2_output_is_bit_identical_to_serial(self):
        spec = kv_cas(num_keys=8, num_ops=160)
        serial = run_kv_workload(spec)
        parallel = run_kv_workload(spec.with_(workers=2))
        assert parallel.worker_failure is None

        def serialize(result):
            histories = result.store.histories()
            return {
                str(key): histories[key].to_dict()
                for key in sorted(histories, key=str)
            }

        assert serialize(serial) == serialize(parallel)
        assert serial.total_messages() == parallel.total_messages()
        assert parallel.check_atomicity(raise_on_violation=False).ok
