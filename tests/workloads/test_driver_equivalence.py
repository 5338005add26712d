"""Driver equivalence: the unified engine reproduces pre-refactor histories.

``golden_histories.json`` was generated by the pre-``repro.exec`` runner (the
hand-rolled closed-loop chaining deleted in this refactor).  These tests
replay the same spec matrix — two algorithms x three seeds x two timing
shapes — through the current driver and require *record-by-record* equality:
pids, kinds, values, results, invocation/response times, plus the run's
total message count, final virtual time and executed event count.

Open-loop determinism rides along: same seed => same arrival times and the
same history, event for event.
"""

import json

import pytest

from repro.workloads.kv import generate_kv_arrivals, run_kv_workload
from repro.workloads.scenarios import kv_openloop

from golden_histories import GOLDEN_PATH, golden_specs, serialize_run

GOLDEN = json.loads(GOLDEN_PATH.read_text())
SPECS = golden_specs()


class TestClosedLoopGoldenHistories:
    def test_matrix_covers_required_cases(self):
        names = set(SPECS)
        assert names == set(GOLDEN)
        for algorithm in ("two-bit", "abd"):
            seeds = {name for name in names if name.startswith(algorithm)}
            assert len(seeds) >= 3  # >= 3 seeds per algorithm

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_history_byte_identical_to_pre_refactor(self, name):
        replayed = serialize_run(SPECS[name])
        golden = GOLDEN[name]
        assert replayed["records"] == golden["records"], (
            f"{name}: history diverged from the pre-refactor driver"
        )
        assert replayed["total_messages"] == golden["total_messages"]
        assert replayed["final_time"] == golden["final_time"]
        assert replayed["executed_events"] == golden["executed_events"]

    def test_rerun_is_deterministic(self):
        name = sorted(SPECS)[0]
        assert serialize_run(SPECS[name]) == serialize_run(SPECS[name])


def _history_fingerprint(result):
    return [
        (
            op.key,
            op.kind.value,
            op.value,
            op.invoked_at,
            op.responded_at,
            op.result,
        )
        for op in result.ops
    ]


class TestOpenLoopDeterminism:
    def test_same_seed_same_arrivals_and_history(self):
        spec = kv_openloop(num_keys=12, num_ops=120, arrival_rate=6.0, seed=21)
        first = run_kv_workload(spec)
        second = run_kv_workload(spec)
        assert first.arrivals == second.arrivals
        assert len(first.arrivals) == 120
        assert _history_fingerprint(first) == _history_fingerprint(second)
        assert first.total_messages() == second.total_messages()

    def test_different_seed_different_arrivals(self):
        base = kv_openloop(num_keys=12, num_ops=60, arrival_rate=6.0, seed=21)
        other = base.with_(seed=22)
        assert run_kv_workload(base).arrivals != run_kv_workload(other).arrivals

    def test_arrival_times_precomputable(self):
        spec = kv_openloop(num_keys=12, num_ops=40, arrival_rate=4.0, seed=5)
        assert run_kv_workload(spec).arrivals == generate_kv_arrivals(spec)

    def test_uniform_arrivals_supported(self):
        spec = kv_openloop(num_keys=8, num_ops=60, arrival="uniform", arrival_rate=5.0, seed=9)
        result = run_kv_workload(spec)
        assert len(result.completed_ops()) == 60
        result.check_atomicity()

    def test_open_loop_run_is_atomic_per_key(self):
        result = run_kv_workload(kv_openloop(num_ops=200, seed=13))
        assert len(result.completed_ops()) == 200
        report = result.check_atomicity()
        assert report.ok and report.keys_checked > 1

    def test_closed_vs_open_share_the_operation_stream(self):
        # Same seed: the key/op mix is identical, only arrival timing differs.
        open_spec = kv_openloop(num_keys=12, num_ops=80, arrival_rate=6.0, seed=17)
        closed_spec = open_spec.with_(arrival="closed", arrival_rate=0.0)
        open_result = run_kv_workload(open_spec)
        closed_result = run_kv_workload(closed_spec)
        assert [(op.key, op.kind, op.value) for op in open_result.ops] == [
            (op.key, op.kind, op.value) for op in closed_result.ops
        ]

    def test_low_rate_run_completes_without_truncation(self):
        # A sparse arrival stream must not be truncated by the virtual-time
        # budget: the budget bounds completion *after the last arrival*.
        spec = kv_openloop(num_keys=4, num_ops=30, arrival_rate=0.001, seed=3).with_(
            max_virtual_time=1_000.0
        )
        result = run_kv_workload(spec)
        assert result.finished_cleanly
        assert len(result.completed_ops()) == 30

    def test_truncation_is_surfaced_not_silent(self):
        # Force a budget too small to finish anything after the last arrival.
        spec = kv_openloop(num_keys=4, num_ops=20, arrival_rate=5.0, seed=3).with_(
            max_virtual_time=0.0
        )
        result = run_kv_workload(spec)
        assert not result.finished_cleanly
        assert len(result.completed_ops()) < 20

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            kv_openloop(arrival_rate=0.0)
        with pytest.raises(ValueError, match="unknown arrival model"):
            kv_openloop().with_(arrival="bursty")
        with pytest.raises(ValueError, match="closed-loop"):
            generate_kv_arrivals(kv_openloop().with_(arrival="closed", arrival_rate=0.0))
