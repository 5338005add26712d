"""The bit-identity differential suite: workers=1 vs workers=N.

The shard-parallel engine's contract is not "statistically similar" but
**bit-identical**: for the same spec, a parallel run must produce the same
per-key histories, the same checker verdicts, the same message totals and
the same merged metrics as the serial run.  The merged metrics are read off
the merged op log, whose rows are in the serial run's order, so the whole
snapshot — the float-summed latency means included — compares with ``==``.
"""

import pytest

from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop, kv_partitioned, kv_uniform, kv_zipfian

#: name -> (spec builder, worker count).  Builders (not specs) keep the
#: collected test ids stable and the module import cheap.
CASES = {
    "uniform-w2": (lambda: kv_uniform(num_keys=12, num_ops=120, seed=5), 2),
    "zipfian-w3": (lambda: kv_zipfian(num_keys=16, num_ops=120, seed=6), 3),
    "openloop-w4": (
        lambda: kv_openloop(num_keys=16, num_ops=120, arrival_rate=8.0, seed=7),
        4,
    ),
    "faultplan-w2": (lambda: kv_partitioned(num_keys=10, num_ops=100, seed=8), 2),
}


def histories_dict(result):
    return {str(key): history.to_dict() for key, history in result.histories().items()}


def assert_metrics_identical(serial: dict, parallel: dict) -> None:
    """Merged metrics == serial metrics, as one whole dict."""
    assert serial == parallel


class TestDifferentialBitIdentity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_parallel_run_is_bit_identical_to_serial(self, name):
        build, workers = CASES[name]
        serial = run_kv_workload(build())
        parallel = run_kv_workload(build().with_(workers=workers))
        assert parallel.worker_failure is None
        assert histories_dict(serial) == histories_dict(parallel)
        assert serial.virtual_makespan == parallel.virtual_makespan
        assert serial.total_messages() == parallel.total_messages()
        assert serial.finished_cleanly == parallel.finished_cleanly
        assert serial.batches == parallel.batches
        assert serial.arrivals == parallel.arrivals
        assert_metrics_identical(serial.metrics, parallel.metrics)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_checker_verdicts_identical(self, name):
        build, workers = CASES[name]
        serial = run_kv_workload(build())
        parallel = run_kv_workload(build().with_(workers=workers))
        serial_report = serial.check_atomicity(raise_on_violation=False)
        parallel_report = parallel.check_atomicity(raise_on_violation=False)
        assert serial_report.ok == parallel_report.ok
        assert serial_report.keys_checked == parallel_report.keys_checked
        serial_lin = serial.check_linearizability()
        parallel_lin = parallel.check_linearizability()
        assert serial_lin.ok == parallel_lin.ok
        assert serial_lin.operations_checked == parallel_lin.operations_checked
        assert serial_lin.states_explored == parallel_lin.states_explored

    def test_network_stats_merge_matches_serial_snapshot(self):
        build, workers = CASES["uniform-w2"]
        serial = run_kv_workload(build()).stats.snapshot()
        parallel = run_kv_workload(build().with_(workers=workers)).stats.snapshot()
        assert serial == parallel

    def test_more_workers_than_shards_degrades_gracefully(self):
        # kv_uniform deploys 4 shards; 9 workers must clamp to 4 groups and
        # still produce the identical run.
        serial = run_kv_workload(kv_uniform(num_keys=8, num_ops=80, seed=9))
        parallel = run_kv_workload(kv_uniform(num_keys=8, num_ops=80, seed=9).with_(workers=9))
        assert histories_dict(serial) == histories_dict(parallel)
        assert serial.virtual_makespan == parallel.virtual_makespan

