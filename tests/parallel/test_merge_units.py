"""Hand-crafted merge cases for a run recorded in several processes.

These pin the merge *semantics* independently of any store run: the merged
metrics read the merged op log, so percentiles are order statistics of the
pooled samples (never averaged), empty workers are neutral, the throughput
window spans min(first issue)..max(last completion), dictionary keys come
out sorted, and a run merged from parts snapshots exactly like one log of
the same operations.
"""

import time
from array import array

import pytest

from repro.exec.metrics import MetricsCollector, _latency_summary
from repro.exec.oplog import OpLog, encode_oplog
from repro.parallel import merge_network_stats
from repro.parallel.merge import merged_result
from repro.registers.base import OperationKind
from repro.sim.network import NetworkStats
from repro.workloads.kv import KVWorkloadSpec
from tests.exec.conftest import log_op


def stats_snapshot(**overrides):
    """A NetworkStats.snapshot()-shaped dict with all counters zeroed."""
    base = {
        "messages_sent": 0,
        "messages_delivered": 0,
        "messages_dropped_to_crashed": 0,
        "control_bits_total": 0,
        "data_bits_total": 0,
        "messages_coalesced": 0,
        "max_control_bits": 0,
        "by_type": {},
        "per_sender": {},
    }
    base.update(overrides)
    return base


class TestMergeNetworkStats:
    def test_empty_merge_is_all_zero(self):
        merged = merge_network_stats([])
        assert merged.messages_sent == 0
        assert merged.max_control_bits == 0
        assert merged.by_type == {}
        assert merged.per_sender == {}

    def test_counters_sum_and_max_control_bits_maxes(self):
        merged = merge_network_stats(
            [
                stats_snapshot(messages_sent=10, control_bits_total=20, max_control_bits=2),
                stats_snapshot(messages_sent=7, control_bits_total=14, max_control_bits=5),
            ]
        )
        assert merged.messages_sent == 17
        assert merged.control_bits_total == 34
        assert merged.max_control_bits == 5

    def test_dict_counters_merge_with_sorted_keys(self):
        merged = merge_network_stats(
            [
                stats_snapshot(by_type={"write2": 2, "ack1": 1}, per_sender={9: 4, 2: 1}),
                stats_snapshot(by_type={"ack1": 3, "read0": 4}, per_sender={2: 2, 0: 5}),
            ]
        )
        assert merged.by_type == {"ack1": 4, "read0": 4, "write2": 2}
        assert list(merged.by_type) == sorted(merged.by_type)
        assert merged.per_sender == {0: 5, 2: 3, 9: 4}
        assert list(merged.per_sender) == sorted(merged.per_sender)


READ, WRITE, CAS = OperationKind.READ, OperationKind.WRITE, OperationKind.CAS


def part(*ops):
    """One worker's share as it crosses the pipe: its op log, encoded.

    Each op is ``(script index, kind, issued at, latency)``; a latency of
    ``None`` is an operation that failed.
    """
    log, script_index = OpLog(), array("q")
    for position, kind, issued, latency in ops:
        log_op(log, kind, issued, latency, failed=latency is None)
        script_index.append(position)
    return {"columnar": encode_oplog(log, script_index), "batches": 1, "finished": True}


def merged(parts, stats=None, wall_clock=False):
    """The metrics snapshot :func:`merged_result` builds from ``parts``."""
    return merged_result(
        KVWorkloadSpec(),
        parts,
        time.perf_counter(),
        stats=merge_network_stats([]) if stats is None else stats,
        crashed=(),
        invariants=None,
        virtual_makespan=None if wall_clock else 0.0,
        failure=None,
    ).metrics


class TestMergedMetrics:
    def test_empty_merge_has_zero_counts_and_no_latency(self):
        snapshot = merged([])
        assert snapshot["issued"] == snapshot["completed"] == snapshot["failed"] == 0
        assert snapshot["virtual_throughput"] == 0.0
        assert snapshot["latency"]["read"] is None
        assert snapshot["latency"]["write"] is None
        assert snapshot["latency"]["all"] is None
        assert snapshot["messages"]["total"] == 0
        assert snapshot["messages"]["per_completed_op"] is None
        assert "faults" not in snapshot

    def test_empty_worker_part_is_neutral(self):
        full = part((0, READ, 0.0, 1.0), (1, READ, 1.0, 2.0), (2, WRITE, 2.0, 3.0),
                    (3, WRITE, 4.0, 4.0))
        stats = merge_network_stats([stats_snapshot(messages_sent=12)])
        assert merged([full], stats) == merged([full, part()], stats)

    def test_single_key_worker_merges_into_serial_shape(self):
        # One worker saw only writes (a single-key shard group): the merged
        # snapshot must still carry both pre-keyed buckets plus "all".
        parts = [
            part((0, WRITE, 0.0, 2.0), (2, WRITE, 2.0, 3.0)),
            part((1, READ, 1.0, 1.0), (3, READ, 2.5, 1.5), (4, READ, 3.5, 2.5)),
        ]
        snapshot = merged(parts, merge_network_stats([stats_snapshot(messages_sent=30)]))
        assert snapshot["issued"] == 5 and snapshot["completed"] == 5
        assert snapshot["latency"]["write"] == _latency_summary([2.0, 3.0])
        assert snapshot["latency"]["read"] == _latency_summary([1.0, 1.5, 2.5])
        # "all" pools the samples in script order.
        assert snapshot["latency"]["all"] == _latency_summary([2.0, 1.0, 3.0, 1.5, 2.5])
        assert snapshot["messages"]["total"] == 30
        assert snapshot["messages"]["per_completed_op"] == 6.0

    def test_percentiles_recomputed_from_pooled_samples_not_averaged(self):
        low = [float(v) for v in range(1, 51)]     # p99 = 50
        high = [float(v) for v in range(51, 101)]  # p99 = 100
        parts = [
            part(*[(i, READ, 0.0, value) for i, value in enumerate(low)]),
            part(*[(50 + i, READ, 0.0, value) for i, value in enumerate(high)]),
        ]
        pooled_read = merged(parts)["latency"]["read"]
        pooled = _latency_summary(low + high)
        assert pooled_read == pooled  # the mean too: the rows are in script order
        assert pooled_read["p99"] == 99.0
        averaged_p99 = (_latency_summary(low)["p99"] + _latency_summary(high)["p99"]) / 2
        assert pooled_read["p99"] != averaged_p99
        assert pooled_read["max"] == 100.0
        assert pooled_read["count"] == 100

    def test_throughput_window_spans_min_issue_to_max_completion(self):
        parts = [
            part(*[(i, READ, 0.0, 10.0) for i in range(5)]),
            part(*[(5 + i, READ, 2.0, 18.0) for i in range(15)]),
        ]
        assert merged(parts)["virtual_throughput"] == pytest.approx(20 / 20.0)

    def test_zero_span_throughput_serializes_as_none(self):
        assert merged([part((0, READ, 3.0, 0.0))])["virtual_throughput"] is None

    def test_wall_clock_merge_reports_the_window_as_wall_throughput(self):
        snapshot = merged([part((0, READ, 0.0, 0.25), (1, WRITE, 0.25, 0.25))], wall_clock=True)
        assert snapshot["virtual_throughput"] is None
        assert snapshot["wall_throughput"] == pytest.approx(4.0)


class TestOneSnapshot:
    """A run merged from parts reports what one log of the same run reports."""

    OPS = [
        # (part, kind, issued at, latency; None = failed)
        (0, READ, 0.0, 1.0),
        (1, WRITE, 0.5, 2.0),
        (0, CAS, 1.0, 1.5),
        (1, READ, 1.5, 0.5),
        (1, CAS, 2.0, 3.0),
        (0, READ, 2.5, None),
    ]

    def test_merged_snapshot_equals_the_one_logs(self):
        one, stats = OpLog(), NetworkStats()
        view = MetricsCollector(one, stats)
        shares = ([], [])
        for position, (share, kind, issued, latency) in enumerate(self.OPS):
            log_op(one, kind, issued, latency, failed=latency is None)
            shares[share].append((position, kind, issued, latency))
        for _ in range(40):
            stats.record_send(0, "EST")
        # Pool order does not matter: the merge puts rows back in script order.
        parts = [part(*shares[1]), part(*shares[0])]
        snapshot = merged(parts, merge_network_stats([stats.snapshot()]))
        assert snapshot == view.snapshot()
        assert snapshot["failed"] == 1 and snapshot["latency"]["cas"]["count"] == 2
        assert snapshot["messages"]["total"] == 40


class TestTheResultSharesTheStoreSurface:
    def test_finished_run_methods_are_kvstores_own_functions(self):
        """One implementation: a finished run cannot drift from the store."""
        from repro.store.store import KVStore
        from repro.workloads.kv import KVWorkloadResult

        for name in ("total_messages", "completed_ops", "failed_ops", "histories",
                     "check_linearizability", "check_atomicity"):
            assert getattr(KVWorkloadResult, name) is getattr(KVStore, name), name
