"""Hand-crafted merge cases for a run recorded in several processes.

These pin the merge *semantics* independently of any store run: percentiles
are recomputed from pooled samples (never averaged), empty workers are
neutral, the throughput window spans min(first issue)..max(last completion),
dictionary keys come out sorted, and a collector folded from parts snapshots
exactly like one collector fed the same samples.
"""

import math

import pytest

from repro.exec.metrics import MetricsCollector, _latency_summary
from repro.parallel import merge_network_stats
from repro.registers.base import OperationKind


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


def metrics_part(
    issued=0,
    completed=0,
    failed=0,
    first_issue_at=None,
    last_completion_at=None,
    reads=(),
    writes=(),
):
    """A MetricsCollector.raw_state()-shaped worker part."""
    return {
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "first_issue_at": first_issue_at,
        "last_completion_at": last_completion_at,
        "latencies": {"read": list(reads), "write": list(writes)},
    }


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


def fold(parts, stats=None, wall_clock=False):
    """The snapshot of a collector folded from ``parts``."""
    stats = merge_network_stats([]) if stats is None else stats
    return MetricsCollector.folded(parts, stats, wall_clock).snapshot()


class TestFoldedCollector:
    def test_empty_fold_has_zero_counts_and_no_latency(self):
        snapshot = fold([])
        assert snapshot["issued"] == snapshot["completed"] == snapshot["failed"] == 0
        assert snapshot["virtual_throughput"] == 0.0
        assert snapshot["latency"]["read"] is None
        assert snapshot["latency"]["write"] is None
        assert snapshot["latency"]["all"] is None
        assert snapshot["messages"]["total"] == 0
        assert snapshot["messages"]["per_completed_op"] is None
        assert "faults" not in snapshot

    def test_empty_worker_part_is_neutral(self):
        part = metrics_part(
            issued=4, completed=4, first_issue_at=0.0, last_completion_at=8.0,
            reads=[1.0, 2.0], writes=[3.0, 4.0],
        )
        stats = merge_network_stats([stats_snapshot(messages_sent=12)])
        assert fold([part], stats) == fold([part, metrics_part()], stats)

    def test_single_key_worker_merges_into_serial_shape(self):
        # One worker saw only writes (a single-key shard group): the folded
        # snapshot must still carry both pre-keyed buckets plus "all".
        parts = [
            metrics_part(issued=2, completed=2, first_issue_at=0.0,
                         last_completion_at=5.0, writes=[2.0, 3.0]),
            metrics_part(issued=3, completed=3, first_issue_at=1.0,
                         last_completion_at=6.0, reads=[1.0, 1.5, 2.5]),
        ]
        snapshot = fold(parts, merge_network_stats([stats_snapshot(messages_sent=30)]))
        assert snapshot["issued"] == 5 and snapshot["completed"] == 5
        assert snapshot["latency"]["write"] == _latency_summary([2.0, 3.0])
        assert snapshot["latency"]["read"] == _latency_summary([1.0, 1.5, 2.5])
        assert snapshot["latency"]["all"] == _latency_summary([1.0, 1.5, 2.5, 2.0, 3.0])
        assert snapshot["messages"]["total"] == 30
        assert snapshot["messages"]["per_completed_op"] == 6.0

    def test_percentiles_recomputed_from_pooled_samples_not_averaged(self):
        low = [float(v) for v in range(1, 51)]     # p99 = 50
        high = [float(v) for v in range(51, 101)]  # p99 = 100
        parts = [
            metrics_part(issued=50, completed=50, first_issue_at=0.0,
                         last_completion_at=50.0, reads=low),
            metrics_part(issued=50, completed=50, first_issue_at=0.0,
                         last_completion_at=50.0, reads=high),
        ]
        merged = fold(parts)["latency"]["read"]
        pooled = _latency_summary(low + high)
        assert merged["p99"] == pooled["p99"] == 99.0
        averaged_p99 = (_latency_summary(low)["p99"] + _latency_summary(high)["p99"]) / 2
        assert merged["p99"] != averaged_p99
        assert merged["p50"] == pooled["p50"]
        assert merged["max"] == 100.0
        assert merged["count"] == 100
        assert math.isclose(merged["mean"], pooled["mean"], rel_tol=1e-12)

    def test_throughput_window_spans_min_issue_to_max_completion(self):
        parts = [
            metrics_part(issued=5, completed=5, first_issue_at=0.0, last_completion_at=10.0),
            metrics_part(issued=15, completed=15, first_issue_at=2.0, last_completion_at=20.0),
        ]
        assert fold(parts)["virtual_throughput"] == pytest.approx(20 / 20.0)

    def test_zero_span_throughput_serializes_as_none(self):
        parts = [metrics_part(issued=1, completed=1, first_issue_at=3.0, last_completion_at=3.0)]
        assert fold(parts)["virtual_throughput"] is None

    def test_wall_clock_fold_reports_the_window_as_wall_throughput(self):
        parts = [metrics_part(issued=2, completed=2, first_issue_at=0.0, last_completion_at=0.5)]
        snapshot = fold(parts, wall_clock=True)
        assert snapshot["virtual_throughput"] is None
        assert snapshot["wall_throughput"] == pytest.approx(4.0)


class TestOneSnapshot:
    """A collector folded from parts *is* one collector fed the same samples."""

    SAMPLES = [
        # (part, kind, issued at, latency)
        (0, OperationKind.READ, 0.0, 1.0),
        (1, OperationKind.WRITE, 0.5, 2.0),
        (0, OperationKind.CAS, 1.0, 1.5),
        (1, OperationKind.READ, 1.5, 0.5),
        (1, OperationKind.CAS, 2.0, 3.0),
    ]

    def collectors(self):
        one = MetricsCollector()
        parts = [MetricsCollector(), MetricsCollector()]
        for part, kind, issued, latency in self.SAMPLES:
            for collector in (one, parts[part]):
                collector.note_issued(issued)
                collector.note_completed(kind, latency, issued + latency)
        one.note_failed()
        parts[1].note_failed()
        return one, parts

    def test_folded_snapshot_equals_the_one_collectors(self):
        one, parts = self.collectors()
        stats = merge_network_stats([stats_snapshot(messages_sent=40, by_type={"EST": 40})])
        one.stats = stats  # the whole bill, as the fold attributes it
        folded = MetricsCollector.folded([part.raw_state() for part in parts], stats, False)
        assert folded.snapshot() == one.snapshot()
        assert sorted(folded.latencies(OperationKind.CAS)) == [1.5, 3.0]

    def test_raw_state_round_trips_through_a_fold(self):
        _one, parts = self.collectors()
        state = parts[0].raw_state()
        assert MetricsCollector.folded([state], merge_network_stats([]), False).raw_state() == state


class TestTheResultSharesTheStoreSurface:
    def test_finished_run_methods_are_kvstores_own_functions(self):
        """One implementation: a finished run cannot drift from the store."""
        from repro.store.store import KVStore
        from repro.workloads.kv import KVWorkloadResult

        for name in ("total_messages", "completed_ops", "failed_ops", "histories",
                     "check_linearizability", "check_atomicity"):
            assert getattr(KVWorkloadResult, name) is getattr(KVStore, name), name
