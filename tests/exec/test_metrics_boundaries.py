"""Snapshot boundaries: strict JSON, open operation kinds, fault timelines,
and what a view reads off its op log."""

import json
from enum import Enum

import pytest

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind
from repro.sim.network import NetworkStats
from tests.exec.conftest import log_op


def strict_loads(text: str):
    def forbid(name):
        raise ValueError(f"non-finite JSON constant {name!r}")

    return json.loads(text, parse_constant=forbid)


class TestThroughputSanitization:
    def test_zero_span_throughput_is_null_in_snapshot(self):
        collector = MetricsCollector(OpLog())
        log_op(collector.oplog, OperationKind.READ, 5.0, 0.0)
        assert collector.virtual_throughput() == float("inf")  # raw value unchanged
        snapshot = collector.snapshot()
        assert snapshot["virtual_throughput"] is None
        payload = json.dumps(snapshot, allow_nan=False)
        assert strict_loads(payload)["virtual_throughput"] is None

    def test_normal_throughput_survives(self):
        collector = MetricsCollector(OpLog())
        log_op(collector.oplog, OperationKind.READ, 1.0, 2.0)
        assert collector.snapshot()["virtual_throughput"] == pytest.approx(0.5)


class TestOpenOperationKinds:
    def test_new_kind_does_not_raise_and_is_summarized(self):
        class ExtraKind(str, Enum):
            SCAN = "scan"

        collector = MetricsCollector(OpLog())
        log_op(collector.oplog, ExtraKind.SCAN, 0.0, 2.0)  # pre-fix: KeyError
        log_op(collector.oplog, OperationKind.READ, 2.0, 1.0)
        snapshot = collector.snapshot()
        assert snapshot["latency"]["scan"]["count"] == 1
        assert snapshot["latency"]["all"]["count"] == 2
        assert collector.latencies(ExtraKind.SCAN) == [2.0]
        assert collector.latencies() == [2.0, 1.0]  # row order

    def test_unused_kind_returns_empty(self):
        collector = MetricsCollector(OpLog())
        assert collector.latencies(OperationKind.WRITE) == []

    def test_a_kind_with_no_completion_has_no_row(self):
        collector = MetricsCollector(OpLog())
        log_op(collector.oplog, OperationKind.CAS, 0.0)  # pending
        log_op(collector.oplog, OperationKind.TAS, 0.0, failed=True)
        latency = collector.snapshot()["latency"]
        assert list(latency) == ["read", "write", "all"]
        assert latency["all"] is None


class TestReadOffTheLog:
    """Every count, the window and the samples come from the log's columns."""

    def test_counts_and_samples(self):
        log = OpLog()
        log_op(log, OperationKind.WRITE, 0.0, 3.0)
        log_op(log, OperationKind.READ, 1.0, 0.5)
        log_op(log, OperationKind.READ, 2.0)  # still pending
        log_op(log, OperationKind.READ, 2.5, failed=True)
        log.note_created(OperationKind.READ, None, None)  # never issued
        collector = MetricsCollector(log)
        assert collector.latencies() == [3.0, 0.5]
        assert collector.latencies(OperationKind.READ) == [0.5]
        snapshot = collector.snapshot()
        assert (snapshot["issued"], snapshot["completed"], snapshot["failed"]) == (4, 2, 1)

    def test_window_spans_the_earliest_issue_to_the_latest_completion(self):
        # Rows out of time order, as a merged run's are: the window is not
        # the first row's issue or the last row's completion.
        log = OpLog()
        log_op(log, OperationKind.READ, 4.0, 16.0)  # completes at 20
        log_op(log, OperationKind.READ, 2.0, 1.0)
        log_op(log, OperationKind.WRITE, 3.0, 2.0)
        assert MetricsCollector(log).virtual_throughput() == pytest.approx(3 / 18.0)

    def test_an_empty_log_reports_nothing(self):
        snapshot = MetricsCollector(OpLog(), NetworkStats()).snapshot()
        assert snapshot["issued"] == snapshot["completed"] == snapshot["failed"] == 0
        assert snapshot["virtual_throughput"] == 0.0
        assert snapshot["latency"] == {"read": None, "write": None, "all": None}
        assert snapshot["messages"] == {"total": 0, "per_completed_op": None, "by_type": {}}


class TestNetworkStatsSnapshot:
    def test_snapshot_includes_per_sender(self):
        stats = NetworkStats()
        stats.record_send(0, "a")
        stats.record_send(0, "b")
        stats.record_send(2, "c")
        snapshot = stats.snapshot()
        assert snapshot["per_sender"] == {0: 2, 2: 1}
        # And it is a copy, not the live dict.
        snapshot["per_sender"][0] = 99
        assert stats.per_sender[0] == 2

    def test_snapshot_round_trips_as_strict_json(self):
        stats = NetworkStats()
        stats.record_send(1, "x")
        payload = json.dumps(stats.snapshot(), allow_nan=False)
        assert strict_loads(payload)["per_sender"] == {"1": 1}


class TestFaultTimelineAnnotation:
    def test_absent_without_a_plan(self):
        assert "faults" not in MetricsCollector(OpLog()).snapshot()

    def test_present_when_installed(self):
        collector = MetricsCollector(OpLog())
        collector.fault_timeline = [{"fault": "partition", "start": 1.0, "heal": 5.0}]
        snapshot = collector.snapshot()
        assert snapshot["faults"] == [{"fault": "partition", "start": 1.0, "heal": 5.0}]
        json.dumps(snapshot, allow_nan=False)
