"""Wall-clock mode of the MetricsCollector: a live run's op log is stamped in seconds."""

import json

import pytest

from repro.analysis.report import format_metrics
from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind
from tests.exec.conftest import log_op


def fed(wall_clock=False):
    """A view over two operations: a read over [0, 0.010], a write over [0.020, 0.035]."""
    collector = MetricsCollector(OpLog(), wall_clock=wall_clock)
    log_op(collector.oplog, OperationKind.READ, 0.0, 0.010)
    log_op(collector.oplog, OperationKind.WRITE, 0.020, 0.015)
    return collector


class TestWallClockMode:
    def test_snapshot_nulls_virtual_and_reports_wall_throughput(self):
        collector = fed(wall_clock=True)
        snapshot = collector.snapshot()
        assert snapshot["virtual_throughput"] is None
        assert snapshot["wall_throughput"] == pytest.approx(2 / 0.035)
        # Strict-JSON clean, like every other snapshot.
        json.dumps(snapshot, allow_nan=False)

    def test_wall_throughput_method_matches_window_arithmetic(self):
        collector = fed(wall_clock=True)
        assert collector.wall_throughput() == pytest.approx(2 / 0.035)

    def test_zero_span_wall_throughput_sanitized_to_null(self):
        collector = MetricsCollector(OpLog(), wall_clock=True)
        log_op(collector.oplog, OperationKind.READ, 1.0, 0.0)
        assert collector.wall_throughput() == float("inf")
        assert collector.snapshot()["wall_throughput"] is None

    def test_format_metrics_reports_ops_per_second(self):
        collector = fed(wall_clock=True)
        text = format_metrics(collector.snapshot())
        assert "wall throughput" in text and "ops/s" in text
        assert "virtual throughput" not in text


class TestVirtualModeUnchanged:
    def test_sim_snapshot_has_no_wall_key(self):
        collector = fed()
        snapshot = collector.snapshot()
        assert "wall_throughput" not in snapshot
        assert snapshot["virtual_throughput"] == pytest.approx(2 / 0.035)

    def test_wall_throughput_refused_on_virtual_collector(self):
        collector = fed()
        with pytest.raises(RuntimeError, match="wall-clock collector"):
            collector.wall_throughput()

    def test_format_metrics_still_reports_virtual_units(self):
        collector = fed()
        text = format_metrics(collector.snapshot())
        assert "virtual throughput" in text and "ops/time-unit" in text
