"""Unit tests for the statistics helpers and the text-report renderer."""

import pytest

from repro.analysis.metrics import latencies_in_delta, messages_per_operation, summarize
from repro.analysis.report import format_number, format_table
from repro.exec.metrics import nearest_rank
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay
from repro.workloads import WorkloadSpec, run_workload


class TestSummaries:
    def test_summarize_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.0

    def test_summarize_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_element_sample(self):
        summary = summarize([7.0])
        assert summary.mean == 7.0
        assert summary.stdev == 0.0
        assert summary.p95 == 7.0

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 0.5) == 50
        assert nearest_rank(values, 0.95) == 95
        assert nearest_rank(values, 0.0) == 1
        assert nearest_rank(values, 1.0) == 100
        assert (summarize(values).p50, summarize(values).p95) == (50, 95)

    def test_percentile_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)

    def test_str_rendering(self):
        assert "mean=" in str(summarize([1.0, 2.0]))


class TestResultSummaries:
    def _result(self):
        return run_workload(
            WorkloadSpec(n=5, num_writes=4, reads_per_reader=2, delay_model=FixedDelay(2.0), seed=0)
        )

    def test_latencies_normalise_by_delta(self):
        result = self._result()
        writes = summarize(latencies_in_delta(result, OperationKind.WRITE, delta=2.0))
        reads = summarize(latencies_in_delta(result, OperationKind.READ, delta=2.0))
        assert writes.mean == pytest.approx(2.0)
        assert reads.maximum <= 4.0 + 1e-9

    def test_latencies_in_delta_helper(self):
        result = self._result()
        writes = latencies_in_delta(result, OperationKind.WRITE, delta=2.0)
        assert all(value == pytest.approx(2.0) for value in writes)

    def test_message_counts_from_isolated_costs(self):
        result = run_workload(
            WorkloadSpec(n=5, num_writes=3, reads_per_reader=1, isolated_operations=True)
        )
        assert summarize(messages_per_operation(result, OperationKind.WRITE)).mean == 20.0
        assert summarize(messages_per_operation(result, OperationKind.READ)).mean == 8.0

    def test_message_counts_with_no_operations_of_a_kind(self):
        result = run_workload(
            WorkloadSpec(n=3, num_writes=2, reads_per_reader=0, isolated_operations=True)
        )
        assert messages_per_operation(result, OperationKind.READ) == []
        assert messages_per_operation(result, OperationKind.WRITE)


class TestReportRendering:
    def test_format_table_alignment_and_none(self):
        text = format_table(["metric", "value"], [["reads", 10], ["writes", None]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "metric" in lines[2]
        assert "-" in text
        assert "writes" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_number(self):
        assert format_number(2.0) == "2"
        assert format_number(2.5) == "2.50"
        assert format_number(float("inf")) == "unbounded"
        assert format_number(None) == "-"
