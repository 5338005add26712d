"""Tests for the control-bit / memory measurements and the Table-1 harness.

The paper's values themselves are claims in ``tests/paper/``."""

import pytest

from repro.analysis.bits import measure_control_bits
from repro.analysis.memory import measure_local_memory
from repro.analysis.table1 import build_table1
from repro.registers.costmodels import TABLE1_MODELS


class TestControlBits:
    def test_measurement_metadata(self):
        measurement = measure_control_bits("two-bit", n=3, writes=5, seed=1)
        assert measurement.algorithm == "two-bit"
        assert measurement.n == 3
        assert measurement.total_messages > 0


class TestLocalMemory:
    def test_measurement_covers_every_process(self):
        measurement = measure_local_memory("two-bit", n=5, writes=10, seed=0)
        assert set(measurement.per_process_words) == set(range(5))


class TestTable1Harness:
    @pytest.fixture(scope="class")
    def table(self):
        return build_table1(n=5, writes=20, delta=1.0, seed=0, samples=4)

    def test_table_has_six_rows_and_four_columns(self, table):
        assert len(table.rows) == 6
        for row in table.rows:
            assert set(row.cells) == {"abd", "abd-bounded", "attiya", "two-bit"}

    def test_non_executable_columns_have_no_measured_value(self, table):
        assert table.measured("write_messages", "abd-bounded") is None
        assert table.measured("read_time_delta", "attiya") is None

    def test_render_contains_paper_formulas_and_measurements(self, table):
        text = table.render()
        assert "O(n^2)" in text
        assert "12 Delta" in text
        assert "measured" in text
        assert "Proposed algorithm" in text

    def test_row_lookup_validation(self, table):
        with pytest.raises(KeyError):
            table.row("nonexistent")

    def test_paper_values_evaluate_at_concrete_n(self):
        models = {model.name: model for model in TABLE1_MODELS}
        assert models["two-bit"].row("write_messages").value(7, 1) == 42
        assert models["attiya"].row("read_time_delta").value(7, 1) == 18.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            build_table1(n=3, algorithms=("paxos",))
