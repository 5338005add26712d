"""Tests for the control-bit / memory measurements and the Table-1 harness."""

import pytest

from repro.analysis.bits import control_bits_growth, measure_control_bits
from repro.analysis.memory import measure_local_memory, memory_growth
from repro.analysis.table1 import build_table1
from repro.registers.costmodels import model_by_name


class TestControlBits:
    def test_two_bit_algorithm_always_measures_two(self):
        measurement = measure_control_bits("two-bit", n=5, writes=30, seed=0)
        assert measurement.max_control_bits == 2
        assert measurement.mean_control_bits == 2.0

    def test_abd_control_bits_grow_with_the_write_count(self):
        growth = control_bits_growth("abd", n=5, write_counts=(10, 100), seed=0)
        assert growth[0].max_control_bits < growth[1].max_control_bits

    def test_two_bit_control_bits_do_not_grow(self):
        growth = control_bits_growth("two-bit", n=5, write_counts=(10, 100), seed=0)
        assert growth[0].max_control_bits == growth[1].max_control_bits == 2

    def test_measurement_metadata(self):
        measurement = measure_control_bits("two-bit", n=3, writes=5, seed=1)
        assert measurement.algorithm == "two-bit"
        assert measurement.n == 3
        assert measurement.total_messages > 0


class TestLocalMemory:
    def test_two_bit_memory_grows_linearly_with_writes(self):
        growth = memory_growth("two-bit", n=5, write_counts=(10, 60), seed=0)
        assert growth[1].max_words - growth[0].max_words == 50

    def test_abd_memory_stays_flat(self):
        growth = memory_growth("abd", n=5, write_counts=(10, 60), seed=0)
        assert growth[1].max_words == growth[0].max_words

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

    def test_message_count_rows_match_the_paper(self, table):
        n = table.n
        assert table.measured("write_messages", "two-bit") == pytest.approx(n * (n - 1))
        assert table.measured("write_messages", "abd") == pytest.approx(2 * (n - 1))
        assert table.measured("read_messages", "two-bit") == pytest.approx(2 * (n - 1))
        assert table.measured("read_messages", "abd") == pytest.approx(4 * (n - 1))

    def test_message_size_row_matches_the_paper(self, table):
        assert table.measured("message_size_bits", "two-bit") == 2
        assert table.measured("message_size_bits", "abd") > 2

    def test_time_rows_match_the_paper(self, table):
        assert table.measured("write_time_delta", "two-bit") == pytest.approx(2.0)
        assert table.measured("write_time_delta", "abd") == pytest.approx(2.0)
        assert table.measured("read_time_delta", "two-bit") <= 4.0 + 1e-9
        assert table.measured("read_time_delta", "abd") == pytest.approx(4.0)

    def test_local_memory_row_shape(self, table):
        # The two-bit algorithm stores the full history; ABD does not.
        assert table.measured("local_memory", "two-bit") > table.measured("local_memory", "abd")

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
        assert model_by_name("two-bit").row("write_messages").value(7, 1) == 42
        assert model_by_name("attiya").row("read_time_delta").value(7, 1) == 18.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            build_table1(n=3, algorithms=("paxos",))
