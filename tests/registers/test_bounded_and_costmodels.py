"""Tests for the bounded-message-size emulation and the analytic cost models."""

import math

import pytest

from repro.api import create_register
from repro.registers.bounded import (
    DEFAULT_MODULUS,
    ModuloReconstructionError,
    ModWrite,
    ModReadReply,
    reconstruct,
)
from repro.registers.costmodels import (
    ABD_BOUNDED_MODEL,
    ABD_UNBOUNDED_MODEL,
    ATTIYA_MODEL,
    TABLE1_METRICS,
    TABLE1_MODELS,
    TWO_BIT_MODEL,
    UNBOUNDED,
)
from repro.sim.delays import FixedDelay
from repro.workloads import WorkloadSpec, run_workload


class TestReconstruction:
    def test_reconstructs_nearby_values(self):
        modulus = 64
        for local in [0, 5, 63, 64, 100, 1000]:
            for true in range(max(0, local - 20), local + 20):
                assert reconstruct(local, true % modulus, modulus) == true

    def test_rejects_out_of_range_representative(self):
        with pytest.raises(ValueError):
            reconstruct(10, 64, 64)
        with pytest.raises(ValueError):
            reconstruct(10, -1, 64)


class TestBoundedEmulation:
    def test_basic_read_write(self):
        cluster = create_register(n=5, algorithm="abd-bounded-emulation", initial_value="v0")
        cluster.writer.write("v1")
        assert cluster.reader(2).read() == "v1"

    def test_message_size_stays_bounded_over_long_write_streams(self):
        spec = WorkloadSpec(
            n=5,
            algorithm="abd-bounded-emulation",
            num_writes=300,
            reads_per_reader=5,
            delay_model=FixedDelay(1.0),
            seed=1,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok
        bound = 3 + 2 * max(1, (DEFAULT_MODULUS - 1).bit_length())
        assert result.store.stats.max_control_bits <= bound

    def test_unbounded_abd_exceeds_the_bound_eventually(self):
        """Contrast: plain ABD's max control bits keep growing with the write count."""
        spec = WorkloadSpec(
            n=5, algorithm="abd", num_writes=300, reads_per_reader=5, delay_model=FixedDelay(1.0), seed=1
        )
        result = run_workload(spec)
        assert result.store.stats.max_control_bits >= 3 + math.ceil(math.log2(300))

    def test_control_bits_constant_in_sequence_number(self):
        assert ModWrite(seq_mod=1, value="v").price == ModWrite(seq_mod=63, value="v").price
        assert ModReadReply(rsn_mod=0, seq_mod=0, value="v").price == ModReadReply(
            rsn_mod=63, seq_mod=63, value="v"
        ).price

    def test_divergence_violation_detected(self):
        cluster = create_register(n=3, algorithm="abd-bounded-emulation", initial_value="v0")
        process = cluster.processes[1]
        with pytest.raises(ModuloReconstructionError):
            process._adopt(process.seq + DEFAULT_MODULUS // 2 + 1, "too-far")

    def test_modulus_validation(self):
        from repro.registers.bounded import ModuloSeqAbdProcess
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        simulator = Simulator()
        network = Network(simulator)
        with pytest.raises(ValueError):
            ModuloSeqAbdProcess(0, simulator, network, writer_pid=0, modulus=2)


class TestCostModels:
    def test_four_models_in_paper_order(self):
        assert [m.name for m in TABLE1_MODELS] == ["abd", "abd-bounded", "attiya", "two-bit"]

    def test_paper_formulas_match_table_1(self):
        models = {model.name: model for model in TABLE1_MODELS}

        def formula(algorithm, metric):
            return models[algorithm].row(metric).formula

        assert {m.name: m.row("write_messages").formula for m in TABLE1_MODELS} == {
            "abd": "O(n)",
            "abd-bounded": "O(n^2)",
            "attiya": "O(n)",
            "two-bit": "O(n^2)",
        }
        assert formula("two-bit", "read_messages") == "O(n)"
        assert formula("two-bit", "message_size_bits") == "2"
        assert formula("abd-bounded", "message_size_bits") == "O(n^5)"
        assert formula("attiya", "message_size_bits") == "O(n^3)"
        assert formula("abd", "local_memory") == "unbounded"
        assert formula("two-bit", "write_time_delta") == "2 Delta"
        assert formula("attiya", "read_time_delta") == "18 Delta"

    def test_concrete_evaluations(self):
        n = 5
        assert TWO_BIT_MODEL.write_messages.value(n) == n * (n - 1)
        assert TWO_BIT_MODEL.read_messages.value(n) == 2 * (n - 1)
        assert TWO_BIT_MODEL.message_size_bits.value(n) == 2
        assert ABD_UNBOUNDED_MODEL.write_messages.value(n) == 2 * (n - 1)
        assert ABD_UNBOUNDED_MODEL.read_messages.value(n) == 4 * (n - 1)
        assert ABD_UNBOUNDED_MODEL.local_memory.value(n) == UNBOUNDED
        assert ABD_BOUNDED_MODEL.message_size_bits.value(n) == n**5
        assert ATTIYA_MODEL.local_memory.value(n) == n**5
        assert ATTIYA_MODEL.write_time_delta.value(n) == 14.0

    def test_time_rows_match_the_paper(self):
        assert [model.write_time_delta.value(5) for model in TABLE1_MODELS] == [2, 12, 14, 2]
        assert [model.read_time_delta.value(5) for model in TABLE1_MODELS] == [4, 12, 18, 4]

    def test_model_lookup(self):
        models = {model.name: model for model in TABLE1_MODELS}
        assert len(models) == len(TABLE1_MODELS)
        assert models["two-bit"] is TWO_BIT_MODEL
        assert "nonexistent" not in models

    def test_metric_lookup_validation(self):
        with pytest.raises(KeyError):
            TWO_BIT_MODEL.row("bogus_metric")

    def test_all_metrics_present_for_all_models(self):
        for model in TABLE1_MODELS:
            for metric, _label in TABLE1_METRICS:
                entry = model.row(metric)
                assert isinstance(entry.formula, str) and entry.formula
                assert entry.value(5, writes=10) is not None

    def test_executability_flags(self):
        assert ABD_UNBOUNDED_MODEL.executable
        assert TWO_BIT_MODEL.executable
        assert not ABD_BOUNDED_MODEL.executable
        assert not ATTIYA_MODEL.executable


class TestWireSizeBitHelpers:
    """The deduplicated int_bits / value_bits accounting (single home: costmodels)."""

    def test_int_bits_zero_and_one_cost_one_bit(self):
        from repro.registers.costmodels import int_bits

        assert int_bits(0) == 1
        assert int_bits(1) == 1

    def test_int_bits_grows_logarithmically(self):
        from repro.registers.costmodels import int_bits

        assert int_bits(2) == 2
        assert int_bits(255) == 8
        assert int_bits(256) == 9
        assert [int_bits(2**k) for k in range(1, 10)] == list(range(2, 11))

    def test_int_bits_negative_prices_the_magnitude(self):
        from repro.registers.costmodels import int_bits

        assert int_bits(-1) == 1
        assert int_bits(-3) == 2
        assert int_bits(-256) == int_bits(256)

    def test_value_bits_none_is_free(self):
        from repro.registers.costmodels import value_bits

        assert value_bits(None) == 0

    def test_value_bits_bool_is_one_bit_not_an_int(self):
        from repro.registers.costmodels import value_bits

        # bool is a subclass of int; the bool branch must win.
        assert value_bits(True) == 1
        assert value_bits(False) == 1

    def test_value_bits_ints_priced_by_magnitude(self):
        from repro.registers.costmodels import value_bits

        assert value_bits(0) == 1
        assert value_bits(7) == 3
        assert value_bits(-7) == 3

    def test_value_bits_float_is_a_64_bit_word(self):
        from repro.registers.costmodels import value_bits

        assert value_bits(0.0) == 64
        assert value_bits(3.14) == 64

    def test_value_bits_strings_and_bytes_by_length(self):
        from repro.registers.costmodels import value_bits

        assert value_bits("") == 0
        assert value_bits("abcd") == 32
        assert value_bits(b"xyz") == 24

    def test_value_bits_exotic_payloads_priced_by_repr(self):
        from repro.registers.costmodels import value_bits

        payload = (1, 2)
        assert value_bits(payload) == 8 * len(repr(payload))

    def test_register_modules_share_the_helpers(self):
        from repro.consensus import mmr
        from repro.core import messages
        from repro.registers import abd, abd_mwmr, bounded, costmodels

        assert abd.int_bits is costmodels.int_bits
        assert abd.value_bits is costmodels.value_bits
        assert abd_mwmr.int_bits is costmodels.int_bits
        assert bounded.value_bits is costmodels.value_bits
        assert messages.value_bits is mmr.value_bits is costmodels.value_bits
