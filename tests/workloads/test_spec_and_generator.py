"""Unit tests for workload specifications and script generation."""

import pytest

from repro.registers.base import OperationKind
from repro.workloads.generator import (
    generate_scripts,
    interleave_isolated,
    written_value,
)
from repro.workloads.spec import WorkloadSpec


class TestWorkloadSpec:
    def test_defaults_are_valid(self):
        spec = WorkloadSpec()
        assert spec.n == 5
        assert spec.total_operations() == 10 + 10 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n=1)
        with pytest.raises(ValueError):
            WorkloadSpec(num_writes=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(readers=[9])
        with pytest.raises(ValueError):
            WorkloadSpec(read_think_time=-0.1)

    def test_reader_pids_default_excludes_writer(self):
        spec = WorkloadSpec(n=4)
        assert spec.reader_pids() == [1, 2, 3]

    def test_explicit_readers_deduplicated_and_sorted(self):
        spec = WorkloadSpec(n=5, readers=[3, 1, 3])
        assert spec.reader_pids() == [1, 3]

    def test_with_creates_modified_copy(self):
        spec = WorkloadSpec(n=5, num_writes=10)
        modified = spec.with_(num_writes=3, algorithm="abd")
        assert modified.num_writes == 3
        assert modified.algorithm == "abd"
        assert spec.num_writes == 10  # original untouched

    def test_total_operations_counts_reads_per_reader(self):
        spec = WorkloadSpec(n=3, num_writes=4, reads_per_reader=6)
        assert spec.total_operations() == 4 + 2 * 6


class TestScriptGeneration:
    def test_writer_gets_all_writes_in_order(self):
        spec = WorkloadSpec(n=4, num_writes=5, reads_per_reader=0)
        scripts = generate_scripts(spec)
        assert set(scripts) == {0}
        operations = scripts[0].operations
        assert all(op.kind is OperationKind.WRITE for op in operations)
        assert [op.value for op in operations] == [written_value(i) for i in range(1, 6)]

    def test_written_values_are_distinct(self):
        spec = WorkloadSpec(n=4, num_writes=50, reads_per_reader=0)
        scripts = generate_scripts(spec)
        values = [op.value for op in scripts[0].operations]
        assert len(values) == len(set(values))
        assert spec.initial_value not in values

    def test_readers_get_reads(self):
        spec = WorkloadSpec(n=4, num_writes=2, reads_per_reader=3)
        scripts = generate_scripts(spec)
        for pid in (1, 2, 3):
            reads = scripts[pid].operations
            assert len(reads) == 3
            assert all(op.kind is OperationKind.READ for op in reads)

    def test_multi_writer_round_robin(self):
        spec = WorkloadSpec(n=3, num_writes=6, reads_per_reader=0, multi_writer=True)
        scripts = generate_scripts(spec)
        per_process = {pid: len(script.operations) for pid, script in scripts.items()}
        assert per_process == {0: 2, 1: 2, 2: 2}

    def test_zero_operation_processes_have_no_script(self):
        spec = WorkloadSpec(n=4, num_writes=0, reads_per_reader=0)
        assert generate_scripts(spec) == {}

    def test_generation_is_deterministic(self):
        spec = WorkloadSpec(n=4, num_writes=5, reads_per_reader=5, read_think_time=1.0, seed=3)
        first = generate_scripts(spec)
        second = generate_scripts(spec)
        assert {pid: [op.think_time for op in s.operations] for pid, s in first.items()} == {
            pid: [op.think_time for op in s.operations] for pid, s in second.items()
        }

    def test_start_delays_propagated(self):
        spec = WorkloadSpec(n=3, num_writes=1, reads_per_reader=1, writer_start_delay=5.0, reader_start_delay=2.0)
        scripts = generate_scripts(spec)
        assert scripts[0].start_delay == 5.0
        assert scripts[1].start_delay == 2.0


class TestIsolatedInterleaving:
    def test_preserves_per_process_program_order(self):
        spec = WorkloadSpec(n=3, num_writes=4, reads_per_reader=3, seed=1)
        scripts = generate_scripts(spec)
        sequence = interleave_isolated(scripts, seed=1)
        assert len(sequence) == spec.total_operations()
        # Per-process order must match the script order.
        for pid, script in scripts.items():
            from_sequence = [op for p, op in sequence if p == pid]
            assert from_sequence == script.operations

    def test_is_deterministic(self):
        spec = WorkloadSpec(n=3, num_writes=4, reads_per_reader=3, seed=1)
        scripts = generate_scripts(spec)
        a = [(pid, op.kind) for pid, op in interleave_isolated(scripts, seed=7)]
        b = [(pid, op.kind) for pid, op in interleave_isolated(scripts, seed=7)]
        assert a == b

    def test_mixes_processes_rather_than_batching(self):
        spec = WorkloadSpec(n=3, num_writes=10, reads_per_reader=10, seed=1)
        scripts = generate_scripts(spec)
        sequence = interleave_isolated(scripts, seed=2)
        first_half_pids = {pid for pid, _op in sequence[: len(sequence) // 2]}
        assert len(first_half_pids) > 1
