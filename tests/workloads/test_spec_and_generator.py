"""Unit tests for workload specifications and their one-key scripts."""

import pytest

from repro.exec.clients import After
from repro.registers.base import OperationKind
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec


def chains(script):
    """``pid -> [(kind, value, at), ...]``: the script's entries per pinned process."""
    grouped = {}
    for at, request, value in script:
        assert request.key == REGISTER_KEY
        grouped.setdefault(request.replica, []).append((request.kind, value, at))
    return grouped


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
        scripts = chains(spec.script())
        assert set(scripts) == {0}
        operations = scripts[0]
        assert all(kind is OperationKind.WRITE for kind, _value, _at in operations)
        assert [value for _kind, value, _at in operations] == [f"v{i}" for i in range(1, 6)]

    def test_written_values_are_distinct(self):
        spec = WorkloadSpec(n=4, num_writes=50, reads_per_reader=0)
        values = [value for _at, _request, value in spec.script()]
        assert len(values) == len(set(values))
        assert spec.initial_value not in values

    def test_readers_get_reads(self):
        spec = WorkloadSpec(n=4, num_writes=2, reads_per_reader=3)
        scripts = chains(spec.script())
        for pid in (1, 2, 3):
            reads = scripts[pid]
            assert len(reads) == 3
            assert all(kind is OperationKind.READ for kind, _value, _at in reads)

    def test_explicit_readers_only(self):
        spec = WorkloadSpec(n=5, num_writes=1, reads_per_reader=2, readers=[2, 4])
        assert sorted(chains(spec.script())) == [0, 2, 4]

    def test_multi_writer_round_robin(self):
        spec = WorkloadSpec(n=3, num_writes=6, reads_per_reader=0, multi_writer=True)
        scripts = chains(spec.script())
        per_process = {pid: [value for _kind, value, _at in ops] for pid, ops in scripts.items()}
        assert per_process == {0: ["v1", "v4"], 1: ["v2", "v5"], 2: ["v3", "v6"]}

    def test_zero_operation_processes_have_no_script(self):
        spec = WorkloadSpec(n=4, num_writes=0, reads_per_reader=0)
        assert spec.script() == []

    def test_generation_is_deterministic(self):
        spec = WorkloadSpec(n=4, num_writes=5, reads_per_reader=5, read_think_time=1.0, seed=3)
        assert spec.script() == spec.script()
        assert spec.script() != spec.with_(seed=4).script()  # the think-time jitter

    def test_every_entry_is_chained_and_pinned(self):
        spec = WorkloadSpec(n=3, num_writes=2, reads_per_reader=2)
        for at, request, _value in spec.script():
            assert type(at) is After and request.replica is not None

    def test_start_delays_propagated(self):
        spec = WorkloadSpec(n=3, num_writes=1, reads_per_reader=1, writer_start_delay=5.0, reader_start_delay=2.0)
        scripts = chains(spec.script())
        assert scripts[0][0][2] == 5.0
        assert scripts[1][0][2] == 2.0

    def test_think_times_follow_the_first_entry(self):
        spec = WorkloadSpec(
            n=2, num_writes=3, reads_per_reader=3, write_think_time=1.5, read_think_time=2.0,
            reader_start_delay=0.5,
        )
        scripts = chains(spec.script())
        assert [at for _kind, _value, at in scripts[0]] == [0.0, 1.5, 1.5]
        reads = [at for _kind, _value, at in scripts[1]]
        assert reads[0] == 0.5
        assert all(2.0 <= at <= 2.2 for at in reads[1:])  # up to 10% seeded jitter

    def test_concurrent_script_lists_each_process_together(self):
        spec = WorkloadSpec(n=3, num_writes=2, reads_per_reader=2)
        assert [request.replica for _at, request, _value in spec.script()] == [0, 0, 1, 1, 2, 2]


class TestIsolatedInterleaving:
    def test_preserves_per_process_program_order(self):
        spec = WorkloadSpec(n=3, num_writes=4, reads_per_reader=3, seed=1)
        sequence = spec.with_(isolated_operations=True).script()
        assert len(sequence) == spec.total_operations()
        # Per-process order must match the concurrent script's order.
        assert chains(sequence) == chains(spec.script())

    def test_is_deterministic(self):
        spec = WorkloadSpec(n=3, num_writes=4, reads_per_reader=3, seed=1, isolated_operations=True)
        assert spec.script() == spec.script()

    def test_mixes_processes_rather_than_batching(self):
        spec = WorkloadSpec(n=3, num_writes=10, reads_per_reader=10, seed=1, isolated_operations=True)
        sequence = spec.script()
        first_half_pids = {request.replica for _at, request, _value in sequence[: len(sequence) // 2]}
        assert len(first_half_pids) > 1
