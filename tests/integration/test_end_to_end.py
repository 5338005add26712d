"""End-to-end integration tests: full protocol runs across system sizes,
delay regimes and crash patterns, every one checked for atomicity (and, for
the two-bit algorithm, for the paper's lemma invariants)."""

import pytest

from repro.api import create_register
from repro.faults import CrashPoint
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.verification.invariants import check_two_bit_convergence
from repro.workloads import REGISTER_KEY, WorkloadSpec, run_workload


ALGORITHMS = ["two-bit", "abd", "abd-bounded-emulation"]


class TestFailureFreeRuns:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_mixed_workload_is_atomic(self, algorithm, n):
        spec = WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=8,
            reads_per_reader=6,
            delay_model=UniformDelay(0.1, 2.0, seed=n),
            check_invariants=(algorithm == "two-bit"),
            seed=n,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        assert result.check_atomicity().ok
        if result.monitor is not None:
            assert result.monitor.report.ok

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_heavy_reordering_run(self, algorithm):
        spec = WorkloadSpec(
            n=5,
            algorithm=algorithm,
            num_writes=15,
            reads_per_reader=15,
            delay_model=ExponentialDelay(base=0.05, mean=1.5, cap=12.0, seed=17),
            check_invariants=(algorithm == "two-bit"),
            seed=17,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok

    def test_two_bit_histories_converge_at_quiescence(self):
        spec = WorkloadSpec(n=5, num_writes=12, reads_per_reader=4, seed=5)
        result = run_workload(spec)
        check_two_bit_convergence(result.store.register_for(REGISTER_KEY).processes, writer_pid=0)

    def test_interleaved_reads_see_monotonically_newer_values(self):
        """Successive reads by the same process never go backwards."""
        cluster = create_register(n=5, algorithm="two-bit", initial_value="v0")
        seen = []
        for index in range(1, 8):
            cluster.writer.write(f"v{index}")
            seen.append(cluster.reader(2).read())
        indices = [int(value[1:]) for value in seen]
        assert indices == sorted(indices)


class TestCrashRuns:
    @pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
    def test_minority_crash_mid_run(self, algorithm):
        n = 7
        spec = WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=12,
            reads_per_reader=8,
            delay_model=UniformDelay(0.2, 1.5, seed=23),
            crash_points=tuple(
                CrashPoint(shard=0, replica=pid, at_time=at)
                for pid, at in ((4, 5.0), (5, 9.0), (6, 15.0))
            ),
            check_invariants=(algorithm == "two-bit"),
            seed=23,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok
        # Every operation by a process that never crashed completed (liveness).
        for record in result.store.driver.records:
            if record.pid in (0, 1, 2, 3):
                assert record.completed

    @pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
    def test_operations_by_correct_processes_terminate_despite_max_crashes(self, algorithm):
        """t = (n-1)//2 crashes at time zero: the survivors still make progress."""
        n = 5
        spec = WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=5,
            reads_per_reader=5,
            readers=[1, 2],
            delay_model=FixedDelay(1.0),
            crash_points=tuple(CrashPoint(shard=0, replica=pid, at_time=0.0) for pid in (3, 4)),
            seed=31,
        )
        result = run_workload(spec)
        assert result.finished_cleanly
        assert len(result.completed_ops()) == 5 + 2 * 5
        assert result.check_atomicity().ok

    def test_writer_crash_mid_broadcast(self):
        """The writer dies after sending only part of its WRITE broadcast.

        Readers must still agree: either everyone eventually sees the value or
        nobody returns it after a conflicting newer read (atomicity of the
        surviving history).
        """
        spec = WorkloadSpec(
            n=5,
            num_writes=3,
            reads_per_reader=6,
            read_think_time=1.0,
            delay_model=UniformDelay(0.3, 2.0, seed=41),
            crash_points=(
                CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=6),
            ),
            seed=41,
            max_virtual_time=2_000.0,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok

    def test_reader_crash_mid_read_leaves_history_atomic(self):
        spec = WorkloadSpec(
            n=5,
            num_writes=6,
            reads_per_reader=6,
            delay_model=UniformDelay(0.2, 2.0, seed=43),
            crash_points=(CrashPoint(shard=0, replica=2, after_messages_sent=10),),
            seed=43,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok


class TestCrossAlgorithmComparison:
    def test_two_bit_reads_cost_less_than_abd_reads(self):
        """The practical claim of Section 5: O(n) vs O(n) but 2(n-1) vs 4(n-1)."""
        costs = {}
        for algorithm in ("two-bit", "abd"):
            spec = WorkloadSpec(
                n=7,
                algorithm=algorithm,
                num_writes=1,
                reads_per_reader=2,
                isolated_operations=True,
                seed=2,
            )
            result = run_workload(spec)
            from repro.registers.base import OperationKind

            reads = [cost for cost in result.isolated_costs if cost.kind is OperationKind.READ]
            costs[algorithm] = sum(c.messages for c in reads) / len(reads)
        assert costs["two-bit"] == pytest.approx(costs["abd"] / 2)

    def test_two_bit_writes_cost_more_than_abd_writes(self):
        """The flip side: O(n^2) write dissemination vs ABD's O(n)."""
        from repro.registers.base import OperationKind

        costs = {}
        for algorithm in ("two-bit", "abd"):
            result = run_workload(
                WorkloadSpec(
                    n=7, algorithm=algorithm, num_writes=3, reads_per_reader=0, isolated_operations=True
                )
            )
            writes = [cost for cost in result.isolated_costs if cost.kind is OperationKind.WRITE]
            costs[algorithm] = sum(c.messages for c in writes) / len(writes)
        assert costs["two-bit"] > costs["abd"]

    def test_same_seed_same_history(self):
        """Determinism across the whole stack: identical specs produce identical histories."""
        spec = WorkloadSpec(n=5, num_writes=6, reads_per_reader=6, delay_model=UniformDelay(0.1, 2.0, seed=5), seed=5)
        first = run_workload(spec)
        second = run_workload(spec)
        render = lambda result: [  # noqa: E731
            (op.pid, op.kind.value, op.value, op.result, op.invoked_at, op.responded_at)
            for op in sorted(result.history(REGISTER_KEY).operations, key=lambda o: (o.invoked_at, o.pid))
        ]
        assert render(first) == render(second)
        assert first.total_messages() == second.total_messages()
