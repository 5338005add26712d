"""Theorem 2: exact message counts and message-type census.

"The algorithm described in Figure 1 uses only four types of messages, and
those carry no additional control information.  Moreover, a read operation
requires O(n) messages, and a write operation requires O(n^2) messages."

The proof is more precise than the O(): a read generates (n-1) READ messages
each answered by one PROCEED (total 2(n-1)); a write generates (n-1) WRITE
messages from the writer and each process then forwards the value once to
each process, for a total of at most n(n-1).  This benchmark checks the exact
numbers over a sweep of n and a census of the message types used.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import messages_per_operation
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay
from repro.workloads import WorkloadSpec, run_workload

from benchmarks.conftest import report


def _run(n: int, writes: int = 3, reads: int = 1):
    return run_workload(
        WorkloadSpec(
            n=n,
            algorithm="two-bit",
            num_writes=writes,
            reads_per_reader=reads,
            delay_model=FixedDelay(1.0),
            isolated_operations=True,
            seed=0,
        )
    )


def test_exact_write_count_n_times_n_minus_1(benchmark, system_sizes):
    rows = []
    for n in system_sizes:
        result = _run(n)
        counts = set(messages_per_operation(result, OperationKind.WRITE))
        assert counts == {n * (n - 1)}
        rows.append([n, f"n(n-1) = {n * (n - 1)}", sorted(counts)[0]])
    report("Theorem 2 — WRITE messages per write operation", ["n", "paper", "measured"], rows)
    benchmark(lambda: _run(system_sizes[-1], writes=1, reads=0))


def test_exact_read_count_two_n_minus_1(benchmark, system_sizes):
    rows = []
    for n in system_sizes:
        result = _run(n)
        counts = set(messages_per_operation(result, OperationKind.READ))
        assert counts == {2 * (n - 1)}
        rows.append([n, f"2(n-1) = {2 * (n - 1)}", sorted(counts)[0]])
    report("Theorem 2 — messages per read operation", ["n", "paper", "measured"], rows)
    benchmark(lambda: _run(system_sizes[-1], writes=0, reads=1))


def test_message_type_census(benchmark):
    """Only WRITE0, WRITE1, READ and PROCEED ever appear, in the proportions
    Theorem 2 predicts."""
    n, writes, reads_per_reader = 5, 6, 3
    def run():
        return run_workload(
            WorkloadSpec(
                n=n,
                algorithm="two-bit",
                num_writes=writes,
                reads_per_reader=reads_per_reader,
                delay_model=FixedDelay(1.0),
                isolated_operations=True,
                seed=0,
            )
        )

    result = run()
    by_type = result.store.stats.by_type
    total_reads = reads_per_reader * (n - 1)
    assert set(by_type) == {"WRITE0", "WRITE1", "READ", "PROCEED"}
    assert by_type["READ"] == total_reads * (n - 1)
    assert by_type["PROCEED"] == total_reads * (n - 1)
    assert by_type["WRITE0"] + by_type["WRITE1"] == writes * n * (n - 1)
    # Parities alternate: half the written values travel as WRITE0, half as WRITE1.
    assert by_type["WRITE0"] == by_type["WRITE1"]
    report(
        "Theorem 2 — message-type census (n=5, 6 writes, 12 reads)",
        ["type", "count"],
        [[name, count] for name, count in sorted(by_type.items())],
    )
    benchmark(run)
