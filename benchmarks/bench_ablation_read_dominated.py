"""Ablation A1 — read-dominated applications (Section 5 of the paper).

"Due to the O(n) message cost of its read operation, it can benefit
read-dominated applications and, more generally, to any setting where the
communication cost (time and message size) is the critical parameter."

The benchmark runs the same read-dominated workload (95/5 read/write mix)
under the two-bit algorithm and ABD for a sweep of system sizes and compares
the total message bill, the bill per read, and the total control bits shipped.
The expected shape: the two-bit register sends about half the messages per
read and a tiny fraction of the control bytes; the write-side O(n^2) overhead
stays negligible because writes are rare.
"""

from __future__ import annotations

import pytest

from repro.workloads import run_workload
from repro.workloads.scenarios import read_dominated

from benchmarks.conftest import report

READS_PER_READER = 30
NUM_WRITES = 3


def _run(algorithm: str, n: int):
    spec = read_dominated(
        n=n, algorithm=algorithm, reads_per_reader=READS_PER_READER, num_writes=NUM_WRITES, seed=3
    )
    result = run_workload(spec)
    result.check_atomicity()
    return result


@pytest.mark.parametrize("n", [5, 7, 9])
def test_read_dominated_message_bill(benchmark, n):
    two_bit = _run("two-bit", n)
    abd = _run("abd", n)
    reads = READS_PER_READER * (n - 1)
    rows = [
        [
            "two-bit",
            two_bit.total_messages(),
            round(two_bit.total_messages() / reads, 2),
            two_bit.store.stats.control_bits_total,
        ],
        [
            "abd",
            abd.total_messages(),
            round(abd.total_messages() / reads, 2),
            abd.store.stats.control_bits_total,
        ],
    ]
    report(
        f"Ablation A1 — read-dominated store, n={n}, {reads} reads / {NUM_WRITES} writes",
        ["algorithm", "total msgs", "msgs per read (amortised)", "control bits total"],
        rows,
    )
    # Who wins and by how much: per amortised read the two-bit register must
    # be cheaper, and it must ship far fewer control bits overall.
    assert two_bit.total_messages() / reads < abd.total_messages() / reads
    assert two_bit.store.stats.control_bits_total < abd.store.stats.control_bits_total / 2
    benchmark(lambda: _run("two-bit", n))


def test_write_heavy_counterpoint(benchmark):
    """The flip side: under a write-heavy mix ABD's O(n) writes win on total messages."""
    from repro.workloads.scenarios import write_heavy

    n = 7
    results = {}
    for algorithm in ("two-bit", "abd"):
        spec = write_heavy(n=n, algorithm=algorithm, num_writes=30, seed=4)
        result = run_workload(spec)
        result.check_atomicity()
        results[algorithm] = result
    report(
        f"Ablation A1 counterpoint — write-heavy mix, n={n}, 30 writes",
        ["algorithm", "total msgs"],
        [[name, result.total_messages()] for name, result in results.items()],
    )
    assert results["abd"].total_messages() < results["two-bit"].total_messages()
    benchmark(lambda: run_workload(write_heavy(n=5, algorithm="two-bit", num_writes=10, seed=4)))
