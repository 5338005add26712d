#!/usr/bin/env python3
"""A read-dominated configuration store on top of the two-bit register.

The paper's concluding section argues that, because its read operation costs
only O(n) messages (2(n-1): one READ and one PROCEED per peer), the algorithm
"can benefit read-dominated applications".  This example plays that scenario
out: a configuration value is updated rarely by one publisher (the writer)
while many subscribers poll it continuously, and we compare the message bill
against the ABD baseline on exactly the same workload.

Run it with::

    python examples/read_dominated_store.py
"""

from __future__ import annotations

from repro.analysis.metrics import messages_per_operation
from repro.analysis.report import format_table
from repro.registers.base import OperationKind
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads.scenarios import read_dominated


def run(algorithm: str, n: int, reads_per_reader: int, num_writes: int) -> dict:
    spec = read_dominated(
        n=n, algorithm=algorithm, reads_per_reader=reads_per_reader, num_writes=num_writes, seed=7
    )
    result = run_workload(spec)
    verdict = result.verify()  # the same verdict every keyed run gets
    assert verdict.ok, verdict.failures
    latency = result.metrics["latency"]
    reads = latency["read"]["count"]
    return {
        "algorithm": algorithm,
        "reads": reads,
        "writes": latency["write"]["count"],
        "total messages": result.total_messages(),
        "messages per read (amortised)": round(result.total_messages() / max(1, reads), 1),
        "max control bits": result.store.stats.max_control_bits,
        "mean read latency": round(latency["read"]["mean"], 2),
    }


def main() -> None:
    n = 7
    reads_per_reader = 40
    num_writes = 4
    print(
        f"read-dominated store: n={n}, {num_writes} configuration updates, "
        f"{reads_per_reader} polls per subscriber ({(n - 1) * reads_per_reader} reads total)\n"
    )
    rows = [run(algorithm, n, reads_per_reader, num_writes) for algorithm in ("two-bit", "abd")]
    headers = list(rows[0].keys())
    print(format_table(headers, [[row[key] for key in headers] for row in rows]))
    print(
        "\nBoth algorithms are atomic; the two-bit register answers each poll with "
        "2(n-1) tiny messages (2 control bits each) where ABD needs 4(n-1) messages "
        "carrying ever-growing sequence numbers."
    )

    # The trade-off the paper is explicit about: writes cost O(n^2) messages.
    print("\nwrite-side trade-off (isolated operations, messages per write):")
    for algorithm in ("two-bit", "abd"):
        result = run_workload(
            WorkloadSpec(
                n=n,
                algorithm=algorithm,
                num_writes=3,
                reads_per_reader=0,
                isolated_operations=True,
                seed=1,
            )
        )
        costs = messages_per_operation(result, OperationKind.WRITE)
        mean = sum(costs) / len(costs)
        print(f"  {algorithm:<8} {mean:.0f} messages per write")


if __name__ == "__main__":
    main()
