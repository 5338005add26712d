"""Measuring per-process local-memory growth (Table 1, line 4).

The two-bit algorithm trades bounded messages for unbounded local memory:
every process stores the full history of written values plus two arrays of n
sequence numbers.  ABD (unbounded variant) keeps O(1) words per process (one
value, one sequence number, transient quorum sets), but its sequence numbers
— and therefore its *words* — grow in bit-width.  This module measures the
word counts reported by each process after a write stream of configurable
length, which is how the local-memory row of Table 1 is regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.delays import FixedDelay
from repro.workloads.runner import run_workload
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec


@dataclass(frozen=True)
class MemoryMeasurement:
    """Local-memory footprint of a run."""

    algorithm: str
    n: int
    writes: int
    per_process_words: dict[int, int]

    @property
    def max_words(self) -> int:
        """Largest per-process footprint."""
        return max(self.per_process_words.values())

    @property
    def writer_words(self) -> int:
        """Footprint of process 0 (the writer in these measurement runs)."""
        return self.per_process_words[0]


def measure_local_memory(
    algorithm: str,
    n: int = 5,
    writes: int = 50,
    seed: int = 0,
) -> MemoryMeasurement:
    """Run ``writes`` writes (plus a couple of reads) and report local memory."""
    spec = WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=writes,
        reads_per_reader=2,
        delay_model=FixedDelay(1.0),
        seed=seed,
    )
    result = run_workload(spec)
    return MemoryMeasurement(
        algorithm=algorithm,
        n=n,
        writes=writes,
        per_process_words={
            process.pid: process.local_memory_words()
            for process in result.store.register_for(REGISTER_KEY).processes
        },
    )


def memory_growth(
    algorithm: str,
    n: int = 5,
    write_counts: tuple[int, ...] = (10, 50, 200),
    seed: int = 0,
) -> list[MemoryMeasurement]:
    """Measure local memory for increasing write counts (growth curve).

    For the two-bit algorithm the curve grows linearly with the number of
    writes (unbounded local memory); for ABD it stays flat.
    """
    return [measure_local_memory(algorithm, n=n, writes=writes, seed=seed) for writes in write_counts]
