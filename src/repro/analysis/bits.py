"""Measuring on-wire control-information size (Table 1, line 3).

The paper's headline claim is that its messages carry exactly two bits of
control information, whereas ABD-style algorithms carry sequence numbers that
grow without bound as more values are written.  To *measure* this rather than
assert it, every message class in the repository reports ``control_bits()``
(the type tag plus any sequence numbers / timestamps it carries) and
``data_bits()`` (the written value payload, which is excluded: any algorithm
must ship the data).  The network accounting layer records the maximum and
the total; this module runs a configurable write stream against an algorithm
and reports how the maximum control size evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.delays import FixedDelay
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class ControlBitsMeasurement:
    """Result of a control-bit measurement run."""

    algorithm: str
    n: int
    writes: int
    max_control_bits: int
    total_control_bits: int
    total_messages: int

    @property
    def mean_control_bits(self) -> float:
        """Average control bits per message over the run."""
        if self.total_messages == 0:
            return 0.0
        return self.total_control_bits / self.total_messages


def measure_control_bits(
    algorithm: str,
    n: int = 5,
    writes: int = 50,
    reads_per_reader: int = 5,
    seed: int = 0,
) -> ControlBitsMeasurement:
    """Run a write-heavy stream and report the control-bit statistics.

    The longer the write stream, the larger ABD's sequence numbers grow,
    while the two-bit algorithm stays at exactly 2 — which is precisely the
    comparison Table 1 line 3 makes.
    """
    spec = WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=writes,
        reads_per_reader=reads_per_reader,
        delay_model=FixedDelay(1.0),
        seed=seed,
    )
    result = run_workload(spec)
    stats = result.store.stats
    return ControlBitsMeasurement(
        algorithm=algorithm,
        n=n,
        writes=writes,
        max_control_bits=stats.max_control_bits,
        total_control_bits=stats.control_bits_total,
        total_messages=stats.messages_sent,
    )


def control_bits_growth(
    algorithm: str,
    n: int = 5,
    write_counts: tuple[int, ...] = (10, 50, 200),
    seed: int = 0,
) -> list[ControlBitsMeasurement]:
    """Measure max control bits for increasing write counts (growth curve)."""
    return [
        measure_control_bits(algorithm, n=n, writes=writes, reads_per_reader=2, seed=seed)
        for writes in write_counts
    ]
