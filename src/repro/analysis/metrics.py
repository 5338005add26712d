"""Statistics helpers shared by the benchmarks and the Table-1 harness."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable

from repro.exec.metrics import nearest_rank
from repro.registers.base import OperationKind
from repro.workloads.kv import KVWorkloadResult


@dataclass(frozen=True)
class Summary:
    """Basic summary statistics of a sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    stdev: float

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"n={self.count} mean={self.mean:.3f} min={self.minimum:.3f} "
            f"p50={self.p50:.3f} p95={self.p95:.3f} max={self.maximum:.3f}"
        )


def summarize(values: Iterable[float]) -> Summary:
    """Summarise a sample (raises on an empty sample)."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarise an empty sample")
    return Summary(
        count=len(data),
        mean=statistics.fmean(data),
        minimum=min(data),
        maximum=max(data),
        p50=nearest_rank(data, 0.5),
        p95=nearest_rank(data, 0.95),
        stdev=statistics.pstdev(data) if len(data) > 1 else 0.0,
    )


def messages_per_operation(result: KVWorkloadResult, kind: OperationKind) -> list[int]:
    """Per-operation message counts from an isolated-mode register run."""
    if not result.spec.isolated_operations:
        raise ValueError(
            "per-operation message attribution requires an isolated-operations run "
            "(set WorkloadSpec.isolated_operations=True)"
        )
    return [cost.messages for cost in result.isolated_costs if cost.kind is kind]


def latencies_in_delta(result: KVWorkloadResult, kind: OperationKind, delta: float) -> list[float]:
    """Per-operation service latencies expressed in delta units."""
    return [value / delta for value in result.latencies(kind)]
