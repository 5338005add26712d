"""Ablation A3 — sensitivity to asynchrony (delay distribution and stragglers).

The paper's time bounds hold for the synchronous-looking best case (all
delays equal to delta).  This ablation measures how operation latency behaves
when delays are jittered, heavy-tailed, or when one process is behind a slow
link — the regimes where quorum-based algorithms shine because they only ever
wait for the fastest n - t responders.

Expected shape: latencies track the *quorum-th fastest* round trip, not the
slowest link, so a single straggler must not drag write latency towards the
straggler's delay.
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis.metrics import summarize
from repro.registers.base import OperationKind
from repro.sim.delays import ExponentialDelay, FixedDelay, JitteredDelay, PerLinkDelay, UniformDelay
from repro.workloads import WorkloadSpec, run_workload

from benchmarks.conftest import report

DELAY_MODELS = {
    "fixed(1.0)": lambda: FixedDelay(1.0),
    "jitter(1.0, 20%)": lambda: JitteredDelay(1.0, 0.2, seed=5),
    "uniform(0.2, 2.0)": lambda: UniformDelay(0.2, 2.0, seed=5),
    "heavy-tail(exp, cap 8)": lambda: ExponentialDelay(base=0.2, mean=0.8, cap=8.0, seed=5),
}


def _run(algorithm: str, delay_factory, n: int = 5):
    spec = WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=12,
        reads_per_reader=10,
        delay_model=delay_factory(),
        seed=5,
    )
    result = run_workload(spec)
    result.check_atomicity()
    return result


@pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
def test_latency_under_delay_distributions(benchmark, algorithm):
    rows = []
    for name, factory in DELAY_MODELS.items():
        result = _run(algorithm, factory)
        writes = summarize(result.latencies(OperationKind.WRITE))
        reads = summarize(result.latencies(OperationKind.READ))
        bound = factory().max_delay()
        assert writes.maximum <= 2 * bound + 1e-9
        rows.append([name, round(writes.mean, 2), round(writes.maximum, 2), round(reads.mean, 2), round(reads.maximum, 2)])
    report(
        f"Ablation A3 — latency vs delay distribution ({algorithm}, n=5)",
        ["delay model", "write mean", "write max", "read mean", "read max"],
        rows,
    )
    benchmark(lambda: _run(algorithm, DELAY_MODELS["uniform(0.2, 2.0)"]))


@pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
def test_single_straggler_does_not_dominate(benchmark, algorithm):
    """With one straggler process, quorum waits skip it: write latency stays
    near the fast-link delay, far below the straggler's delay."""
    fast, slow = 1.0, 30.0
    n = 5

    def straggler_model():
        overrides = {}
        for other in range(n):
            if other != n - 1:
                overrides[(other, n - 1)] = FixedDelay(slow)
                overrides[(n - 1, other)] = FixedDelay(slow)
        return PerLinkDelay(default=FixedDelay(fast), overrides=overrides)

    result = _run(algorithm, straggler_model, n=n)
    write_latencies = result.latencies(OperationKind.WRITE)
    median_write = statistics.median(write_latencies)
    assert median_write <= 4 * fast + 1e-9, (
        f"{algorithm}: median write latency {median_write} is dominated by the straggler"
    )
    report(
        f"Ablation A3 — one straggler on {slow}x slower links ({algorithm})",
        ["fast delta", "straggler delta", "median write latency", "max write latency"],
        [[fast, slow, median_write, max(write_latencies)]],
    )
    benchmark(lambda: _run(algorithm, straggler_model, n=n))
