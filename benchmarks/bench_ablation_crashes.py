"""Ablation A2 — crash resilience up to t = (n-1)//2.

The model requirement t < n/2 is necessary and sufficient; this ablation
exercises the sufficient side experimentally: for increasing numbers of
crashes (0 .. (n-1)//2), operations issued by correct processes still
terminate, histories stay atomic, and the message bill degrades gracefully
(crashed processes stop contributing forwards/acknowledgements, so the system
actually sends *fewer* messages).
"""

from __future__ import annotations

import pytest

from repro.sim.delays import UniformDelay
from repro.sim.failures import CrashSchedule
from repro.workloads import WorkloadSpec, run_workload

from benchmarks.conftest import report

N = 7


def _run(algorithm: str, crashes: int):
    schedule = CrashSchedule.at_times({N - 1 - i: 5.0 + 3.0 * i for i in range(crashes)})
    spec = WorkloadSpec(
        n=N,
        algorithm=algorithm,
        num_writes=10,
        reads_per_reader=8,
        readers=[1, 2, 3],
        delay_model=UniformDelay(0.2, 1.5, seed=13),
        crash_schedule=schedule,
        seed=13,
        max_virtual_time=5_000.0,
    )
    return run_workload(spec)


@pytest.mark.parametrize("algorithm", ["two-bit", "abd"])
def test_crash_sweep(benchmark, algorithm):
    max_crashes = (N - 1) // 2
    rows = []
    for crashes in range(max_crashes + 1):
        result = _run(algorithm, crashes)
        report_obj = result.check_atomicity()
        assert report_obj.ok
        # Every operation issued by a process that never crashed completed.
        crashed = set(range(N - crashes, N))
        for record in result.store.driver.records:
            if record.pid not in crashed:
                assert record.completed, (
                    f"{algorithm}: operation by correct p{record.pid} did not terminate "
                    f"with {crashes} crashes"
                )
        rows.append(
            [
                crashes,
                result.completed,
                result.total_messages(),
                "yes" if report_obj.ok else "NO",
            ]
        )
    # Graceful degradation: with the full minority crashed we send fewer
    # messages than in the failure-free run.
    assert rows[-1][2] < rows[0][2]
    report(
        f"Ablation A2 — crash sweep ({algorithm}, n={N}, t up to {max_crashes})",
        ["crashes", "ops completed", "total msgs", "atomic"],
        rows,
    )
    benchmark(lambda: _run(algorithm, max_crashes))


def test_writer_crash_read_liveness(benchmark):
    """Even if the writer dies, reads by correct processes keep terminating."""
    def run():
        spec = WorkloadSpec(
            n=5,
            algorithm="two-bit",
            num_writes=6,
            reads_per_reader=6,
            read_think_time=1.0,
            delay_model=UniformDelay(0.2, 1.5, seed=17),
            crash_schedule=CrashSchedule.after_messages({0: 10}),
            seed=17,
            max_virtual_time=5_000.0,
        )
        return run_workload(spec)

    result = run()
    assert result.check_atomicity().ok
    for record in result.store.driver.records:
        if record.pid != 0:
            assert record.completed
    reads_completed = len([op for op in result.completed_ops() if op.record.pid != 0])
    report(
        "Ablation A2 — writer crashes mid-broadcast",
        ["reader ops completed", "atomic"],
        [[reads_completed, "yes"]],
    )
    benchmark(run)
