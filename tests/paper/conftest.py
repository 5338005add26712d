"""Shared helpers for the paper's claims: the swept system sizes and one isolated run."""

from repro.sim.delays import FixedDelay
from repro.workloads import WorkloadSpec, run_workload

#: System sizes every per-n claim is checked at.
SYSTEM_SIZES = (3, 5, 7, 9)


def isolated_run(algorithm: str, n: int, writes: int, reads: int = 1):
    """Operations one at a time, drained in between, every delay Δ = 1.

    Each message is then billed to exactly one operation
    (``result.isolated_costs``) and each latency is in units of Δ.
    """
    return run_workload(
        WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=writes,
            reads_per_reader=reads,
            delay_model=FixedDelay(1.0),
            isolated_operations=True,
            seed=0,
        )
    )
