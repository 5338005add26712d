"""Declarative workload specification.

A :class:`WorkloadSpec` captures everything needed to reproduce a run: the
system size, the operation mix, timing, the delay model parameters, the crash
schedule and the master seed.  Given the same spec the runner produces the
same history, event for event.

A register is the one-key case of the sharded store (linearizability is
local): :meth:`WorkloadSpec.store_config` is the one-shard store the runner
deploys, :data:`REGISTER_KEY` its only key, process 0 its writer replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.sim.delays import DelayModel, FixedDelay
from repro.sim.failures import CrashSchedule
from repro.store.store import StoreConfig

#: The single key a register workload's store holds.
REGISTER_KEY = "register"


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one workload run.

    Attributes
    ----------
    n:
        Number of processes.
    algorithm:
        Registry name of the register algorithm to run (``"two-bit"``,
        ``"abd"``, ...).
    num_writes:
        Number of write operations issued by the writer, process 0 (MWMR
        algorithms spread them across processes when ``multi_writer``).
    reads_per_reader:
        Number of reads issued by each reader process.
    readers:
        Which processes read; ``None`` means every process except the writer.
    read_think_time / write_think_time:
        Virtual-time pause between an operation completing and the same
        client issuing its next one (0 = back-to-back).
    writer_start_delay / reader_start_delay:
        Virtual time at which the writer / the readers issue their first
        operation (staggering them exercises different interleavings).
    delay_model:
        Message-delay model (defaults to ``FixedDelay(1.0)``).
    crash_schedule:
        Optional crash injection.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` — link-level adversarial
        conditions (partitions that heal, delay storms) plus an optional
        extra crash schedule, installed before the run starts.  The combined
        crash load of ``crash_schedule`` and the plan must stay a minority.
    isolated_operations:
        When true the runner serialises *all* operations globally (one at a
        time, quiescing in between) so per-operation message counts and
        latencies are exactly attributable — this is how the Table-1 numbers
        are measured.
    multi_writer:
        Spread writes over all processes (only valid for MWMR algorithms).
    coalesce:
        Pack same-instant deliveries to one process into a single heap event
        (:class:`~repro.sim.network.Network` coalescing).  Off by default for
        register workloads so the pinned golden histories replay event for
        event; turning it on changes only the intra-instant interleaving.
    check_invariants:
        Attach the two-bit invariant monitor (only meaningful for the
        ``"two-bit"`` algorithm).
    seed:
        Master seed from which all randomness (value payloads, crash
        schedules generated on demand, think-time jitter) is derived.
    initial_value:
        The register's initial value ``v0``.
    max_virtual_time:
        Safety horizon: the runner stops driving the simulation past this
        virtual time even if some operations are still pending (necessary
        when crashes prevent termination of some clients).
    """

    n: int = 5
    algorithm: str = "two-bit"
    num_writes: int = 10
    reads_per_reader: int = 10
    readers: Optional[Sequence[int]] = None
    read_think_time: float = 0.0
    write_think_time: float = 0.0
    writer_start_delay: float = 0.0
    reader_start_delay: float = 0.0
    delay_model: DelayModel = field(default_factory=lambda: FixedDelay(1.0))
    crash_schedule: Optional[CrashSchedule] = None
    fault_plan: Optional[FaultPlan] = None
    isolated_operations: bool = False
    multi_writer: bool = False
    coalesce: bool = False
    check_invariants: bool = False
    seed: int = 0
    initial_value: object = "v0"
    max_virtual_time: float = 100_000.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("workloads need at least 2 processes")
        if self.num_writes < 0 or self.reads_per_reader < 0:
            raise ValueError("operation counts must be non-negative")
        if self.readers is not None:
            for pid in self.readers:
                if not 0 <= pid < self.n:
                    raise ValueError(f"reader pid {pid} out of range for n={self.n}")
        if self.read_think_time < 0 or self.write_think_time < 0:
            raise ValueError("think times must be non-negative")
        if self.fault_plan is not None:
            self.fault_plan.validate(self.n)
            if self.crash_schedule is not None and self.fault_plan.crash_schedule is not None:
                combined = set(self.crash_schedule.crashed_pids) | set(
                    self.fault_plan.crash_schedule.crashed_pids
                )
                max_faulty = (self.n - 1) // 2
                if len(combined) > max_faulty:
                    raise ValueError(
                        f"crash_schedule and fault_plan together crash {len(combined)} of "
                        f"{self.n} processes; the model requires at most t = {max_faulty}"
                    )

    # ------------------------------------------------------------ conveniences

    def reader_pids(self) -> list[int]:
        """The processes that issue reads in this workload."""
        if self.readers is not None:
            return sorted(set(self.readers))
        return list(range(1, self.n))

    def total_operations(self) -> int:
        """Total operations this spec will issue."""
        return self.num_writes + self.reads_per_reader * len(self.reader_pids())

    def store_config(self) -> StoreConfig:
        """The one-shard store this register is the single key of."""
        return StoreConfig(
            algorithm=self.algorithm,
            num_shards=1,
            replication=self.n,
            delay_model=self.delay_model,
            initial_value=self.initial_value,
            max_virtual_time=self.max_virtual_time,
            coalesce=self.coalesce,
        )

    def with_(self, **changes: object) -> "WorkloadSpec":
        """Return a copy with the given fields replaced (sugar over dataclasses.replace)."""
        return replace(self, **changes)
