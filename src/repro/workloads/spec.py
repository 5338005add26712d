"""Declarative register workload specification.

A :class:`WorkloadSpec` captures everything needed to reproduce a register
run: the system size, the roles (writer, readers), timing, the delay model
parameters, the crash points and the master seed.  Given the same spec the
runner produces the same history, event for event.

A register is the one-key case of the sharded store (linearizability is
local): :meth:`WorkloadSpec.store_config` is the one-shard store the runner
deploys, :data:`REGISTER_KEY` its only key, process 0 its writer replica,
and :meth:`WorkloadSpec.script` the keyed script the runner drives on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.clients import After
from repro.exec.target import OpRequest, interned_request
from repro.faults.plan import CrashPoint, FaultPlan, validate_crash_points
from repro.registers.base import OperationKind
from repro.sim.delays import DelayModel, FixedDelay
from repro.sim.rng import make_rng
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
    crash_points:
        Process crashes: :class:`~repro.faults.CrashPoint` s on shard 0 whose
        ``replica`` is the pid (the writer, pid 0, needs ``allow_writer``),
        at most ``(n - 1) // 2`` of them.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` — link-level adversarial
        conditions (partitions that heal, delay storms), installed before
        the run starts.
    isolated_operations:
        When true the runner serialises *all* operations globally (one at a
        time, quiescing in between, think times and start delays unused) so
        per-operation message counts and latencies are exactly attributable
        — this is how the Table-1 numbers are measured.
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
    crash_points: Tuple[CrashPoint, ...] = ()
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
        validate_crash_points(self.crash_points, 1, self.n)

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

    def script(self) -> List[Tuple[After, OpRequest, Any]]:
        """The run's ``(at, request, value)`` script on :data:`REGISTER_KEY`.

        Every entry is pinned to the process that issues it and chained
        (:class:`~repro.exec.clients.After`): a process's first operation
        starts at its start delay, each later one its think time after the
        previous one finished.  Written values ``"v1"``, ``"v2"``, ... are
        pairwise distinct and differ from the initial value, so the fast
        atomicity checker maps every read to its write.  Writes go to process
        0 (round-robin over every process when ``multi_writer``); a read's
        think time carries a seeded jitter of up to 10%, so readers do not
        stay in lock-step (which hides interleaving bugs).

        Each process's entries are listed together, the processes in the
        order they first take an operation (their chains' start order).  An
        isolated run interleaves them instead: program order kept, the
        processes round-robined in a seeded shuffle, so writes and reads mix.
        """
        rng = make_rng(self.seed, "workload-scripts", self.n, self.num_writes, self.reads_per_reader)
        # pid -> [start delay, (kind, value, think time), ...]
        plans: Dict[int, list] = {}
        for index in range(1, self.num_writes + 1):
            pid = (index - 1) % self.n if self.multi_writer else 0
            plans.setdefault(pid, [self.writer_start_delay]).append(
                (OperationKind.WRITE, f"v{index}", self.write_think_time)
            )
        for pid in self.reader_pids() if self.reads_per_reader else ():
            plan = plans.setdefault(pid, [self.reader_start_delay])
            if plan[0] == 0.0:  # a writer that reads starts at the readers' delay
                plan[0] = self.reader_start_delay
            for _ in range(self.reads_per_reader):
                jitter = self.read_think_time * 0.1 * rng.random() if self.read_think_time else 0.0
                plan.append((OperationKind.READ, None, self.read_think_time + jitter))
        chains = [
            deque(
                (After(think if position else plan[0]), interned_request(kind, REGISTER_KEY, pid), value)
                for position, (kind, value, think) in enumerate(plan[1:])
            )
            for pid, plan in plans.items()
        ]
        if not self.isolated_operations:
            return [entry for chain in chains for entry in chain]
        rng = make_rng(self.seed, "isolated-interleave", len(chains))
        sequence = []
        while True:
            ready = [chain for chain in chains if chain]
            if not ready:
                return sequence
            rng.shuffle(ready)
            sequence.extend(chain.popleft() for chain in ready)

    def with_(self, **changes: object) -> "WorkloadSpec":
        """Return a copy with the given fields replaced (sugar over dataclasses.replace)."""
        return replace(self, **changes)
