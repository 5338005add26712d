"""High-level public API.

Five entry points cover the common uses:

* :func:`create_register` — "give me a simulated ``n``-process register I can
  read and write from Python" (returns a :class:`RegisterCluster`);
* :func:`create_store` (re-exported from :mod:`repro.store`) — a sharded
  multi-key store composing one register per key behind a ``get``/``put``
  facade, with batched submission (returns a :class:`KVStore`);
* :func:`run_workload` (re-exported from :mod:`repro.workloads.runner`) —
  execute a declarative workload and get back a history plus metrics;
* :func:`run_exploration` (re-exported from :mod:`repro.explore`) —
  schedule exploration: seeded schedule search + per-key linearizability
  checking + shrinking violations to replayable counterexample artifacts;
* :func:`build_table1` (re-exported from :mod:`repro.analysis.table1`) —
  regenerate the paper's evaluation table.

Keyed store *workloads* have one entry point of their own,
:func:`repro.workloads.kv.run_kv_workload` — ``spec → result`` on every
backend (serial simulation, ``workers=N`` shard-parallel — also re-exported
here as :func:`run_kv_workload_parallel` —, ``transport="live"`` sockets),
always a :class:`~repro.workloads.kv.KVWorkloadResult` whose ``verify()``
returns the run's one verdict and whose ``summary()`` is what the CLI and
the ``BENCH_*.json`` files render (DESIGN.md §6c, "The run pipeline").

Everything these wrap is public too; see DESIGN.md for the package map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.analysis.table1 import Table1, build_table1
from repro.core.invariants import GlobalInvariantMonitor, attach_monitor
from repro.core.process import TwoBitRegisterProcess
from repro.explore import ExploreConfig, replay_artifact, run_exploration
from repro.parallel import check_histories_parallel, run_kv_workload_parallel
from repro.registers.base import RegisterHandle, RegisterProcess
from repro.registers.registry import available_algorithms, get_algorithm
from repro.sim.delays import DelayModel
from repro.sim.failures import CrashSchedule, FailureInjector
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.sim.tracing import Tracer
from repro.store.store import KVStore, StoreConfig, create_store
from repro.workloads.runner import WorkloadResult, run_workload
from repro.workloads.scenarios import available_scenarios, get_scenario
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ExploreConfig",
    "KVStore",
    "RegisterCluster",
    "StoreConfig",
    "Table1",
    "WorkloadResult",
    "WorkloadSpec",
    "available_algorithms",
    "available_scenarios",
    "build_table1",
    "check_histories_parallel",
    "create_register",
    "create_store",
    "get_scenario",
    "replay_artifact",
    "run_exploration",
    "run_kv_workload_parallel",
    "run_workload",
]


@dataclass
class RegisterCluster:
    """A simulated register deployment plus handles to interact with it.

    Obtain one from :func:`create_register`.  The ``writer`` handle accepts
    ``write(value)``; every handle (including the writer's) accepts
    ``read()``.  Both drive the underlying discrete-event simulation until
    the operation completes, so they can be used like ordinary blocking
    calls from examples and notebooks.
    """

    algorithm: str
    simulator: Simulator
    network: Network
    processes: Sequence[RegisterProcess]
    handles: Sequence[RegisterHandle]
    writer_pid: int
    monitor: Optional[GlobalInvariantMonitor] = None

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self.processes)

    @property
    def writer(self) -> RegisterHandle:
        """Handle of the (single) writer."""
        return self.handles[self.writer_pid]

    def reader(self, pid: int) -> RegisterHandle:
        """Handle of process ``pid``."""
        return self.handles[pid]

    def readers(self) -> list[RegisterHandle]:
        """Handles of all non-writer processes."""
        return [handle for handle in self.handles if handle.pid != self.writer_pid]

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` immediately (counts towards the ``t < n/2`` budget)."""
        already_crashed = sum(1 for p in self.processes if p.crashed)
        if not self.processes[pid].crashed and already_crashed + 1 > (self.n - 1) // 2:
            raise ValueError(
                f"crashing p{pid} would exceed the tolerated minority "
                f"t = {(self.n - 1) // 2} of n = {self.n}"
            )
        self.processes[pid].crash()

    def settle(self) -> None:
        """Run the simulation until no more events are pending (quiescence)."""
        self.simulator.drain()

    def messages_sent(self) -> int:
        """Total messages sent so far."""
        return self.network.stats.messages_sent


def create_register(
    n: int = 5,
    algorithm: str = "two-bit",
    writer_pid: int = 0,
    initial_value: Any = None,
    delay_model: Optional[DelayModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    check_invariants: bool = False,
    trace: bool = False,
) -> RegisterCluster:
    """Create a simulated ``n``-process register running ``algorithm``.

    Parameters mirror :func:`repro.core.register.build_two_bit_cluster` but
    work for every algorithm in the registry (``available_algorithms()``).
    """
    simulator = Simulator(tracer=Tracer(enabled=trace))
    network = Network(simulator, delay_model=delay_model)
    factory = get_algorithm(algorithm)
    processes = factory.build(
        simulator, network, n, writer_pid=writer_pid, initial_value=initial_value
    )
    monitor = None
    if check_invariants and all(isinstance(p, TwoBitRegisterProcess) for p in processes):
        monitor = attach_monitor(
            simulator,
            [p for p in processes if isinstance(p, TwoBitRegisterProcess)],
            writer_pid=writer_pid,
        )
    if crash_schedule is not None:
        crash_schedule.validate(n)
        FailureInjector(simulator, network, crash_schedule).install()
    handles = [RegisterHandle(process, simulator) for process in processes]
    return RegisterCluster(
        algorithm=algorithm,
        simulator=simulator,
        network=network,
        processes=processes,
        handles=handles,
        writer_pid=writer_pid,
        monitor=monitor,
    )
