"""Run a register workload: the keyed pipeline with one key.

>>> from repro.workloads import WorkloadSpec, run_workload
>>> result = run_workload(WorkloadSpec(n=5, algorithm="two-bit", num_writes=5))
>>> result.verify().ok                # clean finish, atomic, lemmas intact
True
>>> result.latencies(OperationKind.WRITE)     # in delta units
[2.0, 2.0, 2.0, 2.0, 2.0]

A register is the one-key case of the sharded store: :func:`deploy_register`
deploys :meth:`WorkloadSpec.store_config` (one shard, ``replication = n``) and
hands back the :class:`RegisterCluster` of
:data:`~repro.workloads.spec.REGISTER_KEY` — what
:func:`repro.create_register` returns to drive by hand.  :func:`run_workload`
drives :meth:`WorkloadSpec.script` on it through the one drive loop,
:func:`~repro.workloads.kv.drive_script`, and returns the
:class:`~repro.workloads.kv.KVWorkloadResult` every keyed run returns.

* **concurrent (default)** — the script's chains run at once, each process
  issuing its next operation as soon as its previous one completes (plus
  think time), so writers and readers overlap freely: the mode for
  correctness testing under contention.
* **isolated** (``spec.isolated_operations``) — windows of one entry, the
  system drained to quiescence after each, so latency and message counts
  are exactly attributable (``result.isolated_costs``): how the Table-1 rows
  are measured.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.invariants import GlobalInvariantMonitor, attach_monitor
from repro.core.process import TwoBitRegisterProcess
from repro.exec.target import OpRequest
from repro.registers.base import RegisterHandle
from repro.registers.registry import get_algorithm
from repro.store.store import KVStore
from repro.workloads.kv import IsolatedOpCost, KVWorkloadResult, deploy_store, drive_script
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec


class RegisterCluster:
    """A register deployment — a one-key store — plus handles to drive it.

    ``writer`` (process 0, as in every store) accepts ``write(value)``;
    every handle, the writer's included, accepts ``read()``.  Both run the
    store's simulator until the operation completes, so they read like
    blocking calls in examples and notebooks.  ``network`` is the register's
    subnet (its bill is the store's), ``monitor`` the invariant monitor if
    one was attached.
    """

    def __init__(self, store: KVStore, monitor: Optional[GlobalInvariantMonitor] = None) -> None:
        register = store.register_for(REGISTER_KEY)
        self.store = store
        self.monitor = monitor
        self.algorithm = store.config.algorithm
        self.simulator = store.simulator
        self.network = register.subnet
        self.processes = register.processes
        self.handles = [RegisterHandle(process, self.simulator) for process in self.processes]

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self.processes)

    @property
    def writer(self) -> RegisterHandle:
        """Handle of the (single) writer, process 0."""
        return self.handles[0]

    def reader(self, pid: int) -> RegisterHandle:
        """Handle of process ``pid`` (any process can read)."""
        return self.handles[pid]

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` now: the store's server crash, within ``t < n/2``.

        A process crashed directly (``processes[i].crash()``) is down too, so
        it is counted into the shard's crashed replicas first.
        """
        self.store.shards[0].crashed_replicas.update(
            index for index, process in enumerate(self.processes) if process.crashed
        )
        self.store.crash_server(0, pid, allow_writer=True)

    def settle(self) -> None:
        """Run the simulation until no more events are pending (quiescence)."""
        self.store.settle()


def deploy_register(spec: WorkloadSpec) -> RegisterCluster:
    """Deploy ``spec``'s register: its one-shard store, crash points, fault plan and monitor."""
    store = deploy_store(spec.store_config(), spec.fault_plan, spec.crash_points)
    register = store.register_for(REGISTER_KEY)
    # A lone register draws from the store's root delay stream (per-key
    # scoping exists to decouple *several* keys), so a seeded delay model
    # gives the execution it always gave.
    register.subnet.delay_model = store.network.delay_model
    processes = register.processes
    monitor = None
    if spec.check_invariants and all(isinstance(p, TwoBitRegisterProcess) for p in processes):
        monitor = attach_monitor(store.simulator, processes, writer_pid=0)
    return RegisterCluster(store, monitor)


def run_workload(spec: WorkloadSpec) -> KVWorkloadResult:
    """Execute ``spec`` and return the collected :class:`KVWorkloadResult`."""
    if spec.multi_writer and not get_algorithm(spec.algorithm).supports_multi_writer:
        raise ValueError(f"algorithm {spec.algorithm!r} does not support multiple writers")
    cluster = deploy_register(spec)
    store = cluster.store
    simulator, stats = store.simulator, store.stats
    started = time.perf_counter()
    costs: List[IsolatedOpCost] = []
    if spec.isolated_operations:
        # Windows of one entry, each drained to quiescence after its drive;
        # both are bounded by max_virtual_time, so a protocol bug that storms
        # messages fails fast instead of hanging.  A drain that leaves events
        # pending ends the run: no later entry is kept.
        sent_before: List[int] = []  # the kept entry's, until it is measured
        stalled = False

        def keep(_position: int, request: OpRequest) -> bool:
            if stalled or cluster.processes[request.replica].crashed:
                return False
            sent_before.append(stats.messages_sent)
            return True

        def measure(_drove: bool) -> None:
            nonlocal stalled
            if not sent_before:  # the window's entry was refused
                return
            before, op = sent_before.pop(), store.ops[-1]
            if not op.completed:
                return
            at_completion = stats.messages_sent
            simulator.run(until=simulator.now + spec.max_virtual_time)
            stalled = simulator.pending_events > 0
            if not stalled:
                costs.append(
                    IsolatedOpCost(
                        op.kind, op.pid, op.latency, stats.messages_sent - before, at_completion - before
                    )
                )

        ops, _drives, _finished = drive_script(
            store, spec.script(), False, 1, keep=keep, after_drive=measure
        )
        clean = len(costs) == len(ops)
    else:
        ops, _drives, clean = drive_script(store, spec.script(), True, 1)
        # Drain the tail: forwarded WRITE messages, PROCEEDs in flight, etc.
        # The limit is the heal-aware horizon when a fault plan is installed.
        simulator.run(until=store.driver.fault_horizon or spec.max_virtual_time)
    return KVWorkloadResult.from_store(
        spec,
        store,
        ops,
        time.perf_counter() - started,
        finished_cleanly=clean,
        monitor=cluster.monitor,
        isolated_costs=costs,
    )
