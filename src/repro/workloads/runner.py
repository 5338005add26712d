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
:func:`repro.create_register` returns to drive by hand.  The runner drives
its processes through :mod:`repro.exec`; what comes back is the
:class:`~repro.workloads.kv.KVWorkloadResult` every keyed run returns.

* **concurrent (default)** — every scripted process runs a
  :class:`~repro.exec.clients.ClosedLoopClient` (next operation as soon as
  the previous one completes, plus think time), so writers and readers
  overlap freely: the mode for correctness testing under contention.
* **isolated** (``spec.isolated_operations``) — an
  :class:`~repro.exec.clients.IsolatedClient` issues operations one at a
  time, globally, draining to quiescence after each, so latency and message
  counts are exactly attributable (``result.isolated_costs``): how the
  Table-1 rows are measured.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.invariants import GlobalInvariantMonitor, attach_monitor
from repro.core.process import TwoBitRegisterProcess
from repro.exec.clients import ClosedLoopClient, IsolatedClient
from repro.registers.base import RegisterHandle
from repro.registers.registry import get_algorithm
from repro.store.store import KVStore
from repro.workloads.generator import generate_scripts, interleave_isolated
from repro.workloads.kv import KVWorkloadResult, deploy_store
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

    def readers(self) -> list[RegisterHandle]:
        """Handles of all non-writer processes."""
        return self.handles[1:]

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

    def messages_sent(self) -> int:
        """Total messages sent so far."""
        return self.store.total_messages()


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
    store, processes = cluster.store, cluster.processes

    scripts = generate_scripts(spec)
    isolated_costs = []
    started = time.perf_counter()
    if spec.isolated_operations:
        client = IsolatedClient(
            store.driver, store.network, spec.max_virtual_time, key=REGISTER_KEY
        )
        clean = client.run_sequence(
            [
                (processes[pid], scripted.kind, scripted.value)
                for pid, scripted in interleave_isolated(scripts, spec.seed)
            ]
        )
        isolated_costs = client.costs
    else:
        clients = [
            ClosedLoopClient(
                store.driver,
                processes[pid],
                [(op.kind, op.value, op.think_time) for op in script.operations],
                start_delay=script.start_delay,
                key=REGISTER_KEY,
            )
            for pid, script in scripts.items()
        ]
        for client in clients:
            client.start()
        # A client is done when it has nothing left to issue and its last
        # operation completed (or its process crashed).  The limit is the
        # heal-aware horizon when a fault plan is installed.
        limit = store.driver.fault_horizon or spec.max_virtual_time
        clean = store.simulator.run_until(
            lambda: all(client.done for client in clients), limit=limit
        )
        # Drain the tail: forwarded WRITE messages, PROCEEDs in flight, etc.
        store.simulator.run(until=limit)
    return KVWorkloadResult.from_store(
        spec,
        store,
        store.ops,
        time.perf_counter() - started,
        finished_cleanly=clean,
        monitor=cluster.monitor,
        isolated_costs=isolated_costs,
    )
